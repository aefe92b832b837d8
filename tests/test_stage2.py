"""Stage-2 tables: mapping discipline, fault values, split accesses."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim.errors import (
    AlreadyMapped,
    BadFrame,
    InvalidPerms,
    NotMapped,
    OutOfRange,
)
from enclavesim.hypervisor import Vcpu, Vm, VmKind
from enclavesim.machine import (
    OFFSET_MASK,
    PAGE_SHIFT,
    PAGE_SIZE,
    MachineConfig,
    Observer,
    PhysicalMachine,
)
from enclavesim.sim import Simulation
from enclavesim.stage2 import (
    PERM_RO,
    PERM_RW,
    PERM_RWX,
    Access,
    AccessFault,
    FaultKind,
    Perms,
    Stage2Table,
    guest_access,
)


@pytest.fixture
def machine():
    return PhysicalMachine(MachineConfig(frames=16, os_reserved_pages=0))


@pytest.fixture
def table(machine):
    return Stage2Table(0, machine)


@pytest.fixture
def traced():
    """A simulation's machine: its TraceObserver records, and so charges,
    each table op."""
    return Simulation(MachineConfig(frames=16, os_reserved_pages=0)).machine


# the acting vCPU of a table op, which the table only hands on to its hooks
BY = object()


def _vcpu(table, pcpu=0):
    """The one vCPU of an enclave VM on `table`, pinned to `pcpu`."""
    vm = Vm(table.owner_vm, VmKind.ENCLAVE, "enclave%d" % table.owner_vm,
            table)
    vm.vcpus = [Vcpu(vm=vm, index=0, pcpu=pcpu)]
    return vm.vcpus[0]


def test_map_translate_unmap(machine, table):
    table.map(2, 5, PERM_RW, BY)
    assert table.lookup(2) == (5, PERM_RW)
    machine.write_frame(5, 17, b"five", BY, False)
    out, touched = guest_access(machine, table, (2 << 12) + 17, Access.READ,
                                length=4, by=_vcpu(table))
    assert (out, touched) == (b"five", [(2, 5)])
    table.unmap(2, BY)
    assert table.lookup(2) is None


def test_mapping_errors(machine, table):
    table.map(0, 0, PERM_RWX, BY)
    with pytest.raises(AlreadyMapped):
        table.map(0, 1, PERM_RW, BY)
    with pytest.raises(NotMapped):
        table.unmap(9, BY)
    with pytest.raises(NotMapped):
        table.protect(9, PERM_RO, BY)
    with pytest.raises(BadFrame):
        table.map(1, 16, PERM_RW, BY)
    with pytest.raises(BadFrame):
        table.map(1, -1, PERM_RW, BY)
    with pytest.raises(InvalidPerms):
        table.map(1, 1, Perms(), BY)
    with pytest.raises(InvalidPerms):
        table.protect(0, Perms(), BY)


def test_translate_returns_fault_values(traced):
    """A failed translation is a fault value, not an exception: an unmapped
    page, or a mapped one without the bit the access needs.  Each fault is
    counted; a lookup, and so a translation, charges no table op."""
    machine, table = traced, Stage2Table(5, traced)
    vcpu = _vcpu(table)
    table.map(0, 3, PERM_RO, vcpu)
    fault, touched = guest_access(machine, table, 1 << 12, Access.READ,
                                  length=1, by=vcpu)
    assert isinstance(fault, AccessFault) and touched == []
    assert (fault.ipa, fault.kind) == (1 << 12, FaultKind.UNMAPPED)
    for access, data, length in ((Access.WRITE, b"w", 0),
                                 (Access.EXECUTE, None, 1)):
        fault, _ = guest_access(machine, table, 10, access, data=data,
                                length=length, by=vcpu)
        assert (fault.ipa, fault.kind) == (10, FaultKind.PERMISSION_DENIED)
    assert guest_access(machine, table, 10, Access.READ, length=1,
                        by=vcpu) == (bytes(1), [(0, 3)])
    assert table.lookup(1) is None and table.lookup(0) == (3, PERM_RO)
    assert machine.ledger.pt_ops == 1
    assert machine.fault_count == 3


def test_each_table_op_costs_one(machine, table, traced):
    """A table op costs one unit once its event is recorded; a bare
    machine records none, so its table ops charge nothing."""
    table.map(0, 1, PERM_RW, BY)
    table.protect(0, PERM_RO, BY)
    table.unmap(0, BY)
    assert machine.ledger.pt_ops == 0 and machine.now() == 0
    table = Stage2Table(5, traced)
    by = _vcpu(table)
    table.map(0, 1, PERM_RW, by)
    table.protect(0, PERM_RO, by)
    table.unmap(0, by)
    assert traced.ledger.pt_ops == 3 and traced.now() == 3
    assert [ev[1] for ev in traced.trace.events[-3:]] == [
        "s2_map", "s2_protect", "s2_unmap"]


def test_protect_returns_old_perms(machine, table):
    table.map(4, 4, PERM_RWX, BY)
    old = table.protect(4, PERM_RW, BY)
    assert old == PERM_RWX
    assert table.lookup(4) == (4, PERM_RW)


def test_guest_access_faults_count_and_notify(machine, table):
    """A fault is counted and traced on the accessing vCPU's pCPU, in its
    name."""
    out, touched = guest_access(machine, table, 5 << 12, Access.READ,
                                length=4, by=_vcpu(table, pcpu=3))
    assert isinstance(out, AccessFault)
    assert touched == []
    assert machine.fault_count == 1
    [(step, kind, pcpu, vcpu, _)] = machine.trace.events
    assert (kind, pcpu, vcpu, machine.trace.details[step]) == (
        "fault", 3, "enclave0.v0",
        {"vm": 0, "ipa": 5 << 12, "fault": "unmapped"})


def test_guest_write_is_per_page_atomic(machine, table):
    """A write that crosses into an unmapped page faults there, but the
    earlier pages keep the bytes that already landed."""
    table.map(0, 7, PERM_RW, BY)
    data = bytes(range(1, 9))
    out, touched = guest_access(machine, table, PAGE_SIZE - 4, Access.WRITE,
                                data=data, by=_vcpu(table))
    assert isinstance(out, AccessFault)
    assert out.ipa == PAGE_SIZE
    assert touched == [(0, 7)]
    assert machine.read_frame(7, PAGE_SIZE - 4, 4) == data[:4]
    assert machine.fault_count == 1


def test_perms_tag():
    assert PERM_RWX.tag() == "rwx"
    assert PERM_RW.tag() == "rw-"
    assert PERM_RO.tag() == "r--"
    tags = {Perms(r, w, x): ("r" if r else "-") + ("w" if w else "-")
            + ("x" if x else "-")
            for r in (False, True) for w in (False, True)
            for x in (False, True)}
    assert {perms: perms.tag() for perms in tags} == tags
    # one string per permission set, however many equal sets ask for it
    assert Perms(True, True, False).tag() is PERM_RW.tag()


def test_snapshot_is_a_copy(machine, table):
    table.map(1, 1, PERM_RW, BY)
    snap = table.snapshot()
    table.unmap(1, BY)
    assert snap == {1: (1, PERM_RW)}
    assert table.snapshot() == {}


def test_identity_table_stores_only_its_exceptions(traced):
    machine, table = traced, Stage2Table(5, traced, identity=True)
    by = _vcpu(table)
    assert table.snapshot() == {} and len(table) == 16
    assert table.lookup(0) == (0, PERM_RWX)
    assert table.lookup(15) == (15, PERM_RWX)
    assert table.lookup(16) is None
    assert table.lookup(-1) is None
    assert guest_access(machine, table, (3 << PAGE_SHIFT) + 9, Access.WRITE,
                        data=b"id", by=by) == (b"", [(3, 3)])
    assert machine.read_frame(3, 9, 2) == b"id"
    with pytest.raises(AlreadyMapped):
        table.map(3, 3, PERM_RWX, by)
    assert table.unmap(3, by) == 3
    assert table.protect(5, PERM_RW, by) == PERM_RWX
    assert table.protect(6, PERM_RO, by) == PERM_RWX
    assert table.unmap(7, by) == 7
    table.map(7, 9, PERM_RW, by)
    table.map(20, 7, PERM_RO, by)
    assert table.snapshot() == {3: None, 5: (5, PERM_RW), 6: (6, PERM_RO),
                                7: (9, PERM_RW), 20: (7, PERM_RO)}
    assert len(table) == 16
    # each kind of exception replaces the default: unmapped, read-only,
    # remapped, and mapped past the identity range
    assert table.lookup(3) is None
    assert table.lookup(6) == (6, PERM_RO)
    assert table.lookup(7) == (9, PERM_RW)
    assert table.lookup(20) == (7, PERM_RO)
    assert table.lookup(4) == (4, PERM_RWX)
    assert table.lookup(-1) is None
    with pytest.raises(NotMapped):
        table.unmap(3, by)
    # an entry equal to the default is no exception
    table.map(3, 3, PERM_RWX, by)
    table.protect(5, PERM_RWX, by)
    table.protect(6, PERM_RWX, by)
    table.unmap(7, by)
    table.map(7, 7, PERM_RWX, by)
    table.unmap(20, by)
    assert table.snapshot() == {} and len(table) == 16
    assert machine.ledger.pt_ops == 12


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(min_value=0, max_value=4 * PAGE_SIZE - 1),
    payload=st.binary(min_size=1, max_size=3 * PAGE_SIZE),
)
def test_split_write_matches_flat_buffer(start, payload):
    """Writes through the page-granular path land exactly where a flat
    contiguous buffer says they should, however they straddle pages."""
    machine = PhysicalMachine(MachineConfig(frames=8, os_reserved_pages=0))
    table = Stage2Table(0, machine)
    # a shuffled but contiguous IPA window of 8 pages
    for ipa_page, frame in enumerate([3, 0, 6, 2, 7, 1, 4, 5]):
        table.map(ipa_page, frame, PERM_RW, BY)
    flat = bytearray(8 * PAGE_SIZE)
    end = min(start + len(payload), 8 * PAGE_SIZE)
    chunk = payload[:end - start]
    flat[start:start + len(chunk)] = chunk

    vcpu = _vcpu(table)
    out, touched = guest_access(machine, table, start, Access.WRITE,
                                data=chunk, by=vcpu)
    assert not isinstance(out, AccessFault)
    pages_spanned = (end - 1 >> 12) - (start >> 12) + 1 if chunk else 0
    assert len(touched) == pages_spanned
    back, _ = guest_access(machine, table, 0, Access.READ,
                           length=8 * PAGE_SIZE, by=vcpu)
    assert back == bytes(flat)


def _reference_guest_access(machine, table, ipa, access, data=None,
                            length=0, *, by, channel=False):
    """The page loop `guest_access` replaced: one `lookup` per page and the
    permission bit the access names, as the reference its faster form must
    agree with."""
    if access is Access.WRITE:
        if data is None:
            raise OutOfRange("write access requires data")
        length = len(data)
    elif data is not None:
        raise OutOfRange("data only valid for write access")
    if length < 0:
        raise OutOfRange("negative length %d" % length)

    touched = []
    parts = []
    pos = 0
    while pos < length:
        cur = ipa + pos
        offset = cur & OFFSET_MASK
        chunk = min(length - pos, PAGE_SIZE - offset)
        entry = table.lookup(cur >> PAGE_SHIFT)
        # an Access's value names the Perms bit it needs
        if entry is None or not getattr(entry[1], access.value):
            fault = AccessFault(table.owner_vm, cur, FaultKind.UNMAPPED
                                if entry is None
                                else FaultKind.PERMISSION_DENIED)
            machine.fault_count += 1
            machine.trace.emit("fault", by.pcpu, by.name,
                               {"vm": fault.vm, "ipa": fault.ipa,
                                "fault": fault.kind.value})
            return fault, touched
        frame = entry[0]
        touched.append((cur >> PAGE_SHIFT, frame))
        if access is Access.WRITE:
            machine.write_frame(frame, offset, data[pos:pos + chunk], by,
                                channel)
        else:
            parts.append(machine.read_frame(frame, offset, chunk))
        pos += chunk
    if access is Access.WRITE:
        return b"", touched
    return b"".join(parts), touched


class _CallLog(Observer):
    def __init__(self):
        self.calls = []

    def on_write(self, frame, offset, data, by, channel):
        self.calls.append(("on_write", frame, offset, bytes(data), by.name,
                           channel))


# offsets within a page, weighted towards its edges
_OFFSETS = st.one_of(st.sampled_from([0, 1, PAGE_SIZE - 2, PAGE_SIZE - 1]),
                     st.integers(min_value=0, max_value=PAGE_SIZE - 1))
# how an identity table's page differs from its default, if it does
_DEFAULT, _PROTECT_RO = "default", "protect-ro"


@st.composite
def _accesses(draw):
    """A table over 8 shuffled frames and one access into (or around) it,
    of up to three pages, possibly empty or ending exactly at a page end.

    An enclave table maps 6 pages, each unmapped, r--, rw- or rwx.  An
    identity table (8 identity pages) leaves each of its pages at the
    default, unmaps it, makes it read-only or remaps it, and may map the
    2 pages past its identity range.  The access starts anywhere from page
    -1 to one page past the mapped ones; write data is bytes, a bytearray
    or a memoryview, and the access may be tagged a channel step."""
    identity = draw(st.booleans())
    kinds = [None, PERM_RO, PERM_RW, PERM_RWX]
    if identity:
        perms = draw(st.lists(st.sampled_from([_DEFAULT, _PROTECT_RO] + kinds),
                              min_size=8, max_size=8)) \
            + draw(st.lists(st.sampled_from(kinds), min_size=2, max_size=2))
    else:
        perms = draw(st.lists(st.sampled_from(kinds), min_size=6, max_size=6))
    frames = draw(st.permutations(range(8)))
    access = draw(st.sampled_from(list(Access)))
    ipa = draw(st.integers(min_value=-1, max_value=len(perms))) * PAGE_SIZE \
        + draw(_OFFSETS)
    end = (ipa >> PAGE_SHIFT) * PAGE_SIZE \
        + draw(st.integers(min_value=0, max_value=2)) * PAGE_SIZE \
        + draw(st.one_of(st.just(PAGE_SIZE), _OFFSETS))
    length = max(0, end - ipa)
    data = None
    if access is Access.WRITE:
        data = draw(st.sampled_from([bytes, bytearray, memoryview]))(
            draw(st.binary(min_size=length, max_size=length)))
    return identity, perms, frames, access, ipa, length, data, \
        draw(st.booleans())


# distinct content per frame and offset, so a read from the wrong place shows
_FILL = [bytes((i * 31 + frame * 17) & 0xFF for i in range(PAGE_SIZE))
         for frame in range(8)]


def _run_access(impl, identity, perms, frames, access, ipa, length, data,
                channel):
    machine = PhysicalMachine(MachineConfig(frames=8, os_reserved_pages=0))
    for frame, fill in enumerate(_FILL):
        machine.write_frame(frame, 0, fill, BY, False)   # before any observer
    table = Stage2Table(3, machine, identity=identity)
    for ipa_page, p in enumerate(perms):
        if p is _DEFAULT:
            continue
        if p is _PROTECT_RO:
            table.protect(ipa_page, PERM_RO, BY)
            continue
        if ipa_page < table.identity_pages:
            table.unmap(ipa_page, BY)
        if p is not None:
            table.map(ipa_page, frames[ipa_page % 8], p, BY)
    log = _CallLog()
    machine.observers.append(log)
    out, touched = impl(machine, table, ipa, access, data=data,
                        length=0 if access is Access.WRITE else length,
                        by=_vcpu(table, pcpu=1), channel=channel)
    return out, touched, machine.fault_count, log.calls, \
        list(zip(machine.trace.events, machine.trace.details)), \
        [machine.read_frame(f, 0, PAGE_SIZE) for f in range(8)]


@settings(max_examples=500, deadline=None)
@given(_accesses())
def test_guest_access_matches_reference_loop(case):
    """Same result, pages touched, fault count, observer calls (with the
    accessor and the channel tag), traced fault events and frame contents
    as the reference loop, for any table and access."""
    got = _run_access(guest_access, *case)
    want = _run_access(_reference_guest_access, *case)
    assert got == want
