"""Channel protocol: header discipline, transitions, payload round trips."""
import itertools
import struct
import sys
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim import channel
from enclavesim.channel import (
    CHANNEL_HEADER,
    CHANNEL_MAGIC,
    HEADER_LEN,
    ChannelStatus,
    ChannelView,
)
from enclavesim.errors import (
    ChannelBusy,
    ChannelError,
    ChannelNoRequest,
    ChannelTooLarge,
)
from enclavesim.guest_os import EnclaveDriver
from enclavesim.hypervisor import Vcpu, Vm, VmKind
from enclavesim.machine import (
    PAGE_SHIFT,
    PAGE_SIZE,
    MachineConfig,
    Observer,
    PhysicalMachine,
)
from enclavesim.sim import Simulation
from enclavesim.stage2 import PERM_RO, PERM_RW, Stage2Table
from enclavesim.ta_runtime import image_for_pages


def _vcpu(vmid, kind, name, table, pcpu=0):
    """The one vCPU of a VM on `table`, pinned to `pcpu`."""
    vm = Vm(vmid, kind, name, table)
    vm.vcpus = [Vcpu(vm=vm, index=0, pcpu=pcpu)]
    return vm.vcpus[0]


def make_channel(pages=1):
    """Two views (driver and enclave side) of the same frames, each used by
    its VM's vCPU."""
    machine = PhysicalMachine(MachineConfig(frames=4, os_reserved_pages=0))
    t_primary = Stage2Table(0, machine)
    t_enclave = Stage2Table(1, machine)
    v_primary = _vcpu(0, VmKind.PRIMARY, "primary", t_primary)
    for i in range(pages):
        t_primary.map(i, i, PERM_RW, v_primary)
        t_enclave.map(8 + i, i, PERM_RW, v_primary)
    primary = ChannelView(v_primary, 0, pages)
    enclave = ChannelView(_vcpu(1, VmKind.ENCLAVE, "enclave1", t_enclave),
                          8 << 12, pages)
    primary.init()
    return machine, primary, enclave


def _channel_events(machine, since=0):
    """The channel events traced from step `since` on, each as its step,
    its vCPU and its detail."""
    trace = machine.trace
    return [(step, vcpu, trace.details[step])
            for step, kind, _, vcpu, _ in trace.events[since:]
            if kind == "channel"]


def test_views_take_their_table_side_and_trace_from_their_vcpu():
    machine, primary, enclave = make_channel()
    assert (primary.table.owner_vm, primary.side) == (0, "primary")
    assert (enclave.table.owner_vm, enclave.side) == (1, "enclave")
    assert primary.machine is enclave.machine is machine
    primary.write_request(1, b"hi")
    enclave.serve()
    enclave.complete(b"yo")
    assert [(vcpu, detail["side"], detail["new"])
            for _, vcpu, detail in _channel_events(machine)] == [
        ("primary.v0", "primary", ChannelStatus.REQUEST),
        ("enclave1.v0", "enclave", ChannelStatus.DONE)]


def test_init_formats_header():
    _, primary, enclave = make_channel()
    magic, status, cmd, arg_len, ret_len = enclave.read_header()
    assert magic == CHANNEL_MAGIC
    assert status == ChannelStatus.IDLE
    assert (cmd, arg_len, ret_len) == (0, 0, 0)


def test_request_response_roundtrip():
    _, primary, enclave = make_channel()
    primary.write_request(7, b"some args")
    cmd, args = enclave.serve()
    assert (cmd, args) == (7, b"some args")
    enclave.complete(b"the reply")
    status, ret = primary.read_response()
    assert status is ChannelStatus.DONE
    assert ret == b"the reply"
    # channel is reusable immediately
    primary.write_request(8, b"")
    assert enclave.serve() == (8, b"")


def test_error_reply():
    _, primary, enclave = make_channel()
    primary.write_request(1, b"x")
    enclave.serve()
    enclave.complete_error()
    status, ret = primary.read_response()
    assert status is ChannelStatus.ERROR
    assert ret == b""


def test_busy_channel_rejects_second_request():
    _, primary, enclave = make_channel()
    primary.write_request(1, b"")
    with pytest.raises(ChannelBusy):
        primary.write_request(2, b"")


def test_capacity_enforced():
    _, primary, enclave = make_channel()
    assert primary.capacity == PAGE_SIZE - HEADER_LEN
    primary.write_request(1, b"a" * primary.capacity)  # exactly fits
    enclave.serve()
    with pytest.raises(ChannelTooLarge):
        enclave.complete(b"b" * (primary.capacity + 1))
    enclave.complete(b"")
    with pytest.raises(ChannelTooLarge):
        primary.write_request(1, b"a" * (primary.capacity + 1))


def test_multi_page_capacity():
    _, primary, enclave = make_channel(pages=2)
    big = bytes(range(256)) * 25  # 6400 bytes, crosses the page boundary
    primary.write_request(3, big)
    cmd, args = enclave.serve()
    assert args == big
    enclave.complete(big[::-1])
    assert primary.read_response() == (ChannelStatus.DONE, big[::-1])


def test_serve_without_request():
    _, primary, enclave = make_channel()
    with pytest.raises(ChannelNoRequest):
        enclave.serve()


def test_read_response_never_raises_on_state():
    _, primary, enclave = make_channel()
    assert primary.read_response() == (ChannelStatus.IDLE, b"")
    primary.write_request(1, b"ping")
    assert primary.read_response() == (ChannelStatus.REQUEST, b"")
    primary.mark_preempted()
    assert primary.read_response() == (ChannelStatus.PREEMPTED, b"")


def test_preempt_rearm_cycle():
    _, primary, enclave = make_channel()
    primary.write_request(1, b"work")
    primary.mark_preempted()
    primary.rearm_request()
    assert enclave.serve() == (1, b"work")


# Each step's start statuses, the status it leaves, and the error it
# refuses any other start status with: the table of the channel docstring,
# restated here so that the matrix checks the code against it.
IDLE, REQUEST, DONE, ERROR, PREEMPTED = ChannelStatus
STEP_RULES = {
    "write_request": ({IDLE, DONE, ERROR}, REQUEST, ChannelBusy),
    "serve": ({REQUEST}, None, ChannelNoRequest),
    "complete": ({REQUEST}, DONE, ChannelError),
    "complete_error": ({REQUEST}, ERROR, ChannelError),
    "mark_preempted": ({REQUEST}, PREEMPTED, ChannelError),
    "rearm_request": ({PREEMPTED}, REQUEST, ChannelError),
    "read_response": (set(ChannelStatus), None, ChannelError),
}


def _run_step(primary, enclave, name):
    return {"write_request": lambda: primary.write_request(6, b"new args"),
            "serve": enclave.serve,
            "complete": lambda: enclave.complete(b"ok"),
            "complete_error": enclave.complete_error,
            "mark_preempted": primary.mark_preempted,
            "rearm_request": primary.rearm_request,
            "read_response": primary.read_response}[name]()


def _refusal(name, start):
    """The (error class, message) step `name` must raise from `start`, a
    status word or "bad magic"; None where it must succeed."""
    allowed, _, refusal = STEP_RULES[name]
    if start == "bad magic":
        return ChannelError, "bad channel magic b'XXXX'"
    if not isinstance(start, ChannelStatus):
        return ChannelError, "corrupt channel status %d" % start
    if start not in allowed:
        return refusal, "%s on channel status %s" % (name, start.name)
    return None


def test_transition_legality_exhaustive():
    """Every public step crossed with every start state: the five statuses,
    a corrupt word and a bad magic.  A step succeeds exactly when its start
    set allows the state, and leaves the status it is tabled to; a refused
    step raises its error and writes no frame byte and no channel event."""
    mismatches = []
    for name, start in itertools.product(
            STEP_RULES, list(ChannelStatus) + [99, "bad magic"]):
        machine, primary, enclave = make_channel()
        primary.write_request(3, b"args")
        enclave.serve()
        enclave.complete(b"reply")
        allowed, moves_to, _ = STEP_RULES[name]
        # a bad magic comes with a status word the step would accept
        word = min(allowed) if start == "bad magic" else start
        primary._write(4, int(word).to_bytes(4, "little"))
        if start == "bad magic":
            primary._write(0, b"XXXX")
        before = _frame_bytes(machine)
        since = len(machine.trace.events)
        seen = []

        class Spy(Observer):
            def on_write(self, frame, offset, data, by, channel):
                seen.append(("write", frame, offset))

        machine.observers.append(Spy())
        want = _refusal(name, start)
        try:
            _run_step(primary, enclave, name)
        except ChannelError as err:
            got = (type(err), str(err))
            seen += [("channel", detail["old"], detail["new"])
                     for _, _, detail in _channel_events(machine, since)]
            if got != want or seen or _frame_bytes(machine) != before:
                mismatches.append((name, start, got, seen))
            continue
        after = primary.read_header()[1]
        if want is not None or after != (word if moves_to is None
                                          else moves_to):
            mismatches.append((name, start, "ran", after))
    assert mismatches == []


def test_corrupt_status_detected():
    _, primary, enclave = make_channel()
    primary._write(4, (99).to_bytes(4, "little"))
    with pytest.raises(ChannelError):
        primary.read_response()
    with pytest.raises(ChannelError):
        primary.rearm_request()


@pytest.mark.parametrize("word", [5, 99, 2**32 - 1])
def test_corrupt_status_message_names_the_word(word):
    _, primary, enclave = make_channel()
    primary._write(4, word.to_bytes(4, "little"))
    for step in (primary.read_response, primary.rearm_request):
        with pytest.raises(ChannelError) as info:
            step()
        assert str(info.value) == "corrupt channel status %d" % word


def test_bad_magic_detected():
    _, primary, enclave = make_channel()
    primary._write(0, b"XXXX")
    primary._write(4, int(ChannelStatus.REQUEST).to_bytes(4, "little"))
    with pytest.raises(ChannelError):
        enclave.serve()
    with pytest.raises(ChannelError):
        primary.read_response()


@pytest.mark.parametrize("status, field, step", [
    (ChannelStatus.REQUEST, "arg_len", "serve"),
    (ChannelStatus.PREEMPTED, "arg_len", "rearm_request"),
    (ChannelStatus.DONE, "ret_len", "read_response"),
])
def test_length_past_capacity_detected(status, field, step):
    """A header whose payload length overruns the region is refused before
    the payload is read, by whichever side reads it."""
    _, primary, enclave = make_channel()
    length = primary.capacity + 1
    primary._write(4, struct.pack("<IIII", status, 1, length, length))
    view = enclave if step == "serve" else primary
    with pytest.raises(ChannelError,
                       match="^%s %d exceeds capacity$" % (field, length)):
        getattr(view, step)()


def test_status_written_after_payload():
    """Once a reader sees REQUEST or DONE, the payload bytes are already in
    place, and the one write that carries the status carries the rest of
    the header after it (cmd_id, arg_len, ret_len) too."""
    machine, primary, enclave = make_channel()
    order = []

    class Spy(Observer):
        def on_write(self, frame, offset, data, by, channel):
            # a write made before the channel event sees a shorter trace
            order.append(("write", offset, bytes(data),
                          len(machine.trace.events)))

    machine.observers.append(Spy())
    for step, new, payload, tail in [
            (lambda: primary.write_request(5, b"payload!"),
             ChannelStatus.REQUEST, b"payload!", (5, 8, 0)),
            (lambda: enclave.complete(b"reply"),
             ChannelStatus.DONE, b"reply", (5, 8, 5))]:
        order.clear()
        since = len(machine.trace.events)
        step()
        [(at, _, status)] = _channel_events(machine, since)
        payload_write = next(ev for ev in order
                             if ev[0] == "write" and ev[2] == payload)
        assert payload_write[3] <= at
        assert (status["new"], status["payload_crc32"]) \
            == (new, zlib.crc32(payload))
        header_writes = [ev[1:3] for ev in order
                         if ev[0] == "write" and ev[1] < HEADER_LEN]
        assert header_writes == [
            (4, struct.pack("<IIII", new, *tail))]


def _frame_bytes(machine):
    return {f: bytes(buf) for f, buf in machine.frames.items()}


@pytest.mark.parametrize("word", [ChannelStatus.IDLE, ChannelStatus.DONE,
                                  ChannelStatus.ERROR,
                                  ChannelStatus.PREEMPTED, 99])
@pytest.mark.parametrize("reply", ["complete", "complete_error"])
def test_refused_reply_leaves_channel_untouched(word, reply):
    """A reply to a channel that holds no request raises before it writes:
    neither the reply payload nor ret_len reaches the frames."""
    machine, primary, enclave = make_channel()
    primary.write_request(3, b"args")
    enclave.serve()
    enclave.complete(b"first reply")
    primary._write(4, int(word).to_bytes(4, "little"))
    before = _frame_bytes(machine)
    writes = []

    class Spy(Observer):
        def on_write(self, frame, offset, data, by, channel):
            writes.append((frame, offset))

    machine.observers.append(Spy())
    step = {"complete": lambda: enclave.complete(b"second, longer reply"),
            "complete_error": enclave.complete_error}[reply]
    with pytest.raises(ChannelError):
        step()
    assert writes == []
    assert _frame_bytes(machine) == before


@pytest.mark.parametrize("payload,want", [
    (b"ping", {"write_request": 3, "serve": 2, "complete": 3,
               "read_response": 2, "mark_preempted": 2, "rearm_request": 3,
               "resume": 8}),
    (b"", {"write_request": 2, "serve": 1, "complete": 2,
           "read_response": 1, "mark_preempted": 2, "rearm_request": 2,
           "resume": 7}),
], ids=["payload", "empty"])
def test_guest_accesses_per_step(monkeypatch, payload, want):
    """Each protocol step reads the header once and publishes it once: one
    access per header read or write, plus one per non-empty payload.  A
    driver's resume is the re-arm, the enclave's reply and the read of it,
    with no status read of its own."""
    _, primary, enclave = make_channel()
    sim = Simulation(MachineConfig(frames=256))
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for_pages("spinner", 4, 1))
    sim.arm_timer(8)
    assert driver.invoke(fd, 1, payload) == (ChannelStatus.PREEMPTED, b"")
    calls = []
    real = channel.guest_access

    def counted(*args, **kw):
        calls.append(args[2])       # the accessed ipa
        return real(*args, **kw)

    monkeypatch.setattr(channel, "guest_access", counted)
    got = {}
    for name, step in [
            ("write_request", lambda: primary.write_request(1, payload)),
            ("serve", enclave.serve),
            ("complete", lambda: enclave.complete(payload)),
            ("read_response", primary.read_response),
            (None, lambda: primary.write_request(2, payload)),
            ("mark_preempted", primary.mark_preempted),
            ("rearm_request", primary.rearm_request),
            ("resume", lambda: driver.resume(fd))]:
        calls.clear()
        out = step()
        if name is not None:
            got[name] = len(calls)
    assert out == (ChannelStatus.DONE, b"spun")
    assert got == want


def test_lost_write_mapping_faults():
    machine, primary, enclave = make_channel()
    primary.table.protect(0, PERM_RO, primary.vcpu)
    with pytest.raises(ChannelError):
        primary.write_request(1, b"")
    assert machine.fault_count == 1


def test_lost_read_mapping_faults():
    """A side whose page was unmapped from its table faults on the header
    read and writes nothing."""
    machine, primary, enclave = make_channel()
    primary.table.unmap(0, primary.vcpu)
    with pytest.raises(ChannelError, match="^channel read fault: "):
        primary.write_request(1, b"")
    assert machine.fault_count == 1
    assert machine.read_frame(0, 4, 4) == struct.pack("<I", ChannelStatus.IDLE)


def test_channel_writes_are_marked():
    """A write is tagged `channel` exactly when a ChannelView makes it, so
    the confinement oracle can tell protocol writes from stray stores: the
    channel steps of both sides are, the driver's code blob, the TA's
    state and the adversary's store are not."""
    sim = Simulation(MachineConfig(frames=256))
    driver = EnclaveDriver(sim)
    seen = []

    class Spy(Observer):
        def on_write(self, frame, offset, data, by, channel):
            codes, caller = set(), sys._getframe(1)
            while caller is not None:
                codes.add(caller.f_code)
                caller = caller.f_back
            seen.append((channel, ChannelView._write.__code__ in codes,
                         by.name))

    sim.machine.observers.append(Spy())
    fd = driver.create(image_for_pages("counter", 4, 1))
    driver.invoke(fd, 1, b"")
    sim.vm_write(sim.hv.primary, 0, b"stray")
    assert [tagged for tagged, _, _ in seen] == [
        made for _, made, _ in seen]
    assert {(tagged, by) for tagged, _, by in seen} == {
        (False, "primary.v0"), (True, "primary.v0"),
        (False, "enclave1.v0"), (True, "enclave1.v0")}


class FrameCheck(Observer):
    """At each header publish, the write at +4 that carries the status word,
    reads the header and the active payload straight from the frames,
    through each side's stage-2 table; `check` then compares them with the
    channel event traced right after that write."""

    def __init__(self, machine, views):
        self.machine = machine
        self.views = views          # side -> (table, channel base ipa)
        self.stored = []            # (trace length, header, payload)
        table, base = views["primary"]
        self.status_frame = table.lookup(base >> PAGE_SHIFT)[0]

    def _frames(self, table, ipa, length):
        out = b""
        while length:
            frame, _ = table.lookup(ipa >> PAGE_SHIFT)
            chunk = min(length, PAGE_SIZE - ipa % PAGE_SIZE)
            out += self.machine.read_frame(frame, ipa % PAGE_SIZE, chunk)
            ipa, length = ipa + chunk, length - chunk
        return out

    def _stored(self, table, base):
        header = self._frames(table, base, HEADER_LEN)
        _, status, _, arg_len, ret_len = CHANNEL_HEADER.unpack(header)
        active = {ChannelStatus.REQUEST: arg_len, ChannelStatus.DONE: ret_len,
                  ChannelStatus.ERROR: ret_len}.get(status, 0)
        return header, self._frames(table, base + HEADER_LEN, active)

    def on_write(self, frame, offset, data, by, channel):
        if frame == self.status_frame and offset == 4:
            [stored] = {self._stored(*view) for view in self.views.values()}
            self.stored.append((len(self.machine.trace.events),) + stored)

    def check(self):
        """Each channel event against the bytes stored when it was
        published; returns (side, status, payload length) per event."""
        events = _channel_events(self.machine)
        assert len(events) == len(self.stored)
        seen = []
        for (at, _, detail), (step, header, payload) in zip(events,
                                                            self.stored):
            new = CHANNEL_HEADER.unpack(header)[1]
            assert at == step
            assert detail["new"] == new
            assert detail["header"] == header.hex()
            assert detail["payload_crc32"] == zlib.crc32(payload)
            seen.append((detail["side"], ChannelStatus(new).name,
                         len(payload)))
        return seen


def _run_checked(program, chan_pages, steps):
    """Run `steps(sim, driver, fd)` on one enclave with a FrameCheck
    attached; returns the transitions it checked."""
    sim = Simulation(MachineConfig(frames=256))
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for_pages(program, 4, chan_pages))
    view, rec = driver.fd_info(fd).channel, driver.record_of(fd)
    check = FrameCheck(sim.machine, {
        "primary": (view.table, view.base_ipa),
        "enclave": (rec.vm.table, rec.channel_ipa)})
    sim.machine.observers.append(check)
    steps(sim, driver, fd)
    return check.check()


def _echo(n):
    payload = (bytes(range(1, 256)) * 32)[:n]

    def steps(sim, driver, fd):
        assert driver.invoke(fd, 0, payload) == (ChannelStatus.DONE, payload)
    return steps


def _unknown_command(sim, driver, fd):
    assert driver.invoke(fd, 99, b"x") == (ChannelStatus.ERROR, b"")


def _preempt_and_resume(sim, driver, fd):
    sim.arm_timer(8)
    args = (6).to_bytes(4, "little") + (4).to_bytes(4, "little")
    assert driver.invoke(fd, 1, args) == (ChannelStatus.PREEMPTED, b"")
    assert driver.resume(fd) == (ChannelStatus.DONE, b"spun")


CROSSING = 2 * PAGE_SIZE - HEADER_LEN - 100   # payload reaches into page 2


@pytest.mark.parametrize("program,chan_pages,steps,want", [
    ("echo", 1, _echo(0), [("primary", "REQUEST", 0),
                           ("enclave", "DONE", 0)]),
    ("echo", 1, _echo(1), [("primary", "REQUEST", 1),
                           ("enclave", "DONE", 1)]),
    ("echo", 2, _echo(CROSSING), [("primary", "REQUEST", CROSSING),
                                  ("enclave", "DONE", CROSSING)]),
    ("echo", 1, _unknown_command, [("primary", "REQUEST", 1),
                                   ("enclave", "ERROR", 0)]),
    ("spinner", 1, _preempt_and_resume, [("primary", "REQUEST", 8),
                                         ("primary", "PREEMPTED", 0),
                                         ("primary", "REQUEST", 8),
                                         ("enclave", "DONE", 4)]),
], ids=["echo-0", "echo-1", "echo-page-2", "unknown-command",
        "preempt-resume"])
def test_channel_events_trace_the_stored_bytes(program, chan_pages, steps,
                                               want):
    assert _run_checked(program, chan_pages, steps) == want


@settings(max_examples=60, deadline=None)
@given(cmd=st.integers(min_value=0, max_value=2**32 - 1),
       args=st.binary(max_size=PAGE_SIZE - HEADER_LEN),
       ret=st.binary(max_size=PAGE_SIZE - HEADER_LEN))
def test_roundtrip_property(cmd, args, ret):
    _, primary, enclave = make_channel()
    primary.write_request(cmd, args)
    got_cmd, got_args = enclave.serve()
    assert (got_cmd, got_args) == (cmd, args)
    enclave.complete(ret)
    assert primary.read_response() == (ChannelStatus.DONE, ret)
