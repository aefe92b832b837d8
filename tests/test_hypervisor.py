"""Hypervisor: donation mechanics, privilege split, vCPU stacking, teardown."""
import re

import pytest

from enclavesim.channel import ChannelStatus
from enclavesim.errors import (
    BadHandle,
    EnclaveActive,
    EnclaveDestroyed,
    Exhausted,
    InvalidDonation,
    NoParent,
    NotRunning,
    PageNotMapped,
    PrivilegeViolation,
    SimulationError,
    TooSmall,
    WrongPcpu,
)
from enclavesim.hypervisor import (
    CreateEnclave,
    DestroyEnclave,
    Exit,
    Hypercall,
    ImageMeta,
    InvokeEnclave,
    Resumption,
    VmState,
    Work,
)
from enclavesim.machine import PAGE_SHIFT, PAGE_SIZE, MachineConfig, Observer
from enclavesim.sim import Simulation
from enclavesim.stage2 import PERM_RO, PERM_RW, PERM_RWX
from enclavesim.guest_os import EnclaveDriver
from enclavesim.harness import (
    MemoryOracle,
    WriteConfinementOracle,
    check_stack_integrity,
    sabotage_teardown,
)
from enclavesim.ta_runtime import image_for_pages, load_program

from snapshots import allocations, channel_frames, full_state


def boot(frames=256, pcpus=1, max_vms=16):
    return Simulation(MachineConfig(frames=frames, pcpus=pcpus,
                                    max_vms=max_vms))


def load_blob(sim, pages, mem=None, chan=1, name="echo"):
    """Load the blob into the private pages the way the driver would;
    returns the image's meta for the create hypercall."""
    mem = len(pages) - chan if mem is None else mem
    image = image_for_pages(name, mem, chan)
    blob = image.code_blob
    for i in range(len(pages) - chan):
        chunk = blob[i * PAGE_SIZE:(i + 1) * PAGE_SIZE]
        chunk = chunk + bytes(PAGE_SIZE - len(chunk))
        sim.vm_write(sim.hv.primary, pages[i] << PAGE_SHIFT, chunk)
    return ImageMeta(image.mem_size_pages, image.channel_size_pages)


def hand_create(sim, pages, mem=None, chan=1, name="echo"):
    """Issue the create hypercall directly, loading the blob first."""
    meta = load_blob(sim, pages, mem, chan, name)
    return sim.hv.create_enclave(sim.primary_vcpu(0), tuple(pages), meta)


class EventSpy(Observer):
    def __init__(self):
        self.events = []

    def on_zero(self, frame, by):
        self.events.append(("zero", frame))

    def on_map(self, vm, ipa_page, frame, perms, by):
        self.events.append(("map", vm, ipa_page, frame))

    def on_unmap(self, vm, ipa_page, frame, by):
        self.events.append(("unmap", vm, ipa_page, frame))

    def on_protect(self, vm, ipa_page, frame, old, new, by):
        self.events.append(("protect", vm, ipa_page, frame))


# -- create ------------------------------------------------------------------


def test_create_moves_private_and_shares_channel():
    sim = boot()
    hv = sim.hv
    pages = [100, 101, 102, 103, 104]
    handle = hand_create(sim, pages, mem=4, chan=1)
    rec = hv.enclaves[handle]
    assert rec.private_pages == 4 and rec.channel_pages == 1
    assert rec.channel_ipa == 4 << PAGE_SHIFT
    for p in pages[:4]:
        assert hv.primary.table.lookup(p) is None
    frame, perms = hv.primary.table.lookup(104)
    assert perms == PERM_RW
    assert frame in channel_frames(hv)
    # enclave sees private pages rwx at ipa 0.. and the channel rw after them
    for i in range(4):
        f, crumbs = rec.vm.table.lookup(i)
        assert f == pages[i] and crumbs == PERM_RWX
    f, crumbs = rec.vm.table.lookup(4)
    assert f == 104 and crumbs == PERM_RW


def test_surplus_donation_becomes_private():
    sim = boot(frames=512)
    pages = list(range(100, 164))  # 64 pages for an image that asks for 61
    handle = hand_create(sim, pages, mem=60, chan=1)
    rec = sim.hv.enclaves[handle]
    assert len(rec.pages) == 64
    assert rec.private_pages == 63
    assert rec.channel_ipa == 63 << PAGE_SHIFT
    assert rec.primary_channel_pages() == [163]


def test_create_and_destroy_costs():
    sim = boot()
    driver = EnclaveDriver(sim)
    ledger = sim.machine.ledger
    before = ledger.snapshot()
    fd = driver.create(image_for_pages("echo", 7, 1))  # 8 donated pages
    assert ledger.pt_ops - before["pt_ops"] == 16
    assert ledger.hypercalls - before["hypercalls"] == 1
    assert ledger.zero_bytes == before["zero_bytes"]

    before = ledger.snapshot()
    driver.destroy(fd)
    assert ledger.pt_ops - before["pt_ops"] == 16
    assert ledger.hypercalls - before["hypercalls"] == 1
    assert ledger.zero_bytes - before["zero_bytes"] == 8 * PAGE_SIZE


def test_invoke_cost_is_flat():
    sim = boot()
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for_pages("echo", 4, 1))
    for _ in range(3):
        t0 = sim.now()
        driver.invoke(fd, 0, b"")
        # push + pop, invoke + exit, one unit of work
        assert sim.now() - t0 == 5


def test_destroy_restores_original_mappings():
    sim = boot()
    driver = EnclaveDriver(sim)
    before = sim.hv.primary.table.snapshot()
    fd = driver.create(image_for_pages("echo", 4, 1))
    driver.destroy(fd)
    assert sim.hv.primary.table.snapshot() == before
    assert not channel_frames(sim.hv)


def test_destroyed_pages_come_back_zeroed():
    sim = boot()
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for_pages("counter", 4, 1))
    driver.invoke(fd, 1, b"")  # leaves state in the private region
    rec = driver.record_of(fd)
    reclaimed = rec.primary_private_pages()
    driver.destroy(fd)
    for page in reclaimed:
        data = sim.vm_read(sim.hv.primary, page << PAGE_SHIFT, PAGE_SIZE)
        assert data == bytes(PAGE_SIZE)


def test_zeroize_happens_before_any_remap():
    sim = boot()
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for_pages("echo", 4, 1))
    rec = driver.record_of(fd)
    frames = set(rec.frames())
    spy = EventSpy()
    sim.machine.observers.append(spy)
    driver.destroy(fd)
    zero_idx = [i for i, ev in enumerate(spy.events) if ev[0] == "zero"]
    table_idx = [i for i, ev in enumerate(spy.events)
                 if ev[0] in ("map", "unmap", "protect")]
    assert {spy.events[i][1] for i in zero_idx} == frames
    assert max(zero_idx) < min(table_idx)


def test_sabotage_switches_flip_teardown():
    sim = boot()
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for_pages("echo", 4, 1))
    spy = EventSpy()
    sim.machine.observers.append(spy)
    sabotage_teardown(sim.hv, "remap_before_zeroize")
    driver.destroy(fd)
    zero_idx = [i for i, ev in enumerate(spy.events) if ev[0] == "zero"]
    table_idx = [i for i, ev in enumerate(spy.events)
                 if ev[0] in ("map", "unmap", "protect")]
    assert min(zero_idx) > max(table_idx)

    sabotage_teardown(sim.hv, "skip_zeroize")
    fd = driver.create(image_for_pages("echo", 4, 1))
    spy.events.clear()
    driver.destroy(fd)
    assert not any(ev[0] == "zero" for ev in spy.events)


# -- create failure modes ------------------------------------------------------


def test_failed_create_changes_nothing():
    sim = boot()
    driver = EnclaveDriver(sim)
    hv = sim.hv
    victim = driver.record_of(driver.create(image_for_pages("echo", 4, 1)))
    caller = sim.primary_vcpu(0)
    meta = ImageMeta(3, 1)
    attempts = [
        # duplicate page in the donation list
        ((110, 110, 111, 112), meta, InvalidDonation),
        # fewer pages than the image requires
        ((110, 111), meta, TooSmall),
        # degenerate geometry
        ((110, 111, 112, 113), ImageMeta(3, 0), TooSmall),
        # another enclave's channel page cannot be donated
        ((victim.primary_channel_pages()[0], 110, 111, 112), meta,
         InvalidDonation),
        # first page holds no recognizable image
        ((120, 121, 122, 123), meta, InvalidDonation),
    ] + [
        # each page the live enclave holds is unmapped from the primary
        ((page, 110, 111, 112), meta, PageNotMapped)
        for page in victim.primary_private_pages()
    ]
    for pages, m, err in attempts:
        before = full_state(sim, driver)
        with pytest.raises(err):
            hv.create_enclave(caller, pages, m)
        assert full_state(sim, driver) == before


@pytest.mark.parametrize("at", range(4))
def test_a_live_channel_page_is_refused_at_every_position(at):
    """A live enclave's channel page is refused wherever it sits in a
    donation, as a page of the new enclave's private memory or of its
    channel, before any change.  Once that enclave is destroyed the page is
    the primary's own again, and the same donation goes through."""
    sim = boot()
    driver = EnclaveDriver(sim)
    victim_fd = driver.create(image_for_pages("echo", 4, 1))
    page = driver.record_of(victim_fd).primary_channel_pages()[0]
    pages = [110, 111, 112, 113]
    meta = load_blob(sim, pages, mem=2, chan=2)
    pages[at] = page
    before = full_state(sim, driver)
    with pytest.raises(InvalidDonation, match="^ipa page %#x is another "
                       "enclave's channel; cannot donate it$" % page):
        sim.hv.create_enclave(sim.primary_vcpu(0), pages, meta)
    assert full_state(sim, driver) == before
    driver.destroy(victim_fd)
    assert not channel_frames(sim.hv)
    rec = sim.hv.enclaves[hand_create(sim, pages, mem=2, chan=2)]
    assert rec.frames() == pages
    assert channel_frames(sim.hv) == set(pages[2:])


def test_unwritable_page_cannot_be_donated():
    sim = boot()
    driver = EnclaveDriver(sim)
    sim.hv.primary.table.protect(110, PERM_RO, sim.primary_vcpu(0))
    before = full_state(sim, driver)
    with pytest.raises(InvalidDonation):
        hand_create(sim, [111, 112, 113, 110], mem=3, chan=1)
    assert full_state(sim, driver) == before


@pytest.mark.parametrize("donate, shown", [
    (lambda pages: [float(p) for p in pages], "64.0"),
    (lambda pages: [*pages[:-1], True], "True"),
], ids=["float", "bool"])
def test_a_donated_page_that_is_not_an_int_is_refused(donate, shown):
    """A donated page that is not an exact int is refused before any table
    changes: page 64.0 would reach the trace as a float, and True as
    `true`, read back as page 1."""
    sim = boot()
    driver = EnclaveDriver(sim)
    create = sim.hv.create_enclave
    sim.hv.create_enclave = lambda caller, pages, meta: create(
        caller, donate(pages), meta)
    before = full_state(sim, driver)
    with pytest.raises(InvalidDonation,
                       match="^donated page %s is not an int$" % shown):
        driver.create(image_for_pages("echo", 3, 1))
    assert full_state(sim, driver) == before
    assert not [kind for _, kind, _, _, _ in sim.trace.events
                if kind.startswith("s2_")]


@pytest.mark.parametrize("call, handle", [
    ("invoke", True), ("invoke", 1.0), ("destroy", 1.0), ("destroy", True),
    ("destroy", "x"),
], ids=["invoke-bool", "invoke-float", "destroy-float", "destroy-bool",
        "destroy-str"])
def test_a_handle_that_is_not_an_int_is_refused(call, handle):
    """A handle that is not an exact int names no enclave, even one equal to
    a live handle: True and 1.0 would run or destroy enclave 1, and "x"
    would fail comparing with an int.  Each is refused with BadHandle and
    traced as a hypercall and its error, and enclave 1 is untouched."""
    sim = boot()
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for_pages("counter", 4, 1))
    hcall = {"invoke": sim.hv.invoke_enclave,
             "destroy": sim.hv.destroy_enclave}[call]
    before = (full_state(sim, driver),
              {f: bytes(buf) for f, buf in sim.machine.frames.items()})
    events = len(sim.trace.events)
    with pytest.raises(BadHandle, match="^handle %s is not an int$"
                       % re.escape(repr(handle))):
        hcall(sim.primary_vcpu(0), handle)
    assert (full_state(sim, driver),
            {f: bytes(buf) for f, buf in sim.machine.frames.items()}) == before
    assert [kind for _, kind, _, _, _ in sim.trace.events[events:]] == [
        "hypercall", "hypercall_error"]
    assert driver.invoke(fd, 1) == (ChannelStatus.DONE, b"\x01\0\0\0")


def test_vm_limit():
    sim = boot(max_vms=2)
    driver = EnclaveDriver(sim)
    hand_create(sim, [100, 101, 102, 103], mem=3, chan=1)
    before = full_state(sim, driver)
    with pytest.raises(Exhausted):
        hand_create(sim, [110, 111, 112, 113], mem=3, chan=1)
    assert full_state(sim, driver) == before


def test_destroy_frees_vm_slot():
    sim = boot(max_vms=2)
    driver = EnclaveDriver(sim)
    for _ in range(50):
        driver.destroy(driver.create(image_for_pages("echo", 3, 1)))
    driver.create(image_for_pages("echo", 3, 1))  # slot is free again


def test_registries_hold_only_live_enclaves():
    sim = boot(frames=192)
    driver = EnclaveDriver(sim)
    live = [driver.create(image_for_pages("echo", 3, 1)) for _ in range(3)]
    for i in range(200):
        fd = driver.create(image_for_pages("echo", 3, 1))
        assert driver.invoke(fd, 0, b"cycle %d" % i)[1] == b"cycle %d" % i
        driver.destroy(fd)
    assert len(sim.hv.enclaves) == len(live)
    assert len(sim.hv.vms) == 1 + len(live)


# -- privilege split -----------------------------------------------------------


def test_management_calls_are_primary_only():
    sim = boot()
    handle = hand_create(sim, [100, 101, 102, 103], mem=3, chan=1)
    evcpu = sim.hv.enclaves[handle].vm.vcpus[0]
    for hc in (CreateEnclave((1, 2), ImageMeta(1, 1)),
               DestroyEnclave(handle), InvokeEnclave(handle)):
        with pytest.raises(PrivilegeViolation):
            sim.hv.dispatch(evcpu, hc)


def test_exit_is_enclave_only():
    sim = boot()
    with pytest.raises(PrivilegeViolation):
        sim.hv.dispatch(sim.primary_vcpu(0), Exit())


# -- handle lifecycle ----------------------------------------------------------


def test_bad_and_stale_handles():
    sim = boot()
    caller = sim.primary_vcpu(0)
    with pytest.raises(BadHandle):
        sim.hv.invoke_enclave(caller, 99)
    with pytest.raises(BadHandle):
        sim.hv.destroy_enclave(caller, 99)
    for never_issued in (0, -1):
        with pytest.raises(BadHandle):
            sim.hv.invoke_enclave(caller, never_issued)
        with pytest.raises(BadHandle):
            sim.hv.destroy_enclave(caller, never_issued)
    handle = hand_create(sim, [100, 101, 102, 103], mem=3, chan=1)
    rec = sim.hv.enclaves[handle]
    sim.hv.destroy_enclave(caller, handle)
    # retired: neither registry holds it, but the handle is remembered
    assert handle not in sim.hv.enclaves
    assert rec.vm.vmid not in sim.hv.vms
    assert rec.vm.state is VmState.DESTROYED
    with pytest.raises(EnclaveDestroyed):
        sim.hv.invoke_enclave(caller, handle)
    with pytest.raises(EnclaveDestroyed):
        sim.hv.destroy_enclave(caller, handle)
    with pytest.raises(BadHandle):
        sim.hv.invoke_enclave(caller, handle + 1)


def test_destroy_refused_while_scheduled():
    sim = boot()
    handle = hand_create(sim, [100, 101, 102, 103], mem=3, chan=1)
    vcpu = sim.hv.enclaves[handle].vm.vcpus[0]
    sim.hv.schedule_vcpu(0, vcpu)
    with pytest.raises(EnclaveActive):
        sim.hv.destroy_enclave(sim.primary_vcpu(0), handle)
    sim.hv.yield_vcpu(0)
    sim.hv.destroy_enclave(sim.primary_vcpu(0), handle)


def _watched_state(sim, watchers):
    """Every VM's table, the live enclaves, the shared frames, every
    frame's bytes and what the watching oracles have found."""
    memory, confinement = watchers
    return ({vmid: vm.table.snapshot() for vmid, vm in sim.hv.vms.items()},
            sorted(sim.hv.enclaves), channel_frames(sim.hv),
            {f: bytes(buf) for f, buf in sim.machine.frames.items()},
            memory.verify(), list(confinement.violations))


def _watch(sim):
    watchers = (MemoryOracle(sim.machine), WriteConfinementOracle(sim.hv))
    sim.machine.observers.extend(watchers)
    return watchers


def test_create_and_destroy_refused_from_a_vcpu_that_is_not_running():
    """With an aux vCPU on top of the pCPU, the primary vCPU under it can
    neither create nor destroy: each hypercall is refused with NotRunning
    before any mapping change, and tables, frames and oracles are as they
    were.  Once the aux vCPU yields, both go through."""
    sim = boot()
    watchers = _watch(sim)
    handle = hand_create(sim, [100, 101, 102, 103])
    pages = (110, 111, 112, 113)
    meta = load_blob(sim, pages)
    sim.hv.schedule_vcpu(0, sim.hv.make_aux_vcpu(0))
    before, events = _watched_state(sim, watchers), len(sim.trace.events)
    primary = sim.primary_vcpu(0)
    with pytest.raises(NotRunning, match="^create from primary.v0, which "
                       "is not running$"):
        sim.hv.create_enclave(primary, pages, meta)
    with pytest.raises(NotRunning, match="^destroy from primary.v0"):
        sim.hv.destroy_enclave(primary, handle)
    assert _watched_state(sim, watchers) == before
    assert [kind for _, kind, _, _, _ in sim.trace.events[events:]] == [
        "hypercall", "hypercall_error"] * 2
    sim.hv.yield_vcpu(0)
    sim.hv.destroy_enclave(primary, handle)
    sim.hv.create_enclave(primary, pages, meta)
    assert watchers[0].verify() == [] and watchers[1].violations == []


def test_driver_create_from_a_vcpu_that_is_not_running_rolls_back():
    """The driver's create for a primary vCPU that is not running gets
    NotRunning back from the hypervisor and frees both its allocations:
    tables, allocator and fds are as before, the memory mirror agrees, and
    the only writes flagged are the blob pages it loaded before asking."""
    sim = boot()
    driver = EnclaveDriver(sim)
    memory, confinement = _watch(sim)
    sim.hv.schedule_vcpu(0, sim.hv.make_aux_vcpu(0))
    before, shared = full_state(sim, driver), channel_frames(sim.hv)
    with pytest.raises(NotRunning):
        driver.create(image_for_pages("echo", 3, 1))
    assert full_state(sim, driver) == before
    assert channel_frames(sim.hv) == shared
    assert memory.verify() == []
    assert len(confinement.violations) == 3     # one per private page
    assert all(v.endswith(" by primary.v0, not running")
               for v in confinement.violations)


def test_invoke_respects_pcpu_pinning():
    sim = boot(pcpus=2)
    handle = hand_create(sim, [100, 101, 102, 103], mem=3, chan=1)
    with pytest.raises(WrongPcpu):
        sim.hv.invoke_enclave(sim.primary_vcpu(1), handle)


def test_invoke_while_enclave_holds_the_pcpu_refused():
    sim = boot()
    handle = hand_create(sim, [100, 101, 102, 103], mem=3, chan=1)
    vcpu = sim.hv.enclaves[handle].vm.vcpus[0]
    sim.hv.schedule_vcpu(0, vcpu)
    # the primary is no longer the running vcpu, so it cannot trap in
    with pytest.raises(NotRunning):
        sim.hv.invoke_enclave(sim.primary_vcpu(0), handle)
    with pytest.raises(EnclaveActive):
        sim.hv.schedule_vcpu(0, vcpu)


def test_exit_from_an_enclave_that_is_not_running_is_refused():
    """An exit from an enclave vCPU on no stack is refused with NotRunning
    and traced as a hypercall error, as create, destroy and invoke are.
    The stack is untouched and the enclave still invokes."""
    sim = boot()
    handle = hand_create(sim, [100, 101, 102, 103], mem=3, chan=1)
    vcpu = sim.hv.enclaves[handle].vm.vcpus[0]
    events = len(sim.trace.events)
    with pytest.raises(NotRunning, match="^exit from enclave1.v0, which is "
                       "not running$"):
        sim.hv.dispatch(vcpu, Exit())
    trace = sim.trace
    assert [(kind, vcpu_name) for _, kind, _, vcpu_name, _
            in trace.events[events:]] == [("hypercall", "enclave1.v0"),
                                          ("hypercall_error", "enclave1.v0")]
    assert trace.details[trace.events[-1][0]] == {
        "call": "Exit", "error": "NotRunning",
        "message": "exit from enclave1.v0, which is not running"}
    assert sim.hv.stack_of(0) == [sim.primary_vcpu(0)]
    assert sim.hv.invoke_enclave(sim.primary_vcpu(0), handle) \
        is Resumption.COMPLETED


# -- stacking ------------------------------------------------------------------


def test_stack_order_and_links():
    sim = boot()
    hv = sim.hv
    a = hv.make_aux_vcpu(0)
    b = hv.make_aux_vcpu(0)
    hv.schedule_vcpu(0, a)
    hv.schedule_vcpu(0, b)
    stack = hv.stack_of(0)
    assert [v.name for v in stack] == ["primary.v0", "aux1.v0", "aux2.v0"]
    popped = hv.yield_vcpu(0)
    assert popped is b
    assert hv.stack_of(0)[-1] is a


def test_yield_base_has_no_parent():
    sim = boot()
    with pytest.raises(NoParent):
        sim.hv.yield_vcpu(0)


def test_interrupt_unwinds_to_ancestor_in_one_switch():
    sim = boot()
    hv = sim.hv
    vcpus = [hv.make_aux_vcpu(0) for _ in range(3)]
    for v in vcpus:
        hv.schedule_vcpu(0, v)
    primary = sim.primary_vcpu(0)
    before = sim.machine.ledger.ctx_switches
    outcome = hv.deliver_interrupt(0, primary)
    assert outcome == "unwound"
    assert sim.machine.ledger.ctx_switches - before == 1
    assert hv.stack_of(0) == [primary]
    for v in vcpus:
        assert v.last_leave is Resumption.PREEMPTED


def test_interrupt_for_running_vcpu_goes_pending():
    sim = boot()
    hv = sim.hv
    a = hv.make_aux_vcpu(0)
    hv.schedule_vcpu(0, a)
    before = sim.machine.ledger.ctx_switches
    assert hv.deliver_interrupt(0, a) == "pending"
    assert a.pending_irq
    assert sim.machine.ledger.ctx_switches == before


def test_interrupt_for_idle_vcpu_goes_pending_then_fires_on_entry():
    sim = boot()
    hv = sim.hv
    a = hv.make_aux_vcpu(0)
    assert hv.deliver_interrupt(0, a) == "pending"
    hv.schedule_vcpu(0, a)
    details = sim.trace.details
    switch, taken = sim.trace.events[-2:]
    assert switch[1] == "ctx_switch" and details[switch[0]]["to"] == "aux1.v0"
    assert taken[1:4] + (details[taken[0]],) == (
        "interrupt", 0, "aux1.v0",
        {"target": "aux1.v0", "outcome": "taken_on_entry"})
    assert not a.pending_irq


def test_interrupt_checks_pcpu():
    sim = boot(pcpus=2)
    other = sim.hv.make_aux_vcpu(1)
    with pytest.raises(WrongPcpu):
        sim.hv.deliver_interrupt(0, other)
    with pytest.raises(WrongPcpu):
        sim.hv.schedule_vcpu(0, other)


def test_arm_timer_rejects_a_negative_delay():
    sim = boot()
    events, now = len(sim.trace.events), sim.now()
    with pytest.raises(SimulationError, match="^negative timer delay -50$"):
        sim.arm_timer(-50)
    assert len(sim.trace.events) == events
    # nothing was queued: a timer can only fire at or after boot
    sim.check_timers()
    assert len(sim.trace.events) == events and sim.now() == now
    assert sim.arm_timer(0) == now


@pytest.mark.parametrize("delay", [2.5, "3", True], ids=repr)
def test_arm_timer_rejects_a_delay_that_is_not_an_int(delay):
    """A deadline is an int in the trace: a float, a string or a bool delay
    raises the negative delay's error before any event or queued timer."""
    sim = boot()
    events, now = len(sim.trace.events), sim.now()
    with pytest.raises(SimulationError,
                       match="^timer delay %s is not an int$"
                       % re.escape(repr(delay))):
        sim.arm_timer(delay)
    assert len(sim.trace.events) == events and sim._timers == []
    sim.check_timers()
    assert len(sim.trace.events) == events and sim.now() == now


def test_aux_vms_are_named_by_vmid():
    sim = boot()
    hv = sim.hv
    EnclaveDriver(sim).create(image_for_pages("echo", 3, 1))
    a = hv.make_aux_vcpu(0)
    assert (a.vm.vmid, a.name) == (2, "aux2.v0")
    assert sorted(vm.name for vm in hv.vms.values()) == [
        "aux2", "enclave1", "primary"]


@pytest.mark.parametrize("pcpu", [-1, 1], ids=["minus-one", "pcpus"])
def test_a_refused_aux_uses_up_no_vmid(pcpu):
    sim = boot()
    with pytest.raises(SimulationError, match="^no pcpu %d$" % pcpu):
        sim.hv.make_aux_vcpu(pcpu)
    assert sim.hv.make_aux_vcpu(0).name == "aux1.v0"


@pytest.mark.parametrize("pcpu", [-1, 1], ids=["minus-one", "pcpus"])
def test_arm_timer_rejects_a_missing_pcpu(pcpu):
    sim = boot()
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for_pages("spinner", 4, 1))
    events = len(sim.trace.events)
    with pytest.raises(SimulationError, match="^no pcpu %d$" % pcpu):
        sim.arm_timer(3, pcpu)
    assert len(sim.trace.events) == events
    # nothing was queued: the invoke runs to the end and the enclave goes
    status, reply = driver.invoke(fd, 1, bytes.fromhex("0200000004000000"))
    assert (status, reply) == (ChannelStatus.DONE, b"spun")
    driver.destroy(fd)
    assert not sim.hv.enclaves


@pytest.mark.parametrize("pcpu", [0.0, True], ids=repr)
@pytest.mark.parametrize("entry", ["timer", "interrupt", "primary"])
def test_a_pcpu_id_that_is_not_an_int_is_refused(entry, pcpu):
    """A float or a bool names no pCPU, even one equal to a pCPU's id: it is
    refused before any event or queued timer, and a later invoke on the same
    pCPU runs to the end."""
    sim = boot(pcpus=2)
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for_pages("spinner", 4, 1))
    target = sim.primary_vcpu(int(pcpu))
    calls = {"timer": lambda: sim.arm_timer(3, pcpu),
             "interrupt": lambda: sim.hv.deliver_interrupt(pcpu, target),
             "primary": lambda: sim.primary_vcpu(pcpu)}
    events = len(sim.trace.events)
    with pytest.raises(SimulationError,
                       match="^no pcpu %s$" % re.escape(repr(pcpu))):
        calls[entry]()
    assert len(sim.trace.events) == events and sim._timers == []
    status, reply = driver.invoke(fd, 1, bytes.fromhex("0200000004000000"))
    assert (status, reply) == (ChannelStatus.DONE, b"spun")
    assert {type(pcpu) for _, _, pcpu, _, _ in sim.trace.events} == {int}


@pytest.mark.parametrize("pcpu", [-1, 2], ids=["minus-one", "pcpus"])
def test_driver_rejects_a_missing_pcpu(pcpu):
    sim = boot(pcpus=2)
    driver = EnclaveDriver(sim)
    free, events = allocations(driver.allocator), len(sim.trace.events)
    with pytest.raises(SimulationError, match="^no pcpu %d$" % pcpu):
        driver.create(image_for_pages("echo", 3, 1), pcpu=pcpu)
    assert allocations(driver.allocator) == free
    assert driver.open_fds() == []
    assert len(sim.trace.events) == events


@pytest.mark.parametrize("pcpu", [-1, 1], ids=["minus-one", "pcpus"])
@pytest.mark.parametrize("entry", ["aux", "schedule", "yield"])
def test_raw_scheduling_rejects_a_missing_pcpu(entry, pcpu):
    sim = boot()
    hv = sim.hv
    aux = hv.make_aux_vcpu(0)
    calls = {"aux": lambda: hv.make_aux_vcpu(pcpu),
             "schedule": lambda: hv.schedule_vcpu(pcpu, aux),
             "yield": lambda: hv.yield_vcpu(pcpu)}
    events, vms = len(sim.trace.events), set(hv.vms)
    with pytest.raises(SimulationError, match="^no pcpu %d$" % pcpu):
        calls[entry]()
    assert len(sim.trace.events) == events
    assert set(hv.vms) == vms
    assert hv.stack_of(0) == [sim.primary_vcpu(0)]


# -- guest run loop ------------------------------------------------------------


def test_program_falling_off_the_end_pops_without_exit_call():
    def loader(first_page):
        def factory(rec):
            def prog():
                yield Work(2)
            return prog()
        return factory

    sim = Simulation(MachineConfig(frames=64))
    sim.hv.program_loader = loader
    handle = sim.hv.create_enclave(sim.primary_vcpu(0), (40, 41), ImageMeta(1, 1))
    ledger = sim.machine.ledger
    before = ledger.snapshot()
    outcome = sim.hv.invoke_enclave(sim.primary_vcpu(0), handle)
    assert outcome is Resumption.COMPLETED
    assert ledger.hypercalls - before["hypercalls"] == 1  # invoke, no exit
    assert ledger.ctx_switches - before["ctx_switches"] == 2
    assert ledger.work_units - before["work_units"] == 2
    step, kind, _, _, _ = sim.trace.events[-1]
    assert kind == "ctx_switch" \
        and sim.trace.details[step]["reason"] == "finish"


@pytest.mark.parametrize("units", [2.5, True, "3"], ids=repr)
def test_run_loop_refuses_work_units_that_are_not_an_int(units):
    """Work units are charged to the clock, which the trace writes as an
    int: a float, a bool or a string is refused through the finish unwind,
    before any work event, and the invoker is running again."""
    def loader(first_page):
        def factory(rec):
            def prog():
                yield Work(units)
            return prog()
        return factory

    sim = Simulation(MachineConfig(frames=64))
    sim.hv.program_loader = loader
    primary = sim.primary_vcpu(0)
    handle = sim.hv.create_enclave(primary, (40, 41), ImageMeta(1, 1))
    events = len(sim.trace.events)
    with pytest.raises(SimulationError, match="^work units %s are not an int$"
                       % re.escape(repr(units))):
        sim.hv.invoke_enclave(primary, handle)
    assert sim.hv.stack_of(0) == [primary]
    kinds = [kind for _, kind, _, _, _ in sim.trace.events[events:]]
    assert "work" not in kinds and kinds[-1] == "ctx_switch"
    assert sim.trace.details[-1]["reason"] == "finish"
    assert type(sim.now()) is int


def test_program_that_raises_leaves_through_the_finish_unwind():
    """An error raised inside a guest, or by the run loop refusing the step
    a guest yields, reaches the invoker with the invoker running again,
    after the same `finish` unwind a returning program takes, so the pCPU
    serves the next invoke.  The program is over: invoking it again
    completes at once and runs none of the steps it had left."""
    faults = [  # (what the guest does after some work, the error it meets)
        (None, r"^guest fault mid-command$"),
        (Work(-1), r"^negative work$"),
        ("junk", r"^guest enclave\d+\.v0 yielded 'junk'$"),
        (Hypercall(), r"^unknown hypercall Hypercall\(\)$"),
    ]
    steps = [step for step, _ in faults]

    def loader(page0):
        if b"TA!spinner" not in page0:
            return load_program(page0)
        step = steps.pop(0)

        def factory(rec):
            def prog():
                yield Work(3)
                if step is None:
                    raise SimulationError("guest fault mid-command")
                yield step
                yield Work(5)
            return prog()
        return factory

    sim = Simulation(MachineConfig(frames=256))
    sim.hv.program_loader = loader
    driver = EnclaveDriver(sim)
    echo = driver.create(image_for_pages("echo", 4, 1))
    for _, error in faults:
        faulty = driver.create(image_for_pages("spinner", 4, 1))
        with pytest.raises(SimulationError, match=error):
            driver.invoke(faulty, 1, b"")
        assert sim.hv.stack_of(0) == [sim.primary_vcpu(0)]
        step, kind, _, _, _ = sim.trace.events[-1]
        assert kind == "ctx_switch" \
            and sim.trace.details[step]["reason"] == "finish"
        assert check_stack_integrity(sim.hv) == []
        assert driver.invoke(echo, 0, b"still here") == (ChannelStatus.DONE,
                                                         b"still here")
        ledger, handle = sim.machine.ledger, driver.record_of(faulty).handle
        before = ledger.work_units
        assert sim.hv.invoke_enclave(sim.primary_vcpu(0), handle) \
            is Resumption.COMPLETED
        assert ledger.work_units == before
        assert sim.hv.stack_of(0) == [sim.primary_vcpu(0)]
