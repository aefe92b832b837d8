"""Primary-OS allocator and enclave driver behavior."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enclavesim.channel import ChannelStatus
from enclavesim.errors import (BadFd, ChannelError, DriverError, Exhausted,
                               NoMemory, OutOfRange)
from enclavesim.guest_os import FD_BASE, FD_CAPACITY, EnclaveDriver, OsAllocator
from enclavesim.harness import (
    WriteConfinementOracle,
    ZeroizeWatch,
    check_allocator_conservation,
    standard_checks,
)
from enclavesim.image import EnclaveImage
from enclavesim.machine import MachineConfig, Observer
from enclavesim.sim import Simulation
from enclavesim.stage2 import PERM_RWX, Access, guest_access
from enclavesim.ta_runtime import image_for_pages

from snapshots import allocations, full_state


def make_driver(frames=256, max_vms=16):
    sim = Simulation(MachineConfig(frames=frames, max_vms=max_vms))
    return sim, EnclaveDriver(sim)


# -- allocator -----------------------------------------------------------------


def test_allocate_lowest_first():
    alloc = OsAllocator(10, 20)
    aid, pages = alloc.allocate(3)
    assert pages == [10, 11, 12]
    _, more = alloc.allocate(2)
    assert more == [13, 14]
    alloc.free(aid)
    _, again = alloc.allocate(4)
    assert again == [10, 11, 12, 15]


def test_contiguous_allocation():
    alloc = OsAllocator(10, 20)
    a, _ = alloc.allocate(1)        # takes 10
    b, _ = alloc.allocate(1)        # takes 11
    alloc.free(a)                   # free list: 10, 12..19
    _, run = alloc.allocate_contiguous(3)
    assert run == [12, 13, 14]
    with pytest.raises(NoMemory):
        alloc.allocate_contiguous(6)  # longest run left is 15..19


def test_allocator_errors():
    alloc = OsAllocator(10, 14)
    with pytest.raises(DriverError):
        alloc.allocate(0)
    with pytest.raises(NoMemory):
        alloc.allocate(5)
    aid, _ = alloc.allocate(2)
    alloc.free(aid)
    with pytest.raises(DriverError):
        alloc.free(aid)


def test_double_free_detected_via_overlap():
    alloc = OsAllocator(10, 20)
    aid, pages = alloc.allocate(2)
    alloc.allocations[99] = list(pages)  # simulate corrupted bookkeeping
    problems = check_allocator_conservation(alloc)
    assert "page 10 in allocations 10 and 99" in problems
    assert "page 11 in allocations 10 and 99" in problems


def test_allocator_check_flags_pages_it_could_not_hand_out():
    alloc = OsAllocator(10, 20)
    assert check_allocator_conservation(alloc) == []
    alloc.allocations[12] = [13, 14]
    alloc.allocations[20] = [20]
    assert check_allocator_conservation(alloc) == [
        "allocation 12 not keyed by its first page",
        "page 20 of allocation 20 outside region [10, 20)"]


def test_fresh_allocator_holds_nothing_at_65536_frames():
    sim, driver = make_driver(frames=65536)
    assert allocations(driver.allocator) == ()
    assert len(_free_pages(driver.allocator)) == 65536 - 64


def test_aid_rollback_keeps_error_paths_invisible():
    alloc = OsAllocator(10, 20)
    snap = allocations(alloc)
    aid, _ = alloc.allocate(3)
    alloc.free(aid)
    assert allocations(alloc) == snap
    # an allocation's id is its first page: page 10, freed and taken
    # again, names its new allocation too
    a, pages_a = alloc.allocate(1)
    b, pages_b = alloc.allocate(2)
    assert (a, b) == (pages_a[0], pages_b[0]) == (10, 11)
    alloc.free(a)
    c, pages_c = alloc.allocate_contiguous(3)
    assert c == pages_c[0] == 13
    d, pages_d = alloc.allocate(1)
    assert d == pages_d[0] == 10


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=11), max_size=60))
def test_allocator_conservation_property(rolls):
    alloc = OsAllocator(64, 128)
    live = []
    for roll in rolls:
        if roll < 6 or not live:
            n = roll % 4 + 1
            free = _free_pages(alloc)
            if n <= len(free):
                aid, pages = alloc.allocate(n)
                assert pages == free[:n]
                live.append(aid)
        elif roll < 9:
            aid = live.pop(roll % len(live))
            alloc.free(aid)
        else:
            n = roll % 3 + 1
            try:
                aid, pages = alloc.allocate_contiguous(n)
            except NoMemory:
                continue
            assert pages == list(range(pages[0], pages[0] + n))
            live.append(aid)
        assert check_allocator_conservation(alloc) == []
        held = sum(map(len, alloc.allocations.values()))
        assert held + len(_free_pages(alloc)) == 128 - 64


def _free_pages(alloc):
    """The region's pages in no allocation, in order."""
    held = {p for pages in alloc.allocations.values() for p in pages}
    return [p for p in range(*alloc.region) if p not in held]


def _reference_allocate_contiguous(alloc, n):
    """The allocator's earlier loop: scan the whole free list run by run and
    take the first run of at least `n` pages."""
    if n < 1:
        raise DriverError("allocation of %d pages" % n)
    free = _free_pages(alloc)
    run_start = 0
    for i in range(1, len(free) + 1):
        if i == len(free) or free[i] != free[i - 1] + 1:
            if i - run_start >= n:
                pages = free[run_start:run_start + n]
                alloc.allocations[pages[0]] = pages
                return pages[0], list(pages)
            run_start = i
    raise NoMemory("no contiguous run of %d pages" % n)


def _allocator_with_free(free_pages):
    """An allocator over pages 0..23 whose free list is `free_pages`, every
    other page held by its own one-page allocation."""
    alloc = OsAllocator(0, 24)
    for aid, (page,) in [alloc.allocate(1) for _ in range(24)]:
        if page in free_pages:
            alloc.free(aid)
    return alloc


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=23)),
       st.lists(st.integers(min_value=1, max_value=6), min_size=1,
                max_size=4))
def test_allocate_contiguous_matches_reference_loop(free_pages, sizes):
    alloc = _allocator_with_free(free_pages)
    ref = _allocator_with_free(free_pages)
    for n in sizes:
        try:
            want = _reference_allocate_contiguous(ref, n)
        except NoMemory:
            with pytest.raises(NoMemory):
                alloc.allocate_contiguous(n)
        else:
            assert alloc.allocate_contiguous(n) == want
        assert allocations(alloc) == allocations(ref)


# -- driver lifecycle ------------------------------------------------------------


def test_fds_start_at_base_and_reuse_lowest():
    sim, driver = make_driver()
    fd1 = driver.create(image_for_pages("echo", 3, 1))
    fd2 = driver.create(image_for_pages("echo", 3, 1))
    assert (fd1, fd2) == (FD_BASE, FD_BASE + 1)
    driver.destroy(fd1)
    fd3 = driver.create(image_for_pages("echo", 3, 1))
    assert fd3 == FD_BASE
    assert driver.open_fds() == [FD_BASE, FD_BASE + 1]


def test_invoke_roundtrip():
    sim, driver = make_driver()
    fd = driver.create(image_for_pages("echo", 3, 1))
    status, ret = driver.invoke(fd, 0, b"ping")
    assert status is ChannelStatus.DONE
    assert ret == b"ping"


def test_unknown_command_reports_error_status():
    sim, driver = make_driver()
    fd = driver.create(image_for_pages("echo", 3, 1))
    status, ret = driver.invoke(fd, 77, b"")
    assert status is ChannelStatus.ERROR


def test_resume_requires_preempted_channel():
    """The re-arm refuses a channel that is not PREEMPTED, before any
    hypercall."""
    sim, driver = make_driver()
    fd = driver.create(image_for_pages("echo", 3, 1))
    hypercalls = sim.machine.ledger.hypercalls
    with pytest.raises(ChannelError,
                       match="^rearm_request on channel status IDLE$"):
        driver.resume(fd)
    assert sim.machine.ledger.hypercalls == hypercalls


def test_bad_magic_refuses_invoke_before_any_hypercall():
    """A channel whose magic the primary overwrote refuses the request, so
    the enclave is never entered and the other enclave still invokes."""
    sim, driver = make_driver()
    fd = driver.create(image_for_pages("echo", 3, 1))
    other = driver.create(image_for_pages("echo", 3, 1))
    driver.fd_info(fd).channel._write(0, b"XXXX")
    hypercalls = sim.trace.count("hypercall")
    with pytest.raises(ChannelError, match="^bad channel magic b'XXXX'$"):
        driver.invoke(fd, 0, b"x")
    assert sim.trace.count("hypercall") == hypercalls
    assert sim.hv.stack_of(0) == [sim.primary_vcpu(0)]
    assert driver.invoke(other, 0, b"y") == (ChannelStatus.DONE, b"y")


@pytest.mark.parametrize("call,error,message", [
    (lambda sim, driver, fd: driver.invoke(fd, -1, b""), ChannelError,
     "^cmd_id -1 is not a u32$"),
    (lambda sim, driver, fd: driver.invoke(fd, 2**40, b"x"), ChannelError,
     "^cmd_id 1099511627776 is not a u32$"),
    (lambda sim, driver, fd: sim.vm_read(sim.hv.primary, 0, -1), OutOfRange,
     "^negative length -1$"),
    (lambda sim, driver, fd: driver.invoke(fd, 0, [1, 2]), ChannelError,
     "^payload must be bytes-like, not list$"),
    (lambda sim, driver, fd: driver.invoke(fd, 0, "str"), ChannelError,
     "^payload must be bytes-like, not str$"),
    (lambda sim, driver, fd: sim.vm_write(sim.hv.primary, 0, None),
     OutOfRange, "^write access requires data$"),
    (lambda sim, driver, fd: guest_access(
        sim.machine, sim.hv.primary.table, 0, Access.READ, data=b"x",
        by=sim.primary_vcpu(0)),
     OutOfRange, "^data only valid for write access$"),
], ids=["cmd-id-negative", "cmd-id-over-u32", "vm-read-negative-length",
        "payload-list", "payload-str", "vm-write-no-data",
        "read-with-data"])
def test_malformed_api_call_is_refused_before_any_access(call, error,
                                                         message):
    """A typed error before any frame is read or written, with no event and
    no charge; the enclave still serves the next valid request."""
    sim, driver = make_driver()
    fd = driver.create(image_for_pages("echo", 3, 1))
    events, ledger = len(sim.trace.events), sim.machine.ledger.snapshot()
    accesses = []
    for name in ("read_frame", "write_frame"):
        real = getattr(sim.machine, name)
        setattr(sim.machine, name,
                lambda *a, _real=real: accesses.append(a) or _real(*a))
    with pytest.raises(error, match=message):
        call(sim, driver, fd)
    assert accesses == []
    assert len(sim.trace.events) == events
    assert sim.machine.ledger.snapshot() == ledger
    assert driver.invoke(fd, 0, b"ok") == (ChannelStatus.DONE, b"ok")
    assert accesses     # the counters do see a real access


@pytest.mark.parametrize("data,kind", [
    ("abc", "str"), ([1, 2, 300], "list"), ([1, 2], "list"),
], ids=["str", "list-not-bytes", "list-of-bytes"])
def test_vm_write_refuses_data_that_is_not_bytes_like(data, kind):
    """A typed error before any access: no frame buffer is made, no hook
    fires, nothing is traced or charged."""
    sim = Simulation(MachineConfig(frames=128))
    machine = sim.machine
    frames = {f: bytes(buf) for f, buf in machine.frames.items()}
    events, ledger = len(sim.trace.events), machine.ledger.snapshot()
    hooks, log = [], Observer()
    for hook in ("on_write", "on_zero", "on_map", "on_unmap", "on_protect"):
        setattr(log, hook, lambda *a, _hook=hook: hooks.append((_hook,) + a))
    machine.observers.append(log)
    with pytest.raises(OutOfRange,
                       match="^write data must be bytes-like, not %s$" % kind):
        sim.vm_write(sim.hv.primary, 0, data)
    assert {f: bytes(buf) for f, buf in machine.frames.items()} == frames
    assert hooks == []
    assert len(sim.trace.events) == events
    assert machine.ledger.snapshot() == ledger
    # the same write as bytes goes through, and the hooks see it
    sim.vm_write(sim.hv.primary, 0, b"abc")
    assert hooks == [("on_write", 0, 0, b"abc", sim.primary_vcpu(0), False)]


def test_destroy_returns_allocator_to_prior_state():
    sim, driver = make_driver()
    snap = allocations(driver.allocator)
    fd = driver.create(image_for_pages("wallet", 4, 1))
    assert allocations(driver.allocator) != snap
    driver.destroy(fd)
    assert allocations(driver.allocator) == snap


def test_failed_create_rolls_back_allocator():
    sim, driver = make_driver(max_vms=2)
    driver.create(image_for_pages("echo", 3, 1))
    before = full_state(sim, driver)
    with pytest.raises(Exhausted):
        driver.create(image_for_pages("echo", 3, 1))
    assert full_state(sim, driver) == before


def test_standard_checks_flag_an_allocation_no_fd_holds():
    sim, driver = make_driver(max_vms=2)
    driver.create(image_for_pages("echo", 3, 1))     # pages 64-67
    with pytest.raises(Exhausted):
        driver.create(image_for_pages("echo", 3, 1))
    assert standard_checks(sim, driver) == []
    driver.allocator.allocate_contiguous(1)          # leaked: no fd holds it
    assert standard_checks(sim, driver) == [
        "allocation 68 held by no open fd"]
    driver.allocator.free(68)
    driver.allocator.free(64)                        # freed under a live fd
    assert standard_checks(sim, driver) == [
        "allocation 64 of an open fd not held"]


def test_create_with_no_memory_rolls_back():
    sim, driver = make_driver(frames=96)
    before = full_state(sim, driver)
    with pytest.raises(NoMemory):
        driver.create(image_for_pages("echo", 500, 1))
    assert full_state(sim, driver) == before


def _zero_page_channel(sim, driver):
    """An image with no channel page: its channel allocation is refused."""
    image = image_for_pages("echo", 3, 1)
    return EnclaveImage(image.mem_size_pages, 0, image.cmd_ids,
                        image.code_blob)


def _channel_run_too_short(sim, driver):
    """Pages 64-67 and 72-75 free: the private pages fit, no 5-page run
    is left for the channel."""
    fds = [driver.create(image_for_pages("echo", 3, 1)) for _ in range(4)]
    driver.destroy(fds[0])
    driver.destroy(fds[2])
    return image_for_pages("echo", 3, 5)


def _private_page_unmapped(sim, driver):
    """Page 64, the first the allocator hands out, unmapped from the
    primary's table: the blob load faults on it."""
    sim.hv.primary.table.unmap(64, sim.primary_vcpu(0))
    return image_for_pages("echo", 3, 1)


@pytest.mark.parametrize("setup, error, message", [
    (_zero_page_channel, DriverError, "^allocation of 0 pages$"),
    (_channel_run_too_short, NoMemory, "^no contiguous run of 5 pages$"),
    (_private_page_unmapped, DriverError, "^faulted writing own page 0x40$"),
], ids=["zero-page-channel", "channel-no-memory", "blob-fault"])
def test_refused_create_gives_back_every_allocation(setup, error, message):
    """A create refused after its private allocation went through, by the
    channel allocation or by the blob load, frees what it took: tables,
    allocator and fds are as before, and the end checks are clean."""
    sim, driver = make_driver(frames=80)
    image = setup(sim, driver)
    before = full_state(sim, driver)
    with pytest.raises(error, match=message):
        driver.create(image)
    assert full_state(sim, driver) == before
    if setup is _private_page_unmapped:
        sim.hv.primary.table.map(64, 64, PERM_RWX, sim.primary_vcpu(0))
    assert standard_checks(sim, driver) == []


def test_bad_fd_everywhere():
    sim, driver = make_driver()
    with pytest.raises(BadFd):
        driver.invoke(9, 0)
    with pytest.raises(BadFd):
        driver.destroy(9)
    with pytest.raises(BadFd):
        driver.record_of(9)
    fd = driver.create(image_for_pages("echo", 3, 1))
    driver.destroy(fd)
    with pytest.raises(BadFd):
        driver.invoke(fd, 0)
    with pytest.raises(BadFd):
        driver.record_of(fd)


def test_fd_table_fills_up():
    sim, driver = make_driver(frames=192, max_vms=20)
    for _ in range(FD_CAPACITY):
        driver.create(image_for_pages("echo", 3, 1))
    before = full_state(sim, driver)
    with pytest.raises(Exhausted):
        driver.create(image_for_pages("echo", 3, 1))
    assert full_state(sim, driver) == before


def test_channel_pages_are_contiguous():
    sim, driver = make_driver()
    # fragment the free list first so contiguity is not an accident
    holes = [driver.allocator.allocate(1)[0] for _ in range(6)]
    for aid in holes[::2]:
        driver.allocator.free(aid)
    fd = driver.create(image_for_pages("echo", 3, 2))
    rec = driver.fd_info(fd)
    first = rec.chan_pages[0]
    assert rec.chan_pages == [first, first + 1]
    assert rec.channel.base_ipa == first * 4096


# -- one driver for every pCPU -------------------------------------------------


def test_one_driver_serves_both_pcpus():
    sim = Simulation(MachineConfig(frames=256, pcpus=2))
    driver = EnclaveDriver(sim)
    zerowatch = ZeroizeWatch(sim.hv)
    confinement = WriteConfinementOracle(sim.hv)
    sim.machine.observers += [zerowatch, confinement]
    # every enclave lives at once, so both pCPUs draw on one allocator
    fds = {p: (driver.create(image_for_pages("echo", 3, 1), pcpu=p),
               driver.create(image_for_pages("spinner", 4, 1), pcpu=p))
           for p in (0, 1)}
    pinned = {v.name: v.pcpu for vm in sim.hv.vms.values() for v in vm.vcpus}
    assert [pinned[driver.record_of(fd).vm.vcpus[0].name]
            for p in (0, 1) for fd in fds[p]] == [0, 0, 1, 1]
    for p, (echo, spinner) in fds.items():
        assert driver.invoke(echo, 0, b"hi") == (ChannelStatus.DONE, b"hi")
        sim.arm_timer(10, p)
        assert driver.invoke(spinner, 1, bytes.fromhex("0600000004000000")) \
            == (ChannelStatus.PREEMPTED, b"")
        assert driver.resume(spinner) == (ChannelStatus.DONE, b"spun")
    for echo, spinner in fds.values():
        driver.destroy(echo)
        driver.destroy(spinner)
    assert not sim.hv.enclaves and driver.open_fds() == []
    assert standard_checks(sim, driver) == []
    assert zerowatch.violations == [] and confinement.violations == []
    # every event names the pCPU its vCPU is pinned to, and on pCPU 1 only
    # that pCPU's primary vCPU and its enclaves act
    events = sim.trace.events
    assert [pcpu for _, _, pcpu, _, _ in events] == [
        pinned[vcpu] for _, _, _, vcpu, _ in events]
    assert {vcpu for _, _, pcpu, vcpu, _ in events if pcpu == 1} == {
        "primary.v1", "enclave3.v0", "enclave4.v0"}


def test_create_on_pcpu_1_loads_its_blob_as_that_pcpus_primary():
    """The driver copies the code blob as the primary vCPU that issues the
    create, so a create on pCPU 1 stays confined while an aux vCPU runs on
    pCPU 0, and every write of its lifecycle names pCPU 1's vCPUs."""
    sim = Simulation(MachineConfig(frames=256, pcpus=2))
    driver = EnclaveDriver(sim)
    confinement = WriteConfinementOracle(sim.hv)
    writers = []

    class Spy(Observer):
        def on_write(self, frame, offset, data, by, channel):
            writers.append(by.name)

    sim.machine.observers += [confinement, Spy()]
    sim.hv.schedule_vcpu(0, sim.hv.make_aux_vcpu(0))
    fd = driver.create(image_for_pages("counter", 4, 1), pcpu=1)
    assert driver.invoke(fd, 1, b"") == (ChannelStatus.DONE,
                                         (1).to_bytes(4, "little"))
    driver.destroy(fd)
    assert confinement.violations == []
    assert writers[0] == "primary.v1"
    assert set(writers) == {"primary.v1", "enclave1.v0"}
