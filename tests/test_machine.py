"""Physical machine: frames, cost ledger, observer fan-out."""
import pytest

from enclavesim.errors import ConfigError, OutOfRange
from enclavesim.machine import (
    PAGE_SIZE,
    CostLedger,
    MachineConfig,
    Observer,
    PhysicalMachine,
)
from enclavesim.sim import Simulation
from enclavesim.trace import TraceRecorder

# the acting vCPU, which the machine only hands on to its observers
BY = object()


@pytest.fixture
def machine():
    return PhysicalMachine(MachineConfig(frames=8, pcpus=2, os_reserved_pages=0))


def test_boot_state(machine):
    assert machine.n_frames == 8
    assert len(machine.pcpus) == 2
    assert [p.id for p in machine.pcpus] == [0, 1]
    assert all(machine.frame_is_zero(f) for f in range(8))
    assert machine.fault_count == 0


def test_read_write_roundtrip(machine):
    machine.write_frame(3, 100, b"hello", BY, False)
    assert machine.read_frame(3, 100, 5) == b"hello"
    assert machine.read_frame(3, 99, 7) == b"\x00hello\x00"
    assert not machine.frame_is_zero(3)


def test_zero_frame(machine):
    machine.write_frame(2, 0, b"\xff" * PAGE_SIZE, BY, False)
    machine.zero_frame(2, BY)
    assert machine.frame_is_zero(2)
    # the page is charged when its zero_frame event is recorded, which a
    # bare machine, without the simulation's TraceObserver, does not do
    assert machine.ledger.zero_bytes == 0 and machine.trace.events == []


def test_bounds_checking(machine):
    with pytest.raises(OutOfRange):
        machine.read_frame(8, 0, 1)
    with pytest.raises(OutOfRange):
        machine.read_frame(-1, 0, 1)
    with pytest.raises(OutOfRange):
        machine.write_frame(0, PAGE_SIZE - 2, b"abc", BY, False)
    with pytest.raises(OutOfRange):
        machine.read_frame(0, PAGE_SIZE, 1)
    for call in (lambda: machine.write_frame(8, 0, b"a", BY, False),
                 lambda: machine.zero_frame(8, BY),
                 lambda: machine.frame_is_zero(-1)):
        with pytest.raises(OutOfRange, match=r"^frame -?\d+ outside \[0, 8\)$"):
            call()
    assert machine.frames == {}


def test_write_observer_carries_data(machine):
    seen = []

    class Spy(Observer):
        def on_write(self, frame, offset, data, by, channel):
            seen.append((frame, offset, bytes(data), by, channel))

        def on_zero(self, frame, by):
            seen.append(("zero", frame, by))

    machine.observers.append(Spy())
    machine.write_frame(1, 7, b"xyz", BY, False)
    machine.write_frame(2, 0, b"c", BY, True)
    machine.zero_frame(1, BY)
    assert seen == [(1, 7, b"xyz", BY, False), (2, 0, b"c", BY, True),
                    ("zero", 1, BY)]


def _charge(trace, counts):
    """Record `counts[kind]` events of each kind; a work event of 1 unit."""
    for kind, n in counts.items():
        for _ in range(n):
            trace.emit(kind, 0, None, {"units": 1} if kind == "work" else {})


def test_ledger_units_weighted():
    """Each field counts a unit per event, and zeroed bytes a page; the
    clock is the sum of the units."""
    trace = TraceRecorder()
    _charge(trace, {"s2_map": 1, "s2_unmap": 1, "s2_protect": 1,
                    "zero_frame": 2, "ctx_switch": 5, "hypercall": 7,
                    "work": 11, "fault": 13, "push": 17})
    assert CostLedger(trace).snapshot() == {
        "pt_ops": 3, "zero_bytes": 2 * PAGE_SIZE, "ctx_switches": 5,
        "hypercalls": 7, "work_units": 11}
    assert trace.t == 3 + 2 + 5 + 7 + 11


def test_ledger_snapshot_and_reset():
    """The ledger is a read-only view: no field can be set, and it follows
    the trace, while a snapshot is a copy."""
    trace = TraceRecorder()
    ledger = CostLedger(trace)
    _charge(trace, {"s2_map": 1, "zero_frame": 2, "ctx_switch": 3,
                    "hypercall": 4, "work": 5})
    snap = ledger.snapshot()
    assert snap == {"pt_ops": 1, "zero_bytes": 2 * PAGE_SIZE,
                    "ctx_switches": 3, "hypercalls": 4, "work_units": 5}
    for name in snap:
        with pytest.raises(AttributeError):
            setattr(ledger, name, 9)
    _charge(trace, {"s2_unmap": 8})
    assert ledger.pt_ops == 9 and trace.t == 23
    assert snap["pt_ops"] == 1


def test_now_is_ledger_units():
    """The clock is the trace's running total: a simulation's zeroed page
    costs one unit, charged as its zero_frame event is recorded."""
    sim = Simulation(MachineConfig(frames=8, os_reserved_pages=0))
    machine = sim.machine
    before = sim.now()
    machine.zero_frame(0, sim.primary_vcpu())
    assert sim.now() == before + 1 == machine.trace.t \
        == machine.trace.events[-1][4]
    assert machine.ledger.zero_bytes == PAGE_SIZE


@pytest.mark.parametrize("config", [
    MachineConfig(pcpus=0),
    MachineConfig(frames=128, os_reserved_pages=-3),
    MachineConfig(frames=0),
    MachineConfig(frames=-5),
    MachineConfig(max_vms=0),
    MachineConfig(frames=256, os_reserved_pages=300),
], ids=repr)
def test_bad_config_is_a_config_error(config):
    for build in (PhysicalMachine, Simulation):
        with pytest.raises(ConfigError):
            build(config)


def test_frames_hold_buffers_only_between_write_and_zero():
    sim = Simulation(MachineConfig(frames=8, os_reserved_pages=0))
    machine, by = sim.machine, sim.primary_vcpu()
    assert machine.frames == {}
    assert machine.read_frame(5, 10, 3) == bytes(3)
    machine.write_frame(5, 10, b"abc", by, False)
    assert set(machine.frames) == {5}
    machine.zero_frame(5, by)
    machine.zero_frame(6, by)
    assert machine.frames == {}
    # a frame that held no buffer is still zeroed, and charged, as a page
    assert machine.ledger.zero_bytes == 2 * PAGE_SIZE
