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
    assert machine.ledger.zero_bytes == PAGE_SIZE


def test_bounds_checking(machine):
    with pytest.raises(OutOfRange):
        machine.read_frame(8, 0, 1)
    with pytest.raises(OutOfRange):
        machine.read_frame(-1, 0, 1)
    with pytest.raises(OutOfRange):
        machine.write_frame(0, PAGE_SIZE - 2, b"abc", BY, False)
    with pytest.raises(OutOfRange):
        machine.read_frame(0, PAGE_SIZE, 1)


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


def test_ledger_units_weighted():
    ledger = CostLedger(pt_ops=3, zero_bytes=2 * PAGE_SIZE, ctx_switches=5,
                        hypercalls=7, work_units=11)
    assert ledger.units() == 3 + 2 + 5 + 7 + 11


def test_ledger_snapshot_and_reset():
    ledger = CostLedger(pt_ops=1, zero_bytes=2, ctx_switches=3, hypercalls=4,
                        work_units=5)
    snap = ledger.snapshot()
    assert snap == {"pt_ops": 1, "zero_bytes": 2, "ctx_switches": 3,
                    "hypercalls": 4, "work_units": 5}
    ledger.pt_ops = 9
    assert ledger.units() == 21
    # the snapshot is a copy, not a view
    assert snap["pt_ops"] == 1


def test_now_is_ledger_units(machine):
    before = machine.now()
    machine.zero_frame(0, BY)
    assert machine.now() == before + 1  # one unit per zeroed page


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


def test_frames_hold_buffers_only_between_write_and_zero(machine):
    assert machine.frames == {}
    assert machine.read_frame(5, 10, 3) == bytes(3)
    machine.write_frame(5, 10, b"abc", BY, False)
    assert set(machine.frames) == {5}
    machine.zero_frame(5, BY)
    machine.zero_frame(6, BY)
    assert machine.frames == {}
    assert machine.ledger.zero_bytes == 2 * PAGE_SIZE
