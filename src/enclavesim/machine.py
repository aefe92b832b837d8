"""Physical machine model: frames of memory, pCPUs, and the cost ledger.

All byte content lives here; every other module reads and writes frames
through this one.  Memory is sparse: a frame holds a buffer only from its
first write until it is next zeroed, and a frame with no buffer reads as
zeros, so a machine costs what a run touches, not what it could address.
Cost accounting is a set of monotonic counters; simulated time is their
sum, one unit per charged event, per work unit and per zeroed page, so
identical operation sequences always produce identical timelines.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .errors import ConfigError, OutOfRange
from .trace import TraceRecorder

PAGE_SIZE = 4096
PAGE_SHIFT = 12
OFFSET_MASK = PAGE_SIZE - 1


class Observer:
    """Hook point for tracing and verification oracles.

    Subclasses override what they care about.  Hooks fire synchronously at
    the primitive that performs the action (frame writes and zeroing here,
    mapping changes in the stage-2 code), so an oracle sees the true
    operation order, not a reconstruction.  `by` is the vCPU an action is
    done for, and `channel` marks a channel protocol step's write.  Every
    hook has an oracle; an event only the trace consumes (scheduling,
    faults, channel steps) is recorded in ``PhysicalMachine.trace`` by the
    code that causes it.
    """

    def on_write(self, frame: int, offset: int, data: bytes, by,
                 channel: bool) -> None:
        pass

    def on_zero(self, frame: int, by) -> None:
        pass

    def on_map(self, vm: int, ipa_page: int, frame: int, perms, by) -> None:
        pass

    def on_unmap(self, vm: int, ipa_page: int, frame: int, by) -> None:
        pass

    def on_protect(self, vm: int, ipa_page: int, frame: int, old, new,
                   by) -> None:
        pass


# What a machine may be.  Boot builds one object per pCPU, a payload may be
# as large as memory and a sweep for a pattern in the zero page visits every
# frame, so the bounds keep one config from exhausting host memory or time;
# os_reserved_pages is bounded by the machine's own frame count.
MACHINE_BOUNDS = {"frames": range(1, 65536 + 1), "pcpus": range(1, 64 + 1),
                  "max_vms": range(1, 1 << 32)}


@dataclass
class MachineConfig:
    frames: int = 8192          # 32 MiB at the default page size
    pcpus: int = 1
    max_vms: int = 16
    os_reserved_pages: int = 64  # low pages kept by the OS, never donated

    def check(self) -> None:
        """Raise ConfigError naming the first field outside its bounds."""
        bounds = dict(MACHINE_BOUNDS, os_reserved_pages=range(self.frames + 1))
        for name, valid in bounds.items():
            value = getattr(self, name)
            if value not in valid:
                raise ConfigError("%s %r not in %r" % (name, value, valid))


@dataclass
class CostLedger:
    pt_ops: int = 0
    zero_bytes: int = 0
    ctx_switches: int = 0
    hypercalls: int = 0
    work_units: int = 0

    def snapshot(self) -> dict:
        return {
            "pt_ops": self.pt_ops,
            "zero_bytes": self.zero_bytes,
            "ctx_switches": self.ctx_switches,
            "hypercalls": self.hypercalls,
            "work_units": self.work_units,
        }

    def units(self) -> int:
        """Total simulated time in abstract cost units: one per page-table
        op, context switch, hypercall, work unit and zeroed page."""
        return (self.pt_ops + self.ctx_switches + self.hypercalls
                + self.work_units + self.zero_bytes // PAGE_SIZE)


@dataclass
class Pcpu:
    id: int
    # the vCPU stack, base first, running vCPU last; only the hypervisor
    # pushes and pops it
    stack: List[object] = field(default_factory=list)


class PhysicalMachine:
    """Sparse frames plus pCPUs, the ledger and the trace.

    ``frames`` maps a frame number to its buffer and holds only the frames
    written since their last zeroing; every other frame of [0, n_frames)
    reads as zeros.  Zeroing drops the buffer, and still charges a page of
    ``zero_bytes`` and fires ``on_zero``.  ``trace`` is the run's one
    record, stamped with the ledger's clock.
    """

    def __init__(self, config: Optional[MachineConfig] = None):
        self.config = config or MachineConfig()
        self.config.check()
        self.n_frames = self.config.frames
        self.frames: Dict[int, bytearray] = {}
        self.pcpus = [Pcpu(i) for i in range(self.config.pcpus)]
        self.ledger = CostLedger()
        self.trace = TraceRecorder(self.ledger.units)
        self.observers: List[Observer] = []
        # translation faults served so far (not a cost, a cross-check
        # against the trace)
        self.fault_count = 0

    def _check_frame(self, frame: int) -> None:
        if not 0 <= frame < self.n_frames:
            raise OutOfRange(f"frame {frame} outside [0, {self.n_frames})")

    def read_frame(self, frame: int, offset: int, length: int) -> bytes:
        # _check_frame's test, with no call: every guest access comes here
        if not 0 <= frame < self.n_frames:
            raise OutOfRange(f"frame {frame} outside [0, {self.n_frames})")
        if offset < 0 or length < 0 or offset + length > PAGE_SIZE:
            raise OutOfRange(f"read [{offset}, {offset + length}) crosses frame end")
        buf = self.frames.get(frame)
        if buf is None:
            return bytes(length)
        return bytes(buf[offset:offset + length])

    def write_frame(self, frame: int, offset: int, data: bytes, by,
                    channel: bool) -> None:
        # _check_frame's test, with no call: every guest access comes here
        if not 0 <= frame < self.n_frames:
            raise OutOfRange(f"frame {frame} outside [0, {self.n_frames})")
        if offset < 0 or offset + len(data) > PAGE_SIZE:
            raise OutOfRange(f"write [{offset}, {offset + len(data)}) crosses frame end")
        buf = self.frames.get(frame)
        if buf is None:
            buf = self.frames[frame] = bytearray(PAGE_SIZE)
        buf[offset:offset + len(data)] = data
        for obs in self.observers:
            obs.on_write(frame, offset, data, by, channel)

    def zero_frame(self, frame: int, by) -> None:
        self._check_frame(frame)
        self.frames.pop(frame, None)
        self.ledger.zero_bytes += PAGE_SIZE
        for obs in self.observers:
            obs.on_zero(frame, by)

    def frame_is_zero(self, frame: int) -> bool:
        self._check_frame(frame)
        buf = self.frames.get(frame)
        return buf is None or buf.count(0) == PAGE_SIZE

    def now(self) -> int:
        """Current simulated time, derived from the ledger."""
        return self.ledger.units()
