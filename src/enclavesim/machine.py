"""Physical machine model: frames of memory, pCPUs, and the cost ledger.

All byte content lives here; every other module reads and writes frames
through this one.  Memory is sparse: a frame holds a buffer only from its
first write until it is next zeroed, and a frame with no buffer reads as
zeros, so a machine costs what a run touches, not what it could address.
Simulated time is the trace's running total (``trace.COST``): ``now()``
returns its ``t`` and the cost ledger is a read-only view of its per-kind
totals, so identical operation sequences always produce identical timelines.
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


def _total(*kinds: str, scale: int = 1) -> property:
    """A ledger field: the trace's totals of `kinds`, times `scale`."""
    return property(lambda self: scale * sum(
        self._trace.totals[kind] for kind in kinds))


class CostLedger:
    """The cost ledger: a read-only view of a trace's per-kind totals, in
    the five fields the cost model names.  Page-table ops count the
    ``s2_*`` events and zeroed bytes a page per ``zero_frame`` event."""

    __slots__ = ("_trace",)
    FIELDS = ("pt_ops", "zero_bytes", "ctx_switches", "hypercalls",
              "work_units")
    pt_ops = _total("s2_map", "s2_unmap", "s2_protect")
    zero_bytes = _total("zero_frame", scale=PAGE_SIZE)
    ctx_switches = _total("ctx_switch")
    hypercalls = _total("hypercall")
    work_units = _total("work")

    def __init__(self, trace: TraceRecorder):
        self._trace = trace

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


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
    reads as zeros.  Zeroing drops the buffer and fires ``on_zero``, where
    ``sim.TraceObserver`` records the ``zero_frame`` event that charges
    the page.  ``trace`` is the run's one record and ``ledger`` a view of
    its totals.
    """

    def __init__(self, config: Optional[MachineConfig] = None):
        self.config = config or MachineConfig()
        self.config.check()
        self.n_frames = self.config.frames
        self.frames: Dict[int, bytearray] = {}
        self.pcpus = [Pcpu(i) for i in range(self.config.pcpus)]
        self.trace = TraceRecorder()
        self.ledger = CostLedger(self.trace)
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
        for obs in self.observers:
            obs.on_zero(frame, by)

    def frame_is_zero(self, frame: int) -> bool:
        self._check_frame(frame)
        buf = self.frames.get(frame)
        return buf is None or buf.count(0) == PAGE_SIZE

    def now(self) -> int:
        """Current simulated time: the trace's running total."""
        return self.trace.t
