"""Top-level simulation wiring.

A Simulation owns one machine (which holds the trace), one hypervisor, a
timer queue and a seeded RNG; it takes only a config and a seed.  Its
hypervisor loads programs with ``ta_runtime.load_program``; a caller that
needs other programs sets ``hv.program_loader``.  Everything observable is
recorded in the trace, so identical (config, seed, operations) always
serialize to byte-identical JSON lines.  An event only the trace consumes
is emitted by the vCPU or code that causes it (scheduling, faults, channel
steps, and boot and timers here); the mapping and zeroing events reach the
trace through ``TraceObserver``, on the hook points the oracles watch,
named by the hook's `by`: the caller of the hypercall that maps or zeroes.

Simulated time is the trace's running total: recording an event charges
its cost, so ``TraceObserver`` charges the table ops and zeroed pages.  It
stays an observer while the benchmark builds its span list from its hooks.
Timers fire against that clock from inside the hypervisor's run loop,
which reads the earliest deadline of the shared heap after each guest step
and calls ``check_timers`` only once it is due; that is what makes
mid-command preemption deterministic.
"""
from __future__ import annotations

import heapq
import random
from typing import List, Optional, Tuple, Union

from .errors import OutOfRange, SimulationError
from .hypervisor import Hypervisor, Vcpu, Vm
from .machine import MachineConfig, Observer, PhysicalMachine
from .stage2 import Access, AccessFault, Perms, guest_access
from .ta_runtime import load_program


class TraceObserver(Observer):
    """Bridges the memory-level hooks into trace events, one `emit` each,
    and so charges each table op and zeroed page."""

    def __init__(self, sim: "Simulation"):
        self.trace = sim.trace

    def on_map(self, vm: int, ipa_page: int, frame: int, perms: Perms,
               by: Vcpu) -> None:
        self.trace.emit("s2_map", by.pcpu, by.name,
                        {"vm": vm, "ipa_page": ipa_page, "frame": frame,
                         "perms": perms.tag()})

    def on_unmap(self, vm: int, ipa_page: int, frame: int, by: Vcpu) -> None:
        self.trace.emit("s2_unmap", by.pcpu, by.name,
                        {"vm": vm, "ipa_page": ipa_page, "frame": frame})

    def on_protect(self, vm: int, ipa_page: int, frame: int,
                   old: Perms, new: Perms, by: Vcpu) -> None:
        self.trace.emit("s2_protect", by.pcpu, by.name,
                        {"vm": vm, "ipa_page": ipa_page, "frame": frame,
                         "old": old.tag(), "new": new.tag()})

    def on_zero(self, frame: int, by: Vcpu) -> None:
        self.trace.emit("zero_frame", by.pcpu, by.name, {"frame": frame})


class Simulation:
    def __init__(self, config: Optional[MachineConfig] = None, seed: int = 0):
        self.machine = PhysicalMachine(config)
        self.trace = self.machine.trace
        self._timers: List[Tuple[int, int, int]] = []  # (deadline, seq, pcpu)
        self._timer_seq = 0
        self.hv = Hypervisor(self.machine, load_program, self.check_timers,
                             self._timers)
        self.rng = random.Random(seed)
        self.machine.observers.append(TraceObserver(self))
        cfg = self.machine.config
        self.trace.emit("boot", 0, self.machine.pcpus[0].stack[-1].name,
                        {"frames": cfg.frames, "pcpus": cfg.pcpus,
                         "max_vms": cfg.max_vms, "seed": seed,
                         "os_reserved_pages": cfg.os_reserved_pages})

    # -- time ---------------------------------------------------------------

    def now(self) -> int:
        """Current simulated time: the trace's running total."""
        return self.trace.t

    def arm_timer(self, delay: int, pcpu_id: int = 0) -> int:
        """Schedule an interrupt for the primary vCPU of `pcpu_id` once the
        clock reaches now()+delay.  Returns the deadline."""
        self.hv.check_pcpu(pcpu_id)
        if type(delay) is not int:      # a float deadline, or a bool
            raise SimulationError("timer delay %r is not an int" % (delay,))
        if delay < 0:
            raise SimulationError("negative timer delay %d" % delay)
        deadline = self.now() + delay
        heapq.heappush(self._timers, (deadline, self._timer_seq, pcpu_id))
        self._timer_seq += 1
        self.trace.emit("timer_armed", pcpu_id,
                        self.machine.pcpus[pcpu_id].stack[-1].name,
                        {"deadline": deadline})
        return deadline

    def check_timers(self) -> None:
        """Fire every due timer.  The run loop calls it after a guest step
        once the earliest deadline is due; it may also be called between
        driver operations."""
        while self._timers and self._timers[0][0] <= self.trace.t:
            deadline, _, pcpu_id = heapq.heappop(self._timers)
            self.trace.emit("timer_fired", pcpu_id,
                            self.machine.pcpus[pcpu_id].stack[-1].name,
                            {"deadline": deadline})
            self.hv.deliver_interrupt(pcpu_id, self.hv.primary.vcpus[pcpu_id])

    # -- guest memory access --------------------------------------------------

    def vm_read(self, vm: Vm, ipa: int, length: int) -> Union[bytes, AccessFault]:
        out, _ = guest_access(self.machine, vm.table, ipa, Access.READ,
                              length=length, by=vm.vcpus[0])
        return out

    def vm_write(self, vm: Vm, ipa: int, data: bytes) -> Union[bytes, AccessFault]:
        # None goes on to guest_access, which refuses a write without data
        if not isinstance(data, (bytes, bytearray, memoryview, type(None))):
            raise OutOfRange("write data must be bytes-like, not %s"
                             % type(data).__name__)
        out, _ = guest_access(self.machine, vm.table, ipa, Access.WRITE,
                              data=data, by=vm.vcpus[0])
        return out

    def primary_vcpu(self, pcpu_id: int = 0) -> Vcpu:
        self.hv.check_pcpu(pcpu_id)
        return self.hv.primary.vcpus[pcpu_id]
