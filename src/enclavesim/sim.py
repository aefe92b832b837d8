"""Top-level simulation wiring.

A Simulation owns one machine, one hypervisor, one trace, a timer queue and
a seeded RNG.  Everything observable funnels into the trace through a
machine observer, so identical (config, seed, operations) always serialize
to byte-identical JSON lines.

Simulated time is the cost ledger's unit sum: one unit per charged event,
per work unit and per zeroed page.  The trace stamps every event with it,
and timers fire against that clock from inside the hypervisor's run loop,
which is what makes mid-command preemption deterministic.
"""
from __future__ import annotations

import heapq
import random
import zlib
from typing import List, Optional, Tuple, Union

from .errors import SimulationError
from .hypervisor import Hypercall, Hypervisor, Resumption, Vcpu, Vm
from .machine import MachineConfig, Observer, PhysicalMachine
from .stage2 import Access, AccessFault, Perms, guest_access
from .trace import TraceRecorder


def _call_detail(hc: Hypercall) -> dict:
    """``dataclasses.asdict(hc)`` plus `call`, without its deep copy."""
    # one literal: a copy of vars(hc) grows its table when `call` is added
    d = {"call": type(hc).__name__, **vars(hc)}
    if "meta" in d:
        d["meta"] = dict(vars(d["meta"]))
    return d


class TraceObserver(Observer):
    """Bridges primitive-level hooks into trace events, one `emit` each."""

    def __init__(self, sim: "Simulation"):
        self.trace = sim.trace
        # pCPU 0 even for an enclave on another pCPU: ROADMAP item 2's open bug
        self.pcpu0 = sim.machine.pcpus[0]

    def on_map(self, vm: int, ipa_page: int, frame: int, perms: Perms) -> None:
        self.trace.emit("s2_map", 0, self.pcpu0.current_vcpu.name,
                        {"vm": vm, "ipa_page": ipa_page, "frame": frame,
                         "perms": perms.tag()})

    def on_unmap(self, vm: int, ipa_page: int, frame: int) -> None:
        self.trace.emit("s2_unmap", 0, self.pcpu0.current_vcpu.name,
                        {"vm": vm, "ipa_page": ipa_page, "frame": frame})

    def on_protect(self, vm: int, ipa_page: int, frame: int,
                   old: Perms, new: Perms) -> None:
        self.trace.emit("s2_protect", 0, self.pcpu0.current_vcpu.name,
                        {"vm": vm, "ipa_page": ipa_page, "frame": frame,
                         "old": old.tag(), "new": new.tag()})

    def on_zero(self, frame: int) -> None:
        self.trace.emit("zero_frame", 0, self.pcpu0.current_vcpu.name,
                        {"frame": frame})

    def on_fault(self, fault: AccessFault) -> None:
        self.trace.emit("fault", 0, self.pcpu0.current_vcpu.name,
                        {"vm": fault.vm, "ipa": fault.ipa,
                         "fault": fault.kind.value})

    def on_push(self, pcpu: int, vcpu: Vcpu) -> None:
        self.trace.emit("push", pcpu, vcpu.name, {})

    def on_pop(self, pcpu: int, vcpu: Vcpu, resumption: Resumption) -> None:
        self.trace.emit("pop", pcpu, vcpu.name,
                        {"resumption": resumption.value})

    def on_switch(self, pcpu: int, frm: Vcpu, to: Vcpu, reason: str) -> None:
        self.trace.emit("ctx_switch", pcpu, to.name,
                        {"frm": frm.name, "to": to.name, "reason": reason})

    def on_hypercall(self, vcpu: Vcpu, call: Hypercall) -> None:
        self.trace.emit("hypercall", vcpu.pcpu, vcpu.name, _call_detail(call))

    def on_hypercall_error(self, vcpu: Vcpu, call: Hypercall,
                           err: Exception) -> None:
        self.trace.emit("hypercall_error", vcpu.pcpu, vcpu.name,
                        {"call": type(call).__name__,
                         "error": type(err).__name__, "message": str(err)})

    def on_work(self, vcpu: Vcpu, units: int) -> None:
        self.trace.emit("work", vcpu.pcpu, vcpu.name, {"units": units})

    def on_interrupt(self, pcpu: int, target: Vcpu, outcome: str) -> None:
        self.trace.emit("interrupt", pcpu, target.name,
                        {"target": target.name, "outcome": outcome})

    def on_channel(self, side: str, old: int, new: int,
                   header: bytes, payload: bytes) -> None:
        self.trace.emit("channel", 0, self.pcpu0.current_vcpu.name,
                        {"side": side, "old": old, "new": new,
                         "header": header.hex(),
                         "payload_crc32": zlib.crc32(payload)})


class Simulation:
    def __init__(self, config: Optional[MachineConfig] = None, seed: int = 0,
                 program_loader=None):
        if program_loader is None:
            from . import ta_runtime
            program_loader = ta_runtime.load_program
        self.machine = PhysicalMachine(config)
        self.hv = Hypervisor(self.machine, program_loader, self.check_timers)
        self.trace = TraceRecorder(self.machine.ledger.units)
        self.rng = random.Random(seed)
        self.machine.observers.append(TraceObserver(self))
        cfg = self.machine.config
        self.trace.emit("boot", 0, self.machine.pcpus[0].current_vcpu.name,
                        {"frames": cfg.frames, "pcpus": cfg.pcpus,
                         "max_vms": cfg.max_vms, "seed": seed,
                         "os_reserved_pages": cfg.os_reserved_pages})
        self._timers: List[Tuple[int, int, int]] = []  # (deadline, seq, pcpu)
        self._timer_seq = 0

    # -- time ---------------------------------------------------------------

    def now(self) -> int:
        return self.machine.now()

    def arm_timer(self, delay: int, pcpu_id: int = 0) -> int:
        """Schedule an interrupt for the primary vCPU of `pcpu_id` once the
        ledger clock reaches now()+delay.  Returns the deadline."""
        self.hv.check_pcpu(pcpu_id)
        if delay < 0:
            raise SimulationError("negative timer delay %d" % delay)
        deadline = self.now() + delay
        heapq.heappush(self._timers, (deadline, self._timer_seq, pcpu_id))
        self._timer_seq += 1
        self.trace.emit("timer_armed", pcpu_id,
                        self.machine.pcpus[pcpu_id].current_vcpu.name,
                        {"deadline": deadline})
        return deadline

    def check_timers(self) -> None:
        """Fire every due timer.  Runs after each costed guest step and may
        be called between driver operations."""
        while self._timers and self._timers[0][0] <= self.now():
            deadline, _, pcpu_id = heapq.heappop(self._timers)
            self.trace.emit("timer_fired", pcpu_id,
                            self.machine.pcpus[pcpu_id].current_vcpu.name,
                            {"deadline": deadline})
            self.hv.deliver_interrupt(pcpu_id, self.hv.primary.vcpus[pcpu_id])

    # -- guest memory access --------------------------------------------------

    def vm_read(self, vm: Vm, ipa: int, length: int) -> Union[bytes, AccessFault]:
        out, _ = guest_access(self.machine, vm.table, ipa, Access.READ,
                              length=length)
        return out

    def vm_write(self, vm: Vm, ipa: int, data: bytes) -> Union[bytes, AccessFault]:
        out, _ = guest_access(self.machine, vm.table, ipa, Access.WRITE,
                              data=data)
        return out

    def primary_vcpu(self, pcpu_id: int = 0) -> Vcpu:
        self.hv.check_pcpu(pcpu_id)
        return self.hv.primary.vcpus[pcpu_id]
