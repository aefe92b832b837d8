"""Append-only event trace with deterministic JSON-lines serialization.

Every hypervisor-visible action (mapping changes, zeroing, context switches,
hypercalls, faults, channel transitions) is recorded as one event carrying a
monotonically increasing step number and the simulated time ``t`` right after
the event's own cost was charged.  The trace is the one record of a run: the
cost ledger is a fold over its events.  Two runs of the same scenario must
serialize byte-for-byte identically, so records are emitted with sorted keys
and fixed separators and contain only ints, strings, bools and nested
dicts/lists of those.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    step: int
    kind: str
    pcpu: int
    vcpu: Optional[str]
    detail: Dict[str, Any]
    t: int

    def to_record(self) -> Dict[str, Any]:
        return {
            "step": self.step,
            "event": self.kind,
            "pcpu": self.pcpu,
            "vcpu": self.vcpu,
            "detail": self.detail,
            "t": self.t,
        }


@dataclass
class TraceRecorder:
    clock: Callable[[], int]    # simulated time, read once per event
    events: List[TraceEvent] = field(default_factory=list)
    _step: int = 0

    def emit(self, kind: str, pcpu: int, vcpu: Optional[str],
             **detail: Any) -> TraceEvent:
        ev = TraceEvent(self._step, kind, pcpu, vcpu, detail, self.clock())
        self._step += 1
        self.events.append(ev)
        return ev

    def count(self, kind: str) -> int:
        return sum(1 for ev in self.events if ev.kind == kind)

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(ev.to_record(), sort_keys=True, separators=(",", ":"))
            for ev in self.events
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_jsonl())
