"""Append-only event trace with deterministic JSON-lines serialization.

Every hypervisor-visible action (mapping changes, zeroing, context switches,
hypercalls, faults, channel transitions) is recorded as one event carrying
its step, which is its index in the trace, and the simulated time ``t``
right after the event's own cost was charged.  The trace is the one record
of a run and simulated time is its running total: ``emit`` charges each
event's ``COST`` to ``t`` and its kind's ``totals`` as it records it, and
the cost ledger is a view of those totals.  Two runs of the same
scenario must serialize byte-for-byte identically, so details contain only
ints, strings, bools, None and nested dicts/lists/tuples of those.  A
recorded event is an immutable tuple and is never changed.
``TraceRecorder.emit`` keeps the detail dict it is given without a copy,
so every caller passes a fresh dict built for that one event.

Stored layout: ``TraceRecorder.events[i]`` is the exact tuple
``(step, kind, pcpu, vcpu, t)`` and ``TraceRecorder.details[step]`` is that
event's detail dict.  An event holds no container on purpose.  CPython's
cyclic garbage collector tracks every tuple it creates, and untracks one at
its first young collection only if it is an exact ``tuple`` whose items are
all atoms (ints, strings, None) or untracked exact tuples.  A named tuple
subclass, or a tuple holding a dict, stays tracked for its whole life, so a
long trace would be walked again by every older-generation collection, and
those collections land on the same operations in every run.  A stored event
therefore leaves the collector at the first young collection after it is
recorded.  A detail dict whose values are all atoms is never tracked.  The
details sit in their own list, indexed by absolute step, so a slice of
``events`` still serializes with its own details.

The trace records events, not copies of guest data.  A ``channel`` event's
detail is ``side``, ``old`` and ``new`` (status words), ``header`` (the
20-byte channel header as it reads after the transition, in hex) and
``payload_crc32`` (``zlib.crc32`` of the active payload, an int); the
payload's length is the header's ``arg_len`` or ``ret_len``.  The payload
bytes themselves are not traced: a CRC is enough to show where two runs
diverge, and rerunning the scenario script reproduces the bytes, which stay
in the channel's frames until the next step overwrites them.

One event is one line, its six keys in sorted order and no spaces:

    {"detail":{...},"event":"s2_map","pcpu":0,"step":7,"t":12,"vcpu":"primary.v0"}

The line equals ``json.dumps(record, sort_keys=True, separators=(",", ":"))``
of that record.  Only ``detail`` goes through the JSON encoder; the fixed
keys are written directly by one f-string, kinds and vCPU names escaped as
``json.dumps`` escapes them (ASCII only), each quoted once per call, and a
missing vCPU as ``null``.  ``pcpu``, ``step`` and ``t`` are written with
``str()``, so they are exact ints: ``step`` is an index,
``Hypervisor.check_pcpu`` refuses a float or bool pCPU id at every entry
point that takes one (``arm_timer``, ``primary_vcpu`` and so the driver's
``create``, ``deliver_interrupt``, the raw scheduling calls), and the run
loop refuses work units that are not an exact int.

The trace is serialized in blocks of ``BLOCK`` events, one encoder call per
block.  A block's details are encoded together as one JSON array; with the
array's ``[{`` and ``}]`` stripped, the text is cut at each ``},{`` into one
piece per event, the body of its detail without its braces.  The cut is
exact whenever it gives exactly as many pieces as the block has events: the
n-1 top-level boundaries between the n detail dicts are always there, and
two occurrences of ``},{`` cannot overlap, so a ``},{`` inside a detail (a
nested list of dicts, or a string holding those three characters) can only
add pieces.  A block whose piece count differs is encoded one detail at a
time with the same encoder.  The encoder keeps no record of the containers
it is inside: details are fresh dicts of atoms and nested containers, so
they hold no cycle, and a cyclic one would still fail, with
``RecursionError``.  ``to_jsonl`` joins the blocks, and ``write_jsonl``
writes them to the file one by one, so neither builds a list of every line.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Dict, Iterator, List, Optional, Tuple

_encode_detail = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                  check_circular=False).encode
BLOCK = 256     # events serialized per encoder call


class _Quoted(dict):
    """Event kinds and vCPU names as JSON strings, ``null`` for None, each
    quoted on first use; one per serialization, so it holds one trace's
    names."""

    def __missing__(self, name: Optional[str]) -> str:
        text = self[name] = "null" if name is None else _quote(name)
        return text


# (step, kind, pcpu, vcpu, t): atoms only, so the collector untracks it
TraceEvent = Tuple[int, str, int, Optional[str], int]

# simulated cost of each charged event kind, 1 unit or (None) the detail's
# ``units``; every other kind costs nothing
COST = {"s2_map": 1, "s2_unmap": 1, "s2_protect": 1, "zero_frame": 1,
        "ctx_switch": 1, "hypercall": 1, "work": None}


@dataclass
class TraceRecorder:
    events: List[TraceEvent] = field(default_factory=list)
    details: List[Dict[str, Any]] = field(default_factory=list)  # by step
    t: int = 0      # simulated time: every cost charged so far
    totals: Dict[str, int] = field(     # cost charged per kind in COST
        default_factory=lambda: dict.fromkeys(COST, 0))

    def emit(self, kind: str, pcpu: int, vcpu: Optional[str],
             detail: Dict[str, Any]) -> None:
        """Charge the event's cost and record it; `detail` is stored as
        given, not copied."""
        if kind in COST:
            cost = COST[kind] or detail["units"]
            self.totals[kind] += cost
            self.t += cost
        details = self.details
        self.events.append((len(details), kind, pcpu, vcpu, self.t))
        details.append(detail)

    def count(self, kind: str) -> int:
        return sum(1 for ev in self.events if ev[1] == kind)

    def _blocks(self) -> Iterator[str]:
        """The JSONL text of each block of `BLOCK` events, in order."""
        events, all_details = self.events, self.details
        quoted = _Quoted()
        for i in range(0, len(events), BLOCK):
            block = events[i:i + BLOCK]
            details = [all_details[ev[0]] for ev in block]
            pieces = _encode_detail(details)[2:-2].split("},{")
            if len(pieces) != len(block):   # a "},{" inside some detail
                pieces = [_encode_detail(detail)[1:-1] for detail in details]
            yield "".join([
                f'{{"detail":{{{text}}},"event":{quoted[kind]},'
                f'"pcpu":{pcpu},"step":{step},"t":{t},'
                f'"vcpu":{quoted[vcpu]}}}\n'
                for text, (step, kind, pcpu, vcpu, t) in zip(pieces, block)
            ])

    def to_jsonl(self) -> str:
        return "".join(self._blocks())

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self._blocks())
