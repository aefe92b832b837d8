"""Append-only event trace with deterministic JSON-lines serialization.

Every hypervisor-visible action (mapping changes, zeroing, context switches,
hypercalls, faults, channel transitions) is recorded as one event carrying
its step, which is its index in the trace, and the simulated time ``t``
right after the event's own cost was charged.  The trace is the one record
of a run: the cost ledger is a fold over its events.  Two runs of the same
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
keys are written directly, with strings escaped as ``json.dumps`` escapes
them (ASCII only) and a missing vCPU written as ``null``.

The trace is serialized in blocks of ``BLOCK`` events, one encoder call per
block.  A block's details are encoded together as one JSON array; with its
outer ``[`` and ``]`` stripped, the text is cut at each ``},{`` into one
piece per event.  The cut is exact whenever it gives exactly as many pieces
as the block has events: the encoder escapes to ASCII, so its output holds
no raw newline to confuse the split, and the n-1 top-level boundaries
between the n detail dicts are always there, so a ``},{`` inside a detail (a
nested list of dicts, or a string holding those three characters) can only
add pieces.  A block whose piece count differs is encoded one detail at a
time with the same encoder.  ``to_jsonl`` joins the blocks, and
``write_jsonl`` writes them to the file one by one, so neither builds a
list of every line.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_LINE = '{"detail":%s,"event":%s,"pcpu":%d,"step":%d,"t":%d,"vcpu":%s}\n'
_encode_detail = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
BLOCK = 256     # events serialized per encoder call


# (step, kind, pcpu, vcpu, t): atoms only, so the collector untracks it
TraceEvent = Tuple[int, str, int, Optional[str], int]


@dataclass
class TraceRecorder:
    clock: Callable[[], int]    # simulated time, read once per event
    events: List[TraceEvent] = field(default_factory=list)
    details: List[Dict[str, Any]] = field(default_factory=list)  # by step

    def emit(self, kind: str, pcpu: int, vcpu: Optional[str],
             detail: Dict[str, Any]) -> None:
        """Record one event; `detail` is stored as given, not copied."""
        details = self.details
        self.events.append((len(details), kind, pcpu, vcpu, self.clock()))
        details.append(detail)

    def count(self, kind: str) -> int:
        return sum(1 for ev in self.events if ev[1] == kind)

    def _blocks(self) -> Iterator[str]:
        """The JSONL text of each block of `BLOCK` events, in order."""
        events, all_details = self.events, self.details
        for i in range(0, len(events), BLOCK):
            block = events[i:i + BLOCK]
            details = [all_details[ev[0]] for ev in block]
            pieces = _encode_detail(details)[1:-1].replace(
                "},{", "}\n{").split("\n")
            if len(pieces) != len(block):   # a "},{" inside some detail
                pieces = [_encode_detail(detail) for detail in details]
            yield "".join([
                _LINE % (text, _quote(kind), pcpu, step, t,
                         "null" if vcpu is None else _quote(vcpu))
                for text, (step, kind, pcpu, vcpu, t) in zip(pieces, block)
            ])

    def to_jsonl(self) -> str:
        return "".join(self._blocks())

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self._blocks())
