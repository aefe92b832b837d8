"""Append-only event trace with deterministic JSON-lines serialization.

Every hypervisor-visible action (mapping changes, zeroing, context switches,
hypercalls, faults, channel transitions) is one event carrying its step, its
index in the trace, and the simulated time ``t`` right after its own cost
was charged.  The trace is the one record of a run: ``emit`` charges each
event's ``COST`` to ``t`` and its kind's ``totals``, of which the cost
ledger is a view.  A recorded event is an immutable tuple; ``emit`` keeps
its detail dict without a copy, so each caller builds a fresh one.

``events[i]`` is the exact tuple ``(step, kind, pcpu, vcpu, t)`` and
``details[step]`` its detail.  An event holds no container on purpose:
CPython's garbage collector untracks a tuple at its first young collection
only if it is an exact ``tuple`` of atoms, and a tracked trace would be
walked again by every older collection, at the same operations in every
run.  A detail of atoms is never tracked.  Details are indexed by absolute
step, so a slice of ``events`` serializes with its own details.  A
``channel`` event traces the header in hex and ``zlib.crc32`` of the active
payload, not its bytes: a rerun of the script reproduces them.

One event is one line, ``json.dumps(record, sort_keys=True,
separators=(",", ":"))``, its six keys sorted, with no spaces:

    {"detail":{...},"event":"s2_map","pcpu":0,"step":7,"t":12,"vcpu":"primary.v0"}

``SCHEMA`` declares each kind's detail keys and their value types.  An
``int`` is an exact int, written with ``str()``.  A ``name`` (a vCPU name,
perms tag, reason, outcome) is quoted once per call through ``_Quoted``,
like kinds and vCPU names.  A ``text`` (a channel header, an error message)
is quoted on every use, so a call keeps no copy of each one.  At import one
line function per declared kind is compiled from it, an f-string per shape,
which checks the detail's key count first and falls back to the JSON
encoder on another count or a ``KeyError``: a detail with a key missing,
added or renamed serializes as ``json.dumps`` does.  A hypercall has a
shape per ``call``, and as its arguments are traced before they are
checked, its templates check each int's type too.  ``CreateEnclave``'s (a
page tuple, a meta dict), ``boot`` and undeclared kinds go to the encoder.
Other types are not checked: an entry point that traces an ``int`` (or a
``pcpu``) takes only exact ints (``Hypervisor.check_pcpu``, ``arm_timer``'s
delay, the run loop's work units, ``_do_create``'s pages, ``_lookup``'s
handles), and tier-1 checks each in-tree emitter against ``SCHEMA``.
Details hold no cycle, so the encoder keeps no record of its containers; a
cyclic one fails with ``RecursionError``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_encode_detail = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                  check_circular=False).encode
BLOCK = 256     # events per string that _blocks yields


class _Quoted(dict):
    """Event kinds, vCPU names and `name` values as JSON strings, ``null``
    for None, each quoted on first use; one per serialization, so it holds
    one trace's names."""

    def __missing__(self, name: Optional[str]) -> str:
        text = self[name] = "null" if name is None else _quote(name)
        return text


# (step, kind, pcpu, vcpu, t): atoms only, so the collector untracks it
TraceEvent = Tuple[int, str, int, Optional[str], int]

# simulated cost of each charged event kind, 1 unit or (None) the detail's
# ``units``; every other kind costs nothing
COST = {"s2_map": 1, "s2_unmap": 1, "s2_protect": 1, "zero_frame": 1,
        "ctx_switch": 1, "hypercall": 1, "work": None}

# the detail of each event kind: its keys and the type of each value; a
# hypercall's by its `call`, besides `call` itself
INT, NAME, TEXT = "int", "name", "text"
SCHEMA = {
    "s2_map": {"vm": INT, "ipa_page": INT, "frame": INT, "perms": NAME},
    "s2_unmap": {"vm": INT, "ipa_page": INT, "frame": INT},
    "s2_protect": {"vm": INT, "ipa_page": INT, "frame": INT,
                   "old": NAME, "new": NAME},
    "zero_frame": {"frame": INT},
    "fault": {"vm": INT, "ipa": INT, "fault": NAME},
    "push": {},
    "pop": {"resumption": NAME},
    "ctx_switch": {"frm": NAME, "to": NAME, "reason": NAME},
    "interrupt": {"target": NAME, "outcome": NAME},
    "hypercall": {"InvokeEnclave": {"handle": INT}, "Exit": {},
                  "DestroyEnclave": {"handle": INT}},
    "hypercall_error": {"call": NAME, "error": NAME, "message": TEXT},
    "work": {"units": INT},
    "channel": {"side": NAME, "old": INT, "new": INT, "header": TEXT,
                "payload_crc32": INT},
    "timer_armed": {"deadline": INT},
    "timer_fired": {"deadline": INT},
}

# each value type in a template, `%s` the value; a line's f-string, `%s`
# its detail and then its kind, both JSON text
_VALUE = {INT: "{%s}", NAME: "{q[%s]}", TEXT: "{quote(%s)}"}
_LINE = ('{{"detail":%s,"event":%s,"pcpu":{pcpu},"step":{step},"t":{t},'
         '"vcpu":{q[vcpu]}}}\\n')


def _compile(kind: str, shapes) -> Callable[..., str]:
    """The line function of `kind`: a guarded template per (call, keys)
    shape, the encoder for any other detail.  Keys are identifiers."""
    source = "def line(d, step, kind, pcpu, vcpu, t, q):\n try:\n  pass\n"
    for call, keys in shapes:
        body = {k: _VALUE[of] % ('d["%s"]' % k) for k, of in keys.items()}
        guard = ["len(d) == %d" % (len(keys) + (call is not None))]
        if call is not None:    # traced before its handler checks it
            body["call"] = '"%s"' % call
            guard = ['d["call"] == "%s"' % call, *guard, *(
                'type(d["%s"]) is int' % k for k in keys if keys[k] == INT)]
        detail = ",".join('"%s":%s' % (k, body[k]) for k in sorted(body))
        source += "  if %s:\n   return f'%s'\n" % (
            " and ".join(guard), _LINE % ("{{%s}}" % detail, '"%s"' % kind))
    scope = {"quote": _quote, "encode": _encode_detail}
    exec(source + " except KeyError:\n  pass\n return f'%s'"
         % (_LINE % ("{encode(d)}", "{q[kind]}")), scope)
    return scope["line"]


_encoded = _compile("", ())     # the line function of any undeclared kind
_LINES = {kind: _compile(kind, SCHEMA[kind].items() if kind == "hypercall"
                         else [(None, SCHEMA[kind])]) for kind in SCHEMA}


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
        events, details = self.events, self.details
        q, line, other = _Quoted(), _LINES.get, _encoded
        for i in range(0, len(events), BLOCK):
            yield "".join([
                line(kind, other)(details[step], step, kind, pcpu, vcpu, t, q)
                for step, kind, pcpu, vcpu, t in events[i:i + BLOCK]])

    def to_jsonl(self) -> str:
        return "".join(self._blocks())

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self._blocks())
