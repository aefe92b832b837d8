"""Per-layer timing for the traced run.

The tracer replaces public functions of the simulator's modules with timing
wrappers for the length of one round and puts the originals back afterwards;
nothing in the package itself changes.  Each call becomes a span (id, parent
id, layer, start, end) kept in memory and written out at the end of the run.
A layer's self time is the span's duration minus the durations of its direct
child spans, summed over the layer's spans, so the self times of all layers
are exclusive and add up to the time covered by the benchmark's root spans.

``guest_access`` is imported by name into ``sim``, ``channel`` and
``ta_runtime``, so each of those bindings is wrapped as well as the
definition in ``stage2``.
"""
from __future__ import annotations

import array
import itertools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from enclavesim import (channel, guest_os, hypervisor, machine, sim, stage2,
                        ta_runtime, trace)
from enclavesim.harness import oracles

ROOT = "bench"

# Every self-time layer the traced run reports, in report order.
LAYERS = (
    "machine.boot", "machine.zero_frame", "machine.write_frame",
    "machine.read_frame", "stage2.table_ops", "stage2.guest_access",
    "hypervisor.boot", "hypervisor.create", "hypervisor.destroy",
    "hypervisor.invoke", "channel", "guest_os.driver", "guest_os.allocator",
    "ta_runtime.digest_chain", "ta_runtime.state_access", "sim.observer",
    "sim.timers", "trace.emit", "trace.to_jsonl", "oracles.watch",
    "oracles.stack_integrity", "oracles.memory_verify", "oracles.secret_scan",
    "oracles.end_checks", ROOT,
)
# Layers whose calls are counted, as "<name>.calls".
COUNTED = (
    "machine.zero_frame", "machine.write_frame", "machine.read_frame",
    "stage2.map", "stage2.unmap", "stage2.protect", "stage2.guest_access",
    "channel", "guest_os.allocator", "ta_runtime.state_access", "trace.emit",
)

Note = Callable[["Tracer", tuple, dict, object, Optional[list]], None]


def _note_guest_access(tr: "Tracer", args: tuple, kw: dict, out,
                       parent: Optional[list]) -> None:
    result, touched = out
    tr.counters["guest_access_pages"] += len(touched)
    access = args[3] if len(args) > 3 else kw["access"]
    if parent is not None and parent[3] == "channel" \
            and access is stage2.Access.READ:
        tr.counters["channel_read_bytes"] += (
            args[5] if len(args) > 5 else kw.get("length", 0))


def _note_payload(position: int) -> Note:
    """Count the payload bytes a channel step carries (its argument at
    `position`, counting `self`)."""
    def note(tr: "Tracer", args: tuple, kw: dict, out, parent) -> None:
        data = args[position] if len(args) > position else \
            kw.get("args", kw.get("ret", b""))
        tr.counters["channel_payload_bytes"] += len(data)
    return note


def _methods(cls, names, layer, counted=None, note=None):
    return [(cls, n, layer, counted, note) for n in names]


def _targets() -> List[Tuple[object, str, str, Optional[str], Optional[Note]]]:
    """(owner, attribute, self-time layer, calls name, note) per wrapper."""
    pm, tbl = machine.PhysicalMachine, stage2.Stage2Table
    hv = hypervisor.Hypervisor
    chan_steps = ("init", "status", "read_header", "serve", "mark_preempted",
                  "rearm_request", "read_response")
    observer_hooks = [n for n in vars(sim.TraceObserver) if n.startswith("on_")]
    ga = "stage2.guest_access"
    out = [
        (pm, "__init__", "machine.boot", None, None),
        (pm, "zero_frame", "machine.zero_frame", "machine.zero_frame", None),
        (pm, "write_frame", "machine.write_frame", "machine.write_frame", None),
        (pm, "read_frame", "machine.read_frame", "machine.read_frame", None),
        (tbl, "map", "stage2.table_ops", "stage2.map", None),
        (tbl, "unmap", "stage2.table_ops", "stage2.unmap", None),
        (tbl, "protect", "stage2.table_ops", "stage2.protect", None),
        (stage2, "guest_access", ga, ga, _note_guest_access),
        (sim, "guest_access", ga, ga, _note_guest_access),
        (channel, "guest_access", ga, ga, _note_guest_access),
        (ta_runtime, "guest_access", ga, ga, _note_guest_access),
        (hv, "__init__", "hypervisor.boot", None, None),
        (hv, "create_enclave", "hypervisor.create", None, None),
        (hv, "destroy_enclave", "hypervisor.destroy", None, None),
        (hv, "invoke_enclave", "hypervisor.invoke", None, None),
        (channel.ChannelView, "write_request", "channel", "channel",
         _note_payload(2)),
        (channel.ChannelView, "complete", "channel", "channel",
         _note_payload(1)),
        (channel.ChannelView, "complete_error", "channel", "channel",
         _note_payload(1)),
        (ta_runtime, "digest_chain", "ta_runtime.digest_chain", None, None),
        (sim.Simulation, "check_timers", "sim.timers", None, None),
        (trace.TraceRecorder, "emit", "trace.emit", "trace.emit", None),
        (trace.TraceRecorder, "to_jsonl", "trace.to_jsonl", None, None),
        (oracles, "check_stack_integrity", "oracles.stack_integrity", None,
         None),
        (oracles.MemoryOracle, "verify", "oracles.memory_verify", None, None),
        (oracles.SecretScanner, "scan_frames", "oracles.secret_scan", None,
         None),
        (oracles, "standard_checks", "oracles.end_checks", None, None),
    ]
    out += _methods(channel.ChannelView, chan_steps, "channel", "channel")
    out += _methods(guest_os.EnclaveDriver,
                    ("create", "invoke", "resume", "destroy"),
                    "guest_os.driver")
    out += _methods(guest_os.OsAllocator,
                    ("allocate", "allocate_contiguous", "free"),
                    "guest_os.allocator", "guest_os.allocator")
    out += _methods(ta_runtime.TaContext, ("read_state", "write_state"),
                    "ta_runtime.state_access", "ta_runtime.state_access")
    out += _methods(sim.TraceObserver, observer_hooks, "sim.observer")
    for cls in (oracles.ZeroizeWatch, oracles.WriteConfinementOracle,
                oracles.MemoryOracle):
        hooks = [n for n in vars(cls) if n.startswith("on_")]
        out += _methods(cls, hooks, "oracles.watch")
    return out


class Tracer:
    """Span recorder for one round.  Single-threaded by design: the
    simulator runs in one thread, so a plain stack gives each span its
    parent."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        # five int64 per closed span: id, parent id (-1 at a root),
        # layer index, start ns, end ns
        self.spans = array.array("q")
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []
        self._next_id = itertools.count().__next__
        self._saved: List[Tuple[object, str, object]] = []

    def _layer_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, layer: str, counted: Optional[str],
              note: Optional[Note]):
        stack, spans = self._stack, self.spans
        self_ns, calls = self.self_ns, self.calls
        clock, next_id = time.perf_counter_ns, self._next_id
        layer_id = self._layer_id(layer)
        tracer = self

        def timed(*args, **kw):
            parent = stack[-1] if stack else None
            # a call made from inside the same counted layer (a channel step
            # reading the status word) is part of the outer call
            if counted is not None and (parent is None
                                        or parent[3] != counted):
                calls[counted] += 1
            frame = [next_id(), clock(), 0, counted]
            stack.append(frame)
            try:
                out = fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self_ns[layer] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                spans.extend((frame[0], -1 if parent is None else parent[0],
                              layer_id, frame[1], end))
            if note is not None:
                note(tracer, args, kw, out, parent)
            return out

        return timed

    def install(self) -> None:
        for owner, attr, layer, counted, note in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, layer, counted, note))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def root(self) -> Iterator[None]:
        """A span around the benchmark's own code (set-up, one op, finish);
        its self time is the benchmark loop plus simulator code that no
        wrapper covers."""
        start = time.perf_counter_ns()
        frame = [self._next_id(), start, 0, None]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.self_ns[ROOT] += end - start - frame[2]
            self.spans.extend((frame[0], -1, self._layer_id(ROOT), start, end))

    def write_csv(self, path: str) -> None:
        """All spans, one per line: id,parent,layer,start_ns,end_ns."""
        sp = self.spans
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,layer,start_ns,end_ns\n")
            for i in range(0, len(sp), 5):
                fh.write("%d,%d,%s,%d,%d\n" % (sp[i], sp[i + 1],
                                                self.names[sp[i + 2]],
                                                sp[i + 3], sp[i + 4]))
