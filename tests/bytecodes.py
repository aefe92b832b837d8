"""Count the Python bytecodes and Python-level calls a call executes, per
source file.

A `sys.settrace` tracer that sets `frame.f_trace_opcodes` sees every
bytecode Python runs, so the count is exact and repeats from run to run,
whatever the host's speed.  Work done in C (the JSON encoder, `bytes`
copies, `sorted`) is not counted, so a count sits beside wall time and
does not replace it.  A `sys.setprofile` hook sees every Python frame
entered: a function call, including a property getter or a generated
``__init__``, or a generator resumed.  On CPython 3.11 some of those calls
(a property, an enum property, ``object.__setattr__`` in a frozen
dataclass's ``__init__``) leave the inlined-call path and cost several
times an ordinary call, which no bytecode count shows.  The collector is
off while counting, because its callbacks run Python code at moments that
depend on everything allocated before.
"""
import gc
import sys
from collections import Counter


def _hooked(fn, args, getter, setter, hook) -> None:
    """Call `fn(*args)` with `hook` installed by `setter` and the collector
    off, then restore both."""
    collecting, previous = gc.isenabled(), getter()
    gc.disable()
    setter(hook)
    try:
        fn(*args)
    finally:
        setter(previous)
        if collecting:
            gc.enable()


def count_bytecodes(fn, *args) -> Counter:
    """Call `fn(*args)`; the bytecodes it ran, keyed by source file."""
    counts: Counter = Counter()

    def opcodes(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code.co_filename] += 1
        return opcodes

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcodes

    _hooked(fn, args, sys.gettrace, sys.settrace, call)
    return counts


def count_calls(fn, *args) -> Counter:
    """Call `fn(*args)`; the Python frames it entered, `fn`'s own among
    them, keyed by source file."""
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts[frame.f_code.co_filename] += 1

    _hooked(fn, args, sys.getprofile, sys.setprofile, profile)
    return counts
