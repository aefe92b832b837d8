"""Count the Python bytecodes a call executes, per source file.

A `sys.settrace` tracer that sets `frame.f_trace_opcodes` sees every
bytecode Python runs, so the count is exact and repeats from run to run,
whatever the host's speed.  Work done in C (the JSON encoder, `bytes`
copies, `sorted`) is not counted, so a count sits beside wall time and
does not replace it.  The collector is off while counting, because its
callbacks run Python code at moments that depend on everything allocated
before.
"""
import gc
import sys
from collections import Counter


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

    collecting, previous = gc.isenabled(), sys.gettrace()
    gc.disable()
    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return counts
