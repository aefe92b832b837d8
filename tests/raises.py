"""List every `raise` statement in `src/enclavesim` that tier-1 never runs.

Run from the repository root:

    python tests/raises.py

It runs tier-1 in this process under a `sys.settrace` line tracer that
traces only frames whose code lives in `src/enclavesim`, then prints each
`raise` whose line never ran, as `path:line`, and the count.  It exits 1 if
any is left, 0 if none is, or pytest's own status if tier-1 fails.  It
takes about 25 s, several times tier-1's own time, so it is a plain script,
not a tier-1 test.

The count can only be too high, never too low: a `raise` reached only
inside a `tests/bytecodes.py` window (`count_bytecodes`, `count_calls`)
is not seen, because that window installs its own hook in place of this
tracer.  A `raise` that shares its first line with other code (`if x: raise
E`) is counted as run when that line runs.
"""
import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "enclavesim"


def raise_sites() -> dict:
    """Each source file's `raise` lines, keyed by its path."""
    return {str(path): sorted(node.lineno
                              for node in ast.walk(ast.parse(path.read_text()))
                              if isinstance(node, ast.Raise))
            for path in sorted(PACKAGE.rglob("*.py"))}


def run_tier1(prefix: str) -> tuple:
    """Run tier-1 with the line tracer on; pytest's status and the
    `(file, line)` pairs run in files under `prefix`."""
    ran: set = set()
    traced: dict = {}

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        inside = traced.get(name)
        if inside is None:
            inside = traced[name] = name.startswith(prefix)
        return lines if inside else None

    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return status, ran


def main() -> int:
    status, ran = run_tier1(str(PACKAGE))
    if status != 0:
        print("tier-1 failed (pytest status %d)" % status)
        return int(status)
    sites = raise_sites()
    missed = [(name, line) for name, found in sites.items()
              for line in found if (name, line) not in ran]
    for name, line in missed:
        print("%s:%d" % (Path(name).relative_to(ROOT), line))
    print("%d of %d raise sites never run"
          % (len(missed), sum(map(len, sites.values()))))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
