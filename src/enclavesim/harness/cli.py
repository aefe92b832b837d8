"""Command-line front end.

    enclavesim run SCENARIO [SCENARIO ...] [--trace OUT]
    enclavesim attack
    enclavesim bench [--pages 16,64,256,1024] [--reps 30]
    enclavesim fuzz [--profile mixed|stack|lifecycle|sensitivity]
                    [--ops N] [--seed N]
    enclavesim pack-image --mem-pages N --channel-pages N --code FILE -o OUT
                    [--cmds 1,2,3]

Exit status 0 means every check that ran held; 1 means a violation,
containment failure or fuzz divergence; 2 means a usage error, printed in
one line: a malformed scenario script, a file that cannot be read or
written, `--pages` not two or more distinct sizes of at least 3 pages or
too large for a machine, `--reps` or `--ops` below 1, or `--ops` given to
the `sensitivity` profile, which runs a fixed set of lifecycles.
"""
from __future__ import annotations

import argparse
import struct
import sys
from pathlib import Path
from typing import List, Optional

from ..errors import ConfigError, ScenarioParseError, SimulationError
from ..image import EnclaveImage
from .bench import run_bench
from .fuzz import (
    fuzz_lifecycles,
    fuzz_mixed,
    fuzz_stack_ops,
    verify_oracle_sensitivity,
)
from .scenario import (ExpectationFailed, parse_scenario, run_attacks,
                       run_scenario)


# the fuzz profiles that take a count; each runs as a scenario script
FUZZ_PROFILES = {
    "mixed": fuzz_mixed,
    "stack": fuzz_stack_ops,
    "lifecycle": fuzz_lifecycles,
}


class _Usage(Exception):
    """A malformed argument; `main` reports it in one line, exit status 2."""


def _cmd_run(args: argparse.Namespace) -> int:
    if args.trace and len(args.scenarios) > 1:
        print("--trace needs exactly one scenario", file=sys.stderr)
        return 2
    status = 0
    for path in args.scenarios:
        text = Path(path).read_text(encoding="utf-8")
        try:
            scenario = parse_scenario(text)
            result = run_scenario(scenario)
        except (ScenarioParseError, ExpectationFailed) as err:
            print("%s: %s" % (path, err))
            usage = isinstance(err, ScenarioParseError)  # malformed script
            status = max(status, 2 if usage else 1)
            continue
        for line in result.outputs:
            print(line)
        for violation in result.violations:
            print("%s: VIOLATION: %s" % (path, violation))
        if result.violations:
            status = max(status, 1)
        else:
            print("%s: ok (%d trace events, t=%d)"
                  % (path, len(result.sim.trace.events), result.sim.now()))
        if args.trace:
            result.sim.trace.write_jsonl(args.trace)
            print("trace written to %s" % args.trace)
    return status


def _cmd_attack(args: argparse.Namespace) -> int:
    results = run_attacks()
    for r in results:
        print("%-22s %4d/%-4d %s" % (r.name, r.contained, r.attempts,
                                     "contained" if r.ok else "BREACHED"))
        for note in r.notes[:3]:   # an oracle notes every frame it flags
            print("    ! " + note)
    return 0 if all(r.ok for r in results) else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = tuple(int(s) for s in args.pages.split(","))
    except ValueError:
        raise _Usage("--pages %r is not a list of integers" % args.pages)
    if len(set(sizes)) < 2 or min(sizes) < 3:
        raise _Usage("--pages needs two or more distinct sizes, each of at "
                     "least 3 pages")
    if args.reps < 1:
        raise _Usage("--reps must be at least 1")
    report = run_bench(sizes=sizes, reps=args.reps)
    print(report.format())
    ok = (report.deterministic() and report.ordering_holds()
          and report.invoke_constant() and report.teardown_gap_r2() > 0.999)
    return 0 if ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.ops is not None and args.ops < 1:
        raise _Usage("--ops must be at least 1")
    if args.profile == "sensitivity":
        if args.ops is not None:
            raise _Usage("--ops does not apply to --profile sensitivity")
        outcomes = verify_oracle_sensitivity(seed=args.seed)
        for mode, ok in sorted(outcomes.items()):
            print("%-22s %s" % (mode, "ok" if ok else "FAILED"))
        return 0 if all(outcomes.values()) else 1
    # the first positional differs in name (ops vs cases) per profile
    ops = () if args.ops is None else (args.ops,)
    report = FUZZ_PROFILES[args.profile](*ops, seed=args.seed)
    print(report.format())
    return 0 if report.ok else 1


def _cmd_pack_image(args: argparse.Namespace) -> int:
    code = Path(args.code).read_bytes()
    cmd_ids: tuple = ()
    if args.cmds:
        cmd_ids = tuple(int(c, 0) for c in args.cmds.split(","))
        code = struct.pack("<%dI" % len(cmd_ids), *cmd_ids) + code
    try:
        image = EnclaveImage(args.mem_pages, args.channel_pages, cmd_ids,
                             code)
        packed = image.pack()
        EnclaveImage.parse(packed)  # round trip before writing anything
    except (SimulationError, ValueError, struct.error) as err:
        print("cannot pack: %s" % err, file=sys.stderr)
        return 1
    Path(args.output).write_bytes(packed)
    print("%s: %d bytes, %d+%d pages, %d commands, %d code pages"
          % (args.output, len(packed), image.mem_size_pages,
             image.channel_size_pages, len(cmd_ids), image.code_pages))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="enclavesim",
        description="deterministic enclave-isolation simulator and its "
                    "adversarial harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run scenario scripts")
    p.add_argument("scenarios", nargs="+", metavar="SCENARIO")
    p.add_argument("--trace", help="write the JSON-lines event trace here")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("attack", help="run the containment playbook")
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("bench", help="measure lifecycle costs")
    p.add_argument("--pages", default="16,64,256,1024",
                   help="comma-separated donation sizes in pages")
    p.add_argument("--reps", type=int, default=30)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("fuzz", help="randomized campaigns")
    p.add_argument("--profile", default="mixed",
                   choices=[*FUZZ_PROFILES, "sensitivity"])
    p.add_argument("--ops", type=int, default=None,
                   help="cases/operations to run (profile default if unset)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("pack-image", help="build a raw image file")
    p.add_argument("--mem-pages", type=int, required=True)
    p.add_argument("--channel-pages", type=int, required=True)
    p.add_argument("--code", required=True, help="file with the code blob")
    p.add_argument("--cmds", help="comma-separated command ids to prepend")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_pack_image)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (_Usage, OSError, ConfigError) as err:
        print("enclavesim %s: %s" % (args.command, err), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
