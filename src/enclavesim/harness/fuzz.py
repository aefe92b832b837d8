"""Randomized campaigns with reference models.

Three profiles, each run as scenario statements:

* stack      -- raw LIFO scheduling ops on two pCPUs, checked after every
                operation against an independent list-based model (contents,
                pending interrupt flags, interrupt outcomes, context-switch
                charges).
* lifecycle  -- create/use/destroy storms with known-answer output checks
                and a probe of each reclaimed page.
* mixed      -- interleaved lifecycles, timers, preemption, adversary object
                reads and raw scheduling noise on one long-lived simulation.

Each random choice becomes a statement, every answer the host can compute
becomes an `expect`, and the scenario interpreter runs them one at a time.
After every case the zeroization and confinement watchdogs and the vCPU
stacks are checked, and at the end the interpreter's battery runs.
`FuzzReport.script` holds the statements behind the `machine` and `seed`
lines, so saved to a file it replays the run with `enclavesim run`.

Every campaign is a pure function of its seed; a failure report names the
seed and the case index, which is enough to replay it exactly, and prints
the failing case's statements.
"""
from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Tuple

from ..channel import ChannelStatus
from ..hypervisor import Hypervisor
from ..ta_runtime import (
    wallet_address,
    wallet_derived_key,
    wallet_master_key,
)
from .oracles import ReferenceStackModel, check_stack_integrity
from .scenario import ExpectationFailed, Step, _Runner, parse_scenario


@dataclass
class FuzzReport:
    profile: str
    cases: int
    seed: int
    failures: List[Tuple[int, str]] = field(default_factory=list)
    # a scripted profile's statements, and those of its failing case
    script: List[str] = field(default_factory=list)
    case_script: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines = ["%s fuzz: %d cases, seed %d: %s"
                 % (self.profile, self.cases, self.seed,
                    "all passed" if self.ok else
                    "%d FAILURES" % len(self.failures))]
        for idx, msg in self.failures[:10]:
            lines.append("  case %d: %s" % (idx, msg))
        if self.failures:
            lines.append("  replay: --profile %s --seed %d (first divergence "
                         "at case %d)" % (self.profile, self.seed,
                                          self.failures[0][0]))
            lines.extend("    " + line for line in self.case_script)
        return "\n".join(lines)


# -- the campaigns -------------------------------------------------------------

_TAS = ("counter", "echo", "spinner", "wallet")
_new = tuple.__new__    # skips the named tuple's generated Python __new__


class _Script:
    """A campaign run as scenario statements, one at a time, through the
    scenario interpreter.  The statements are kept in `report.script`
    behind the `machine` and `seed` lines, so the script replays the run
    with `enclavesim run`."""

    def __init__(self, report: FuzzReport, machine: str):
        self.report = report
        report.script = self.lines = [machine, "seed %d" % report.seed]
        self.runner = _Runner(parse_scenario("\n".join(self.lines)))
        self.counts: Dict[str, int] = {}  # each counter variable's count
        self.index = self.start = 0  # open case, its first statement

    def __call__(self, line: str) -> None:
        self.lines.append(line)
        words = line.split()
        self.runner.execute(
            _new(Step, (len(self.lines), words[0], tuple(words[1:]))))

    def pick(self, rng: random.Random, live: Dict[str, tuple]) -> str:
        """A live variable, drawn in fd order; the case's statements start
        at its `create` (the last item of its `live` entry)."""
        var = rng.choice(sorted(live, key=self.runner.fds.get))
        self.start = live[var][-1]
        return var

    def invoke(self, var: str, cmd: int, payload: bytes,
               answer: bytes) -> None:
        """Invoke, resume while preempted, up to 8 times, and expect the
        host-computed `answer`.  A command still preempted, or failed,
        leaves an empty payload, so only an empty answer needs the status
        checked as well."""
        self("invoke %s %d hex:%s" % (var, cmd, payload.hex()))
        for _ in range(8):
            if self.runner.last.get("status") is not ChannelStatus.PREEMPTED:
                break
            self("resume " + var)
        if not answer:
            self("expect status done")
        self("expect payload hex:" + answer.hex())

    def use(self, var: str, ta: str, rng: random.Random) -> None:
        """One known-answer exchange with the TA behind `var`."""
        if ta == "echo":
            payload = rng.randbytes(rng.randrange(0, 200))
            self.invoke(var, 0, payload, payload)
        elif ta == "counter":
            count = self.counts.get(var, 0)
            self.invoke(var, 2, b"", struct.pack("<I", count))
            for _ in range(rng.randrange(1, 4)):
                count += 1
                self.invoke(var, 1, b"", struct.pack("<I", count))
            self.counts[var] = count
            self.invoke(var, 2, b"", struct.pack("<I", count))
        elif ta == "wallet":
            seed = rng.randbytes(16)
            self.invoke(var, 1, seed, b"ok")
            self.invoke(var, 2, b"", struct.pack("<I", 0))
            key = wallet_derived_key(wallet_master_key(seed), 0)
            self.invoke(var, 3, struct.pack("<I", 0), wallet_address(key))
        else:
            self.invoke(var, 1, struct.pack("<II", 2, 3), b"spun")

    def case(self, index: int) -> "_Script":
        """Open case `index`; a `with` block runs its statements."""
        self.index, self.start = index, len(self.lines)
        return self

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, err, trace) -> bool:
        """Close the case: check both watchdogs, the vCPU stacks and that no
        error went unexpected.  A failure is recorded with the case's
        statements."""
        failed = isinstance(err, ExpectationFailed)
        problems = [str(err)] if failed else []
        runner = self.runner
        problems += runner.zerowatch.violations
        problems += runner.confinement.violations
        problems += check_stack_integrity(runner.sim.hv)
        if runner.unexpected is not None:
            problems.append(runner.unexpected)
        if problems:
            self.report.failures.append((self.index, "; ".join(problems)))
            self.report.case_script = [
                "%d: %s" % (n, line) for n, line in
                enumerate(self.lines[self.start:], self.start + 1)]
        return failed

    def finish(self, index: int) -> None:
        """The end battery, after a campaign whose cases all passed."""
        if self.report.ok:
            self.report.failures += [
                (index, m) for m in self.runner.finish().violations]


def fuzz_stack_ops(ops: int = 10000, seed: int = 0) -> FuzzReport:
    """Random schedule, yield and interrupt statements on two pCPUs with six
    aux vCPUs each, so a cross-pCPU interrupt always has a target.  After
    every operation the stacks, pending interrupt flags and context-switch
    charges must match the reference model."""
    report = FuzzReport("stack", ops, seed)
    pcpus = 2
    run = _Script(report, "machine frames=96 pcpus=%d" % pcpus)
    rng = random.Random(seed)
    hv, ledger = run.runner.sim.hv, run.runner.sim.machine.ledger
    auxes = {p: ["a%d_%d" % (p, k) for k in range(6)] for p in range(pcpus)}
    for p in range(pcpus):
        for var in auxes[p]:
            run("aux %s pcpu=%d" % (var, p))
    bases = [v.name for v in hv.primary.vcpus]
    names = {var: vcpu.name for var, vcpu in run.runner.vcpus.items()}
    model = ReferenceStackModel(pcpus, bases)

    def act(line: str) -> None:
        """Run `line`, then hold the simulator to the model."""
        run(line)
        at = "line %d: " % len(run.lines)
        for q in range(pcpus):
            real = [v.name for v in hv.stack_of(q)]
            if real != model.stack(q):
                raise ExpectationFailed("%spcpu %d stack %r, model %r"
                                        % (at, q, real, model.stack(q)))
        pending = {v.name for vm in hv.vms.values() for v in vm.vcpus
                   if v.pending_irq}
        if pending != model.pending:
            raise ExpectationFailed("%spending %r, model %r" % (
                at, sorted(pending), sorted(model.pending)))
        if ledger.ctx_switches != model.charges:
            raise ExpectationFailed("%scharged %d switches, model %d"
                                    % (at, ledger.ctx_switches, model.charges))

    for i in range(ops):
        with run.case(i):
            p = rng.randrange(pcpus)
            roll = rng.random()
            kind = ("push" if roll < 0.35 else
                    "pop" if roll < 0.60 else
                    "irq" if roll < 0.90 else "xirq")
            idle = [v for v in auxes[p] if names[v] not in model.scheduled(p)]
            if kind == "push" and not idle:
                kind = "pop"
            if kind == "pop" and len(model.stacks[p]) <= 1:
                kind = "irq"
            if kind == "push":
                var = rng.choice(idle)
                model.push(p, names[var])
                act("schedule " + var)
            elif kind == "pop":
                model.pop(p)
                act("yield pcpu=%d" % p)
            elif kind == "irq":
                var = rng.choice(["primary"] + auxes[p])
                outcome = model.interrupt(
                    p, bases[p] if var == "primary" else names[var])
                act("interrupt %s pcpu=%d" % (var, p))
                run("expect outcome " + outcome)
            else:
                var = rng.choice(auxes[(p + 1) % pcpus])
                act("interrupt %s pcpu=%d" % (var, p))
                run("expect error WrongPcpu")
        if not report.ok:
            break
    run.finish(ops)
    return report


def fuzz_lifecycles(cases: int = 1000, seed: int = 0) -> FuzzReport:
    """Random create/use/destroy cycles on one simulation.  Each cycle
    checks a known answer from its enclave, then that a reclaimed page
    reads as zeros."""
    report = FuzzReport("lifecycle", cases, seed)
    run = _Script(report, "machine frames=192")
    rng = random.Random(seed)
    for i in range(cases):
        with run.case(i):
            var, ta, mem = "c%d" % i, rng.choice(_TAS), rng.randrange(3, 9)
            run("create %s %s mem=%d chan=%d"
                % (var, ta, mem, 2 if rng.random() < 0.2 else 1))
            run.use(var, ta, rng)
            run("destroy " + var)
            run("adversary read %s private %d" % (var, rng.randrange(mem)))
            run("expect payload hex:" + bytes(16).hex())
        if not report.ok:
            break
    run.finish(cases)
    return report


def fuzz_mixed(ops: int = 2000, seed: int = 0) -> FuzzReport:
    """Everything at once on one simulation: lifecycles, timers firing in
    the middle of enclave execution, resumes, adversary reads of donated
    memory, and raw scheduling noise."""
    report = FuzzReport("mixed", ops, seed)
    run = _Script(report, "machine frames=256")
    rng = random.Random(seed)
    live: Dict[str, Tuple[str, int, int]] = {}  # var -> (ta, mem, create)
    run("aux aux1")
    for i in range(ops):
        with run.case(i):
            roll = rng.random()
            if (roll < 0.25 and len(live) < 5) or not live:
                var, ta, mem = "e%d" % i, rng.choice(_TAS), rng.randrange(3, 7)
                live[var] = (ta, mem, len(run.lines))
                run("create %s %s mem=%d chan=1" % (var, ta, mem))
            elif roll < 0.50:
                var = run.pick(rng, live)
                run.use(var, live[var][0], rng)
            elif roll < 0.60:
                var = run.pick(rng, live)
                run("adversary read %s private %d"
                    % (var, rng.randrange(live[var][1])))
                run("expect fault unmapped")
            elif roll < 0.75:
                var = "s%d" % i
                run("create %s spinner mem=3 chan=1" % var)
                run("timer %d" % rng.randrange(4, 12))
                run.invoke(var, 1, struct.pack("<II", 6, 4), b"spun")
                run("destroy " + var)
            elif roll < 0.85:
                var = run.pick(rng, live)
                run("destroy " + var)
                del live[var]
            elif roll < 0.95:
                # scheduling noise around the enclave traffic
                run("schedule aux1")
                if rng.random() < 0.5:
                    run("yield")
                else:
                    run("interrupt primary")
                    run("expect outcome unwound")
            else:
                run("timer %d" % rng.randrange(1, 6))
                run("tick")
        if not report.ok:
            break
    if report.ok:
        with run.case(ops):
            for var in sorted(live, key=run.runner.fds.get):
                run("destroy " + var)
    run.finish(ops)
    return report


# -- oracle sensitivity -------------------------------------------------------

def sabotage_teardown(hv: Hypervisor, defect: str) -> None:
    """Give `hv` a defective enclave teardown: "skip_zeroize" hands the pages
    back unwiped, "remap_before_zeroize" wipes them only after handing them
    back.  The real teardown runs with its machine's `zero_frame` holding
    the frames back; the second defect zeroes them once it returns.  A later
    call replaces the defect.  Used to prove the zeroization watchdog bites."""
    zero_after = {"skip_zeroize": False, "remap_before_zeroize": True}[defect]
    machine, teardown = hv.machine, partial(Hypervisor._teardown, hv)

    def sabotaged(rec, by) -> None:
        held = []
        machine.zero_frame = lambda frame, by: held.append(frame)
        try:
            teardown(rec, by)
        finally:
            del machine.zero_frame
        if zero_after:
            for frame in held:
                machine.zero_frame(frame, by)

    hv._teardown = sabotaged


def verify_oracle_sensitivity(seed: int = 0) -> Dict[str, bool]:
    """Prove the zeroization watchdog actually bites: run one lifecycle with
    each teardown defect deliberately enabled and confirm it is flagged, and
    one clean lifecycle and confirm it is not."""
    outcomes = {}
    for mode in ("none", "skip_zeroize", "remap_before_zeroize"):
        runner = _Runner(parse_scenario(
            "machine frames=128\nseed %d\ncreate w wallet mem=8 chan=1\n"
            "invoke w 1 str:sensitivity-probe\ndestroy w" % seed))
        if mode != "none":
            sabotage_teardown(runner.sim.hv, mode)
        runner.run()
        outcomes[mode] = bool(runner.zerowatch.violations) == (mode != "none")
    return outcomes
