"""Randomized campaigns with reference models.

Four profiles:

* stack      -- raw LIFO scheduling ops checked step-for-step against an
                independent list-based model (contents, pending interrupt
                flags, interrupt outcomes, context-switch charges).
* lifecycle  -- create/use/destroy storms with known-answer output checks
                and a probe of each reclaimed page.
* mixed      -- interleaved lifecycles, timers, preemption, adversary object
                reads and raw scheduling noise on one long-lived simulation.
* create-fail -- injected-failure creates; every failure must leave stage-2
                tables, allocator state and the fd table bit-identical.

The lifecycle and mixed profiles are scenario scripts: each random choice
becomes a statement, every answer the host can compute becomes an `expect`,
and the scenario interpreter runs them one at a time.  After every case the
zeroization and confinement watchdogs and the vCPU stacks are checked, and
at the end the interpreter's battery runs.  `FuzzReport.script` holds the
statements behind the `machine` and `seed` lines, so saved to a file it
replays the run with `enclavesim run`.

Every campaign is a pure function of its seed; a failure report names the
seed and the case index, which is enough to replay it exactly, and prints
the failing case's statements.
"""
from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..channel import ChannelStatus
from ..errors import (
    Exhausted,
    InvalidDonation,
    NoMemory,
    PageNotMapped,
    TooSmall,
    WrongPcpu,
)
from ..guest_os import EnclaveDriver
from ..hypervisor import Hypervisor, ImageMeta
from ..machine import MachineConfig
from ..sim import Simulation
from ..stage2 import PERM_RO
from ..ta_runtime import (
    image_for_pages,
    wallet_address,
    wallet_derived_key,
    wallet_master_key,
)
from .oracles import (
    ReferenceStackModel,
    check_stack_integrity,
    check_trace_completeness,
)
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


# -- stack profile ------------------------------------------------------------

def fuzz_stack_ops(ops: int = 10000, seed: int = 0) -> FuzzReport:
    """Drive schedule/yield/interrupt through the public mechanism entry
    points and compare every observable against the reference model after
    every single operation.  Two pCPUs with six aux vCPUs each, so a
    cross-pCPU interrupt always has a target."""
    report = FuzzReport("stack", ops, seed)
    pcpus = 2
    sim = Simulation(MachineConfig(frames=96, pcpus=pcpus), seed=seed)
    hv = sim.hv
    rng = random.Random(seed)
    auxes = {p: [hv.make_aux_vcpu(p) for _ in range(6)] for p in range(pcpus)}
    bases = hv.primary.vcpus
    everyone = bases + [v for vs in auxes.values() for v in vs]
    model = ReferenceStackModel(pcpus, [v.name for v in bases])

    def bad(i: int, msg: str) -> None:
        report.failures.append((i, msg))

    for i in range(ops):
        p = rng.randrange(pcpus)
        roll = rng.random()
        kind = ("push" if roll < 0.35 else
                "pop" if roll < 0.60 else
                "irq" if roll < 0.90 else "xirq")
        idle = [v for v in auxes[p] if v.name not in model.scheduled(p)]
        if kind == "push" and not idle:
            kind = "pop"
        if kind == "pop" and len(model.stacks[p]) <= 1:
            kind = "irq"

        if kind == "push":
            vcpu = rng.choice(idle)
            hv.schedule_vcpu(p, vcpu)
            model.push(p, vcpu.name)
        elif kind == "pop":
            popped = hv.yield_vcpu(p)
            want = model.pop(p)
            if popped.name != want:
                bad(i, "popped %s, model expected %s" % (popped.name, want))
        elif kind == "irq":
            target = rng.choice([bases[p]] + auxes[p])
            outcome = hv.deliver_interrupt(p, target)
            want = model.interrupt(p, target.name)
            if outcome != want:
                bad(i, "interrupt %s -> %s, model says %s"
                    % (target.name, outcome, want))
        else:
            other = (p + 1) % pcpus
            vcpu = rng.choice(auxes[other])
            try:
                hv.deliver_interrupt(p, vcpu)
                bad(i, "cross-pcpu interrupt was accepted")
            except WrongPcpu:
                pass

        for q in range(pcpus):
            real = [v.name for v in hv.stack_of(q)]
            if real != model.stack(q):
                bad(i, "pcpu %d stack %r, model %r"
                    % (q, real, model.stack(q)))
        real_pending = {v.name for v in everyone if v.pending_irq}
        if real_pending != model.pending:
            bad(i, "pending %r, model %r"
                % (sorted(real_pending), sorted(model.pending)))
        if sim.machine.ledger.ctx_switches != model.charges:
            bad(i, "charged %d switches, model %d"
                % (sim.machine.ledger.ctx_switches, model.charges))
        for msg in check_stack_integrity(hv):
            bad(i, "structure: " + msg)
        if report.failures:
            break

    for msg in check_stack_integrity(hv):
        report.failures.append((ops, "structure: " + msg))
    for msg in check_trace_completeness(sim):
        report.failures.append((ops, "trace: " + msg))
    return report


# -- scripted profiles ---------------------------------------------------------

_TAS = ("counter", "echo", "spinner", "wallet")
_new = tuple.__new__    # skips the named tuple's generated Python __new__


class _Script:
    """A campaign run as scenario statements, one at a time, through the
    scenario interpreter.  The statements are kept in `report.script`
    behind the `machine` and `seed` lines, so the script replays the run
    with `enclavesim run`."""

    def __init__(self, report: FuzzReport, frames: int):
        self.report = report
        report.script = self.lines = ["machine frames=%d" % frames,
                                      "seed %d" % report.seed]
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


def fuzz_lifecycles(cases: int = 1000, seed: int = 0) -> FuzzReport:
    """Random create/use/destroy cycles on one simulation.  Each cycle
    checks a known answer from its enclave, then that a reclaimed page
    reads as zeros."""
    report = FuzzReport("lifecycle", cases, seed)
    run = _Script(report, frames=192)
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
    run = _Script(report, frames=256)
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


# -- injected-failure creates -------------------------------------------------

def _full_state(sim, driver) -> tuple:
    hv = sim.hv
    return (
        {vmid: vm.table.snapshot() for vmid, vm in hv.vms.items()},
        sorted(hv.enclaves),
        driver.allocator.snapshot(),
        tuple(driver.open_fds()),
    )


def fuzz_failed_creates(cases: int = 500, seed: int = 0) -> FuzzReport:
    """Throw every rejectable donation at create and check the refusal is
    total: same tables, same allocator, same fd table, correct error."""
    report = FuzzReport("create-fail", cases, seed)
    rng = random.Random(seed)

    def machine(frames: int, max_vms: int, creates: int, mem: int):
        """A simulation whose driver has made `creates` echo enclaves of
        `mem` private pages, with OS page 60 made read-only.  Returns it,
        the driver and the last enclave's record."""
        sim = Simulation(MachineConfig(frames=frames, max_vms=max_vms),
                         seed=seed)
        driver = EnclaveDriver(sim)
        for _ in range(creates):
            fd = driver.create(image_for_pages("echo", mem, 1))
        sim.hv.primary.table.protect(60, PERM_RO)
        return sim, driver, driver.record_of(fd)

    main = machine(160, 16, 1, 4)
    # max_vms 2 leaves room for one enclave; 20 lets the fd table fill first
    limit = machine(96, 2, 1, 4)
    fds_full = machine(160, 20, 16, 3)
    sim, driver, victim = main
    # OS-reserved pages: identity mapped and writable but never allocated,
    # so hand-rolled donations of them cannot collide with driver state
    free = tuple(range(40, 44))

    def donate(pages):
        sim.hv.create_enclave(sim.primary_vcpu(0), pages, ImageMeta(4, 1))

    def create(setup, mem: int):
        """Create an echo image of `mem` pages through the setup's driver."""
        setup[1].create(image_for_pages("echo", mem, 1))

    table = [
        ("duplicate", main, lambda: donate((40,) + free), InvalidDonation),
        ("unmapped", main, lambda: donate(
            (rng.choice(victim.primary_private_pages()),) + free),
         PageNotMapped),
        ("too-small", main, lambda: donate(free[:2]), TooSmall),
        ("unknown-image", main, lambda: donate(free + (44,)), InvalidDonation),
        ("donate-channel", main, lambda: donate(
            (victim.primary_channel_pages()[0],) + free), InvalidDonation),
        ("not-writable", main, lambda: donate((60,) + free), InvalidDonation),
        ("no-memory", main, lambda: create(main, 200), NoMemory),
        ("vm-limit", limit, lambda: create(limit, 4), Exhausted),
        ("fd-full", fds_full, lambda: create(fds_full, 3), Exhausted),
    ]

    for i in range(cases):
        kind, (on_sim, on_driver, _), thunk, expected = rng.choice(table)
        before = _full_state(on_sim, on_driver)
        try:
            thunk()
            report.failures.append((i, "%s: create unexpectedly succeeded"
                                    % kind))
        except expected:
            pass
        except Exception as err:
            report.failures.append((i, "%s: raised %s instead of %s"
                                    % (kind, type(err).__name__,
                                       expected.__name__)))
        after = _full_state(on_sim, on_driver)
        if after != before:
            report.failures.append((i, "%s: state changed across a failed "
                                    "create" % kind))
        if report.failures:
            break
    return report


# -- oracle sensitivity -------------------------------------------------------

def sabotage_teardown(hv: Hypervisor, defect: str) -> None:
    """Give `hv` a defective enclave teardown: "skip_zeroize" hands the pages
    back unwiped, "remap_before_zeroize" wipes them only after handing them
    back.  Used to prove the zeroization watchdog bites."""
    remap = hv._teardown_remap

    def remap_then_zeroize(rec) -> None:
        remap(rec)
        for frame in rec.frames():
            hv.machine.zero_frame(frame)

    hv._teardown = {"skip_zeroize": remap,
                    "remap_before_zeroize": remap_then_zeroize}[defect]


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
