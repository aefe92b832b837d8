"""Randomized campaigns with reference models.

Four profiles:

* stack      -- raw LIFO scheduling ops checked step-for-step against an
                independent list-based model (contents, pending interrupt
                flags, interrupt outcomes, context-switch charges).
* lifecycle  -- create/use/destroy storms with the zeroization and write
                confinement watchdogs armed and known-answer output checks.
* mixed      -- interleaved lifecycles, timers, preemption, adversary object
                reads and raw scheduling noise on one long-lived simulation.
* create-fail -- injected-failure creates; every failure must leave stage-2
                tables, allocator state and the fd table bit-identical.

Every campaign is a pure function of its seed; a failure report names the
seed and the case index, which is enough to replay it exactly.
"""
from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

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
from ..machine import PAGE_SHIFT, MachineConfig
from ..sim import Simulation
from ..stage2 import PERM_RO, AccessFault
from ..ta_runtime import (
    image_for_pages,
    wallet_address,
    wallet_derived_key,
    wallet_master_key,
)
from .oracles import (
    ReferenceStackModel,
    WriteConfinementOracle,
    ZeroizeWatch,
    check_stack_integrity,
    check_trace_completeness,
    standard_checks,
)


@dataclass
class FuzzReport:
    profile: str
    cases: int
    seed: int
    failures: List[Tuple[int, str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def reproducer(self) -> Optional[str]:
        if not self.failures:
            return None
        idx, _ = self.failures[0]
        return "--profile %s --seed %d (first divergence at case %d)" % (
            self.profile, self.seed, idx)

    def format(self) -> str:
        lines = ["%s fuzz: %d cases, seed %d: %s"
                 % (self.profile, self.cases, self.seed,
                    "all passed" if self.ok else
                    "%d FAILURES" % len(self.failures))]
        for idx, msg in self.failures[:10]:
            lines.append("  case %d: %s" % (idx, msg))
        if self.failures:
            lines.append("  replay: %s" % self.reproducer())
        lines.extend("  note: " + n for n in self.notes)
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
    auxes = {p: [hv.make_aux_vcpu(p) for _ in range(6)]
             for p in range(pcpus)}
    by_name = {v.name: v for vs in auxes.values() for v in vs}
    bases = []
    for p in range(pcpus):
        base = hv.primary.vcpus[p]
        bases.append(base.name)
        by_name[base.name] = base
    model = ReferenceStackModel(pcpus, bases)

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
            name = rng.choice([bases[p]] + [v.name for v in auxes[p]])
            outcome = hv.deliver_interrupt(p, by_name[name])
            want = model.interrupt(p, name)
            if outcome != want:
                bad(i, "interrupt %s -> %s, model says %s"
                    % (name, outcome, want))
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
        real_pending = {v.name for v in by_name.values() if v.pending_irq}
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


# -- lifecycle profile --------------------------------------------------------

def _check_echo(driver, rng, fd: int, fail: Callable[[str], None]) -> None:
    payload = rng.randbytes(rng.randrange(0, 200))
    status, ret = driver.invoke(fd, 0, payload)
    if status is not ChannelStatus.DONE or ret != payload:
        fail("echo returned %s/%r for %r" % (status, ret, payload))


def _check_counter(driver, rng, fd: int, fail: Callable[[str], None]) -> None:
    # state persists across visits to the same enclave, so diff against a
    # baseline instead of assuming zero
    _, before = driver.invoke(fd, 2)
    if len(before) != 4:
        fail("counter baseline read %r" % before)
        return
    bumps = rng.randrange(1, 4)
    for _ in range(bumps):
        driver.invoke(fd, 1)
    status, ret = driver.invoke(fd, 2)
    want = struct.pack("<I", struct.unpack("<I", before)[0] + bumps)
    if status is not ChannelStatus.DONE or ret != want:
        fail("counter read %r after %d bumps on %r" % (ret, bumps, before))


def _check_wallet(driver, rng, fd: int, fail: Callable[[str], None]) -> None:
    seed_bytes = rng.randbytes(16)
    driver.invoke(fd, 1, seed_bytes)
    status, ret = driver.invoke(fd, 2)
    if ret != struct.pack("<I", 0):
        fail("first derive returned %r" % ret)
        return
    status, ret = driver.invoke(fd, 3, struct.pack("<I", 0))
    want = wallet_address(wallet_derived_key(wallet_master_key(seed_bytes), 0))
    if status is not ChannelStatus.DONE or ret != want:
        fail("address %r, host computes %r" % (ret, want))


def _check_spinner(driver, rng, fd: int, fail: Callable[[str], None]) -> None:
    status, ret = driver.invoke(fd, 1, struct.pack("<II", 2, 3))
    if status is not ChannelStatus.DONE or ret != b"spun":
        fail("spinner returned %s/%r" % (status, ret))


_LIFECYCLE_TAS: Dict[str, Callable] = {
    "echo": _check_echo,
    "counter": _check_counter,
    "wallet": _check_wallet,
    "spinner": _check_spinner,
}


def fuzz_lifecycles(cases: int = 1000, seed: int = 0) -> FuzzReport:
    """Random create/use/destroy cycles on one simulation with the
    zeroization and confinement watchdogs armed throughout."""
    report = FuzzReport("lifecycle", cases, seed)
    sim = Simulation(MachineConfig(frames=192), seed=seed)
    driver = EnclaveDriver(sim)
    zerowatch = ZeroizeWatch(sim.hv)
    confinement = WriteConfinementOracle(sim.hv)
    sim.machine.observers += [zerowatch, confinement]
    rng = random.Random(seed)
    names = sorted(_LIFECYCLE_TAS)
    for i in range(cases):
        problems: List[str] = []
        name = rng.choice(names)
        mem = rng.randrange(3, 9)
        chan = 2 if rng.random() < 0.2 else 1
        fd = driver.create(image_for_pages(name, mem, chan))
        _LIFECYCLE_TAS[name](driver, rng, fd, problems.append)
        rec = driver.record_of(fd)
        reclaimed = rec.primary_private_pages()
        driver.destroy(fd)
        probe = sim.vm_read(sim.hv.primary,
                            rng.choice(reclaimed) << PAGE_SHIFT, 64)
        if probe != bytes(64):
            problems.append("reclaimed page not wiped: %r" % probe[:8])
        problems.extend(zerowatch.violations)
        problems.extend(confinement.violations)
        problems.extend(check_stack_integrity(sim.hv))
        if problems:
            report.failures.append((i, "; ".join(problems)))
            break
    report.failures.extend(
        (cases, m) for m in standard_checks(sim, driver))
    return report


# -- mixed profile ------------------------------------------------------------

class _PatientDriver:
    """Invoke wrapper that rides out preemptions from stray timers."""

    def __init__(self, driver: EnclaveDriver):
        self._driver = driver

    def invoke(self, fd: int, cmd_id: int, args: bytes = b""):
        status, ret = self._driver.invoke(fd, cmd_id, args)
        while status is ChannelStatus.PREEMPTED:
            status, ret = self._driver.resume(fd)
        return status, ret


def fuzz_mixed(ops: int = 2000, seed: int = 0) -> FuzzReport:
    """Everything at once on one simulation: lifecycles, timers firing in
    the middle of enclave execution, resume loops, adversary reads of
    donated memory, and raw scheduling noise."""
    report = FuzzReport("mixed", ops, seed)
    sim = Simulation(MachineConfig(frames=256), seed=seed)
    driver = EnclaveDriver(sim)
    patient = _PatientDriver(driver)
    zerowatch = ZeroizeWatch(sim.hv)
    confinement = WriteConfinementOracle(sim.hv)
    sim.machine.observers += [zerowatch, confinement]
    rng = random.Random(seed)
    live: Dict[int, str] = {}
    aux = sim.hv.make_aux_vcpu(0)
    names = sorted(_LIFECYCLE_TAS)

    def finish_preempted(fd: int, problems: List[str]) -> None:
        for _ in range(8):
            status, _ = driver.resume(fd)
            if status is not ChannelStatus.PREEMPTED:
                return
        problems.append("enclave starved through 8 resumes")

    for i in range(ops):
        problems: List[str] = []
        roll = rng.random()
        if (roll < 0.25 and len(live) < 5) or not live:
            name = rng.choice(names)
            fd = driver.create(image_for_pages(name, rng.randrange(3, 7),
                                               1))
            live[fd] = name
        elif roll < 0.50:
            fd = rng.choice(sorted(live))
            _LIFECYCLE_TAS[live[fd]](patient, rng, fd, problems.append)
        elif roll < 0.60:
            fd = rng.choice(sorted(live))
            rec = driver.record_of(fd)
            page = rng.choice(rec.primary_private_pages())
            got = sim.vm_read(sim.hv.primary, page << PAGE_SHIFT, 16)
            if not isinstance(got, AccessFault):
                problems.append("adversary read of %#x leaked" % page)
        elif roll < 0.75:
            spinner = driver.create(image_for_pages("spinner", 3, 1))
            sim.arm_timer(rng.randrange(4, 12))
            status, ret = driver.invoke(spinner, 1,
                                        struct.pack("<II", 6, 4))
            if status is ChannelStatus.PREEMPTED:
                finish_preempted(spinner, problems)
            driver.destroy(spinner)
        elif roll < 0.85:
            fd = rng.choice(sorted(live))
            driver.destroy(fd)
            del live[fd]
        elif roll < 0.95:
            # scheduling noise around the enclave traffic
            sim.hv.schedule_vcpu(0, aux)
            if rng.random() < 0.5:
                sim.hv.yield_vcpu(0)
            else:
                sim.hv.deliver_interrupt(0, sim.primary_vcpu(0))
        else:
            sim.arm_timer(rng.randrange(1, 6))
            sim.check_timers()
        problems.extend(zerowatch.violations)
        problems.extend(confinement.violations)
        problems.extend(check_stack_integrity(sim.hv))
        if problems:
            report.failures.append((i, "; ".join(problems)))
            break
    for fd in sorted(live):
        driver.destroy(fd)
    report.failures.extend((ops, m) for m in standard_checks(sim, driver))
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


class _FailSetup:
    """One simulation prepared so a specific class of create always fails."""

    def __init__(self, config: MachineConfig, seed: int,
                 prime: Callable[["_FailSetup"], None] = None):
        self.sim = Simulation(config, seed=seed)
        self.driver = EnclaveDriver(self.sim)
        if prime is not None:
            prime(self)


def fuzz_failed_creates(cases: int = 500, seed: int = 0) -> FuzzReport:
    """Throw every rejectable donation at create and check the refusal is
    total: same tables, same allocator, same fd table, correct error."""
    report = FuzzReport("create-fail", cases, seed)
    rng = random.Random(seed)

    def prime_main(s: _FailSetup) -> None:
        s.victim = s.driver.create(image_for_pages("echo", 4, 1))
        s.rec = s.driver.record_of(s.victim)
        # one read-only page for the not-writable case
        s.sim.hv.primary.table.protect(60, PERM_RO)

    main = _FailSetup(MachineConfig(frames=160), seed, prime_main)

    def prime_limit(s: _FailSetup) -> None:
        s.driver.create(image_for_pages("echo", 4, 1))

    limit = _FailSetup(MachineConfig(frames=96, max_vms=2), seed, prime_limit)

    def prime_fds(s: _FailSetup) -> None:
        for _ in range(16):
            s.driver.create(image_for_pages("echo", 3, 1))

    # max_vms above 17 so the fd table, not the VM limit, is what fills up
    fds_full = _FailSetup(MachineConfig(frames=160, max_vms=20), seed,
                          prime_fds)

    def caller(s: _FailSetup):
        return s.sim.primary_vcpu(0)

    meta = ImageMeta(4, 1)
    # OS-reserved pages: identity mapped and writable but never allocated,
    # so hand-rolled donations of them cannot collide with driver state
    free = list(range(40, 50))

    def case_duplicate(s):
        s.sim.hv.create_enclave(caller(s), (free[0], free[0], free[1],
                                            free[2], free[3]), meta)

    def case_unmapped(s):
        gone = rng.choice(s.rec.primary_private_pages())
        s.sim.hv.create_enclave(caller(s), (gone, free[0], free[1],
                                            free[2], free[3]), meta)

    def case_too_small(s):
        s.sim.hv.create_enclave(caller(s), (free[0], free[1]), meta)

    def case_unknown_image(s):
        s.sim.hv.create_enclave(caller(s), tuple(free[:5]), meta)

    def case_donate_channel(s):
        shared = s.rec.primary_channel_pages()[0]
        s.sim.hv.create_enclave(caller(s), (shared, free[0], free[1],
                                            free[2], free[3]), meta)

    def case_not_writable(s):
        s.sim.hv.create_enclave(caller(s), (60, free[0], free[1],
                                            free[2], free[3]), meta)

    def case_no_memory(s):
        s.driver.create(image_for_pages("echo", 200, 1))

    def case_vm_limit(s):
        s.driver.create(image_for_pages("echo", 4, 1))

    def case_fd_full(s):
        s.driver.create(image_for_pages("echo", 3, 1))

    table = [
        ("duplicate", main, case_duplicate, InvalidDonation),
        ("unmapped", main, case_unmapped, PageNotMapped),
        ("too-small", main, case_too_small, TooSmall),
        ("unknown-image", main, case_unknown_image, InvalidDonation),
        ("donate-channel", main, case_donate_channel, InvalidDonation),
        ("not-writable", main, case_not_writable, InvalidDonation),
        ("no-memory", main, case_no_memory, NoMemory),
        ("vm-limit", limit, case_vm_limit, Exhausted),
        ("fd-full", fds_full, case_fd_full, Exhausted),
    ]

    for i in range(cases):
        kind, setup, thunk, expected = rng.choice(table)
        before = _full_state(setup.sim, setup.driver)
        try:
            thunk(setup)
            report.failures.append((i, "%s: create unexpectedly succeeded"
                                    % kind))
        except expected:
            pass
        except Exception as err:
            report.failures.append((i, "%s: raised %s instead of %s"
                                    % (kind, type(err).__name__,
                                       expected.__name__)))
        after = _full_state(setup.sim, setup.driver)
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
        sim = Simulation(MachineConfig(frames=128), seed=seed)
        driver = EnclaveDriver(sim)
        watch = ZeroizeWatch(sim.hv)
        sim.machine.observers.append(watch)
        if mode != "none":
            sabotage_teardown(sim.hv, mode)
        fd = driver.create(image_for_pages("wallet", 8, 1))
        driver.invoke(fd, 1, b"sensitivity probe")
        driver.destroy(fd)
        flagged = bool(watch.violations)
        outcomes[mode] = (not flagged) if mode == "none" else flagged
    return outcomes
