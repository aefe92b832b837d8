"""The benchmark workloads: input plans, set-up, one op, finish.

A workload is driven in rounds.  A round builds a fresh simulation from a
plan, runs the plan's ops in a closed loop (one client; the next op starts
when the previous one returns) and ends with the oracle battery and trace
serialization.  The plan is a pure function of the seed and the op count,
and it carries the expected output of every op, computed on the host before
the simulation exists, so the simulator only ever receives generated inputs
and no reference computation runs inside a timed or traced region.

Every op returns a list of problems; an empty list means the op's outputs
matched the reference and the armed oracles stayed silent.

Why these two workloads:

* ``churn``  -- lifecycle work: create/destroy, stage-2 map/unmap, zeroing,
  the allocator, the per-cycle oracles (a ``SecretScanner`` sweep of every
  destroyed wallet's frames for its keys among them) and, at the end of a
  round, the ``MemoryOracle.verify`` sweep of all memory.  Rounds are a thousand cycles long on
  one simulation, so state that grows with history shows up in the late-op
  latency.  The TAs come in equal shares, and one cycle in five gets a
  2-page channel, as in ``fuzz_lifecycles``.
* ``invoke`` -- the per-invoke path: channel protocol, guest_access, dispatch
  and the run loop, the TA bodies and trace emission, on long-lived
  enclaves with no create/destroy.  It is the no-change control for
  lifecycle and memory optimisations.  The enclaves share the invokes
  equally (a chosen mix, see ``INVOKE_MIX``).

``boot`` gives the growth report's set-up time at large frame counts.
"""
from __future__ import annotations

import random
import statistics
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from enclavesim.channel import ChannelStatus
from enclavesim.guest_os import EnclaveDriver
from enclavesim.harness import oracles
from enclavesim.image import EnclaveImage
from enclavesim.machine import PAGE_SHIFT, PAGE_SIZE, MachineConfig
from enclavesim.sim import Simulation
from enclavesim.ta_runtime import (
    image_for_pages,
    wallet_address,
    wallet_derived_key,
    wallet_master_key,
    wallet_tag,
)

DONE = ChannelStatus.DONE
PREEMPTED = ChannelStatus.PREEMPTED
ZERO_PAGE = bytes(PAGE_SIZE)


def _tenths(n: int) -> List[int]:
    """Sizes of the ten consecutive blocks a sequence of n is cut into."""
    parts = min(10, n) or 1
    return [(k + 1) * n // parts - k * n // parts for k in range(parts)]


def spread(rng: random.Random, m: int, lo: float, hi: float) -> List[float]:
    """m values, one from each of m equal slices of [lo, hi), shuffled."""
    vals = [lo + (hi - lo) * (i + rng.random()) / m for i in range(m)]
    rng.shuffle(vals)
    return vals


def stratified(rng: random.Random, n: int, lo: float, hi: float) -> List[float]:
    """n values spread evenly over [lo, hi) within each tenth of the
    sequence.

    Every tenth of a round then does the same mix of work, so the per-tenth
    latencies show growth with history rather than a change of mix, and two
    seeds differ in order and detail but not in the spread of sizes."""
    out: List[float] = []
    for m in _tenths(n):
        out += spread(rng, m, lo, hi)
    return out


def balanced(rng: random.Random, n: int,
             weights: Sequence[Tuple[str, float]]) -> List[str]:
    """n labels in the proportions of `weights`, in every tenth of the
    sequence, shuffled within the tenth."""
    out: List[str] = []
    for m in _tenths(n):
        block: List[str] = []
        for label, w in weights:
            block += [label] * int(round(m * w))
        block = (block + [weights[0][0]] * m)[:m]
        rng.shuffle(block)
        out += block
    return out


@dataclass
class Plan:
    """Generated inputs for one round plus everything the checks need."""

    seed: int
    items: List[tuple]
    extra: Dict[str, object] = field(default_factory=dict)


@dataclass
class State:
    """A round's live simulation and the oracles armed on it."""

    sim: Simulation
    driver: EnclaveDriver
    zerowatch: oracles.ZeroizeWatch
    confinement: oracles.WriteConfinementOracle
    memory: Optional[oracles.MemoryOracle] = None
    fds: Dict[str, int] = field(default_factory=dict)
    seen_violations: Tuple[int, int] = (0, 0)


def _arm(sim: Simulation, memory_oracle: bool = False) -> State:
    driver = EnclaveDriver(sim)
    st = State(sim, driver, oracles.ZeroizeWatch(sim.hv),
               oracles.WriteConfinementOracle(sim.hv))
    sim.machine.observers += [st.zerowatch, st.confinement]
    if memory_oracle:
        st.memory = oracles.MemoryOracle(sim.machine)
        sim.machine.observers.append(st.memory)
    return st


def _new_violations(st: State) -> List[str]:
    """Watchdog violations reported since the previous call."""
    zw, wc = st.zerowatch.violations, st.confinement.violations
    seen_zw, seen_wc = st.seen_violations
    st.seen_violations = (len(zw), len(wc))
    return zw[seen_zw:] + wc[seen_wc:]


def _expect(problems: List[str], what: str, got, want) -> None:
    if got != want:
        problems.append("%s: got %r, want %r" % (what, got, want))


def _probe_reclaimed(st: State, page: int, problems: List[str]) -> None:
    """The primary reads back one page it just got back from an enclave."""
    got = st.sim.vm_read(st.sim.hv.primary, page << PAGE_SHIFT, PAGE_SIZE)
    if got != ZERO_PAGE:
        problems.append("reclaimed page %#x not wiped" % page)


def end_checks(st: State, plan: Plan) -> List[str]:
    """The end-of-round battery every workload runs."""
    return (oracles.standard_checks(st.sim, st.driver)
            + _new_violations(st))


# -- churn ----------------------------------------------------------------------

CHURN_TAS = ("echo", "counter", "wallet", "spinner")
SPIN_ARGS = struct.pack("<II", 2, 3)


def churn_plan(seed: int, n: int) -> Plan:
    """Each tenth gives the TAs equal shares, and within each TA's share
    spreads the private pages evenly over 3-8, the echo payloads over
    0-511 bytes, and gives one cycle in five a 2-page channel, as
    fuzz_lifecycles does.  Every tenth, of any seed, then holds the same
    mix of work."""
    rng = random.Random(seed)
    cycles: List[Tuple[str, int, int, int]] = []    # ta, mem, chan, length
    for b, m in enumerate(_tenths(n)):
        tas = CHURN_TAS[b % 4:] + CHURN_TAS[:b % 4]   # tiny plans rotate
        block = []
        for t, ta in enumerate(tas):
            k = (t + 1) * m // 4 - t * m // 4
            twos = int(round(k / 5))
            chans = [2] * twos + [1] * (k - twos)
            rng.shuffle(chans)
            block += zip([ta] * k, map(int, spread(rng, k, 3, 9)), chans,
                         map(int, spread(rng, k, 0, 512)))
        rng.shuffle(block)
        cycles += block
    images: Dict[Tuple[str, int, int], EnclaveImage] = {}
    items = []
    for ta, mem, chan, length in cycles:
        key = (ta, mem, chan)
        if key not in images:
            images[key] = image_for_pages(ta, mem, chan)
        secrets: Tuple[bytes, ...] = ()
        if ta == "echo":
            arg = rng.randbytes(length)
            want = arg
        elif ta == "counter":
            arg = rng.randrange(1, 4)           # increments before the read
            want = struct.pack("<I", arg)
        elif ta == "wallet":
            arg = rng.randbytes(16)             # master seed
            master = wallet_master_key(arg)
            derived = wallet_derived_key(master, 0)
            secrets = (master, derived)
            want = wallet_address(derived)
        else:
            arg, want = SPIN_ARGS, b"spun"
        items.append((ta, images[key], arg, want, rng.random(), secrets))
    return Plan(seed, items)


def boot(seed: int, frames: int) -> State:
    """A fresh simulation of `frames` frames with every oracle armed."""
    return _arm(Simulation(MachineConfig(frames=frames), seed=seed),
                memory_oracle=True)


def churn_setup(plan: Plan) -> State:
    return boot(plan.seed, 192)


def _use(driver: EnclaveDriver, fd: int, ta: str, arg, want,
         problems: List[str]) -> None:
    if ta == "echo":
        _expect(problems, "echo", driver.invoke(fd, 0, arg), (DONE, want))
    elif ta == "counter":
        for i in range(1, arg + 1):
            _expect(problems, "counter increment",
                    driver.invoke(fd, 1), (DONE, struct.pack("<I", i)))
        _expect(problems, "counter read", driver.invoke(fd, 2), (DONE, want))
    elif ta == "wallet":
        _expect(problems, "wallet master", driver.invoke(fd, 1, arg),
                (DONE, b"ok"))
        _expect(problems, "wallet derive", driver.invoke(fd, 2),
                (DONE, struct.pack("<I", 0)))
        _expect(problems, "wallet address",
                driver.invoke(fd, 3, struct.pack("<I", 0)), (DONE, want))
    else:
        _expect(problems, "spinner", driver.invoke(fd, 1, arg), (DONE, want))


def churn_op(st: State, item: tuple) -> List[str]:
    ta, image, arg, want, probe, secrets = item
    problems: List[str] = []
    driver = st.driver
    fd = driver.create(image)
    _use(driver, fd, ta, arg, want, problems)
    rec = driver.record_of(fd)
    reclaimed, held = rec.primary_private_pages(), rec.frames()
    driver.destroy(fd)
    _probe_reclaimed(st, reclaimed[int(probe * len(reclaimed))], problems)
    if secrets:
        # a destroyed wallet's keys, over every frame it held
        hits = oracles.SecretScanner(st.sim.machine).scan_frames(secrets,
                                                                 held)
        problems += ["wallet key %d survives in frame %d at %d" % (pi, f, off)
                     for f, off, pi in hits]
    problems += _new_violations(st)
    problems += oracles.check_stack_integrity(st.sim.hv)
    return problems


def churn_finish(st: State, plan: Plan) -> List[str]:
    return list(st.memory.verify()) + end_checks(st, plan)


# -- invoke ---------------------------------------------------------------------

# Each of the five long-lived enclaves gets the same share of the invokes,
# and a quarter of the spinner's share is preempted by a timer.  The mix is
# chosen, not measured: the repo holds no recorded traffic to take it from.
INVOKE_MIX = (
    ("echo_big", 0.20),        # 2-page channel, 0-8 KiB, crosses pages
    ("echo_small", 0.20),      # 1-page channel, small payloads
    ("counter", 0.20),         # state read + write
    ("wallet", 0.20),          # sign: the digest chain
    ("spinner", 0.15),         # runs to completion
    ("spinner_preempt", 0.05),  # a timer lands mid-command; then resumed
)
WALLET_KEYS = 4
SPIN_LONG = struct.pack("<II", 6, 4)


def invoke_plan(seed: int, n: int) -> Plan:
    rng = random.Random(seed)
    kinds = balanced(rng, n, INVOKE_MIX)
    big = iter(stratified(rng, kinds.count("echo_big"), 0,
                          2 * PAGE_SIZE - 20 + 1))
    small = iter(stratified(rng, kinds.count("echo_small"), 0, 257))
    wallet_seed = rng.randbytes(16)
    master = wallet_master_key(wallet_seed)
    keys = [wallet_derived_key(master, i) for i in range(WALLET_KEYS)]
    count = 0
    items = []
    for kind in kinds:
        if kind == "echo_big":
            arg = rng.randbytes(int(next(big)))
            items.append((kind, arg, arg, 0))
        elif kind == "echo_small":
            arg = rng.randbytes(int(next(small)))
            items.append((kind, arg, arg, 0))
        elif kind == "counter":
            count += 1
            items.append((kind, b"", struct.pack("<I", count), 0))
        elif kind == "wallet":
            key_id = rng.randrange(WALLET_KEYS)
            msg = rng.randbytes(rng.randrange(0, 65))
            items.append((kind, struct.pack("<I", key_id) + msg,
                          wallet_tag(keys[key_id], msg), 0))
        elif kind == "spinner":
            items.append((kind, SPIN_ARGS, b"spun", 0))
        else:
            items.append((kind, SPIN_LONG, b"spun", rng.randrange(2, 13)))
    return Plan(seed, items, {"wallet_seed": wallet_seed})


INVOKE_ENCLAVES = (
    ("echo_big", "echo", 4, 2),
    ("echo_small", "echo", 4, 1),
    ("counter", "counter", 4, 1),
    ("wallet", "wallet", 8, 1),
    ("spinner", "spinner", 4, 1),
)
INVOKE_CMD = {"echo_big": 0, "echo_small": 0, "counter": 1, "wallet": 5,
              "spinner": 1, "spinner_preempt": 1}


def invoke_setup(plan: Plan) -> State:
    st = _arm(Simulation(MachineConfig(frames=512), seed=plan.seed))
    for label, ta, mem, chan in INVOKE_ENCLAVES:
        st.fds[label] = st.driver.create(image_for_pages(ta, mem, chan))
    st.fds["spinner_preempt"] = st.fds["spinner"]
    wallet = st.fds["wallet"]
    problems: List[str] = []
    _expect(problems, "wallet master",
            st.driver.invoke(wallet, 1, plan.extra["wallet_seed"]),
            (DONE, b"ok"))
    for i in range(WALLET_KEYS):
        _expect(problems, "wallet derive", st.driver.invoke(wallet, 2),
                (DONE, struct.pack("<I", i)))
    if problems:
        raise RuntimeError("invoke priming failed: %s" % "; ".join(problems))
    return st


def invoke_op(st: State, item: tuple) -> List[str]:
    kind, arg, want, timer = item
    problems: List[str] = []
    fd = st.fds[kind]
    if timer:
        st.sim.arm_timer(timer)
        _expect(problems, "preempted spinner",
                st.driver.invoke(fd, 1, arg), (PREEMPTED, b""))
        got = st.driver.resume(fd)
    else:
        got = st.driver.invoke(fd, INVOKE_CMD[kind], arg)
    _expect(problems, kind, got, (DONE, want))
    problems += _new_violations(st)
    return problems


# -- registry -------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    ops: int                                   # ops per round
    plan: Callable[[int, int], Plan]
    setup: Callable[[Plan], State]
    op: Callable[[State, tuple], List[str]]
    finish: Callable[[State, Plan], List[str]]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("churn", 1000, churn_plan, churn_setup, churn_op, churn_finish),
    Workload("invoke", 4000, invoke_plan, invoke_setup, invoke_op, end_checks),
)}


def median_tenths(samples: Sequence[float]) -> List[float]:
    """Median of each tenth of a sequence, in order (fewer parts when the
    sequence is shorter than ten)."""
    parts = min(10, len(samples))
    return [statistics.median(samples[k * len(samples) // parts:
                                      (k + 1) * len(samples) // parts])
            for k in range(parts)]
