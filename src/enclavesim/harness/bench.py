"""Cost measurements over the simulated clock.

The simulated clock is the cost ledger's unit sum, so timings are exact
integers and rerunning an operation must reproduce them to the unit.  The
benchmark measures the three lifecycle operations across donation sizes and
checks the claims the cost model makes: invoke cost does not depend on
enclave size, create scales with pages donated, destroy exceeds create by
exactly the zeroing work, and that gap is linear in the donation size.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..guest_os import EnclaveDriver
from ..machine import PAGE_SIZE, MachineConfig
from ..sim import Simulation
from ..ta_runtime import image_for_pages


@dataclass
class OpStats:
    samples: List[int]

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def stdev(self) -> float:
        return statistics.pstdev(self.samples)


@dataclass
class BenchReport:
    sizes: Tuple[int, ...]
    reps: int
    stats: Dict[int, Dict[str, OpStats]] = field(default_factory=dict)

    def deterministic(self) -> bool:
        return all(op.stdev == 0.0
                   for per_size in self.stats.values()
                   for op in per_size.values())

    def ordering_holds(self) -> bool:
        """invoke < create < destroy at every size."""
        return all(per["invoke"].mean < per["create"].mean
                   < per["destroy"].mean
                   for per in self.stats.values())

    def invoke_constant(self) -> bool:
        values = {op.samples[0]
                  for per in self.stats.values()
                  for name, op in per.items() if name == "invoke"}
        return len(values) == 1

    def teardown_gap_r2(self) -> float:
        """Correlation of (destroy - create) against donated bytes."""
        xs = [size * PAGE_SIZE for size in self.sizes]
        ys = [self.stats[size]["destroy"].mean
              - self.stats[size]["create"].mean
              for size in self.sizes]
        r = statistics.correlation(xs, ys)
        return r * r

    def format(self) -> str:
        lines = ["%6s %10s %10s %10s   (simulated cost units, %d reps)"
                 % ("pages", "create", "invoke", "destroy", self.reps)]
        for size in self.sizes:
            per = self.stats[size]
            lines.append("%6d %10.0f %10.0f %10.0f"
                         % (size, per["create"].mean, per["invoke"].mean,
                            per["destroy"].mean))
        lines.append("deterministic: %s" % self.deterministic())
        lines.append("invoke < create < destroy: %s" % self.ordering_holds())
        lines.append("invoke size-independent: %s" % self.invoke_constant())
        lines.append("teardown gap vs donated bytes R^2 = %.6f"
                     % self.teardown_gap_r2())
        return "\n".join(lines)


def _measure_size(size: int, reps: int) -> Dict[str, OpStats]:
    """One simulation per size; each rep is a full create/invoke/destroy
    cycle whose per-phase cost is the ledger delta."""
    config = MachineConfig(frames=64 + size + 8)
    sim = Simulation(config)
    # cost accounting is the ledger's job; this skips the mapping and zeroing
    # events only: each rep's 9 scheduling and 2 channel events stay, unread
    sim.machine.observers.clear()
    driver = EnclaveDriver(sim)
    image = image_for_pages("echo", size - 1, 1)
    out = {"create": [], "invoke": [], "destroy": []}
    for _ in range(reps):
        before = sim.now()
        fd = driver.create(image)
        created = sim.now()
        driver.invoke(fd, 0, b"")
        invoked = sim.now()
        driver.destroy(fd)
        done = sim.now()
        out["create"].append(created - before)
        out["invoke"].append(invoked - created)
        out["destroy"].append(done - invoked)
    return {name: OpStats(samples) for name, samples in out.items()}


def run_bench(sizes: Sequence[int] = (16, 64, 256, 1024),
              reps: int = 30) -> BenchReport:
    """`sizes` are total donated pages per enclave (private + one channel)."""
    report = BenchReport(tuple(sizes), reps)
    for size in sizes:
        if size < 3:
            raise ValueError("donation must cover code, state and channel")
        report.stats[size] = _measure_size(size, reps)
    return report
