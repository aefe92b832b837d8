"""Cost measurements over the simulated clock.

The simulated clock is the trace's running total, so timings are exact
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
class BenchReport:
    sizes: Tuple[int, ...]
    reps: int
    # per size, each operation's cost in every rep
    samples: Dict[int, Dict[str, List[int]]] = field(default_factory=dict)

    def _mean(self, size: int, op: str) -> float:
        return statistics.fmean(self.samples[size][op])

    def deterministic(self) -> bool:
        """Every rep of an operation cost the same at each size."""
        return all(len(set(reps)) == 1
                   for per in self.samples.values() for reps in per.values())

    def ordering_holds(self) -> bool:
        """invoke < create < destroy at every size."""
        return all(self._mean(size, "invoke") < self._mean(size, "create")
                   < self._mean(size, "destroy")
                   for size in self.samples)

    def invoke_constant(self) -> bool:
        values = {per["invoke"][0] for per in self.samples.values()}
        return len(values) == 1

    def teardown_gap_r2(self) -> float:
        """Correlation of (destroy - create) against donated bytes."""
        xs = [size * PAGE_SIZE for size in self.sizes]
        ys = [self._mean(size, "destroy") - self._mean(size, "create")
              for size in self.sizes]
        r = statistics.correlation(xs, ys)
        return r * r

    def format(self) -> str:
        lines = ["%6s %10s %10s %10s   (simulated cost units, %d reps)"
                 % ("pages", "create", "invoke", "destroy", self.reps)]
        for size in self.sizes:
            lines.append("%6d %10.0f %10.0f %10.0f"
                         % (size, self._mean(size, "create"),
                            self._mean(size, "invoke"),
                            self._mean(size, "destroy")))
        lines.append("deterministic: %s" % self.deterministic())
        lines.append("invoke < create < destroy: %s" % self.ordering_holds())
        lines.append("invoke size-independent: %s" % self.invoke_constant())
        lines.append("teardown gap vs donated bytes R^2 = %.6f"
                     % self.teardown_gap_r2())
        return "\n".join(lines)


def _measure_size(size: int, reps: int) -> Dict[str, List[int]]:
    """One simulation per size; each rep is a full create/invoke/destroy
    cycle whose per-phase cost is the ledger delta."""
    config = MachineConfig(frames=64 + size + 8)
    # the observers stay armed: recording the mapping and zeroing events is
    # what charges their cost
    sim = Simulation(config)
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
    return out


def run_bench(sizes: Sequence[int] = (16, 64, 256, 1024),
              reps: int = 30) -> BenchReport:
    """`sizes` are total donated pages per enclave (private + one channel)."""
    report = BenchReport(tuple(sizes), reps)
    for size in sizes:
        if size < 3:
            raise ValueError("donation must cover code, state and channel")
        report.samples[size] = _measure_size(size, reps)
    return report
