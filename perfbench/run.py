"""Host-time benchmark of the enclavesim simulator.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, each in
                                                     # its own process

Run it from the root of a source checkout; it imports the package from
``src/``.  One run is one process and one thread.  It builds the workload's
inputs from ``--seed``, then repeats rounds -- set-up, a fixed list of ops in
a closed loop, finish -- until ``--seconds`` have passed (at least one
round).  Every round repeats the same inputs on a fresh simulation, so the
exact counts (trace bytes, simulated cost units, the trace's sha256) are
the same in every round and are checked to be.  Each op's latency is the
fastest of its runs, throughput is ops over the sum of those latencies, the
finish time is the sum of its pieces (the oracle battery, then the trace
serialized 256 events at a time), each the fastest of its runs, and set-up
time is the median of all the run's set-ups.

With ``--trace 0`` the last line of output is a JSON object carrying every
end-to-end metric; with ``--trace 1`` rounds alternate between untraced and
traced (timing wrappers around each module's public functions, see
``spans.py``) and the JSON carries the per-layer metrics and the tracing
overhead.  Host time is what the simulator costs; simulated time is the
ledger, whose figures are exact.  The model has no measurements from real
hardware behind it, so no accuracy figure is reported.

Every op's outputs are checked against a host-side reference and the armed
oracles; any failure makes ``correct`` false and the exit status 1.  Results,
with the run's metadata, the trace sha256 and the ledger totals, are also
written to ``.perfbench/results/``; the spans of the last traced round go to
``.perfbench/spans/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("churn", "invoke")
WARMUP_SETUPS = 4          # extra set-ups before the rounds, for setup_s
JSONL_SLICE = 256          # trace events serialized per timed finish piece
# growth report: set-up time against frame count
BOOT_SIZES = (8192, 16384, 65536)

# fail_frac can be 0, so it travels as the result's attempted/failed counts
# and is printed with the other metrics rather than carried as a metric.
FAIL_FRAC = ("fail_frac", "1")


def declared_units(trace: int) -> Dict[str, str]:
    """Name -> unit of every metric BENCHMARK.json declares for the mode;
    the file is the one place that names the metrics and sets their
    bounds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


# -- one round ---------------------------------------------------------------

@dataclass
class Round:
    setup_s: float = 0.0
    op_s: List[float] = field(default_factory=list)
    ops_phase_s: float = 0.0
    finish_s: float = 0.0
    finish_pieces: List[float] = field(default_factory=list)
    failures: List[Tuple[int, str]] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)   # round-level checks
    trace_sha256: str = ""
    trace_bytes: int = 0
    events: int = 0
    units: int = 0
    ledger: Dict[str, int] = field(default_factory=dict)
    facts: Dict[str, float] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.setup_s + self.ops_phase_s + self.finish_s


def run_round(wl, plan, tracer=None, whole=False) -> Round:
    """Set up, run every op of the plan, finish.  An exception ends the
    round; it is recorded as a failure with its traceback.  With `whole`,
    the trace is also serialized in one piece, untimed, and checked against
    the slices."""
    span = tracer.root if tracer is not None else nullcontext
    clock = time.perf_counter
    r = Round()
    gc.collect()
    t0 = clock()
    try:
        with span():
            st = wl.setup(plan)
    except Exception:
        r.setup_s = clock() - t0
        r.problems.append("set-up raised:\n" + traceback.format_exc())
        return r
    t1 = clock()
    r.setup_s = t1 - t0
    units0 = st.sim.now()
    op, lat, failures = wl.op, r.op_s, r.failures
    for i, item in enumerate(plan.items):
        s = clock()
        try:
            with span():
                problems = op(st, item)
        except Exception:
            lat.append(clock() - s)
            failures.append((i, "raised:\n" + traceback.format_exc()))
            break
        lat.append(clock() - s)
        if problems:
            failures.append((i, "; ".join(problems)))
    t2 = clock()
    r.ops_phase_s = t2 - t1
    r.units = st.sim.now() - units0
    # The finish is timed in pieces -- the oracle battery, then the trace
    # serialized a slice of events at a time -- so that, like an op, each
    # piece can be taken at the fastest of its replays.
    trace = st.sim.trace
    events = trace.events
    pieces, digest, size = r.finish_pieces, sha256(), 0
    try:
        with span():
            s = clock()
            r.problems += wl.finish(st, plan)
            pieces.append(clock() - s)
            for i in range(0, len(events), JSONL_SLICE):
                trace.events = events[i:i + JSONL_SLICE]
                s = clock()
                part = trace.to_jsonl()
                pieces.append(clock() - s)
                digest.update(part.encode("utf-8"))
                size += len(part.encode("utf-8")) if not part.isascii() \
                    else len(part)
    except Exception:
        r.problems.append("finish raised:\n" + traceback.format_exc())
        return r
    finally:
        trace.events = events
        r.finish_s = clock() - t2
    r.trace_sha256, r.trace_bytes = digest.hexdigest(), size
    if whole:
        # the slices must add up to the whole trace's serialization
        jsonl, whole_digest = trace.to_jsonl(), sha256()
        # hashed in slices: one encoded copy of a large trace would raise
        # the peak memory the run reports
        for i in range(0, len(jsonl), 1 << 20):
            whole_digest.update(jsonl[i:i + (1 << 20)].encode("utf-8"))
        if whole_digest.hexdigest() != r.trace_sha256:
            r.problems.append("trace serialized in slices differs from the "
                              "whole trace's serialization")
        del jsonl
    sim, hv = st.sim, st.sim.hv
    r.events = len(sim.trace.events)
    r.ledger = sim.machine.ledger.snapshot()
    live = sum(1 for vm in hv.vms.values() if vm.state.value == "active")
    r.facts = {
        "faults": sim.machine.fault_count,
        "hypercall_errors": sim.trace.count("hypercall_error"),
        "timers_fired": sim.trace.count("timer_fired"),
        "retained_per_live": len(hv.vms) / live,
    }
    return r


# -- statistics --------------------------------------------------------------

def tail_percentile(samples: int) -> float:
    """The highest nearest-rank percentile with at least ten of `samples`
    beyond it (fewer when there are fewer than eleven).  It is fixed by the
    round length, so every run reports the same percentile however many
    rounds it fits in."""
    return 100.0 * (samples - min(10, samples - 1)) / samples


def beyond(samples: int, p: float) -> int:
    """How many of `samples` lie beyond their nearest-rank percentile p."""
    return samples - max(1, math.ceil(p / 100.0 * samples - 1e-9))


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(samples)
    return s[max(0, math.ceil(p / 100.0 * len(s) - 1e-9) - 1)]


def late_tenth(samples: List[float]) -> List[float]:
    return samples[len(samples) - max(1, len(samples) // 10):]


def med(values) -> float:
    return statistics.median(values)


# -- metadata ----------------------------------------------------------------

def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "command": [sys.executable] + sys.argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- checks shared by both modes ----------------------------------------------

def cost_model_problems() -> List[str]:
    """The simulated clock's own claims, checked untimed: deterministic,
    invoke < create < destroy, invoke size-independent, teardown gap linear
    in donated bytes."""
    from enclavesim.harness.bench import run_bench
    rep = run_bench(reps=5)
    problems = []
    if not rep.deterministic():
        problems.append("cost model: lifecycle costs not deterministic")
    if not rep.ordering_holds():
        problems.append("cost model: invoke < create < destroy fails")
    if not rep.invoke_constant():
        problems.append("cost model: invoke cost depends on size")
    try:
        r2 = rep.teardown_gap_r2()
    except statistics.StatisticsError as err:   # a constant gap
        problems.append("cost model: teardown gap not linear in donated "
                        "bytes (%s)" % err)
    else:
        if r2 <= 0.999:
            problems.append("cost model: teardown gap R^2 %.6f <= 0.999" % r2)
    return problems


def determinism_problems(rounds: List[Round]) -> List[str]:
    """Every round replays the same inputs, so the exact record must match."""
    first = rounds[0]
    key = (first.trace_sha256, first.trace_bytes, first.units, first.ledger)
    return ["round %d trace/ledger differ from round 0" % i
            for i, r in enumerate(rounds[1:], 1)
            if (r.trace_sha256, r.trace_bytes, r.units, r.ledger) != key]


def complete(r: Round, n_ops: int) -> bool:
    return not r.problems and len(r.op_s) == n_ops


# -- the two modes ------------------------------------------------------------

def keep_going(start: float, last_s: float, seconds: float) -> bool:
    """Start another round only if it should end within the run length,
    judging by the round just finished (`last_s` long)."""
    return time.perf_counter() - start + last_s <= seconds


def untraced_run(wl, plan, args) -> Tuple[Dict, List[Round], Dict]:
    from workloads import boot, median_tenths
    n = len(plan.items)
    setups = []
    for _ in range(WARMUP_SETUPS):
        gc.collect()
        t = time.perf_counter()
        wl.setup(plan)
        setups.append(time.perf_counter() - t)
    gc.collect()
    rounds: List[Round] = []
    start = time.perf_counter()
    while True:
        r = run_round(wl, plan, whole=not rounds)
        rounds.append(r)
        gc.collect()
        if not complete(r, n) or not keep_going(start, r.total_s, args.seconds):
            break
    setups += [r.setup_s for r in rounds]
    ok = [r for r in rounds if complete(r, n)]
    if not ok:                       # the failure is reported, not measured
        return {}, rounds, {"rounds": 0, "ops_per_round": n}
    first = ok[0]
    # Every round replays the same ops on a fresh simulation, and the rest
    # of the host only ever adds time to a run -- here by a factor of up to
    # two, for seconds to minutes at a time -- so each op's latency is the
    # fastest of its replays (the rule timeit gives for repeated timings).
    # With one client in a closed loop, throughput is ops over the sum of
    # their latencies.  The finish is timed in pieces, and each piece is
    # taken the same way.
    best = [min(col) for col in zip(*(r.op_s for r in ok))]
    finish = sum(min(col) for col in zip(*(r.finish_pieces for r in ok)))
    p_tail = tail_percentile(n)
    metrics = {
        "setup_s": med(setups),
        "ops_per_s": n / sum(best),
        "op_p50_us": med(best) * 1e6,
        "op_tail_us": percentile(best, p_tail) * 1e6,
        "op_late_p50_us": med(late_tenth(best)) * 1e6,
        "finish_s": finish,
        "peak_rss_mb": peak_rss_mib(),
        "trace_bytes_per_op": first.trace_bytes / max(1, len(first.op_s)),
        "sim_units_per_op": first.units / max(1, len(first.op_s)),
    }
    growth: Dict[str, object] = {
        "op_p50_us_per_tenth": [v * 1e6 for v in median_tenths(best)]}
    # after the peak memory is read: the largest machine would set it
    for frames in BOOT_SIZES:
        times = []
        for _ in range(3):
            gc.collect()
            t = time.perf_counter()
            boot(plan.seed, frames)
            times.append(time.perf_counter() - t)
        growth["setup_s_%d_frames" % frames] = med(times)
    notes = {
        "setup_samples": len(setups),
        "rounds": len(ok),
        "ops_per_round": n,
        "finish_pieces": len(first.finish_pieces),
        "tail_percentile": p_tail,
        "tail_beyond": beyond(n, p_tail),
        "late_samples": len(late_tenth(first.op_s)),
        "growth": growth,
    }
    return metrics, rounds, notes


def traced_run(wl, plan, args) -> Tuple[Dict, List[Round], Dict]:
    """Untraced and traced rounds in turn; per-layer figures are medians
    over the traced rounds, the overhead is traced minus untraced time."""
    import spans
    n = len(plan.items)
    rounds: List[Round] = []
    per_round: List[Dict[str, float]] = []
    start = time.perf_counter()
    while True:
        plain = run_round(wl, plan)
        gc.collect()
        tracer = spans.Tracer()
        tracer.install()
        try:
            r = run_round(wl, plan, tracer)
        finally:
            tracer.uninstall()
        gc.collect()
        rounds += [plain, r]
        m = layer_metrics(tracer, r)
        m["bench.untraced_total_ms"] = plain.total_s * 1e3
        if m["bench.self_sum_ms"] > m["bench.traced_total_ms"]:
            r.problems.append("span self times exceed the traced total")
        per_round.append(m)
        if not (complete(plain, n) and complete(r, n)) or not keep_going(
                start, plain.total_s + r.total_s, args.seconds):
            break
    metrics = {k: med(m[k] for m in per_round) for k in per_round[0]}
    metrics["bench.tracing_overhead_ms"] = (
        metrics["bench.traced_total_ms"] - metrics["bench.untraced_total_ms"])
    span_dir = OUT / "spans"
    span_dir.mkdir(parents=True, exist_ok=True)
    span_file = span_dir / ("%s-seed%d.csv" % (wl.name, args.seed))
    tracer.write_csv(str(span_file))
    notes = {"rounds": len(rounds), "traced_rounds": len(per_round),
             "ops_per_round": n, "spans": len(tracer.spans) // 5,
             "span_file": str(span_file.relative_to(ROOT))}
    return metrics, rounds, notes


def layer_metrics(tracer, r: Round) -> Dict[str, float]:
    import spans
    m: Dict[str, float] = {}
    for layer in spans.LAYERS:
        m["%s.self_ms" % layer] = tracer.self_ns.get(layer, 0) / 1e6
    for name in spans.COUNTED:
        m["%s.calls" % name] = tracer.calls.get(name, 0)
    c = tracer.counters
    m["stage2.guest_access.pages_per_call"] = (
        c["guest_access_pages"] / max(1, tracer.calls["stage2.guest_access"]))
    m["stage2.faults"] = r.facts.get("faults", 0)
    m["hypervisor.hypercall_errors"] = r.facts.get("hypercall_errors", 0)
    m["hypervisor.retained_per_live"] = r.facts.get("retained_per_live", 0)
    m["channel.read_bytes_per_payload_byte"] = (
        c["channel_read_bytes"] / max(1, c["channel_payload_bytes"]))
    m["sim.timers.fired"] = r.facts.get("timers_fired", 0)
    m["trace.bytes_per_event"] = r.trace_bytes / max(1, r.events)
    m["bench.self_sum_ms"] = sum(tracer.self_ns.values()) / 1e6
    m["bench.traced_total_ms"] = r.total_s * 1e3
    return m


# -- reporting ----------------------------------------------------------------

def fmt(v: float) -> str:
    return "%.6g" % v


def report(args, meta, metrics, units, rounds, notes, problems, attempted,
           failed) -> None:
    print("perfbench %s  seed %d  seconds %d  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("  python %s  nproc %d  commit %s"
          % (meta["python"], meta["nproc"], meta["git_commit"] or "unknown"))
    print("  command: %s" % " ".join(meta["command"]))
    print("  %d rounds x %d ops, closed loop, one client"
          % (notes["rounds"], notes["ops_per_round"]))
    for name, value in metrics.items():
        extra = ""
        best = "each op the fastest of %d runs" % notes["rounds"]
        if name == "ops_per_s":
            extra = "%d ops over the sum of their latencies, %s" % (
                notes["ops_per_round"], best)
        elif name == "op_p50_us":
            extra = "p50 of %d ops, %s" % (notes["ops_per_round"], best)
        elif name == "op_tail_us":
            extra = "p%.4g of %d ops (%d beyond), %s" % (
                notes["tail_percentile"], notes["ops_per_round"],
                notes["tail_beyond"], best)
        elif name == "op_late_p50_us":
            extra = "p50 of the last %d ops, %s" % (notes["late_samples"],
                                                    best)
        elif name == "finish_s":
            extra = "%d pieces, each the fastest of %d runs" % (
                notes["finish_pieces"], notes["rounds"])
        elif name == "setup_s":
            extra = "median of %d set-ups" % notes["setup_samples"]
        print("  %-38s %14s %-6s %s"
              % (name, fmt(value), units.get(name, "?"), extra))
    frac = failed / attempted if attempted else 1.0
    print("  %-38s %14s %-6s %d failed of %d attempted"
          % (FAIL_FRAC[0], fmt(frac), FAIL_FRAC[1], failed, attempted))
    if "growth" in notes:
        g = notes["growth"]
        print("  growth: op p50 per tenth of a round (us): %s"
              % " ".join("%.0f" % v for v in g["op_p50_us_per_tenth"]))
        for k, v in g.items():
            if k.startswith("setup_s_"):
                print("  growth: %s = %s s" % (k, fmt(v)))
    if args.trace:
        print("  tracing overhead: %s ms per round (traced %s - untraced %s)"
              % (fmt(metrics["bench.tracing_overhead_ms"]),
                 fmt(metrics["bench.traced_total_ms"]),
                 fmt(metrics["bench.untraced_total_ms"])))
        print("  spans: %d in %s" % (notes["spans"], notes["span_file"]))
    r0 = rounds[0]
    print("  trace sha256 %s  (%d B, %d events)"
          % (r0.trace_sha256, r0.trace_bytes, r0.events))
    print("  ledger %s" % json.dumps(r0.ledger, sort_keys=True))
    for p in problems[:20]:
        print("  PROBLEM: %s" % p)
    if len(problems) > 20:
        print("  ... and %d more problems" % (len(problems) - 20))


def run_one(args) -> int:
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    meta = metadata(args)
    problems = cost_model_problems()
    plan = wl.plan(args.seed, args.ops or wl.ops)
    meta["ops_per_round"] = len(plan.items)
    units = declared_units(args.trace)
    if args.trace:
        metrics, rounds, notes = traced_run(wl, plan, args)
    else:
        metrics, rounds, notes = untraced_run(wl, plan, args)
    if metrics and set(metrics) != set(units):
        problems.append("metrics differ from BENCHMARK.json: %s" % ", ".join(
            sorted(set(metrics) ^ set(units))))
    attempted = sum(len(r.op_s) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    for i, r in enumerate(rounds):
        problems += ["round %d op %d: %s" % (i, idx, msg)
                     for idx, msg in r.failures]
        problems += ["round %d: %s" % (i, p) for p in r.problems]
    problems += determinism_problems(rounds)
    correct = not problems and attempted > 0
    report(args, meta, metrics, units, rounds, notes, problems, attempted,
           failed)
    result = {"correct": correct, "attempted": max(1, attempted),
              "failed": failed if attempted else 1,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items() if k in units}}
    record = dict(result, metadata=meta, notes=notes,
                  problems=problems[:50],
                  trace_sha256=rounds[0].trace_sha256,
                  ledger=rounds[0].ledger,
                  rounds=[{"setup_s": r.setup_s, "ops": len(r.op_s),
                           "ops_phase_s": r.ops_phase_s,
                           "op_p50_us": med(r.op_s) * 1e6 if r.op_s else 0,
                           "op_late_p50_us":
                               med(late_tenth(r.op_s)) * 1e6 if r.op_s else 0,
                           "finish_s": r.finish_s,
                           "trace_sha256": r.trace_sha256,
                           "trace_bytes": r.trace_bytes,
                           "sim_units": r.units, "ledger": r.ledger,
                           "facts": r.facts} for r in rounds])
    res_dir = OUT / "results"
    res_dir.mkdir(parents=True, exist_ok=True)
    res_file = res_dir / ("%s-seed%d-trace%d-ops%d.json"
                          % (args.workload, args.seed, args.trace,
                             len(plan.items)))
    res_file.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops:
            cmd += ["--ops", str(args.ops)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=str(ROOT))
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (ValueError, IndexError):
            print("  %s: no result (exit %d)" % (name, proc.returncode))
            combined["correct"] = False
            status = 1
            continue
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"]["%s.%s" % (name, k)] = v
    print(json.dumps(combined, sort_keys=True))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55,
                    help="keep starting rounds until this much time passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0,
                    help="ops per round (default: the workload's own size)")
    args = ap.parse_args(argv)
    if args.ops < 0 or args.seconds < 0:
        ap.error("--ops and --seconds must not be negative")
    if not (ROOT / "src" / "enclavesim" / "__init__.py").is_file():
        print("perfbench: no enclavesim sources under %s/src; run from a "
              "source checkout" % ROOT, file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
