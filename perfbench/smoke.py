"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at a tiny length, untraced and traced, and checks that
the run exits 0 with a correct result, that the JSON result carries exactly
the metrics BENCHMARK.json declares with their units, that the text report
names every end-to-end metric (fail_frac too) with its unit, and that the
traced round replays the untraced one byte for byte.  Finally it checks that
the benchmark refuses to run, without printing a result, from a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_OPS = "6"


def run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py")] + args,
                          cwd=str(cwd), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--ops", TINY_OPS])
    where = "%s trace %d" % (workload, trace)
    assert proc.returncode == 0, "%s exit %d:\n%s%s" % (
        where, proc.returncode, proc.stdout, proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, where
    assert result["attempted"] >= int(TINY_OPS), where
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, "%s metrics differ from BENCHMARK.json: %s" % (
        where, sorted(set(got) ^ set(want)))
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float)), where
    if not trace:
        text = "\n".join(lines[:-1])
        named = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        for name, unit in named + [("fail_frac", "1")]:
            assert any(line.split()[:1] == [name] and unit in line.split()
                       for line in text.splitlines()), \
                "%s: %s with unit %s not printed" % (where, name, unit)
        for value in result["metrics"].values():
            assert value["value"] > 0, where
    print("ok  %-6s trace %d  attempted %d" % (workload, trace,
                                               result["attempted"]))


def check_refuses_bare_directory() -> None:
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=str(scratch)))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload",
             "churn", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=str(bare), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, "ran without the simulator sources"
    assert "{" not in proc.stdout, "printed a result without sources"
    print("ok  refuses a directory without sources (exit %d)"
          % proc.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    check_refuses_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
