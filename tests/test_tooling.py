"""The benchmark's per-layer tracer wraps simulator attributes by name, and
its rounds call the simulator's public API, so a renamed name, a changed
signature or a changed result must fail here, not only in a benchmark run."""
import ast
import importlib.util
import sys
from pathlib import Path

import pytest

from enclavesim.harness import oracles
from enclavesim.machine import Observer

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load_bench(monkeypatch):
    """run.py, workloads.py and spans.py under the names run.py imports
    them by.  Each is in sys.modules before it executes, because its
    dataclasses look their module up there."""
    modules = {}
    for name in ("workloads", "spans", "run"):
        spec = importlib.util.spec_from_file_location(
            name, PERFBENCH / (name + ".py"))
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        modules[name] = module
    return modules["run"], modules["workloads"], modules["spans"]


def test_tracer_installs_and_restores_every_wrapped_name(monkeypatch):
    _, _, spans = _load_bench(monkeypatch)
    targets = [(owner, attr) for owner, attr, *_ in spans._targets()]
    originals = [vars(owner).get(attr) for owner, attr in targets]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert len(tracer._saved) == len(targets)
        assert all(vars(owner)[attr] is not orig
                   for (owner, attr), orig in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert [vars(owner).get(attr) for owner, attr in targets] == originals


# trace sha256 and ledger of a 6-op seed-7 round; a change to the trace
# bytes or the cost model of either workload fails here
ROUND_PINS = {
    "churn": ("36194cc3a4a5b11434066d281e27a6f78f7a88db13b56f4d9ffc5e51eb3ce43f",
              {"pt_ops": 124, "zero_bytes": 126976, "ctx_switches": 20,
               "hypercalls": 32, "work_units": 45}),
    "invoke": ("deefea0147e79e6658d1758ba8d0fcb40bd38d0e02ba44337fa9cb576cf22f05",
               {"pt_ops": 60, "zero_bytes": 0, "ctx_switches": 22,
                "hypercalls": 27, "work_units": 118}),
}


@pytest.mark.parametrize("workload", ["churn", "invoke"])
def test_benchmark_round_runs_clean_traced_and_untraced(workload,
                                                         monkeypatch):
    run, workloads, spans = _load_bench(monkeypatch)
    wl = workloads.WORKLOADS[workload]
    plan = wl.plan(7, 6)
    plain = run.run_round(wl, plan, whole=True)
    assert run.complete(plain, 6), plain.problems
    assert not plain.failures
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run.run_round(wl, plan, tracer)
    finally:
        tracer.uninstall()
    assert run.complete(traced, 6), traced.problems
    assert not traced.failures
    assert traced.trace_sha256 == plain.trace_sha256
    assert (plain.trace_sha256, plain.ledger) == ROUND_PINS[workload]


def test_benchmark_cost_model_claims_hold(monkeypatch):
    run, _, _ = _load_bench(monkeypatch)
    assert run.cost_model_problems() == []


def test_every_observer_hook_has_an_oracle():
    """Each hook on `Observer` is overridden by some oracle.  An event that
    only the trace consumes is emitted by the code that causes it, so a
    hook that no oracle watches has no place on `Observer`."""
    hooks = {name for name in vars(Observer) if name.startswith("on_")}
    watched = {name for cls in vars(oracles).values()
               if isinstance(cls, type) and issubclass(cls, Observer)
               and cls.__module__ == oracles.__name__
               for name in vars(cls) if name in hooks}
    assert hooks and watched == hooks


def test_every_public_core_method_has_a_caller():
    """Each public method or property of a class in the core (the modules
    of ``src/enclavesim``, not the harness) is named somewhere in ``src/``
    or ``perfbench/`` other than its own definition.  One that only tests
    name is a test-only view: a test reaches for the record behind it."""
    names = set()
    for path in ROOT.glob("src/enclavesim/*.py"):
        for cls in ast.parse(path.read_text()).body:
            if isinstance(cls, ast.ClassDef):
                names |= {"%s.%s.%s" % (path.stem, cls.name, node.name)
                          for node in cls.body
                          if isinstance(node, ast.FunctionDef)
                          and not node.name.startswith("_")}
    used = set()
    for path in [*ROOT.glob("src/**/*.py"), *PERFBENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant):    # wrapped by name
                used.add(node.value)
    assert names
    assert sorted(n for n in names if n.rsplit(".", 1)[1] not in used) == []
