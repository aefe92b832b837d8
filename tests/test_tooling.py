"""The benchmark's per-layer tracer wraps simulator attributes by name, so a
renamed or deleted name must fail here, not only in a traced benchmark run."""
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrapped_name():
    spans = _load_spans()
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
