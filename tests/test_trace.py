"""Trace serialization: every line equals compact, sorted-key json.dumps of
the event's record."""
import json

import pytest

from enclavesim.guest_os import EnclaveDriver
from enclavesim.machine import MachineConfig
from enclavesim.sim import Simulation
from enclavesim.ta_runtime import image_for
from enclavesim.trace import TraceRecorder


def _recorder(*events):
    """A recorder holding `events`, (kind, pcpu, vcpu, detail) each."""
    clock = iter(range(0, 10**6, 37))
    rec = TraceRecorder(lambda: next(clock))
    for kind, pcpu, vcpu, detail in events:
        rec.emit(kind, pcpu, vcpu, **detail)
    return rec


def _create_enclave():
    sim = Simulation(MachineConfig(frames=256))
    EnclaveDriver(sim).create(image_for("echo"))
    assert any(ev.kind == "hypercall" and ev.detail["call"] == "CreateEnclave"
               for ev in sim.trace.events)
    return sim.trace


CASES = {
    "empty": _recorder,
    "vcpu-none": lambda: _recorder(("boot", 0, None, {"frames": 64})),
    "vcpu-escapes": lambda: _recorder(
        ("push", 1, 'aux "q"', {}), ("push", 0, "back\\slash", {}),
        ("push", 0, "café", {}), ("push", 2, "bell\x07", {})),
    "details": lambda: _recorder(
        ("work", 0, "primary.v0", {
            "nested": {"z": 1, "a": {"y": [1, 2], "b": None}},
            "list": [3, "x", {"k": True}], "tuple": (4, 5), "yes": True,
            "no": False, "none": None, "neg": -17,
            "text": "naïve ☃", "café": "\U0001f600"})),
    "create-enclave": _create_enclave,
}


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_to_jsonl_equals_sorted_compact_json_dumps(build):
    trace = build()
    want = "".join(
        json.dumps({"step": ev.step, "event": ev.kind, "pcpu": ev.pcpu,
                    "vcpu": ev.vcpu, "detail": ev.detail, "t": ev.t},
                   sort_keys=True, separators=(",", ":")) + "\n"
        for ev in trace.events)
    got = trace.to_jsonl()
    assert got == want
    if not trace.events:
        assert got == ""
