"""Trace serialization: every line equals compact, sorted-key json.dumps of
the event's record.  Events are immutable, and what goes into them (hypercall
details, vCPU names) is what the record says it is."""
import dataclasses
import hashlib
import json
import zlib

import pytest

from enclavesim.channel import ChannelStatus
from enclavesim.guest_os import EnclaveDriver
from enclavesim.harness.scenario import run_scenario_text
from enclavesim.hypervisor import (
    CreateEnclave,
    DestroyEnclave,
    Exit,
    Hypercall,
    ImageMeta,
    InvokeEnclave,
    _call_detail,
)
from enclavesim.machine import MachineConfig, Observer
from enclavesim.sim import Simulation
from enclavesim.ta_runtime import image_for
from enclavesim.trace import BLOCK, TraceRecorder


def _recorder(*events):
    """A recorder holding `events`, (kind, pcpu, vcpu, detail) each."""
    clock = iter(range(0, 10**6, 37))
    rec = TraceRecorder(lambda: next(clock))
    for kind, pcpu, vcpu, detail in events:
        rec.emit(kind, pcpu, vcpu, detail)
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
    # a "},{" inside a detail makes the block's cut give too many pieces,
    # so these blocks are encoded one detail at a time
    "boundary-in-string": lambda: _recorder(
        ("work", 0, None, {"a": 1}), ("work", 0, None, {"s": "x},{y"}),
        ("work", 0, None, {"b": 2})),
    "nested-list-of-dicts": lambda: _recorder(
        ("work", 0, None, {"l": [{"a": 1}, {"b": 2}]}),
        ("work", 0, None, {})),
    "three-blocks": lambda: _recorder(*(
        ("work", i % 2, "primary.v0",
         {"l": [{"a": i}, {}]} if i == BLOCK + BLOCK // 2 else {"units": i})
        for i in range(600))),
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


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_write_jsonl_writes_the_bytes_of_to_jsonl(build, tmp_path):
    trace, path = build(), tmp_path / "trace.jsonl"
    trace.write_jsonl(str(path))
    assert path.read_bytes() == trace.to_jsonl().encode()


def test_call_detail_equals_asdict_for_every_hypercall():
    samples = {
        CreateEnclave: CreateEnclave((9, 10, 11, 12), ImageMeta(3, 1)),
        DestroyEnclave: DestroyEnclave(4),
        InvokeEnclave: InvokeEnclave(5),
        Exit: Exit(),
    }
    assert set(samples) == set(Hypercall.__subclasses__())
    for hc in samples.values():
        assert _call_detail(hc) == dict(dataclasses.asdict(hc),
                                        call=type(hc).__name__)


def test_trace_events_are_immutable():
    ev = _recorder(("work", 0, "primary.v0", {"units": 2})).events[0]
    with pytest.raises(AttributeError):
        ev.t = ev.t + 1


def test_vcpu_name_is_vm_name_and_index():
    sim = Simulation(MachineConfig(frames=256, pcpus=2))
    driver = EnclaveDriver(sim)
    enclave = driver.record_of(driver.create(image_for("echo"))).vm.vcpus[0]
    aux = sim.hv.make_aux_vcpu(1)
    for vcpu in (sim.primary_vcpu(1), enclave, aux):
        assert vcpu.name == "%s.v%d" % (vcpu.vm.name, vcpu.index)
    assert [sim.primary_vcpu(1).name, aux.name] == ["primary.v1", "aux2.v0"]


# One short run whose trace holds every event kind the simulator emits:
# a preempted and resumed spinner (timers, interrupt), an adversary read
# (fault) and a create past max_vms (hypercall_error).  The golden scenario
# traces never contain a hypercall_error, so this pins that hook's bytes.
ALL_KINDS_SCENARIO = """
machine frames=128 max_vms=2
seed 5

create s spinner
timer 8
invoke s 1 hex:0600000004000000
expect status preempted
resume s
expect status done
adversary read s private 0
expect fault unmapped
create e echo
expect error Exhausted
destroy s
"""
ALL_KINDS_SHA256 = \
    "9775558bd0ae2881f21dabd003e44acad28b9e121a8481f947ed52c6d84b1a78"


def test_every_event_kind_has_pinned_bytes():
    result = run_scenario_text(ALL_KINDS_SCENARIO)
    assert result.ok, result.violations
    kinds = {ev.kind for ev in result.sim.trace.events}
    assert kinds == {
        "boot", "s2_map", "s2_unmap", "s2_protect", "zero_frame", "fault",
        "push", "pop", "ctx_switch", "hypercall", "hypercall_error", "work",
        "interrupt", "channel", "timer_armed", "timer_fired"}
    jsonl = result.sim.trace.to_jsonl().encode()
    assert hashlib.sha256(jsonl).hexdigest() == ALL_KINDS_SHA256


# -- channel events carry a CRC-32 of the payload, not a copy of it --------


class ChannelRecorder(Observer):
    """Keeps what each channel transition handed the observers."""

    def __init__(self):
        self.calls = []

    def on_channel(self, side, old, new, header, payload):
        self.calls.append((side, old, new, header, payload))


def _echo_run(*payloads, observer=None):
    """One echo enclave invoked once per payload; returns the simulation."""
    sim = Simulation(MachineConfig(frames=256))
    if observer is not None:
        sim.machine.observers.append(observer)
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for("echo"))
    for payload in payloads:
        assert driver.invoke(fd, 0, payload) == (ChannelStatus.DONE, payload)
    assert driver.invoke(fd, 99, b"?") == (ChannelStatus.ERROR, b"")
    return sim


def test_channel_event_crc_is_of_the_bytes_the_observers_were_handed():
    rec = ChannelRecorder()
    sim = _echo_run(b"", b"x", bytes(range(256)) * 3, observer=rec)
    details = [ev.detail for ev in sim.trace.events if ev.kind == "channel"]
    assert len(details) == len(rec.calls) == 8
    for detail, (side, old, new, header, payload) in zip(details, rec.calls):
        assert detail == {"side": side, "old": old, "new": new,
                          "header": header.hex(),
                          "payload_crc32": zlib.crc32(payload)}


def test_one_payload_byte_changes_only_channel_events():
    payload = bytes(range(1, 200))
    flipped = payload[:77] + b"\xff" + payload[78:]
    a = _echo_run(payload).trace.events
    b = _echo_run(flipped).trace.events
    assert len(a) == len(b)
    differ = [x.kind for x, y in zip(a, b) if x != y]
    # the request and the reply carry the changed byte
    assert differ == ["channel", "channel"]


def test_channel_line_length_does_not_grow_with_the_payload():
    def longest_channel_line(n):
        """Longest channel line of one echo of `n` bytes, its CRC counted
        at the ten digits of the widest u32."""
        payload = (b"enclave-payload:" * 256)[:n]
        sim = _echo_run(payload)
        return max(len(line) - len(str(json.loads(line)["detail"]
                                       ["payload_crc32"])) + 10
                   for line in sim.trace.to_jsonl().splitlines()
                   if '"event":"channel"' in line)
    assert longest_channel_line(16) == longest_channel_line(4000) < 200
