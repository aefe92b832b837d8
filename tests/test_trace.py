"""Trace serialization: every line equals compact, sorted-key json.dumps of
the event's record.  Events are immutable tuples of atoms that the garbage
collector stops tracking, and what goes into them (hypercall details, vCPU
names) is what the record says it is."""
import dataclasses
import gc
import hashlib
import json
import zlib

import pytest

from enclavesim.channel import CHANNEL_HEADER, HEADER_LEN, ChannelStatus
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
from enclavesim.machine import PAGE_SIZE, MachineConfig, Observer
from enclavesim.sim import Simulation
from enclavesim.ta_runtime import image_for
from enclavesim.trace import BLOCK, COST, TraceRecorder


def _recorder(*events):
    """A recorder holding `events`, (kind, pcpu, vcpu, detail) each."""
    rec = TraceRecorder()
    for kind, pcpu, vcpu, detail in events:
        rec.emit(kind, pcpu, vcpu, detail)
    return rec


def _create_enclave():
    sim = Simulation(MachineConfig(frames=256))
    EnclaveDriver(sim).create(image_for("echo"))
    assert any(kind == "hypercall"
               and sim.trace.details[step]["call"] == "CreateEnclave"
               for step, kind, _, _, _ in sim.trace.events)
    return sim.trace


CASES = {
    "empty": _recorder,
    "vcpu-none": lambda: _recorder(("boot", 0, None, {"frames": 64})),
    "vcpu-escapes": lambda: _recorder(
        ("push", 1, 'aux "q"', {}), ("push", 0, "back\\slash", {}),
        ("push", 0, "café", {}), ("push", 2, "bell\x07", {})),
    "details": lambda: _recorder(
        ("work", 0, "primary.v0", {
            "units": 37, "nested": {"z": 1, "a": {"y": [1, 2], "b": None}},
            "list": [3, "x", {"k": True}], "tuple": (4, 5), "yes": True,
            "no": False, "none": None, "neg": -17,
            "text": "naïve ☃", "café": "\U0001f600"})),
    "create-enclave": _create_enclave,
    # a "},{" inside a detail makes the block's cut give too many pieces,
    # so these blocks are encoded one detail at a time
    "boundary-in-string": lambda: _recorder(
        ("work", 0, None, {"units": 1, "a": 1}),
        ("work", 0, None, {"units": 2, "s": "x},{y"}),
        ("work", 0, None, {"units": 3, "b": 2})),
    "nested-list-of-dicts": lambda: _recorder(
        ("work", 0, None, {"units": 4, "l": [{"a": 1}, {"b": 2}]}),
        ("push", 0, None, {})),
    "three-blocks": lambda: _recorder(*(
        ("work", i % 2, "primary.v0",
         {"units": i, "l": [{"a": i}, {}]} if i == BLOCK + BLOCK // 2
         else {"units": i})
        for i in range(600))),
}


@pytest.mark.parametrize("build", CASES.values(), ids=CASES.keys())
def test_to_jsonl_equals_sorted_compact_json_dumps(build):
    trace = build()
    want = "".join(
        json.dumps({"step": step, "event": kind, "pcpu": pcpu,
                    "vcpu": vcpu, "detail": trace.details[step], "t": t},
                   sort_keys=True, separators=(",", ":")) + "\n"
        for step, kind, pcpu, vcpu, t in trace.events)
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
    assert type(ev) is tuple
    with pytest.raises(TypeError):
        ev[4] = ev[4] + 1


def test_emit_charges_each_kinds_cost():
    """Recording an event charges its kind's cost to the clock and that
    kind's total: one unit per table op, zeroed page, context switch and
    hypercall, the units of a work step, nothing for any other kind."""
    rec = TraceRecorder()
    for kind in COST:
        rec.emit(kind, 0, None, {"units": 4} if kind == "work" else {})
    for kind in ("fault", "push", "channel"):
        rec.emit(kind, 0, None, {})
    assert rec.totals == dict.fromkeys(COST, 1) | {"work": 4}
    assert rec.t == len(COST) - 1 + 4
    assert [ev[4] for ev in rec.events] == [1, 2, 3, 4, 5, 6, 10, 10, 10, 10]


def test_ledger_is_the_fold_of_the_stored_events():
    """After a create, an invoke and a destroy, the ledger reads what a fold
    of the stored events charges, and the clock reads the last event's
    `t`."""
    sim = Simulation(MachineConfig(frames=256))
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for("echo"))
    driver.invoke(fd, 0, b"hi")
    driver.destroy(fd)
    folded = dict.fromkeys(COST, 0)
    for step, kind, _, _, _ in sim.trace.events:
        if kind in COST:
            folded[kind] += COST[kind] or sim.trace.details[step]["units"]
    assert sim.machine.ledger.snapshot() == {
        "pt_ops": folded["s2_map"] + folded["s2_unmap"]
        + folded["s2_protect"],
        "zero_bytes": folded["zero_frame"] * PAGE_SIZE,
        "ctx_switches": folded["ctx_switch"],
        "hypercalls": folded["hypercall"], "work_units": folded["work"]}
    assert sim.now() == sim.trace.events[-1][4] == sum(folded.values())


def test_stored_events_leave_the_collector_and_details_align():
    """After a create, an invoke and a destroy and one full collection, no
    stored event is tracked by the cyclic garbage collector, and the detail
    of each event sits in `details` at its step."""
    sim = Simulation(MachineConfig(frames=256))
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for("echo"))
    assert driver.invoke(fd, 0, b"hi") == (ChannelStatus.DONE, b"hi")
    driver.destroy(fd)
    gc.collect()
    trace = sim.trace
    assert len(trace.events) == len(trace.details) > 30
    assert [ev for ev in trace.events if gc.is_tracked(ev)] == []
    assert [ev[0] for ev in trace.events] == list(range(len(trace.events)))
    assert all(type(ev) is tuple and len(ev) == 5 for ev in trace.events)
    # a key only the details of its own kind carry
    marks = {"boot": "seed", "hypercall": "call", "s2_map": "perms",
             "channel": "side", "ctx_switch": "to", "work": "units",
             "pop": "resumption"}
    for step, kind, _, _, _ in trace.events:
        assert [k for k, key in marks.items()
                if key in trace.details[step]] == (
            [kind] if kind in marks else []), (step, kind)
    hypercalls = [trace.details[step]["call"]
                  for step, kind, _, _, _ in trace.events
                  if kind == "hypercall"]
    assert hypercalls == ["CreateEnclave", "InvokeEnclave", "Exit",
                          "DestroyEnclave"]


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
    kinds = {kind for _, kind, _, _, _ in result.sim.trace.events}
    assert kinds == {
        "boot", "s2_map", "s2_unmap", "s2_protect", "zero_frame", "fault",
        "push", "pop", "ctx_switch", "hypercall", "hypercall_error", "work",
        "interrupt", "channel", "timer_armed", "timer_fired"}
    jsonl = result.sim.trace.to_jsonl().encode()
    assert hashlib.sha256(jsonl).hexdigest() == ALL_KINDS_SHA256


# -- channel events carry a CRC-32 of the payload, not a copy of it --------


class ChannelRecorder(Observer):
    """At each header publish, the write at +4 of the channel's first frame
    that carries the status word, reads the header and the active payload
    back from the channel's frames."""

    def __init__(self):
        self.calls = []

    def watch(self, machine, frames):
        """Attach to `machine`, on the channel held in `frames`."""
        self.machine, self.frames = machine, frames
        machine.observers.append(self)

    def _read(self, offset, length):
        out = b""
        while length:
            frame, at = divmod(offset, PAGE_SIZE)
            chunk = min(length, PAGE_SIZE - at)
            out += self.machine.read_frame(self.frames[frame], at, chunk)
            offset, length = offset + chunk, length - chunk
        return out

    def on_write(self, frame, offset, data, by, channel):
        if frame == self.frames[0] and offset == 4:
            header = self._read(0, HEADER_LEN)
            _, status, _, arg_len, ret_len = CHANNEL_HEADER.unpack(header)
            length = {ChannelStatus.REQUEST: arg_len,
                      ChannelStatus.DONE: ret_len,
                      ChannelStatus.ERROR: ret_len}.get(status, 0)
            self.calls.append((header, self._read(HEADER_LEN, length)))


def _echo_run(*payloads, recorder=None):
    """One echo enclave invoked once per payload; returns the simulation.
    A `recorder` watches the channel's frames from the create on."""
    sim = Simulation(MachineConfig(frames=256))
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for("echo"))
    if recorder is not None:
        recorder.watch(sim.machine, driver.record_of(fd).channel_frames())
    for payload in payloads:
        assert driver.invoke(fd, 0, payload) == (ChannelStatus.DONE, payload)
    assert driver.invoke(fd, 99, b"?") == (ChannelStatus.ERROR, b"")
    return sim


def test_channel_event_crc_is_of_the_bytes_the_observers_were_handed():
    """Each channel event's header and CRC are those of the bytes an
    observer reads back from the frames when the step publishes."""
    rec = ChannelRecorder()
    sim = _echo_run(b"", b"x", bytes(range(256)) * 3, recorder=rec)
    details = [sim.trace.details[step]
               for step, kind, _, _, _ in sim.trace.events if kind == "channel"]
    assert len(details) == len(rec.calls) == 8
    for detail, (header, payload) in zip(details, rec.calls):
        assert detail["new"] == CHANNEL_HEADER.unpack(header)[1]
        assert detail["header"] == header.hex()
        assert detail["payload_crc32"] == zlib.crc32(payload)


def test_two_pcpu_invoke_names_the_enclaves_pcpu_on_every_event():
    """An enclave pinned to pCPU 1 is invoked from pCPU 1's primary vCPU:
    all nine events of an echo invoke name pCPU 1, the channel steps in the
    name of the vCPU that made them, and a probe's fault is traced on
    pCPU 1 in the enclave's vCPU's name."""
    sim = Simulation(MachineConfig(frames=256, pcpus=2))
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for("echo"), pcpu=1)
    since = len(sim.trace.events)
    assert driver.invoke(fd, 0, b"hi") == (ChannelStatus.DONE, b"hi")
    events = sim.trace.events[since:]
    assert [(kind, pcpu) for _, kind, pcpu, _, _ in events] == [
        (kind, 1) for kind in ("channel", "hypercall", "push", "ctx_switch",
                               "work", "channel", "hypercall", "pop",
                               "ctx_switch")]
    assert [vcpu for _, kind, _, vcpu, _ in events if kind == "channel"] == [
        "primary.v1", "enclave1.v0"]

    sim = Simulation(MachineConfig(frames=256, pcpus=2))
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for("probe"), pcpu=1)
    assert driver.invoke(fd, 1, (0x100000).to_bytes(8, "little")) == (
        ChannelStatus.DONE, b"fault:unmapped")
    [(step, pcpu, vcpu)] = [(step, pcpu, vcpu) for step, kind, pcpu, vcpu, _
                            in sim.trace.events if kind == "fault"]
    assert (pcpu, vcpu, sim.trace.details[step]) == (
        1, "enclave1.v0", {"vm": 1, "ipa": 0x100000, "fault": "unmapped"})


def test_two_pcpu_lifecycle_names_the_enclaves_pcpu_on_every_event():
    """A create on pCPU 1, an invoke and a destroy: each of their 11, 9
    and 16 events names pCPU 1 and pCPU 1's primary vCPU or the enclave's,
    the mapping and zeroing events in the name of the hypercall's caller."""
    sim = Simulation(MachineConfig(frames=256, pcpus=2))
    driver = EnclaveDriver(sim)
    marks = [len(sim.trace.events)]
    fd = driver.create(image_for("echo"), pcpu=1)
    marks.append(len(sim.trace.events))
    assert driver.invoke(fd, 0, b"hi") == (ChannelStatus.DONE, b"hi")
    marks.append(len(sim.trace.events))
    driver.destroy(fd)
    marks.append(len(sim.trace.events))
    events = sim.trace.events
    spans = [events[a:b] for a, b in zip(marks, marks[1:])]
    assert [len(span) for span in spans] == [11, 9, 16]
    assert {(pcpu, vcpu) for _, _, pcpu, vcpu, _ in events[marks[0]:]} == {
        (1, "primary.v1"), (1, "enclave1.v0")}
    assert {vcpu for _, kind, _, vcpu, _ in events[marks[0]:]
            if kind in ("s2_map", "s2_unmap", "s2_protect",
                        "zero_frame")} == {"primary.v1"}


def test_one_payload_byte_changes_only_channel_events():
    payload = bytes(range(1, 200))
    flipped = payload[:77] + b"\xff" + payload[78:]
    a, b = _echo_run(payload).trace, _echo_run(flipped).trace
    assert len(a.events) == len(b.events)
    differ = [x[1] for x, dx, y, dy in zip(a.events, a.details,
                                           b.events, b.details)
              if (x, dx) != (y, dy)]
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
