"""The watchdog oracles must bite when fed corrupted state, stay quiet on
clean runs, and the scenario/CLI layers must hold their contracts."""
import hashlib
import json
import re
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from enclavesim.errors import ScenarioParseError, SimulationError
from enclavesim.guest_os import EnclaveDriver
from enclavesim.harness import (
    ExpectationFailed,
    MemoryOracle,
    ReferenceStackModel,
    SecretScanner,
    WriteConfinementOracle,
    ZeroizeWatch,
    check_frame_exclusivity,
    check_stack_integrity,
    check_trace_completeness,
    fuzz_mixed,
    fuzz_stack_ops,
    parse_scenario,
    run_attacks,
    run_bench,
    run_scenario,
    run_scenario_text,
    sabotage_teardown,
    standard_checks,
    verify_oracle_sensitivity,
)
from enclavesim.harness import scenario as scenario_module
from enclavesim.harness.cli import FUZZ_PROFILES
from enclavesim.harness.cli import main as cli_main
from enclavesim.hypervisor import Hypervisor, ImageMeta
from enclavesim.machine import (
    PAGE_SHIFT,
    PAGE_SIZE,
    MachineConfig,
    PhysicalMachine,
)
from enclavesim.sim import Simulation
from enclavesim.stage2 import PERM_RO, PERM_RW, PERM_RWX
from enclavesim.ta_runtime import image_for_pages

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
PLAYBOOK_DIR = Path(scenario_module.__file__).parent / "playbook"
PLAYBOOK = ["steal-private-memory", "scavenge-after-destroy",
            "scan-live-secrets", "privilege-escalation", "address-space-probe"]


def make_sim(frames=256, **kw):
    sim = Simulation(MachineConfig(frames=frames, **kw))
    return sim, EnclaveDriver(sim)


# -- memory oracle -------------------------------------------------------------


def test_memory_oracle_quiet_on_clean_run():
    sim, driver = make_sim()
    oracle = MemoryOracle(sim.machine)
    sim.machine.observers.append(oracle)
    fd = driver.create(image_for_pages("counter", 3, 1))
    driver.invoke(fd, 1)
    driver.destroy(fd)
    assert oracle.verify() == []


def test_memory_oracle_catches_silent_poke():
    sim, driver = make_sim()
    oracle = MemoryOracle(sim.machine)
    sim.machine.observers.append(oracle)
    sim.machine.write_frame(97, 0, b"\x01", sim.primary_vcpu(0), False)
    assert oracle.verify() == []
    sim.machine.frames[97][0] = 0x5A  # behind the observers' backs
    problems = oracle.verify()
    assert problems and "97" in problems[0]


def test_memory_oracle_catches_frame_planted_behind_its_back():
    sim, driver = make_sim()
    oracle = MemoryOracle(sim.machine)
    sim.machine.observers.append(oracle)
    fd = driver.create(image_for_pages("counter", 3, 1))
    driver.invoke(fd, 1)
    assert 97 not in sim.machine.frames
    sim.machine.frames[97] = bytearray(PAGE_SIZE)
    sim.machine.frames[97][5] = 0x5A
    assert oracle.verify() == ["frame 97 modified with no write event"]


# -- zeroize watchdog ----------------------------------------------------------


def destroy_under_watch(defect=None):
    sim, driver = make_sim()
    watch = ZeroizeWatch(sim.hv)
    sim.machine.observers.append(watch)
    if defect is not None:
        sabotage_teardown(sim.hv, defect)
    fd = driver.create(image_for_pages("counter", 3, 1))
    driver.invoke(fd, 1)
    driver.destroy(fd)
    return watch.violations


def test_zeroize_watch_quiet_on_honest_teardown():
    assert destroy_under_watch() == []


def test_zeroize_watch_catches_skipped_wipe():
    violations = destroy_under_watch("skip_zeroize")
    assert any("without zeroize" in v for v in violations)


def test_zeroize_watch_catches_wrong_order():
    violations = destroy_under_watch("remap_before_zeroize")
    assert violations


def test_sensitivity_matrix():
    assert verify_oracle_sensitivity() == {
        "none": True,
        "skip_zeroize": True,
        "remap_before_zeroize": True,
    }


# -- write confinement -----------------------------------------------------------


def test_confinement_quiet_on_clean_run():
    sim, driver = make_sim()
    oracle = WriteConfinementOracle(sim.hv)
    sim.machine.observers.append(oracle)
    fd = driver.create(image_for_pages("counter", 3, 1))
    driver.invoke(fd, 1)
    driver.destroy(fd)
    assert oracle.violations == []


def test_confinement_shadow_holds_only_mapping_vms():
    sim, driver = make_sim()
    oracle = WriteConfinementOracle(sim.hv)
    sim.machine.observers.append(oracle)
    live = driver.create(image_for_pages("echo", 3, 1))
    for _ in range(20):
        fd = driver.create(image_for_pages("counter", 3, 1))
        driver.invoke(fd, 1)
        driver.destroy(fd)
    want = {sim.hv.primary.vmid, driver.record_of(live).vm.vmid}
    assert set(oracle._tables) == want
    assert set(oracle._writable) == want
    assert oracle.violations == []


def test_confinement_flags_write_to_unreachable_frame():
    sim, driver = make_sim()
    fd = driver.create(image_for_pages("echo", 3, 1))
    rec = driver.record_of(fd)
    oracle = WriteConfinementOracle(sim.hv)
    sim.machine.observers.append(oracle)
    # a store into enclave memory by the running primary, which no longer
    # maps this frame
    frame = rec.pages[0].frame
    sim.machine.write_frame(frame, 0, b"\xee", sim.primary_vcpu(0), False)
    assert oracle.violations == [
        "write to frame %d by primary.v0, which may not write it" % frame]


def test_confinement_flags_raw_write_to_shared_frame():
    sim, driver = make_sim()
    fd = driver.create(image_for_pages("echo", 3, 1))
    rec = driver.record_of(fd)
    oracle = WriteConfinementOracle(sim.hv)
    sim.machine.observers.append(oracle)
    # primary may write its channel page, but only via the protocol
    sim.machine.write_frame(rec.pages[-1].frame, 64, b"\xee",
                            sim.primary_vcpu(0), False)
    assert any("outside channel protocol" in v for v in oracle.violations)


def test_confinement_judges_the_writer_not_any_running_vcpu():
    """An aux vCPU running on pCPU 1 maps nothing, so its store into frame
    100 is flagged although the primary, running on pCPU 0, could make the
    same store."""
    sim, driver = make_sim(pcpus=2)
    oracle = WriteConfinementOracle(sim.hv)
    sim.machine.observers.append(oracle)
    aux = sim.hv.make_aux_vcpu(1)
    sim.hv.schedule_vcpu(1, aux)
    assert sim.hv.stack_of(0)[-1] is sim.primary_vcpu(0)
    sim.machine.write_frame(100, 0, b"\xee", aux, False)
    assert oracle.violations == [
        "write to frame 100 by aux1.v0, which may not write it"]


def test_confinement_flags_a_write_by_a_vcpu_that_is_not_running():
    """An enclave may write its own private frame, but only while its vCPU
    runs; the same holds for the primary under a scheduled aux vCPU."""
    sim, driver = make_sim()
    fd = driver.create(image_for_pages("echo", 3, 1))
    rec = driver.record_of(fd)
    oracle = WriteConfinementOracle(sim.hv)
    sim.machine.observers.append(oracle)
    frame, enclave = rec.pages[0].frame, rec.vm.vcpus[0]
    sim.machine.write_frame(frame, 0, b"\xee", enclave, False)
    sim.hv.schedule_vcpu(0, sim.hv.make_aux_vcpu(0))
    sim.machine.write_frame(100, 0, b"\xee", sim.primary_vcpu(0), False)
    assert oracle.violations == [
        "write to frame %d by enclave1.v0, not running" % frame,
        "write to frame 100 by primary.v0, not running"]


# -- structural checks -----------------------------------------------------------


def test_exclusivity_blesses_channels_and_flags_extras():
    sim, driver = make_sim()
    fd = driver.create(image_for_pages("echo", 3, 1))
    rec = driver.record_of(fd)
    shared = set(rec.frames()[rec.private_pages:])
    assert check_frame_exclusivity(sim.hv, shared) == []
    # sneak a second primary mapping of a private frame, data-only so it
    # pattern-matches legal channel sharing
    caller = sim.primary_vcpu(0)
    sim.hv.primary.table.map(300, rec.pages[0].frame, PERM_RW, caller)
    rec.vm.table.protect(0, PERM_RW, caller)
    problems = check_frame_exclusivity(sim.hv, shared)
    assert any("not a known channel" in p for p in problems)


def test_exclusivity_flags_a_donated_page_left_in_the_primary(monkeypatch):
    sim, driver = make_sim()
    # a create whose unmap from the primary does nothing
    monkeypatch.setattr(sim.hv.primary.table, "unmap",
                        lambda page, by: page)
    fd = driver.create(image_for_pages("echo", 3, 1))
    rec = driver.record_of(fd)
    leaked = rec.frames()[:rec.private_pages]
    assert all(sim.hv.primary.table.lookup(f) == (f, PERM_RWX)
               for f in leaked)
    problems = standard_checks(sim, driver)
    for frame in leaked:
        assert "shared frame %d has perms rwx in vm0" % frame in problems
        assert "frame %d shared but not a known channel" % frame in problems


def test_standard_checks_flag_a_channel_the_driver_never_made():
    sim, driver = make_sim(128)
    image = image_for_pages("echo", 4, 1)
    # OS-reserved pages 40-44, donated past the driver
    blob = image.code_blob + bytes(-len(image.code_blob) % PAGE_SIZE)
    sim.vm_write(sim.hv.primary, 40 << PAGE_SHIFT, blob)
    sim.hv.create_enclave(sim.primary_vcpu(0), tuple(range(40, 45)),
                          ImageMeta(4, 1))
    assert standard_checks(sim, driver) == [
        "frame 44 shared but not a known channel"]


def test_exclusivity_flags_executable_sharing():
    sim, driver = make_sim()
    fd = driver.create(image_for_pages("echo", 3, 1))
    rec = driver.record_of(fd)
    page = rec.primary_channel_pages()[0]
    sim.hv.primary.table.protect(page, PERM_RWX, sim.primary_vcpu(0))
    problems = check_frame_exclusivity(
        sim.hv, set(rec.frames()[rec.private_pages:]))
    assert any("perms" in p for p in problems)


def test_retirement_refuses_vm_with_leftover_mappings():
    # teardown unmaps only the donated pages, so a stray mapping outlives it;
    # the VM leaves every registry at retirement, so that is the last check
    sim, driver = make_sim()
    fd = driver.create(image_for_pages("echo", 3, 1))
    rec = driver.record_of(fd)
    rec.vm.table.map(len(rec.pages), 250, PERM_RO, sim.primary_vcpu(0))
    with pytest.raises(SimulationError, match="destroyed vm%d still maps 1 "
                       "pages" % rec.vm.vmid):
        sim.hv.destroy_enclave(sim.primary_vcpu(0), rec.handle)


def _twice(sim, driver):
    aux = sim.hv.make_aux_vcpu(0)
    sim.hv.schedule_vcpu(0, aux)
    sim.machine.pcpus[0].stack.append(aux)


def _pinned_elsewhere(sim, driver):
    sim.machine.pcpus[0].stack.append(sim.hv.make_aux_vcpu(1))


def _foreign_base(sim, driver):
    sim.machine.pcpus[0].stack[0] = sim.hv.make_aux_vcpu(0)


def _retired(sim, driver):
    fd = driver.create(image_for_pages("echo", 3, 1))
    vcpu = driver.record_of(fd).vm.vcpus[0]
    driver.destroy(fd)
    sim.hv.schedule_vcpu(0, vcpu)


@pytest.mark.parametrize("corrupt, problems", [
    (_twice, ["aux1.v0 on a stack twice"]),
    (_pinned_elsewhere, ["aux1.v0 on pcpu 0 stack but pinned to 1"]),
    (_foreign_base, ["pcpu 0 stack base is not its primary vcpu"]),
    (_retired, ["enclave1.v0 of retired vm1 on pcpu 0 stack"]),
], ids=["twice", "pinned-elsewhere", "foreign-base", "retired"])
def test_stack_integrity_flags_a_malformed_stack(corrupt, problems):
    sim, driver = make_sim(pcpus=2)
    assert check_stack_integrity(sim.hv) == []
    corrupt(sim, driver)
    assert check_stack_integrity(sim.hv) == problems


def test_stack_integrity_flags_an_enclave_left_on_a_stack():
    """Between operations every invoke has returned to its caller, so a
    live enclave's vCPU on a stack is flagged; an aux vCPU is not."""
    sim, driver = make_sim()
    hv = sim.hv
    fd = driver.create(image_for_pages("echo", 3, 1))
    vcpu = driver.record_of(fd).vm.vcpus[0]
    aux = hv.make_aux_vcpu(0)
    hv.schedule_vcpu(0, aux)
    assert check_stack_integrity(hv) == []
    hv.yield_vcpu(0)
    hv.schedule_vcpu(0, vcpu)
    assert check_stack_integrity(hv) == ["%s left on pcpu 0 stack" % vcpu.name]
    hv.yield_vcpu(0)
    assert check_stack_integrity(hv) == []


def test_trace_completeness_detects_tampering():
    sim, driver = make_sim()
    fd = driver.create(image_for_pages("echo", 3, 1))
    driver.invoke(fd, 0, b"x")
    assert check_trace_completeness(sim) == []
    sim.trace.totals["hypercall"] += 1
    assert any("hypercall" in p for p in check_trace_completeness(sim))
    sim.trace.totals["hypercall"] -= 1
    sim.trace.t += 1
    assert check_trace_completeness(sim) == [
        "t %d recorded vs %d folded from the trace" % (sim.now(),
                                                       sim.now() - 1)]
    sim.trace.t -= 1
    events, details = sim.trace.events, sim.trace.details
    step, kind, pcpu, vcpu, t = events[5]
    events[5] = (step, kind, pcpu, vcpu, t + 1)
    assert any("step 5 has t=" in p for p in check_trace_completeness(sim))
    events[5] = (step, kind, pcpu, vcpu, t)
    assert check_trace_completeness(sim) == []
    detail = details.pop()
    assert check_trace_completeness(sim) == [
        "%d details for %d events" % (len(events) - 1, len(events))]
    details.append(detail)
    assert check_trace_completeness(sim) == []
    del events[3]
    assert check_trace_completeness(sim) == [
        "%d details for %d events" % (len(events) + 1, len(events))]
    del details[3]
    assert any("dense" in p for p in check_trace_completeness(sim))


def test_secret_scanner_finds_planted_bytes():
    sim, driver = make_sim()
    needle = bytes.fromhex("feedfacecafebeef")
    sim.machine.write_frame(123, 700, needle, sim.primary_vcpu(0), False)
    hits = SecretScanner(sim.machine).scan_frames([needle])
    assert hits == [(123, 700, 0)]
    reachable = SecretScanner(sim.machine).scan_vm_reachable(
        sim.hv, sim.hv.primary.vmid, [needle])
    assert reachable == hits  # primary maps everything at boot


def _scan_every_frame(machine, patterns):
    """The sweep as a plain loop over every frame's bytes."""
    hits = []
    for frame in range(machine.n_frames):
        data = machine.read_frame(frame, 0, PAGE_SIZE)
        for pi, pat in enumerate(patterns):
            hits += [(frame, off, pi) for off in range(PAGE_SIZE)
                     if data.startswith(pat, off)]
    return hits


def test_secret_scanner_finds_zero_patterns_in_untouched_frames():
    machine = PhysicalMachine(MachineConfig(frames=64))
    scanner = SecretScanner(machine)
    zeros = [bytes(8)]
    hits = scanner.scan_frames(zeros)
    assert len(hits) == 64 * (PAGE_SIZE - 7) == 261_696
    assert hits == _scan_every_frame(machine, zeros)
    machine.write_frame(9, 100, b"\x01", None, False)   # no vCPU exists
    patterns = [b"\x00\x01", bytes(8), b"\x01"]
    assert scanner.scan_frames(patterns) \
        == _scan_every_frame(machine, patterns)


def test_arming_at_65536_frames_allocates_little():
    tracemalloc.start()
    try:
        sim, driver = make_sim(65536)
        watch, confine = ZeroizeWatch(sim.hv), WriteConfinementOracle(sim.hv)
        memory = MemoryOracle(sim.machine)
        sim.machine.observers += [watch, confine, memory]
        problems = memory.verify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, "%.1f MiB" % (peak / (1 << 20))
    assert problems == []
    assert watch.violations == confine.violations == []
    assert standard_checks(sim, driver) == []


# -- reference stack model --------------------------------------------------------


def test_reference_model_semantics():
    model = ReferenceStackModel(1, ["base"])
    model.push(0, "a")
    model.push(0, "b")
    assert model.stack(0) == ["base", "a", "b"]
    assert model.charges == 2
    assert model.interrupt(0, "a") == "unwound"
    assert model.stack(0) == ["base", "a"]
    assert model.charges == 3
    assert model.interrupt(0, "a") == "pending"
    assert model.charges == 3 and "a" in model.pending
    assert model.pop(0) == "a"
    assert model.top(0) == "base"
    model.push(0, "a")  # re-entry consumes the pending mark
    assert "a" not in model.pending


# -- scenario engine ---------------------------------------------------------------


def test_scenario_roundtrip_and_expectations():
    result = run_scenario_text("""
        machine frames=128
        create e echo mem=3
        invoke e 0 str:hello
        expect status done
        expect payload str:hello
        invoke e 9
        expect status error
        destroy e
        destroy e
        expect error BadFd
    """)
    assert result.ok
    assert any("create e" in line for line in result.outputs)


def test_scenario_adversary_and_interrupts():
    result = run_scenario_text("""
        machine frames=128
        create e echo mem=3
        adversary read e private 0
        expect fault unmapped
        adversary write e private 1
        expect fault unmapped
        adversary read e channel 0
        aux a1
        schedule a1
        interrupt primary
        expect outcome unwound
        interrupt primary
        expect outcome pending
    """)
    assert result.ok


def test_scenario_interrupt_on_a_named_pcpu():
    """`pcpu=N` delivers on pCPU N, where `primary` is that pCPU's primary
    vCPU; without it the interrupt goes to the vCPU's own pCPU."""
    result = run_scenario_text("""
        machine frames=96 pcpus=2
        aux a pcpu=1
        schedule a
        interrupt primary pcpu=1
        expect outcome unwound
        interrupt a pcpu=0
        expect error WrongPcpu
        interrupt a
        expect outcome pending
    """)
    assert result.ok, result.violations
    assert result.sim.hv.stack_of(1) == [result.sim.primary_vcpu(1)]


def test_scenario_creates_on_both_pcpus_run_clean():
    """`create ... pcpu=N` pins the enclave to pCPU N, and its invokes and
    destroy issue from pCPU N's primary vCPU: a script whose creates
    alternate between two pCPUs, with invokes, a preemption, destroys and
    adversary reads, passes the whole end battery and the memory oracle,
    and every event names the pCPU its vCPU is pinned to."""
    runner = scenario_module._Runner(parse_scenario("""
        machine frames=192 pcpus=2
        create a echo pcpu=1
        create b counter
        create c wallet mem=6 pcpu=1
        create d spinner
        invoke a 0 str:one
        expect payload str:one
        invoke b 1
        invoke c 1 str:seed
        expect status done
        timer 5 pcpu=1
        aux x pcpu=0
        schedule x
        create e spinner pcpu=1
        invoke e 1 hex:0600000004000000
        expect status preempted
        yield
        resume e
        expect payload str:spun
        adversary read c private all
        expect fault unmapped
        adversary read a channel 0
        destroy a
        destroy d
        adversary read a private 0
        expect payload hex:00000000000000000000000000000000
        create f echo
        invoke f 0 str:two
        expect payload str:two
        destroy c
        destroy e
        secret k wallet str:seed
        scan all k
        expect hits 0
    """))
    memory = MemoryOracle(runner.sim.machine)
    runner.sim.machine.observers.append(memory)
    result = runner.run()
    assert result.ok, result.violations
    assert memory.verify() == []
    sim = result.sim
    pinned = {v.name: v.pcpu for vm in sim.hv.vms.values() for v in vm.vcpus}
    pinned.update({"enclave1.v0": 1, "enclave3.v0": 1, "enclave5.v0": 1,
                   "enclave2.v0": 0, "enclave4.v0": 0})
    assert all(pcpu == pinned[vcpu]
               for _, _, pcpu, vcpu, _ in sim.trace.events)
    assert {vcpu for _, kind, pcpu, vcpu, _ in sim.trace.events
            if kind in ("s2_map", "zero_frame") and pcpu == 1} == {
        "primary.v1"}


def test_scenario_adversary_reads_are_payloads_and_outlive_destroy():
    """A read leaves its bytes as the payload.  After destroy the adversary
    probes the variable's former pages: reclaimed ones read as zeros, a page
    donated again faults."""
    zeros = "hex:" + "00" * 16
    result = run_scenario_text("""
        machine frames=128
        create e echo mem=3
        adversary read e channel 0
        expect payload hex:42454348000000000000000000000000
        destroy e
        adversary read e private 0
        expect payload len:16
        expect payload %s
        adversary read e channel 0
        expect payload %s
        adversary write e private 2
        adversary read e private 2
        expect payload hex:%s
        create f echo mem=3
        adversary read e private 0
        expect fault unmapped
    """ % (zeros, zeros, "a5" * 16))
    assert result.ok
    with pytest.raises(ExpectationFailed, match="payload"):
        run_scenario_text("""
            create e echo
            destroy e
            adversary read e private 0
            expect payload hex:01
        """)


def test_scenario_adversary_all_judges_every_page_at_once():
    """`all` touches every page in order.  One fault kind on every page is
    the fault; otherwise a read's payload is the whole pages that
    answered."""
    result = run_scenario_text("""
        machine frames=128
        create e echo mem=6 chan=2
        adversary read e private all
        expect fault unmapped
        adversary write e private all
        expect fault unmapped
        adversary read e channel all
        expect payload len:8192
        destroy e
        adversary read e private all
        expect payload zero:24576
        create f echo mem=3             # donates three of e's old pages
        adversary read e private all
        expect payload len:12288
    """)
    assert result.ok, result.violations
    assert result.outputs[-1].endswith("read private[all] -> 3 of 6 succeeded")


def test_scenario_secret_scan_counts_the_wallet_keys():
    result = run_scenario_text("""
        machine frames=128
        create w wallet
        secret k wallet str:seed
        scan all k
        expect hits 0
        invoke w 1 str:seed
        invoke w 2
        scan all k
        expect hits 2
        scan primary k
        expect hits 0
        destroy w
        scan all k
        expect hits 0
    """)
    assert result.ok, result.violations
    # before `invoke w 2` only the master key is in RAM
    with pytest.raises(ExpectationFailed,
                       match="line 5: expected hits 2, got 1"):
        run_scenario_text("create w wallet\ninvoke w 1 str:seed\n"
                          "secret k wallet str:seed\nscan all k\n"
                          "expect hits 2\n")


@pytest.mark.parametrize("bad, lineno", [
    ("secret k rsa str:x", 1),
    ("secret k wallet hex:zz", 1),
    ("secret k wallet", 1),
    ("secret k wallet str:x\nscan all ghost", 2),
    ("secret k wallet str:x\nscan some k", 2),
    ("secret k wallet str:x\nscan all k\nexpect hits many", 3),
    ("machine frames=80\ncreate e echo\ninvoke e 0 zero:327681", 3),
    ("machine frames=80\ncreate e echo\ninvoke e 0 str:x\n"
     "expect payload zero:327681", 4),
    ("create e echo\nadversary read e private some", 2),
])
def test_scenario_playbook_statements_reject_bad_values(bad, lineno, tmp_path,
                                                        capsys):
    with pytest.raises(ScenarioParseError, match="^line %d: " % lineno):
        run_scenario_text(bad)
    script = tmp_path / "bad.txt"
    script.write_text(bad)
    assert cli_main(["run", str(script)]) == 2
    assert "line %d: " % lineno in capsys.readouterr().out


def test_scenario_expectation_failure_raises():
    with pytest.raises(ExpectationFailed):
        run_scenario_text("""
            create e echo
            invoke e 0 str:x
            expect status error
        """)


@pytest.mark.parametrize("script", [
    "create w echo\ndestroy w\ndestroy w",
    "create w echo\ndestroy w\ndestroy w\ncreate v echo\nexpect error BadFd",
    "create w echo\ndestroy w\ndestroy w\nexpect status done",
], ids=["last-line", "next-is-an-action", "next-is-another-expect"])
def test_scenario_unexpected_error_fails_naming_its_line(script):
    with pytest.raises(ExpectationFailed, match="line 3: unexpected BadFd"):
        run_scenario_text(script)


# an aux made first, whose variable is a later enclave's VM name
_AUX_COLLISION_SCRIPT = """
aux enclave1
create e echo
invoke e 0 str:x
schedule enclave1
yield
"""


def test_scenario_aux_and_enclave_vms_never_share_a_name():
    result = run_scenario_text(_AUX_COLLISION_SCRIPT)
    assert result.ok, result.violations
    names = [vm.name for vm in result.sim.hv.vms.values()]
    assert sorted(names) == ["aux1", "enclave1", "primary"]
    pushed = [vcpu for _, kind, _, vcpu, _ in result.sim.trace.events
              if kind in ("push", "pop")]
    assert sorted(set(pushed)) == ["aux1.v0", "enclave1.v0"]


def test_scenario_aux_variable_rebinds_to_a_new_vcpu():
    result = run_scenario_text("aux a\nschedule a\naux a\nschedule a")
    assert result.ok, result.violations
    assert [v.name for v in result.sim.hv.stack_of(0)] == [
        "primary.v0", "aux1.v0", "aux2.v0"]


def test_scenario_aux_variable_cannot_be_primary():
    with pytest.raises(ScenarioParseError, match="^line 1: aux variable "):
        run_scenario_text("aux primary")


# the call under each action, and a script whose line 2 runs that action
_ACTION_CALLS = {
    "timer": ("arm_timer", "create e echo\ntimer 5"),
    "tick": ("check_timers", "create e echo\ntick"),
    "adversary": ("vm_read", "create e echo\nadversary read e private 0"),
}


@pytest.mark.parametrize("action", sorted(_ACTION_CALLS))
def test_every_actions_simulator_error_is_its_outcome(action, monkeypatch):
    call, script = _ACTION_CALLS[action]

    def boom(*args, **kwargs):
        raise SimulationError("boom")

    monkeypatch.setattr(Simulation, call, boom)
    result = run_scenario_text(script + "\nexpect error SimulationError")
    assert result.ok, result.violations
    assert result.outputs[-1] == "line 2: SimulationError: boom"
    with pytest.raises(ExpectationFailed,
                       match="^line 2: unexpected SimulationError: boom$"):
        run_scenario_text(script)


def test_scenario_timer_delay_is_at_least_zero():
    with pytest.raises(ScenarioParseError, match="^line 2: delay -50 not in "):
        run_scenario_text("create e echo\ntimer -50")
    assert run_scenario_text("timer 0\ntimer 4294967295").ok


@pytest.mark.parametrize("bad", [
    "tick junk",
    "schedule a1 junk",
    "create e",
    "invoke e",
    "resume",
    "destroy e f",
    "timer",
    "timer 5 pcpu=0 junk",
    "adversary peek e private 0",
    "adversary read e shared 0",
    "adversary read e private",
    "expect nothing 1",
    "expect status",
    "aux",
    "yield pcpu=0 pcpu=0",
    "interrupt",
    "secret k rsa str:x",
    "scan some k",
])
def test_scenario_refuses_a_malformed_statement_before_running_any(bad):
    """A statement with too few or too many words, or a word its usage line
    does not offer, is refused by the parser with that usage line, so no
    statement of the script runs."""
    op = bad.split()[0]
    with pytest.raises(ScenarioParseError,
                       match="^line 2: usage: %s( |$)" % op):
        parse_scenario("create e echo\n" + bad + "\ncreate f echo")


def test_scenario_expect_payload_len_names_what_came_back():
    with pytest.raises(ExpectationFailed,
                       match="^line 3: expected 3 payload bytes, got b'x'$"):
        run_scenario_text("create e echo\ninvoke e 0 str:x\n"
                          "expect payload len:3")


@pytest.mark.parametrize("bad", [
    "warp 9",
    "create e echo\nmachine frames=64",
    "invoke ghost 0",
    "create e echo\ninvoke e 0 b64:AAAA",
    "create e echo\nadversary peek e private 0",
    "seed 1 2",
])
def test_scenario_rejects_malformed_scripts(bad):
    with pytest.raises(ScenarioParseError):
        run_scenario_text(bad)


@pytest.mark.parametrize("bad, lineno", [
    ("seed abc", 1),
    ("create e echo\ninvoke e zz", 2),
    ("create e echo\ninvoke e 0 hex:zz", 2),
    ("create e echo\ninvoke e 0 rand:x", 2),
    ("create e echo\ninvoke e -1", 2),
    ("create e echo\ninvoke e 0 str:a\nexpect status bogus", 3),
    ("create e echo\nadversary read e private x", 2),
    ("create e echo mem=1", 1),
    ("create e echo chan=0", 1),
    ("timer 5 pcpu=3", 1),
    ("yield pcpu=4", 1),
    ("aux a pcpu=5\nschedule a", 1),
    ("interrupt primary pcpu=2", 1),
    ("create e echo pcpu=1", 1),
    ("machine pcpus=2\ncreate e echo mem=3 pcpu=2", 2),
    ("machine pcpus=0", 1),
    ("create e echo mem", 1),
    ("create e echo size=3", 1),
    ("create e nosuch", 1),
    ("create e echo\nadversary read ghost private 0", 2),
    ("schedule ghost", 1),
])
def test_scenario_bad_values_name_their_line(bad, lineno, tmp_path, capsys):
    with pytest.raises(ScenarioParseError, match="^line %d: " % lineno):
        run_scenario_text(bad)
    script = tmp_path / "bad.txt"
    script.write_text(bad)
    assert cli_main(["run", str(script)]) == 2
    assert "line %d: " % lineno in capsys.readouterr().out


@pytest.mark.parametrize("bad, lineno", [
    ("machine frames=0", 1),
    ("machine frames=65537", 1),
    ("machine pcpus=65", 1),
    ("machine reserved=-1", 1),
    ("machine frames=128 reserved=129", 1),
    ("machine reserved=100\nmachine frames=99", 2),
    ("machine max_vms=0", 1),
])
def test_scenario_rejects_machines_past_their_bounds(bad, lineno):
    # parsing builds no machine, so no value here allocates anything
    with pytest.raises(ScenarioParseError, match="^line %d: " % lineno):
        parse_scenario(bad)


def test_scenario_accepts_machines_at_their_bounds():
    config = parse_scenario(
        "machine frames=65536 pcpus=64 reserved=65536 max_vms=1").config
    assert (config.frames, config.pcpus, config.os_reserved_pages,
            config.max_vms) == (65536, 64, 65536, 1)


def test_scenario_rand_payload_is_capped_at_machine_memory():
    head = "machine frames=80\ncreate e echo\n"
    # at the cap the payload is drawn and reaches the channel, too big for it
    at_cap = run_scenario_text(head + "invoke e 0 rand:327680\n"
                               "expect error ChannelTooLarge\n")
    assert at_cap.ok, at_cap.violations
    for past, lineno in (("invoke e 0 rand:327681\n", 3),
                         ("invoke e 0 str:x\nexpect payload rand:327681\n",
                          4)):
        with pytest.raises(ScenarioParseError,
                           match="^line %d: length" % lineno):
            run_scenario_text(head + past)


def test_bundled_scenarios_run_clean():
    paths = sorted(SCENARIO_DIR.glob("*.txt"))
    assert len(paths) >= 4
    for path in paths:
        scenario = parse_scenario(path.read_text())
        result = run_scenario(scenario)
        assert result.ok, (path.name, result.violations)


# SHA-256 of each bundled scenario's JSONL trace.  A change that alters
# behaviour, cost or the trace format shows up here; re-bless these only on
# purpose and say why.
GOLDEN_TRACE_SHA256 = {
    "adversary_demo": "b2d079407faece6ce3d2559adbe766030e6001584f6af77daa89dfa94a7704df",
    "preempt_demo": "892374085c7bad1fd2bd2261dec4113f11a43b31e3d9bf3691e89ded9c21af68",
    "stack_demo": "1db1ab0ef6dd3b0665a3373afe414f4c02a2c660ef5a07df4d09224f091d042f",
    "wallet_demo": "5a3767eb73dcee7fd938efad2db9e9cbeadfd1a7fde7b3f589df33677ebc89a2",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACE_SHA256))
def test_bundled_scenario_traces_match_golden_digests(name):
    path = SCENARIO_DIR / (name + ".txt")
    result = run_scenario(parse_scenario(path.read_text()))
    assert result.ok, result.violations
    digest = hashlib.sha256(result.sim.trace.to_jsonl().encode()).hexdigest()
    assert digest == GOLDEN_TRACE_SHA256[name]


# SHA-256 of what `enclavesim run NAME.txt` prints, run from scenarios/:
# every statement's output line and the closing `ok` line.
GOLDEN_STDOUT_SHA256 = {
    "adversary_demo": "ee8fd2a24c9baa219f4b9c612f03ca8400a194e58d517586f07edc7f61dfd285",
    "preempt_demo": "a7294c7d364c5b9a36588f3634c0d7ab97252c5354102c6b4515d075dfafe5b7",
    "stack_demo": "58140615ba3f99301d83b5b90ba20fc207dd40e880e9c6ab3b029801d6ff0327",
    "wallet_demo": "881e871b7f38a5c37574179327e3b5b61dc55aedd9e35493cd505c0bc32b2f60",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT_SHA256))
def test_bundled_scenario_stdout_matches_golden_digests(name, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(SCENARIO_DIR)
    assert cli_main(["run", name + ".txt"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_STDOUT_SHA256[name]


def test_scenarios_are_deterministic():
    text = """
        seed 11
        create e echo mem=3
        invoke e 0 rand:32
        timer 6
        create s spinner mem=3
        invoke s 1 hex:0400000003000000
        resume s
        destroy s
        destroy e
    """
    a = run_scenario_text(text)
    b = run_scenario_text(text)
    assert a.ok and b.ok
    assert a.outputs == b.outputs
    assert a.sim.trace.to_jsonl() == b.sim.trace.to_jsonl()


# -- command line ------------------------------------------------------------------


def test_cli_run_and_trace(tmp_path, capsys):
    trace_out = str(tmp_path / "trace.jsonl")
    demo = str(SCENARIO_DIR / "stack_demo.txt")
    assert cli_main(["run", demo, "--trace", trace_out]) == 0
    lines = Path(trace_out).read_text().strip().splitlines()
    events = [json.loads(line) for line in lines]
    assert events[0]["event"] == "boot"
    assert [ev["step"] for ev in events] == list(range(len(events)))
    capsys.readouterr()


def test_cli_trace_wants_one_scenario(capsys):
    demo = str(SCENARIO_DIR / "stack_demo.txt")
    assert cli_main(["run", demo, demo, "--trace", "/tmp/x.jsonl"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["bench", "--pages", "16"],
    ["bench", "--pages", "16,16"],
    ["bench", "--pages", "2,16"],
    ["bench", "--pages", "x"],
    ["bench", "--reps", "0"],
    ["fuzz", "--profile", "stack", "--ops", "-3"],
    ["fuzz", "--profile", "sensitivity", "--ops", "0"],
    ["fuzz", "--profile", "sensitivity", "--ops", "7"],
    ["run", "no-such-scenario.txt"],
], ids=["one-size", "same-size", "small-size", "not-a-number", "no-reps",
        "negative-ops", "sensitivity-zero-ops", "sensitivity-ops",
        "missing-file"])
def test_cli_rejects_malformed_arguments(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("enclavesim %s: " % argv[0])


def test_cli_run_failed_expectation_exits_1(tmp_path, capsys):
    script = tmp_path / "expect.txt"
    script.write_text("create e echo\ninvoke e 0 str:x\nexpect status error\n")
    assert cli_main(["run", str(script)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("expect, status", [("", 1),
                                            ("expect error BadFd\n", 0)])
def test_cli_run_unexpected_error_exits_1(expect, status, tmp_path, capsys):
    script = tmp_path / "double_destroy.txt"
    script.write_text("create w echo\ndestroy w\ndestroy w\n" + expect)
    assert cli_main(["run", str(script)]) == status
    out = capsys.readouterr().out
    assert ("line 3: unexpected BadFd" in out) == bool(status)


def _documented_scenario(source):
    if source == "README.md":
        text = (ROOT / "README.md").read_text()
        return re.search(r"## Scenario scripts.*?```text\n(.*?)```", text,
                         re.S).group(1)
    block = re.search(r"comment:\n\n(.*?)\n\n`expect`",
                      scenario_module.__doc__, re.S).group(1)
    return textwrap.dedent(block)


@pytest.mark.parametrize("source", ["README.md", "scenario.py docstring"])
def test_documented_scenario_example_runs(source, tmp_path, capsys):
    script = tmp_path / "example.txt"
    script.write_text(_documented_scenario(source))
    # exit 0: every expectation held and no oracle reported a violation
    assert cli_main(["run", str(script)]) == 0, capsys.readouterr().out


def test_cli_attack(capsys, monkeypatch, tmp_path):
    # the playbook ships in the package, not beside the working directory
    monkeypatch.chdir(tmp_path)
    assert cli_main(["attack"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == PLAYBOOK
    assert all(line.endswith(" contained") for line in lines)


def test_attacks_count_one_attempt_per_page_judged():
    assert [(r.name, r.contained, r.attempts, r.ok)
            for r in run_attacks()] == [
        ("steal-private-memory", 514, 514, True),
        ("scavenge-after-destroy", 12, 12, True),
        ("scan-live-secrets", 4, 4, True),
        ("privilege-escalation", 2, 2, True),
        ("address-space-probe", 5, 5, True)]


def test_playbook_is_its_five_scripts():
    assert sorted(p.stem for p in PLAYBOOK_DIR.iterdir()) == sorted(PLAYBOOK)


@pytest.mark.parametrize("name", PLAYBOOK)
def test_playbook_script_runs_clean_and_replays(name, capsys):
    path = PLAYBOOK_DIR / (name + ".txt")
    assert cli_main(["run", str(path)]) == 0, capsys.readouterr().out
    text = path.read_text()
    first, second = run_scenario_text(text), run_scenario_text(text)
    assert first.sim.trace.to_jsonl() == second.sim.trace.to_jsonl()


def _attack_verdicts(capsys):
    status = cli_main(["attack"])
    out = capsys.readouterr().out.splitlines()
    return status, {line.split()[0]: line.split()[-1] for line in out
                    if not line.startswith(" ")}


def test_attack_breaches_on_a_donated_page_left_in_the_primary(monkeypatch,
                                                               capsys):
    class Leaky(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # a create whose unmap from the primary does nothing
            self.hv.primary.table.unmap = lambda page, by: page

    monkeypatch.setattr(scenario_module, "Simulation", Leaky)
    status, verdicts = _attack_verdicts(capsys)
    assert status == 1
    assert verdicts["steal-private-memory"] == "BREACHED"


def _skip_zeroize_everywhere(monkeypatch):
    """Every simulation a scenario builds gets sabotage_teardown(hv,
    "skip_zeroize")."""
    class Sabotaged(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sabotage_teardown(self.hv, "skip_zeroize")

    monkeypatch.setattr(scenario_module, "Simulation", Sabotaged)


def test_attack_breaches_on_skipped_zeroization(monkeypatch, capsys):
    _skip_zeroize_everywhere(monkeypatch)
    status, verdicts = _attack_verdicts(capsys)
    assert status == 1
    assert verdicts["scavenge-after-destroy"] == "BREACHED"


def _clear_first_16_bytes(machine, frame):
    machine.frames.get(frame, bytearray(16))[:16] = bytes(16)


def _clear_nothing(machine, frame):
    pass


@pytest.mark.parametrize("clear", [_clear_nothing, _clear_first_16_bytes])
def test_attack_breaches_on_residue_behind_a_reported_zeroing(monkeypatch,
                                                              clear):
    """A zeroing that tells its observers the frame is clear but leaves
    bytes in it: ZeroizeWatch sees a clean zeroing, so the whole-page reads
    of the reclaimed pages are what catch it."""
    def zero_frame(machine, frame, by):
        clear(machine, frame)
        for obs in machine.observers:
            obs.on_zero(frame, by)

    monkeypatch.setattr(PhysicalMachine, "zero_frame", zero_frame)
    result = scenario_module.run_attack("scavenge-after-destroy")
    assert not result.ok
    assert result.notes[0].startswith("line 14: 32768 payload bytes "
                                      "!= expected 32768, from byte ")


def test_bench_means_are_the_cost_models():
    """Per size n: create charges its hypercall and two table ops a page,
    destroy also zeroes each page, and an echo invoke costs 5 units, with
    the mapping and zeroing events recorded."""
    report = run_bench(sizes=(16, 64), reps=2)
    assert report.samples == {
        n: {"create": [2 * n + 1] * 2, "invoke": [5] * 2,
            "destroy": [3 * n + 1] * 2}
        for n in (16, 64)}
    assert report.deterministic()


def test_bench_refuses_a_donation_without_room_for_state():
    with pytest.raises(ValueError,
                       match="^donation must cover code, state and channel$"):
        run_bench(sizes=(16, 2), reps=1)


def test_cli_bench_small(capsys):
    assert cli_main(["bench", "--pages", "16,32", "--reps", "3"]) == 0
    capsys.readouterr()


def test_cli_fuzz_profiles(capsys):
    assert cli_main(["fuzz", "--profile", "stack", "--ops", "400"]) == 0
    assert cli_main(["fuzz", "--profile", "sensitivity"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("profile,ops", [("mixed", "300"),
                                         ("lifecycle", "100")])
def test_cli_fuzz_scripted_profiles(profile, ops, capsys):
    assert cli_main(["fuzz", "--profile", profile, "--ops", ops]) == 0
    assert "all passed" in capsys.readouterr().out


# -- scripted fuzz profiles ------------------------------------------------------


_REPLAY_CASES = {"lifecycle": 60, "mixed": 300, "stack": 200}


@pytest.mark.parametrize("profile", sorted(FUZZ_PROFILES))
def test_fuzz_script_replays_to_the_same_trace(profile, monkeypatch,
                                               tmp_path, capsys):
    """Every count-taking profile the CLI offers runs as a script, and the
    script replays to the same trace."""
    sims = []

    class Recorded(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(scenario_module, "Simulation", Recorded)
    report = FUZZ_PROFILES[profile](_REPLAY_CASES[profile], seed=4)
    assert report.ok, report.format()
    assert parse_scenario(report.script[0]).config == sims[0].machine.config
    assert report.script[1] == "seed 4"
    text = "\n".join(report.script) + "\n"
    result = run_scenario_text(text)
    assert result.ok, result.violations
    fuzzed, replayed = (hashlib.sha256(s.trace.to_jsonl().encode()).hexdigest()
                        for s in sims)
    assert replayed == fuzzed
    path = tmp_path / "replay.txt"
    path.write_text(text)
    assert cli_main(["run", str(path)]) == 0
    capsys.readouterr()


def test_stack_profile_trace_and_ledger_are_pinned(monkeypatch):
    sims = []

    class Recorded(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(scenario_module, "Simulation", Recorded)
    report = fuzz_stack_ops(2000, seed=2)
    assert report.ok, report.format()
    (sim,) = sims
    assert hashlib.sha256(sim.trace.to_jsonl().encode()).hexdigest() == (
        "27fe46b74d6298649fbaa516913c7d24603bed5912c5ccc8b7882ad5c719d085")
    assert sim.machine.ledger.snapshot() == {
        "pt_ops": 0, "zero_bytes": 0, "ctx_switches": 1217, "hypercalls": 0,
        "work_units": 0}


def _popped_vcpu_stays(real):
    def yield_vcpu(self, pcpu_id):
        vcpu = real(self, pcpu_id)
        self.machine.pcpus[pcpu_id].stack.append(vcpu)
        return vcpu
    return yield_vcpu


def _pending_flag_dropped(real):
    def deliver_interrupt(self, pcpu_id, target):
        outcome = real(self, pcpu_id, target)
        target.pending_irq = False
        return outcome
    return deliver_interrupt


def _switch_charged_twice(real):
    def charge_switch(self, *args):
        real(self, *args)
        real(self, *args)
    return charge_switch


@pytest.mark.parametrize("method, defect, report", [
    ("yield_vcpu", _popped_vcpu_stays, r"pcpu \d stack \["),
    ("deliver_interrupt", _pending_flag_dropped, r"pending \["),
    ("_charge_switch", _switch_charged_twice, r"charged \d+ switches, model"),
], ids=["stack", "pending", "switches"])
def test_stack_profile_reports_each_model_mismatch(method, defect, report,
                                                   monkeypatch):
    """Each of the stack fuzzer's three comparisons with the reference
    model fails on a hypervisor that gets its part wrong."""
    monkeypatch.setattr(Hypervisor, method,
                        defect(getattr(Hypervisor, method)))
    result = fuzz_stack_ops(300, seed=0)
    assert not result.ok
    assert re.match(r"line \d+: " + report, result.failures[0][1]), \
        result.failures


def test_mixed_profile_trace_and_ledger_are_pinned(monkeypatch):
    sims = []

    class Recorded(Simulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    monkeypatch.setattr(scenario_module, "Simulation", Recorded)
    report = fuzz_mixed(300, seed=1)
    assert report.ok, report.format()
    (sim,) = sims
    assert hashlib.sha256(sim.trace.to_jsonl().encode()).hexdigest() == (
        "c8017579b3cbf185191643d47682bfe070c7d3617de7f662016829f99dd4c6f8")
    assert sim.machine.ledger.snapshot() == {
        "pt_ops": 1528, "zero_bytes": 1564672, "ctx_switches": 730,
        "hypercalls": 788, "work_units": 2182}


def test_fuzz_mixed_checks_its_final_teardown(monkeypatch):
    # skip zeroization: one op creates an enclave, only the end destroys it
    _skip_zeroize_everywhere(monkeypatch)
    report = fuzz_mixed(1, seed=0)
    assert not report.ok
    assert "remapped to primary without zeroize" in report.format()


def test_failed_case_prints_its_statements_from_its_create(monkeypatch):
    _skip_zeroize_everywhere(monkeypatch)
    report = fuzz_mixed(200, seed=0)
    index, _ = report.failures[0]
    assert index < 200 and report.case_script
    lines = report.format().splitlines()
    at = next(i for i, line in enumerate(lines)
              if line.startswith("  replay: "))
    assert lines[at + 1:] == ["    " + line for line in report.case_script]
    lineno, first = report.case_script[0].split(": ", 1)
    assert first.startswith("create ")
    assert report.script[int(lineno) - 1] == first
    var = first.split()[1]
    assert report.case_script[-1].split(": ", 1)[1] == "destroy " + var


def test_cli_pack_image(tmp_path, capsys):
    code = tmp_path / "blob.bin"
    code.write_bytes(b"TA!echo\n" + bytes(64))
    out = tmp_path / "img.bin"
    rc = cli_main(["pack-image", "--mem-pages", "2", "--channel-pages", "1",
                   "--code", str(code), "--cmds", "0", "-o", str(out)])
    assert rc == 0 and out.exists()
    bad = cli_main(["pack-image", "--mem-pages", "0", "--channel-pages", "1",
                    "--code", str(code), "--cmds", "0",
                    "-o", str(tmp_path / "nope.bin")])
    assert bad == 1
    capsys.readouterr()
