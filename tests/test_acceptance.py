"""Acceptance gate: the system-level guarantees, one test per criterion.

Each test exercises a whole guarantee end to end and prints a single
verdict line; pytest -v therefore shows one pass/fail row per criterion.
"""
import random
import struct
import time

from enclavesim.channel import ChannelStatus
from enclavesim.guest_os import EnclaveDriver
from enclavesim.harness import (
    fuzz_lifecycles,
    fuzz_stack_ops,
    run_attacks,
    run_bench,
    run_scenario_text,
)
from enclavesim.machine import MachineConfig
from enclavesim.sim import Simulation
from enclavesim.ta_runtime import (
    CMD_ADDRESS,
    CMD_CREATE_MASTER,
    CMD_DERIVE,
    CMD_PUBKEY,
    CMD_SIGN,
    CMD_VERIFY,
    image_for,
    image_for_pages,
)

import reference_wallet as ref
from snapshots import allocations


def test_criterion_1_isolation_attacks_fully_contained():
    t0 = time.monotonic()
    results = run_attacks()
    elapsed = time.monotonic() - t0
    for res in results:
        assert res.ok, "%s breached: %s" % (res.name, res.notes[:3])
    steal = next(r for r in results if r.name == "steal-private-memory")
    assert steal.attempts >= 256
    assert steal.contained == steal.attempts
    assert elapsed < 10.0, "attack suite took %.1fs" % elapsed
    total = sum(r.attempts for r in results)
    print("criterion 1 PASS: %d/%d attacks contained in %.2fs"
          % (sum(r.contained for r in results), total, elapsed))


def test_criterion_2_no_dirty_frame_ever_returns_to_primary():
    report = fuzz_lifecycles(1000, seed=0)
    assert report.ok, report.format()
    print("criterion 2 PASS: 1000 randomized lifecycles, zero residue")


def test_criterion_3_stacking_matches_reference_model():
    report = fuzz_stack_ops(10000, seed=0)
    assert report.ok, report.format()
    print("criterion 3 PASS: 10000 stack ops match the reference model "
          "with per-step stack checks")


def test_criterion_4_create_destroy_roundtrip_is_exact():
    sim = Simulation(MachineConfig(frames=256))
    driver = EnclaveDriver(sim)
    rng = random.Random(2026)
    shapes = []
    for _ in range(100):
        name = rng.choice(("echo", "counter", "wallet"))
        mem = rng.randrange(3, 25)
        chan = rng.randrange(1, 3)
        shapes.append((name, mem, chan))
        table_before = sim.hv.primary.table.snapshot()
        alloc_before = allocations(driver.allocator)
        fd = driver.create(image_for_pages(name, mem, chan))
        if name == "wallet":
            driver.invoke(fd, CMD_CREATE_MASTER, rng.randbytes(16))
        elif name == "counter":
            driver.invoke(fd, 1)
        else:
            driver.invoke(fd, 0, rng.randbytes(64))
        driver.destroy(fd)
        assert sim.hv.primary.table.snapshot() == table_before, shapes[-1]
        assert allocations(driver.allocator) == alloc_before, shapes[-1]
    print("criterion 4 PASS: 100 random donation shapes round-trip exactly")


def test_criterion_5_cost_ordering_and_scaling():
    report = run_bench(sizes=(16, 64, 256, 1024), reps=30)
    assert report.deterministic(), "per-size samples not identical"
    assert report.ordering_holds(), "invoke < create < destroy violated"
    assert report.invoke_constant(), "invoke cost varies with enclave size"
    r2 = report.teardown_gap_r2()
    assert r2 > 0.999, "destroy-create gap vs donated bytes: R^2=%.6f" % r2
    print("criterion 5 PASS: ordering holds, invoke flat, R^2=%.6f" % r2)


def test_criterion_6_wallet_end_to_end_matches_reference():
    sim = Simulation(MachineConfig(frames=128))
    driver = EnclaveDriver(sim)
    fd = driver.create(image_for("wallet"))
    seed = ref.VECTOR_SEED
    master = ref.ref_master(seed)
    key0 = ref.ref_key(master, 0)
    msg = ref.VECTOR_MESSAGE
    kid = struct.pack("<I", 0)

    outcomes = [driver.invoke(fd, CMD_CREATE_MASTER, seed),
                driver.invoke(fd, CMD_DERIVE)]
    outcomes.append(driver.invoke(fd, CMD_ADDRESS, kid))
    outcomes.append(driver.invoke(fd, CMD_PUBKEY, kid))
    outcomes.append(driver.invoke(fd, CMD_SIGN, kid + msg))
    tag = outcomes[-1][1]
    outcomes.append(driver.invoke(fd, CMD_VERIFY, kid + msg + tag))
    assert all(status is ChannelStatus.DONE for status, _ in outcomes)
    assert [ret for _, ret in outcomes] == [
        b"ok", struct.pack("<I", 0), ref.ref_address(key0),
        ref.ref_pubkey(key0), ref.ref_tag(key0, msg), b"\x01"]
    assert tag == ref.VECTOR_TAG
    tampered = bytes([tag[0] ^ 0xFF]) + tag[1:]
    status, verdict = driver.invoke(fd, CMD_VERIFY, kid + msg + tampered)
    assert (status, verdict) == (ChannelStatus.DONE, b"\x00")
    print("criterion 6 PASS: six wallet commands byte-identical to the "
          "reference, tamper detected")


def test_criterion_7_identical_seed_gives_identical_trace(tmp_path):
    text = """
        machine frames=192
        seed 13
        create w wallet
        invoke w 1 rand:24
        invoke w 2
        timer 9
        create s spinner mem=4
        invoke s 1 hex:0800000003000000
        resume s
        adversary read s private 0
        expect fault unmapped
        destroy s
        destroy w
    """
    paths = []
    for run in range(2):
        result = run_scenario_text(text)
        assert result.ok, result.violations
        out = tmp_path / ("trace%d.jsonl" % run)
        result.sim.trace.write_jsonl(str(out))
        paths.append(out)
    a, b = (p.read_bytes() for p in paths)
    assert a == b
    print("criterion 7 PASS: replayed trace files byte-identical "
          "(%d bytes)" % len(a))


def test_criterion_8_failed_creates_change_nothing():
    """Each refused create is asserted once, in the tests that own its error
    path: the hypervisor's donation checks and the driver's rollbacks."""
    import test_guest_os
    import test_hypervisor
    checks = (test_hypervisor.test_failed_create_changes_nothing,
              test_hypervisor.test_unwritable_page_cannot_be_donated,
              test_hypervisor.test_vm_limit,
              test_guest_os.test_failed_create_rolls_back_allocator,
              test_guest_os.test_create_with_no_memory_rolls_back,
              test_guest_os.test_fd_table_fills_up)
    for check in checks:
        check()
    print("criterion 8 PASS: %d failed-create checks left every table, "
          "handle, allocation and fd bit-identical" % len(checks))
