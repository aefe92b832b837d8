"""Adversarial verification harness.

Everything in here stands outside the simulator and checks it: shadow-state
oracles that recompute what the hypervisor claims, an attack playbook that
tries to break isolation on purpose (five scenario scripts in ``playbook/``),
randomized fuzzers with reference models, and a cost benchmark.  The harness
acts on the simulator through the enclave driver, the hypervisor's public
calls and guest-level accesses, and watches it through observer hooks and
raw physical inspection.  Its checks also read the hypervisor's own records:
``check_frame_exclusivity``, the confinement oracle and the secret scanner
read the stage-2 tables of ``hv.vms``, ``check_stack_integrity`` reads each
pCPU's vCPU stack, ``hv.vms`` and ``hv.enclaves``, the stack fuzzer reads
each pCPU's stack and every vCPU's pending flag.  ``sabotage_teardown``
wraps the real ``Hypervisor._teardown`` on one instance and redirects that
machine's ``zero_frame`` while it runs, so the core has no seam for it.
"""
from .oracles import (
    MemoryOracle,
    ReferenceStackModel,
    SecretScanner,
    WriteConfinementOracle,
    ZeroizeWatch,
    check_allocator_conservation,
    check_frame_exclusivity,
    check_stack_integrity,
    check_trace_completeness,
    standard_checks,
)
from .scenario import (
    AttackResult,
    ExpectationFailed,
    Scenario,
    ScenarioResult,
    parse_scenario,
    run_attacks,
    run_scenario,
    run_scenario_text,
)
from .bench import BenchReport, run_bench
from .fuzz import (
    FuzzReport,
    fuzz_lifecycles,
    fuzz_mixed,
    fuzz_stack_ops,
    sabotage_teardown,
    verify_oracle_sensitivity,
)

__all__ = [
    "AttackResult",
    "BenchReport",
    "ExpectationFailed",
    "FuzzReport",
    "MemoryOracle",
    "ReferenceStackModel",
    "Scenario",
    "ScenarioResult",
    "SecretScanner",
    "WriteConfinementOracle",
    "ZeroizeWatch",
    "check_allocator_conservation",
    "check_frame_exclusivity",
    "check_stack_integrity",
    "check_trace_completeness",
    "fuzz_lifecycles",
    "fuzz_mixed",
    "fuzz_stack_ops",
    "parse_scenario",
    "run_attacks",
    "run_bench",
    "run_scenario",
    "run_scenario_text",
    "sabotage_teardown",
    "standard_checks",
    "verify_oracle_sensitivity",
]
