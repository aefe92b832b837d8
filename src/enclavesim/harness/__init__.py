"""Adversarial verification harness.

Everything in here stands outside the simulator and checks it: shadow-state
oracles that recompute what the hypervisor claims, an attack playbook that
tries to break isolation on purpose, randomized fuzzers with reference
models, and a cost benchmark.  The harness talks to the simulator only
through observer hooks, guest-level accesses and raw physical inspection,
never through the hypervisor's private bookkeeping.
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
    ExpectationFailed,
    Scenario,
    ScenarioResult,
    parse_scenario,
    run_scenario,
    run_scenario_text,
)
from .attacks import AttackResult, run_attacks
from .bench import BenchReport, run_bench
from .fuzz import (
    FuzzReport,
    fuzz_failed_creates,
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
    "fuzz_failed_creates",
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
