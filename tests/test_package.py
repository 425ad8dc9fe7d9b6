"""The package surface: ``framedvs`` exports exactly its modules' ``__all__`` lists."""
import ast
from pathlib import Path

import framedvs
from framedvs import core, oracle, schedulability, simulator, strategies, workload

MODULES = (core, workload, schedulability, strategies, simulator, oracle)

PUBLIC = [
    "BetaVector", "CapExceededError", "CheckReport", "ContinuousRule", "CycleDistribution",
    "DangerZones", "FrameDvsError", "FrameResult", "FrameSystem", "FrequencyTable",
    "InfeasibleSystemError", "Schedulability", "SimStats", "SoftDeadlineResult",
    "SpeedRangeError", "StepFunction", "StrategySet", "SweepCell", "SweepTable", "TaskSpec",
    "Violation", "WorstCaseReport", "bin_trace", "build_limit", "build_soft_speed", "check",
    "convolve", "danger_zones", "danger_zones_overhead", "discretize", "dpms_rule",
    "eval_step", "evaluate", "exact_expectation", "limit", "limit_rule", "monte_carlo",
    "normalize_steps", "pitdvs_rule", "quantize", "recheck_prefix", "rule_from_forward",
    "run_frame", "run_frames", "soft_deadline", "sweep_deadlines", "validate_system",
    "worst_finish_oracle",
]


def test_exports_are_the_module_lists():
    assert sorted(framedvs.__all__) == sorted(PUBLIC)
    assert len(framedvs.__all__) == len(set(framedvs.__all__))
    assert framedvs.__all__ == [name for m in MODULES for name in m.__all__]


def test_each_export_is_its_defining_modules_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(framedvs, name) is getattr(m, name), name


def test_init_restates_no_name():
    tree = ast.parse(Path(framedvs.__file__).read_text())
    strings = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
    aliases = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               for a in n.names}
    assert not (strings | aliases) & set(PUBLIC)
