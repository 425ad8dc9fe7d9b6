"""Frame-based inter-task DVS scheduling toolkit.

Builds discrete-frequency step-function strategies, verifies them with a
sound schedulability check (exact on strategies that stay at or above
the limit past each task's reachable start times; it may reject a
strategy that dips below the limit only where no run starts), and simulates expedient
frame execution to compare the energy of round-up versus closest
discretizations of continuous speed rules.
"""
from .core import (
    CapExceededError,
    FrameDvsError,
    FrameSystem,
    FrequencyTable,
    InfeasibleSystemError,
    Schedulability,
    SpeedRangeError,
    StepFunction,
    StrategySet,
    TaskSpec,
    eval_step,
    normalize_steps,
    quantize,
    validate_system,
)
from .workload import (
    CycleDistribution,
    SoftDeadlineResult,
    bin_trace,
    convolve,
    soft_deadline,
)
from .schedulability import (
    CheckReport,
    DangerZones,
    Violation,
    check,
    danger_zones,
    danger_zones_overhead,
    limit,
    recheck_prefix,
)
from .strategies import (
    BetaVector,
    ContinuousRule,
    build_limit,
    build_soft_speed,
    discretize,
    dpms_rule,
    limit_rule,
    pitdvs_rule,
    rule_from_forward,
)
from .simulator import (
    FrameResult,
    SimStats,
    SweepCell,
    SweepTable,
    exact_expectation,
    monte_carlo,
    run_frame,
    run_frames,
    sweep_deadlines,
)
from .oracle import WorstCaseReport, worst_finish_oracle

__version__ = "0.1.0"

__all__ = [
    "BetaVector",
    "CapExceededError",
    "CheckReport",
    "ContinuousRule",
    "CycleDistribution",
    "DangerZones",
    "FrameDvsError",
    "FrameResult",
    "FrameSystem",
    "FrequencyTable",
    "InfeasibleSystemError",
    "Schedulability",
    "SimStats",
    "SoftDeadlineResult",
    "SpeedRangeError",
    "StepFunction",
    "StrategySet",
    "SweepCell",
    "SweepTable",
    "TaskSpec",
    "Violation",
    "WorstCaseReport",
    "bin_trace",
    "build_limit",
    "build_soft_speed",
    "check",
    "convolve",
    "danger_zones",
    "danger_zones_overhead",
    "discretize",
    "dpms_rule",
    "eval_step",
    "exact_expectation",
    "limit",
    "limit_rule",
    "monte_carlo",
    "normalize_steps",
    "pitdvs_rule",
    "quantize",
    "recheck_prefix",
    "rule_from_forward",
    "run_frame",
    "run_frames",
    "soft_deadline",
    "sweep_deadlines",
    "validate_system",
    "worst_finish_oracle",
]
