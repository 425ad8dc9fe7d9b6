"""Strategy builders: the Limit strategy and discretizations of
continuous speed rules (round-up and closest).

Every builder clamps step times with the inverse of the schedulability
limit, so its output passes the check by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .core import (
    FrameSystem,
    InfeasibleSystemError,
    StepFunction,
    StrategySet,
    normalize_steps,
    quantize,
)
from .schedulability import DangerZones

__all__ = [
    "ContinuousRule",
    "BetaVector",
    "build_limit",
    "build_soft_speed",
    "dpms_rule",
    "pitdvs_rule",
    "discretize",
    "limit_rule",
    "rule_from_forward",
]

BISECT_EPS = 1e-9


@dataclass(frozen=True)
class ContinuousRule:
    """A continuous speed rule given through its inverse.

    ``inverse(i, f)`` returns the time at which task i's continuous rule
    crosses speed f (-inf if the rule starts above f, +inf if it never
    reaches it). ``mode`` records the discretization the rule was
    prepared for; the discretizer's explicit mode argument wins.
    """

    inverse: Callable[[int, float], float]
    mode: str = "closest"
    name: str = "custom"


@dataclass(frozen=True)
class BetaVector:
    """Per-task aggressiveness levels in (0, 1]; 1 means no shortening."""

    beta: tuple[float, ...]

    def __post_init__(self) -> None:
        beta = tuple(float(b) for b in self.beta)
        object.__setattr__(self, "beta", beta)
        if any(not 0.0 < b <= 1.0 for b in beta):
            raise ValueError("beta values must lie in (0, 1]")

    @classmethod
    def ones(cls, n: int) -> "BetaVector":
        return cls((1.0,) * n)


def build_limit(sys: FrameSystem, zones: DangerZones) -> StrategySet:
    """Laziest schedulable strategy: the limit ceilinged to table speeds.

    Per task, the step up to frequency f_j starts where the limit crosses
    f_{j-1}; crossings before time 0 clamp to 0 and collapse in
    normalization.
    """
    return discretize(sys, zones, limit_rule(sys, zones), "up")


def dpms_rule(sys: FrameSystem, mode: str = "closest") -> ContinuousRule:
    """Speed rule that bets remaining tasks use their average cycles.

    The continuous speed at start time t is (sum of average cycles of
    this and the following tasks) / (D - t); the sum runs over the
    remaining tasks, reading the per-task averages from their
    distributions.
    """
    d = sys.deadline
    means = [t.dist.mean() for t in sys.tasks]
    remaining = [math.fsum(means[i:]) for i in range(len(means))]

    def inverse(i: int, f: float) -> float:
        return d - remaining[i] / f

    return ContinuousRule(inverse, mode=mode, name="dpms")


def pitdvs_rule(
    sys: FrameSystem, beta: BetaVector, pt: float, mode: str = "closest"
) -> ContinuousRule:
    """Patched inter-task rule with aggressiveness levels and a scalar
    change penalty.

    Task i's continuous speed at start time t is
    w_i / (beta_i * (D - pt*(N-1-i) - t)); the penalty term reserves time
    for the remaining switches. The penalty enters as a scalar, not the
    pairwise table.
    """
    if len(beta.beta) != sys.n_tasks:
        raise ValueError("beta length does not match task count")
    if not 0 <= pt < math.inf:
        raise ValueError("penalty must be finite and nonnegative")
    n = sys.n_tasks
    d = sys.deadline
    horizons = [d - pt * (n - 1 - i) for i in range(n)]
    if any(h <= 0 for h in horizons):
        raise InfeasibleSystemError("infeasible parameters: penalty budget swallows the frame")
    wc = sys.wcecs

    def inverse(i: int, f: float) -> float:
        return horizons[i] - wc[i] / (beta.beta[i] * f)

    return ContinuousRule(inverse, mode=mode, name="pitdvs")


def discretize(
    sys: FrameSystem, zones: DangerZones, rule: ContinuousRule, mode: str
) -> StrategySet:
    """Map a continuous rule onto table speeds, respecting the limit.

    mode="up" switches to f_j where the rule crosses f_{j-1} (round-up);
    mode="closest" switches where it crosses the midpoint between f_{j-1}
    and f_j (nearest frequency). Either way the switch happens no later
    than where the limit crosses f_{j-1}, which keeps the result
    schedulable.
    """
    if mode not in ("up", "closest"):
        raise ValueError(f"unknown discretize mode {mode!r}")
    if zones.z[0] < 0:
        raise InfeasibleSystemError(
            "infeasible: total worst-case work exceeds the deadline at top speed"
        )
    freqs = sys.cpu.freqs
    funcs = []
    for i, task in enumerate(sys.tasks):
        raw = [(0.0, freqs[0])]
        for j in range(1, len(freqs)):
            f_query = freqs[j - 1] if mode == "up" else (freqs[j - 1] + freqs[j]) / 2.0
            t_rule = rule.inverse(i, f_query)
            t_lim = zones.crossing(i, task.wcec, freqs[j - 1])
            raw.append((max(min(t_rule, t_lim), 0.0), freqs[j]))
        funcs.append(normalize_steps(raw))
    return StrategySet(tuple(funcs))


def rule_from_forward(
    forward: Callable[[int, float], float],
    horizon: float,
    mode: str = "closest",
    name: str = "custom",
    eps: float = BISECT_EPS,
) -> ContinuousRule:
    """Build a rule from a forward speed function by bisecting its inverse.

    ``forward(i, t)`` must be nondecreasing in t on [0, horizon]. The
    crossing time of speed f is resolved to within ``eps`` seconds.
    """

    def inverse(i: int, f: float) -> float:
        if forward(i, 0.0) >= f:
            return -math.inf
        if forward(i, horizon) < f:
            return math.inf
        lo, hi = 0.0, horizon
        while hi - lo > eps:
            mid = (lo + hi) / 2.0
            if forward(i, mid) >= f:
                hi = mid
            else:
                lo = mid
        return lo

    return ContinuousRule(inverse, mode=mode, name=name)


def build_soft_speed(sys: FrameSystem, soft) -> StrategySet:
    """Flat strategy sized for a relaxed frame deadline.

    Every task runs at the smallest table frequency not below
    frame_wcec / adjusted_deadline, i.e. the percentile workload fits the
    true deadline. Total demand exceeds that workload with probability at
    most the relaxation's eps, and only those frames can miss. Lazy
    builders cannot be used here: rebuilt against the relaxed deadline
    they push finishes toward it, far past the true deadline.
    """
    f_star = quantize(sys.cpu, soft.frame_wcec / soft.adjusted_deadline, "up")
    flat = StepFunction(((0.0, f_star),))
    return StrategySet(tuple(flat for _ in sys.tasks))


def limit_rule(sys: FrameSystem, zones: DangerZones) -> ContinuousRule:
    """The schedulability limit itself as a continuous rule."""
    wc = sys.wcecs
    return ContinuousRule(lambda i, f: zones.crossing(i, wc[i], f), mode="up", name="limit")

