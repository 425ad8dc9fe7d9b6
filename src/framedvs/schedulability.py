"""Danger zones, the schedulability limit, and the strategy check.

The plain zone z_i = D - (1/f_max) * sum(w_k for k >= i) is the last
start time from which tasks i..N can still be guaranteed to finish by
the deadline; ]z_i, D] is task i's danger zone. Overhead-aware variants
shift each zone by the per-switch time budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import FrameSystem, StepFunction, StrategySet, as_cycles, eval_step

__all__ = [
    "DangerZones",
    "Schedulability",
    "Violation",
    "CheckReport",
    "danger_zones",
    "danger_zones_overhead",
    "limit",
    "check",
    "recheck_prefix",
    "validate_system",
]


@dataclass(frozen=True)
class DangerZones:
    """Start-time bounds z_1..z_{N+1}; the last entry is the deadline.

    ``targets[i]`` is the time by which task i (0-based) must finish; it
    defaults to the next zone start z[i+1].
    """

    z: tuple[float, ...]
    targets: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        z = tuple(float(v) for v in self.z)
        object.__setattr__(self, "z", z)
        targets = z[1:] if self.targets is None else tuple(float(v) for v in self.targets)
        if len(targets) != len(z) - 1:
            raise ValueError("need one finish target per task")
        object.__setattr__(self, "targets", targets)

    def crossing(self, i: int, w: float, f: float) -> float:
        """Start time at which task i's limit w / (targets[i] - t) reaches speed f.

        The check and every builder place and test step times with this
        one expression, so a built strategy passes its own check exactly.
        """
        return self.targets[i] - w / f


class Schedulability(Enum):
    NEVER = "never_schedulable"
    ALWAYS = "always_schedulable"
    DEPENDS = "depends"


@dataclass(frozen=True)
class Violation:
    """First failing constraint; task and step numbers are 1-based."""

    task_number: int
    step_number: int
    required_hz: float
    provided_hz: float


@dataclass(frozen=True)
class CheckReport:
    schedulable: bool
    violation: Violation | None = None

    def __post_init__(self) -> None:
        if self.schedulable == (self.violation is not None):
            raise ValueError("violation present iff not schedulable")

    def to_dict(self) -> dict:
        out: dict = {"schedulable": self.schedulable}
        if self.violation is not None:
            v = self.violation
            out["violation"] = {
                "task": v.task_number,
                "step": v.step_number,
                "required_hz": v.required_hz,
                "provided_hz": v.provided_hz,
            }
        return out


def _zones_from_wcecs(
    wcecs, deadline: float, f_max: float, per_switch: float = 0.0
) -> list[float]:
    # Backward chain z[i] = (z[i+1] - per_switch) - w_i/f_max. In plain and
    # sufficient mode this is bit for bit DangerZones.crossing at f_max, so a
    # built strategy's top step starting at z[i] passes its own check.
    z = [0.0] * (len(wcecs) + 1)
    z[len(wcecs)] = deadline
    for i in range(len(wcecs) - 1, -1, -1):
        z[i] = (z[i + 1] - per_switch) - wcecs[i] / f_max
    return z


def danger_zones(sys: FrameSystem) -> DangerZones:
    """Plain zones; negative values mean the system can never be scheduled."""
    return DangerZones(tuple(_zones_from_wcecs(sys.wcecs, sys.deadline, sys.cpu.f_max)))


def danger_zones_overhead(sys: FrameSystem, mode: str) -> DangerZones:
    """Zones shifted by one job-switch time budget per remaining task.

    mode="plain" budgets nothing (the zones of ``danger_zones``);
    mode="necessary" budgets the same-speed switch time at top frequency;
    mode="sufficient" budgets the worst change penalty. The deadline entry
    gets zero budget.

    Sufficient mode also moves every finish target one worst change
    penalty before the next zone. A task reads its frequency when the
    previous task ends and only then pays the change penalty, so
    guaranteeing a start by the next zone requires finishing one penalty
    earlier. Without this margin a strategy can satisfy the per-zone
    inequality and still overrun the deadline by up to one penalty.
    """
    if mode == "plain":
        per_switch = 0.0
    elif mode == "necessary":
        per_switch = sys.cpu.same_speed_at_max
    elif mode == "sufficient":
        per_switch = sys.cpu.change_penalty_max
    else:
        raise ValueError(f"unknown overhead mode {mode!r}")
    z = _zones_from_wcecs(sys.wcecs, sys.deadline, sys.cpu.f_max, per_switch)
    targets = tuple(zk - per_switch for zk in z[1:]) if mode == "sufficient" else None
    return DangerZones(tuple(z), targets)


def limit(sys: FrameSystem, zones: DangerZones, i: int, t: float) -> float:
    """Minimum frequency task ``i`` (0-based) needs when starting at ``t``.

    Grows hyperbolically toward the top frequency, which it reaches
    exactly at the start of the task's danger zone.
    """
    target = zones.targets[i]
    if t >= target:
        raise ValueError("past feasibility horizon")
    return sys.tasks[i].wcec / (target - t)


def _check_zones(
    wcecs, funcs: tuple[StepFunction, ...], zones: DangerZones, upto: int
) -> CheckReport:
    """Scan tasks upto-1 .. 0 against the zones, first violation wins.

    A step violates when the constrained part of its interval outlasts
    the point where the limit crosses its frequency.
    """
    for i in range(upto - 1, -1, -1):
        zi = zones.z[i]
        if zi < 0:
            return CheckReport(
                False,
                Violation(i + 1, 1, math.inf, eval_step(funcs[i], 0.0)),
            )
        pts = funcs[i].points
        for k, (tk, fk) in enumerate(pts):
            if tk >= zi:
                break
            t_next = pts[k + 1][0] if k + 1 < len(pts) else math.inf
            bound = min(t_next, zi)
            if bound > zones.crossing(i, wcecs[i], fk):
                required = wcecs[i] / (zones.targets[i] - bound)
                return CheckReport(False, Violation(i + 1, k + 1, required, fk))
    return CheckReport(True)


def check(sys: FrameSystem, strategy: StrategySet, zones: DangerZones) -> CheckReport:
    """Verify a strategy never drops below the limit before each danger zone.

    Each step is held to the limit at the end of the part of its interval
    that lies before the zone start: evaluation points clamp to z_i (steps
    starting inside the danger zone impose nothing), and the last step
    reaching the zone must meet the top-frequency bound there. A negative
    first zone reports not-schedulable rather than raising, so deadline
    sweeps can pass through infeasible points. A step speed that is not
    in the CPU table raises ValueError: no run can execute it.
    """
    sys.step_modes(strategy)
    return _check_zones(sys.wcecs, strategy.funcs, zones, sys.n_tasks)


def recheck_prefix(
    sys: FrameSystem, strategy: StrategySet, i: int, new_w: int
) -> CheckReport:
    """Re-verify tasks 0..i (0-based) after task i's worst case grew to new_w.

    Zones for later tasks do not depend on w_i, so their verdicts are
    unaffected and only the prefix needs rechecking. Uses plain zones.
    """
    if not 0 <= i < sys.n_tasks:
        raise ValueError("task index out of range")
    new_w = as_cycles(new_w)
    if new_w <= 0:
        raise ValueError("new wcec must be positive")
    sys.step_modes(strategy)
    wcecs = list(sys.wcecs)
    wcecs[i] = new_w
    zones = DangerZones(tuple(_zones_from_wcecs(wcecs, sys.deadline, sys.cpu.f_max)))
    return _check_zones(wcecs, strategy.funcs, zones, i + 1)


def validate_system(sys: FrameSystem) -> Schedulability:
    """NEVER exactly when the builders raise InfeasibleSystemError (z_1 < 0);
    ALWAYS when the total work fits at the lowest speed; else DEPENDS."""
    if danger_zones(sys).z[0] < 0:
        return Schedulability.NEVER
    if sum(sys.wcecs) / sys.cpu.f_min <= sys.deadline:
        return Schedulability.ALWAYS
    return Schedulability.DEPENDS
