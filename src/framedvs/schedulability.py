"""Danger zones, the schedulability limit, and the strategy check.

The plain zone z_i = D - (1/f_max) * sum(w_k for k >= i) is the last
start time from which tasks i..N can still be guaranteed to finish by
the deadline; ]z_i, D] is task i's danger zone. Overhead-aware variants
shift each zone by the per-switch time budget.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import FrameSystem, StrategySet, eval_step

__all__ = [
    "DangerZones",
    "Violation",
    "CheckReport",
    "danger_zones",
    "danger_zones_overhead",
    "limit",
    "check",
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


@dataclass(frozen=True)
class Violation:
    """First failing constraint; task and step numbers are 1-based."""

    task_number: int
    step_number: int
    required_hz: float
    provided_hz: float


@dataclass(frozen=True, kw_only=True)
class CheckReport:
    """The verdict is one field: the first violation, or None when schedulable."""

    violation: Violation | None = None

    @property
    def schedulable(self) -> bool:
        return self.violation is None

    def to_dict(self) -> dict:
        out: dict = {"schedulable": self.schedulable}
        if self.violation is not None:
            v = self.violation
            out["violation"] = {
                "task": v.task_number,
                "step": v.step_number,
                "required_hz": v.required_hz if math.isfinite(v.required_hz) else None,
                "provided_hz": v.provided_hz,
            }
        return out


def _zones(sys: FrameSystem, per_switch: float = 0.0, margin: float = 0.0) -> DangerZones:
    # One backward pass: z[i] = (z[i+1] - per_switch) - w_i/f_max and
    # targets[i] = z[i+1] - margin, which is z[i+1] bit for bit when margin is
    # 0.0. In plain and sufficient mode z[i] is bit for bit DangerZones.crossing
    # at f_max, so a built strategy's top step starting at z[i] passes its own check.
    f_max = sys.cpu.f_max
    z, targets = [sys.deadline], []
    for w in reversed(sys.wcecs):
        targets.append(z[-1] - margin)
        z.append((z[-1] - per_switch) - w / f_max)
    return DangerZones(tuple(reversed(z)), tuple(reversed(targets)))


def danger_zones(sys: FrameSystem) -> DangerZones:
    """Plain zones; negative values mean the system can never be scheduled."""
    return _zones(sys)


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
        per_switch = margin = 0.0
    elif mode == "necessary":
        per_switch, margin = sys.cpu.same_speed_at_max, 0.0
    elif mode == "sufficient":
        per_switch = margin = sys.cpu.change_penalty_max
    else:
        raise ValueError(f"unknown overhead mode {mode!r}")
    return _zones(sys, per_switch, margin)


def limit(sys: FrameSystem, zones: DangerZones, i: int, t: float) -> float:
    """Minimum frequency task ``i`` (0-based) needs when starting at ``t``.

    Grows hyperbolically toward the top frequency, which it reaches
    exactly at the start of the task's danger zone. ``check`` reads it for
    a violating step's required speed; the check and the builders place
    steps with its inverse, ``DangerZones.crossing``.
    """
    target = zones.targets[i]
    if t >= target:
        raise ValueError("past feasibility horizon")
    return sys.tasks[i].wcec / (target - t)


def check(sys: FrameSystem, strategy: StrategySet, zones: DangerZones) -> CheckReport:
    """Verify a strategy never drops below the limit before each danger zone.

    Tasks are scanned last to first and the first violation wins. A step
    violates when the constrained part of its interval outlasts the point
    where the limit crosses its frequency: evaluation points clamp to z_i
    (steps starting inside the danger zone impose nothing), and the last
    step reaching the zone must meet the top-frequency bound there. A
    negative first zone reports not-schedulable rather than raising, so
    deadline sweeps can pass through infeasible points. A step speed that
    is not in the CPU table raises ValueError: no run can execute it.
    """
    sys.step_modes(strategy)
    wcecs, funcs = sys.wcecs, strategy.funcs
    for i in range(sys.n_tasks - 1, -1, -1):
        zi = zones.z[i]
        if zi < 0:
            return CheckReport(violation=Violation(i + 1, 1, math.inf, eval_step(funcs[i], 0.0)))
        pts = funcs[i].points
        for k, (tk, fk) in enumerate(pts):
            if tk >= zi:
                break
            t_next = pts[k + 1][0] if k + 1 < len(pts) else math.inf
            bound = min(t_next, zi)
            if bound > zones.crossing(i, wcecs[i], fk):
                # a zone rounded onto its target leaves no time; f_max is what passes there
                on_time = bound < zones.targets[i]
                required = limit(sys, zones, i, bound) if on_time else sys.cpu.f_max
                return CheckReport(violation=Violation(i + 1, k + 1, required, fk))
    return CheckReport()
