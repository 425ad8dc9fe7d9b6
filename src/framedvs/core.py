"""Core domain types for frame-based inter-task DVS scheduling.

Units are uniform across the package: frequencies in cycles/second,
times in seconds, energy in Joules. MHz values appearing in config
files are converted on ingestion.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

__all__ = [
    "FrameDvsError",
    "InfeasibleSystemError",
    "SpeedRangeError",
    "CapExceededError",
    "FrequencyTable",
    "TaskSpec",
    "FrameSystem",
    "StepFunction",
    "StrategySet",
    "Schedulability",
    "as_cycle_array",
    "as_cycles",
    "eval_step",
    "normalize_steps",
    "quantize",
    "validate_system",
]


class FrameDvsError(Exception):
    """Base class for domain errors raised by this package."""


class InfeasibleSystemError(FrameDvsError):
    """No strategy can guarantee the deadline for this system."""


class SpeedRangeError(FrameDvsError):
    """A requested speed exceeds the maximum available frequency."""


class CapExceededError(FrameDvsError):
    """An exact computation would exceed its configured size cap."""


def as_cycles(v) -> int:
    """``v`` as an int cycle count; NaN, inf and fractions raise ValueError."""
    try:
        n = int(v)
    except OverflowError:  # int(inf); int(nan) raises ValueError itself
        raise ValueError(f"cycle count {v!r} is not an integer") from None
    if n != v:
        raise ValueError(f"cycle count {v!r} is not an integer")
    return n


def as_cycle_array(counts) -> np.ndarray:
    """An int64 copy of ``counts`` under the ``as_cycles`` rule."""
    v = np.asarray(counts)
    if v.size and v.dtype.kind not in "iu" and not (np.isfinite(v) & (v == np.round(v))).all():
        raise ValueError("cycle counts must be integers")
    return v.astype(np.int64)


@dataclass(frozen=True)
class FrequencyTable:
    """Discrete CPU speeds with per-mode power and switch-time penalties.

    ``switch_penalty[i][j]`` is the time lost when a job switch changes the
    frequency from mode i to mode j; ``same_speed_switch[j]`` is the job
    switch time when the frequency stays at mode j. The worst change
    penalty must be the slowest-to-fastest entry.
    """

    freqs: tuple[float, ...]
    power: tuple[float, ...]
    switch_penalty: tuple[tuple[float, ...], ...] = ()
    same_speed_switch: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        freqs = tuple(float(f) for f in self.freqs)
        power = tuple(float(p) for p in self.power)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "power", power)
        m = len(freqs)
        if m == 0:
            raise ValueError("frequency table is empty")
        if any(f <= 0 for f in freqs):
            raise ValueError("frequencies must be positive")
        if any(a >= b for a, b in zip(freqs, freqs[1:])):
            raise ValueError("frequencies must be strictly increasing")
        if len(power) != m:
            raise ValueError("power table length does not match frequencies")
        if any(p < 0 for p in power):
            raise ValueError("power values must be nonnegative")
        pt = self.switch_penalty or tuple((0.0,) * m for _ in range(m))
        pt = tuple(tuple(float(x) for x in row) for row in pt)
        st = tuple(float(x) for x in self.same_speed_switch or (0.0,) * m)
        if not all(map(math.isfinite, freqs + power + st + sum(pt, ()))):
            raise ValueError("frequency table values must be finite")
        if len(pt) != m or any(len(row) != m for row in pt):
            raise ValueError("switch penalty table must be MxM")
        if any(x < 0 for row in pt for x in row):
            raise ValueError("switch penalties must be nonnegative")
        if max(x for row in pt for x in row) != pt[0][m - 1]:
            raise ValueError(
                "worst change penalty must be the slowest-to-fastest entry"
            )
        if len(st) != m:
            raise ValueError("same-speed switch table length does not match")
        if any(x < 0 for x in st):
            raise ValueError("same-speed switch times must be nonnegative")
        object.__setattr__(self, "switch_penalty", pt)
        object.__setattr__(self, "same_speed_switch", st)

    @property
    def n_modes(self) -> int:
        return len(self.freqs)

    @property
    def f_min(self) -> float:
        return self.freqs[0]

    @property
    def f_max(self) -> float:
        return self.freqs[-1]

    @property
    def change_penalty_max(self) -> float:
        """Worst change penalty (slowest-to-fastest entry)."""
        return self.switch_penalty[0][-1]

    @property
    def same_speed_at_max(self) -> float:
        """Job switch time when staying at the top frequency."""
        return self.same_speed_switch[-1]

    def index_of(self, f: float) -> int:
        """Exact mode index of frequency ``f``; raises if not a table entry."""
        k = bisect.bisect_left(self.freqs, f)
        if k == len(self.freqs) or self.freqs[k] != f:
            raise ValueError(f"frequency {f!r} is not in the table")
        return k


@dataclass(frozen=True)
class TaskSpec:
    """One task: worst-case execution cycles plus its cycle distribution."""

    wcec: int
    dist: "CycleDistribution"  # noqa: F821 - workload module
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "wcec", as_cycles(self.wcec))
        if self.wcec <= 0:
            raise ValueError("wcec must be a positive cycle count")
        if self.dist.support_max > self.wcec:
            raise ValueError("distribution support exceeds wcec")


@dataclass(frozen=True)
class FrameSystem:
    """N tasks sharing one frame deadline, run in list order on one CPU."""

    tasks: tuple[TaskSpec, ...]
    deadline: float
    cpu: FrequencyTable

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if not self.tasks:
            raise ValueError("system needs at least one task")
        if not 0 < self.deadline < math.inf:
            raise ValueError("deadline must be positive and finite")

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def wcecs(self) -> tuple[int, ...]:
        return tuple(t.wcec for t in self.tasks)


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant scheduling function as ordered (time, frequency) points.

    The function holds points[k].f on [points[k].t, points[k+1].t) and the
    last value extends to infinity. Defined from time 0.
    """

    points: tuple[tuple[float, float], ...]
    _times: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple((float(t), float(f)) for t, f in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("step function needs at least one point")
        if pts[0][0] != 0.0:
            raise ValueError("step function must start at time 0")
        times = tuple(t for t, _ in pts)
        if any(a >= b for a, b in zip(times, times[1:])):
            raise ValueError("step times must be strictly increasing")
        if any(f <= 0 for _, f in pts):
            raise ValueError("frequencies must be positive")
        if not all(math.isfinite(t) and math.isfinite(f) for t, f in pts):
            raise ValueError("step times and frequencies must be finite")
        object.__setattr__(self, "_times", times)

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class StrategySet:
    """One step function per task; together they form a scheduling strategy."""

    funcs: tuple[StepFunction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "funcs", tuple(self.funcs))
        if not self.funcs:
            raise ValueError("strategy set is empty")

    def __len__(self) -> int:
        return len(self.funcs)


class Schedulability(Enum):
    NEVER = "never_schedulable"
    ALWAYS = "always_schedulable"
    DEPENDS = "depends"


def eval_step(s: StepFunction, t: float) -> float:
    """Frequency used by a task that starts at time ``t``.

    Binary-search lookup of the last point at or before t; beyond the last
    point the final frequency extends forever.
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    k = bisect.bisect_right(s._times, t) - 1
    return s.points[k][1]


def normalize_steps(raw_points: Sequence[tuple[float, float]]) -> StepFunction:
    """Canonicalize builder output into a valid step function.

    Duplicate times keep the last appended frequency (the clamp used by the
    builders can emit several points at t=0); consecutive points with the
    same frequency merge.
    """
    if not raw_points:
        raise ValueError("no points to normalize")
    pts: list[tuple[float, float]] = []
    last_t = None
    for t, f in raw_points:
        t = float(t)
        f = float(f)
        if last_t is not None and t < last_t:
            raise ValueError("step times must be nondecreasing")
        if pts and pts[-1][0] == t:
            pts[-1] = (t, f)  # last appended wins
        else:
            pts.append((t, f))
        last_t = t
    merged: list[tuple[float, float]] = [pts[0]]
    for t, f in pts[1:]:
        if f != merged[-1][1]:
            merged.append((t, f))
    return StepFunction(tuple(merged))


def quantize(cpu: FrequencyTable, x: float, mode: str) -> float:
    """Map a continuous speed onto the table.

    mode="up": smallest table frequency not below x. mode="closest":
    nearest table frequency, ties going up (the midpoint between two
    frequencies maps to the higher one).
    """
    if mode == "up":
        if x > cpu.f_max:
            raise SpeedRangeError(f"{x!r} exceeds maximum speed {cpu.f_max!r}")
        k = bisect.bisect_left(cpu.freqs, x)
        return cpu.freqs[k]
    if mode == "closest":
        if x <= 0:
            return cpu.f_min
        mids = [
            (a + b) / 2.0 for a, b in zip(cpu.freqs, cpu.freqs[1:])
        ]
        k = bisect.bisect_right(mids, x)
        return cpu.freqs[k]
    raise ValueError(f"unknown quantize mode {mode!r}")


def validate_system(sys: FrameSystem) -> Schedulability:
    """Coarse classification from total worst-case work alone.

    More work than fits at top speed can never be scheduled; work that fits
    at the lowest speed always can; anything in between depends on the
    strategy.
    """
    total = sum(sys.wcecs)
    if total / sys.cpu.f_max > sys.deadline:
        return Schedulability.NEVER
    if total / sys.cpu.f_min <= sys.deadline:
        return Schedulability.ALWAYS
    return Schedulability.DEPENDS
