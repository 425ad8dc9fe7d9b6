"""Core domain types for frame-based inter-task DVS scheduling.

Units are uniform across the package: frequencies in cycles/second,
times in seconds, energy in Joules. MHz values appearing in config
files are converted on ingestion.
"""
from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from itertools import repeat
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
    "eval_step",
    "normalize_steps",
    "quantize",
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
    except (OverflowError, TypeError):  # int(inf), int(None); int(nan) raises ValueError
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


# _exact_sum works through its input in blocks of this many elements, so its
# temporaries stay a few MB however long the input is
_SUM_BLOCK = 65_536


def _exact_sum(a: np.ndarray) -> float:
    """``math.fsum(a)`` without boxing each element; ``a`` is float64.

    Each block of 65,536 elements whose largest magnitude lies in
    ``[2**-961, 2**62)`` is scaled by the power of two (at most 2**1022)
    that puts that magnitude just under 2**62, which is exact. If every
    scaled value is an integer q, the block sum is the int64 sums of
    ``q >> 31`` and ``q & 0x7FFFFFFF``, each under 2**47 in magnitude and
    so exact; the running total is a Python int times a power of two, and
    one int/int division rounds it once. Every value within a factor of
    2**9 of the block maximum is such an integer, so frame energies and
    switch times take this path. An all-zero block adds nothing. Any other
    block (NaN, inf, a value that is no integer once scaled, a maximum
    outside that range) hands the whole array to ``math.fsum``, as do
    inputs under 1,024 elements. Both give the correctly rounded sum, which
    is unique: the same bits.
    """
    if len(a) < 1024:
        return math.fsum(a.tolist())
    total, e0 = 0, 0  # the sum so far is total * 2**(e0 - 53), e0 <= 0
    for i in range(0, len(a), _SUM_BLOCK):
        block = a[i:i + _SUM_BLOCK]
        top = max(float(block.max()), -float(block.min()))  # NaN fails both tests below
        if top == 0.0:
            continue
        if not 2.0**-961 <= top < 2.0**62:
            return math.fsum(a)
        s = 62 - math.frexp(top)[1]
        x = block * 2.0**s
        q = x.astype(np.int64)
        if not (q == x).all():
            return math.fsum(a)
        part = (int((q >> 31).sum()) << 31) + int((q & 0x7FFFFFFF).sum())
        e = 53 - s
        if e < e0:
            total, e0 = total << (e0 - e), e
        total += part << (e - e0)
    return total / (1 << (53 - e0))


# the largest count _count_at_or_below keeps in int8; read once, since np.iinfo
# costs about a microsecond and the frame lanes call the kernel per block and task
_INT8_MAX = int(np.iinfo(np.int8).max)


def _count_at_or_below(
    cuts: Sequence[float], x: np.ndarray, count8: np.ndarray, hit: np.ndarray
) -> np.ndarray:
    """``np.searchsorted(cuts, x, side="right")`` for sorted ``cuts``: how many
    cuts are ``<= x``, so a tie counts and a NaN ``x`` lies past every cut.

    Below 128 cuts the count fits in int8 and is ``len(cuts)`` less the cuts
    above ``x``, one pass per cut into ``count8`` (``hit`` is its bool
    scratch), which beats the binary search there (Devroye 1986, III.2);
    the int8 ``count8`` is returned. From 128 cuts on it is the binary search.
    """
    if len(cuts) > _INT8_MAX:
        return np.searchsorted(cuts, x, side="right")
    count8.fill(len(cuts))
    for c in cuts:
        count8 -= np.less(x, c, out=hit).view(np.int8)
    return count8


@dataclass(frozen=True)
class FrequencyTable:
    """Discrete CPU speeds with per-mode power and switch-time penalties.

    ``switch_penalty[i][j]`` is the time lost when a job switch changes the
    frequency from mode i to mode j; its diagonal must be 0, because
    ``same_speed_switch[j]`` is the job switch time when the frequency stays
    at mode j. The worst change penalty must be the slowest-to-fastest entry.

    ``switch_cost[i][j]`` is what a job switch from mode i to mode j costs:
    the change penalty off the diagonal, the same-speed time on it. It is
    derived, so it is no constructor argument and takes no part in equality.
    """

    freqs: tuple[float, ...]
    power: tuple[float, ...]
    switch_penalty: tuple[tuple[float, ...], ...] = ()
    same_speed_switch: tuple[float, ...] = ()
    switch_cost: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)
    mode_of: dict[float, int] = field(init=False, repr=False, compare=False)  # {freq: mode}, derived

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
        if any(map(operator.getitem, pt, range(m))):
            raise ValueError(
                "switch penalty diagonal must be 0: same-speed switch times go in"
                " same_speed_switch (st_vector_s)"
            )
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
        cost = tuple(row[:i] + (st[i],) + row[i + 1:] for i, row in enumerate(pt))
        object.__setattr__(self, "switch_cost", cost)
        object.__setattr__(self, "mode_of", {f: k for k, f in enumerate(freqs)})

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
        try:
            return self.mode_of[f]
        except KeyError:
            raise ValueError(f"frequency {f!r} is not in the table") from None


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

    def step_modes(self, strategy: "StrategySet") -> list[list[int]]:
        """Mode index of each step of each task; ValueError unless the strategy fits."""
        if len(strategy) != self.n_tasks:
            raise ValueError("strategy length does not match task count")
        mode_of = self.cpu.mode_of
        try:
            return [[mode_of[f] for _, f in fn.points] for fn in strategy.funcs]
        except KeyError as e:
            raise ValueError(f"frequency {e.args[0]!r} is not in the table") from None


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant scheduling function as ordered (time, frequency) points.

    The function holds points[k].f on [points[k].t, points[k+1].t) and the
    last value extends to infinity. Defined from time 0.
    """

    points: tuple[tuple[float, float], ...]
    _times: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple([(float(t), float(f)) for t, f in self.points])
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("step function needs at least one point")
        times, freqs = zip(*pts)
        if times[0] != 0.0:
            raise ValueError("step function must start at time 0")
        # ge and "0 >= f" let a NaN through, so it reaches the finite check
        if any(map(operator.ge, times, times[1:])):
            raise ValueError("step times must be strictly increasing")
        if any(map(operator.ge, repeat(0.0), freqs)):
            raise ValueError("frequencies must be positive")
        if not (all(map(math.isfinite, times)) and all(map(math.isfinite, freqs))):
            raise ValueError("step times and frequencies must be finite")
        object.__setattr__(self, "_times", times)


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
