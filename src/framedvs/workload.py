"""Cycle distributions: construction, sampling, moments, convolution,
and the soft-deadline transform.

Histogram semantics: bin k holds the probability of using between
(k-1)*b cycles exclusive and k*b cycles inclusive. Samples, moments and
percentiles use the bin's upper edge, which never understates load.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .core import CapExceededError

if TYPE_CHECKING:
    from .core import FrameSystem

__all__ = [
    "CycleDistribution",
    "SoftDeadlineResult",
    "bin_trace",
    "convolve",
    "soft_deadline",
]

_PROB_TOL = 1e-12
# Grace applied to cumulative-probability comparisons so exact rational
# masses (e.g. ten 0.1 bins) are not missed to float rounding.
_CDF_GRACE = 1e-9

CONVOLVE_CAP = 10_000_000


@dataclass(frozen=True)
class CycleDistribution:
    """Discrete distribution of a task's cycle demand.

    kind="uniform": integers lo..hi, equally likely. kind="histogram":
    bins of ``bin_size`` cycles with ``probs[k-1]`` the mass of bin k;
    draws and moments land on bin upper edges. kind="points": explicit
    atoms (convolution results, truncations).
    """

    kind: str
    lo: int = 0
    hi: int = 0
    bin_size: int = 0
    probs: tuple[float, ...] = ()
    values: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "uniform":
            if self.lo <= 0 or self.hi < self.lo:
                raise ValueError("uniform needs 0 < lo <= hi")
        elif self.kind == "histogram":
            if self.bin_size <= 0:
                raise ValueError("bin size must be positive")
            self._validate_probs(self.probs)
            if not any(p > 0 for p in self.probs):
                raise ValueError("all bins empty")
        elif self.kind == "points":
            if not self.values:
                raise ValueError("empty support")
            if len(self.values) != len(self.probs):
                raise ValueError("values and probs lengths differ")
            if any(a >= b for a, b in zip(self.values, self.values[1:])):
                raise ValueError("support must be strictly increasing")
            if self.values[0] <= 0:
                raise ValueError("cycle counts must be positive")
            self._validate_probs(self.probs)
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    @staticmethod
    def _validate_probs(probs) -> None:
        if not all(p >= 0 for p in probs):  # also rejects NaN; inf fails the sum
            raise ValueError("probabilities must be nonnegative")
        if abs(math.fsum(probs) - 1.0) > _PROB_TOL:
            raise ValueError("probabilities must sum to 1")

    # -- constructors ---------------------------------------------------

    @classmethod
    def uniform(cls, lo: int, hi: int) -> "CycleDistribution":
        return cls("uniform", lo=int(lo), hi=int(hi))

    @classmethod
    def histogram(cls, bin_size: int, probs: Sequence[float]) -> "CycleDistribution":
        return cls(
            "histogram",
            bin_size=int(bin_size),
            probs=tuple(float(p) for p in probs),
        )

    @classmethod
    def degenerate(cls, cycles: int) -> "CycleDistribution":
        """Single-bin histogram: always exactly ``cycles``."""
        return cls.histogram(int(cycles), (1.0,))

    @classmethod
    def from_points(cls, points: dict[int, float]) -> "CycleDistribution":
        items = sorted(points.items())
        return cls(
            "points",
            values=tuple(int(v) for v, _ in items),
            probs=tuple(float(p) for _, p in items),
        )

    # -- queries ---------------------------------------------------------

    @property
    def support_max(self) -> int:
        if self.kind == "uniform":
            return self.hi
        if self.kind == "histogram":
            top = max(k for k, p in enumerate(self.probs, start=1) if p > 0)
            return top * self.bin_size
        return self.values[-1]

    def n_atoms(self) -> int:
        if self.kind == "uniform":
            return self.hi - self.lo + 1
        if self.kind == "histogram":
            return sum(1 for p in self.probs if p > 0)
        return len(self.values)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Support values and probabilities as arrays."""
        if self.kind == "uniform":
            n = self.hi - self.lo + 1
            return (
                np.arange(self.lo, self.hi + 1, dtype=np.int64),
                np.full(n, 1.0 / n),
            )
        if self.kind == "histogram":
            vals = [k * self.bin_size for k, p in enumerate(self.probs, start=1) if p > 0]
            mass = [p for p in self.probs if p > 0]
            return np.asarray(vals, dtype=np.int64), np.asarray(mass)
        return np.asarray(self.values, dtype=np.int64), np.asarray(self.probs)

    def mean(self) -> float:
        """Exact expectation over the mass function."""
        if self.kind == "uniform":
            return (self.lo + self.hi) / 2.0
        vals, mass = self.atoms()
        return float(np.dot(vals, mass))

    def percentile(self, eps: float) -> int:
        """Smallest support value kappa with P[c <= kappa] >= 1 - eps."""
        if not 0.0 < eps < 1.0:
            raise ValueError("eps must be in (0, 1)")
        if self.kind == "uniform":
            n = self.hi - self.lo + 1
            k = math.ceil((1.0 - eps) * n - _CDF_GRACE)
            return self.lo + max(k, 1) - 1
        vals, mass = self.atoms()
        cdf = np.cumsum(mass)
        k = int(np.searchsorted(cdf, 1.0 - eps - _CDF_GRACE, side="left"))
        return int(vals[min(k, len(vals) - 1)])

    def sample_array(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Vectorized draws via inverse CDF on one uniform per draw."""
        u = rng.random(size)
        if self.kind == "uniform":
            n = self.hi - self.lo + 1
            idx = np.minimum((u * n).astype(np.int64), n - 1)
            return self.lo + idx
        vals, mass = self.atoms()
        cdf = np.cumsum(mass)
        idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(vals) - 1)
        return vals[idx]

    def sample(self, rng: np.random.Generator) -> int:
        """One draw from the distribution."""
        return int(self.sample_array(rng, 1)[0])

    def truncated(self, cap: int) -> "CycleDistribution":
        """Clamp demand at ``cap`` cycles, moving excess mass onto cap.

        Used when a percentile stands in as the worst case: the tail
        beyond it is treated as if it stopped there.
        """
        cap = int(cap)
        if cap >= self.support_max:
            return self
        vals, mass = self.atoms()
        if cap < int(vals[0]):
            raise ValueError("cap below the smallest support value")
        points: dict[int, float] = {}
        for v, p in zip(vals, mass):
            key = min(int(v), cap)
            points[key] = points.get(key, 0.0) + float(p)
        return CycleDistribution.from_points(points)

    def ranges(self) -> tuple[tuple[float, float], ...]:
        """Closed cycle-demand intervals covered by the distribution.

        Worst-case analysis treats demand as adversarial within the
        distribution's coverage: a histogram bin covers its full cycle
        range, a uniform covers lo..hi, and adjacent coverage merges.
        Explicit atoms stay degenerate.
        """
        if self.kind == "histogram":
            b = self.bin_size
            ivs = [
                (float((k - 1) * b), float(k * b))
                for k, p in enumerate(self.probs, start=1)
                if p > 0
            ]
            merged = [list(ivs[0])]
            for lo, hi in ivs[1:]:
                if lo <= merged[-1][1]:
                    merged[-1][1] = hi
                else:
                    merged.append([lo, hi])
            return tuple((lo, hi) for lo, hi in merged)
        if self.kind == "uniform":
            return ((float(self.lo), float(self.hi)),)
        return tuple((float(v), float(v)) for v in self.values)


def bin_trace(raw_cycle_counts: Sequence[int], b: int) -> CycleDistribution:
    """Group observed cycle counts into fixed-size bins."""
    if len(raw_cycle_counts) == 0:
        raise ValueError("empty trace")
    b = int(b)
    if b <= 0:
        raise ValueError("bin size must be positive")
    counts: dict[int, int] = {}
    for c in raw_cycle_counts:
        c = int(c)
        if c <= 0:
            raise ValueError("cycle counts must be positive")
        k = -(-c // b)  # ceil division: c lands in ((k-1)b, kb]
        counts[k] = counts.get(k, 0) + 1
    kmax = max(counts)
    total = len(raw_cycle_counts)
    probs = [counts.get(k, 0) / total for k in range(1, kmax + 1)]
    return CycleDistribution.histogram(b, probs)


def _dense(values: np.ndarray, probs: np.ndarray) -> tuple[int, int, np.ndarray]:
    """(offset, stride, mass) with mass[k] = P[offset + k*stride]."""
    if len(values) == 1:
        return int(values[0]), 1, np.asarray(probs, dtype=np.float64)
    stride = int(np.gcd.reduce(np.diff(values)))
    offset = int(values[0])
    mass = np.zeros((int(values[-1]) - offset) // stride + 1)
    mass[(values - offset) // stride] = probs
    return offset, stride, mass


def convolve(
    dists: Iterable[CycleDistribution], cap: int = CONVOLVE_CAP
) -> CycleDistribution:
    """Exact distribution of the sum of independent cycle demands.

    Works on a dense integer grid per pair (stride = gcd of the two
    grids); small pairs convolve directly, large ones via FFT with the
    negligible mass noise clipped away.
    """
    dists = list(dists)
    if not dists:
        raise ValueError("nothing to convolve")
    off, stride, mass = _dense(*dists[0].atoms())
    for d in dists[1:]:
        off2, stride2, mass2 = _dense(*d.atoms())
        g = math.gcd(stride, stride2)
        n1 = (len(mass) - 1) * (stride // g) + 1
        n2 = (len(mass2) - 1) * (stride2 // g) + 1
        if n1 + n2 - 1 > cap:
            raise CapExceededError("convolution support exceeds cap")
        a = np.zeros(n1)
        a[:: stride // g] = mass
        b = np.zeros(n2)
        b[:: stride2 // g] = mass2
        if n1 * n2 <= 4_000_000:
            mass = np.convolve(a, b)
        else:
            from scipy.signal import fftconvolve

            mass = np.clip(fftconvolve(a, b), 0.0, None)
            mass /= mass.sum()
        off, stride = off + off2, g
    keep = np.nonzero(mass > 0.0)[0]
    return CycleDistribution(
        "points",
        values=tuple(int(off + k * stride) for k in keep),
        probs=tuple(float(mass[k]) for k in keep),
    )


@dataclass(frozen=True)
class SoftDeadlineResult:
    """Per-task cycle percentiles and the relaxed frame deadline they imply."""

    kappa: tuple[int, ...]
    frame_wcec: int
    frame_percentile: int
    adjusted_deadline: float


def soft_deadline(sys: "FrameSystem", eps: float) -> SoftDeadlineResult:
    """Percentile-based deadline relaxation for soft real-time frames.

    The frame-level percentile is the smallest total-cycle value c on the
    convolution's support with P[total < c] > 1 - eps; scaling the
    deadline by (total worst case) / c keeps the miss probability near
    eps. A heuristic, not a guarantee.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    kappa = tuple(t.dist.percentile(eps) for t in sys.tasks)
    frame_wcec = sum(sys.wcecs)
    conv = convolve(t.dist for t in sys.tasks)
    cum = np.cumsum(conv.probs)
    cdf_below = np.concatenate(([0.0], cum[:-1]))  # P[total < c] per support c
    hits = np.nonzero(cdf_below > 1.0 - eps + _CDF_GRACE)[0]
    idx = int(hits[0]) if len(hits) else len(conv.values) - 1
    frame_percentile = conv.values[idx]
    adjusted = sys.deadline * frame_wcec / frame_percentile
    return SoftDeadlineResult(kappa, frame_wcec, frame_percentile, adjusted)
