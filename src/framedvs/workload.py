"""Cycle distributions: construction, sampling, moments, convolution,
and the soft-deadline transform. Atoms are read-only numpy arrays,
validated once on construction; uniform atoms are built on demand.

Histogram semantics: bin k holds the probability of using between
(k-1)*b cycles exclusive and k*b cycles inclusive. Samples, moments and
percentiles use the bin's upper edge, which never understates load.

Convolution is numpy-only: one FFT product on a shared integer grid,
read back only on the exact support of the sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .core import CapExceededError, as_cycle_array, as_cycles

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


@dataclass(frozen=True, eq=False)
class CycleDistribution:
    """Discrete distribution of a task's cycle demand.

    kind="uniform": integers lo..hi, equally likely. kind="histogram":
    bins of ``bin_size`` cycles with ``probs[k-1]`` the mass of bin k;
    draws and moments land on bin upper edges. kind="points": explicit
    atoms (convolution results, truncations). ``values`` (int64) and
    ``probs`` (float64) are read-only copies of the arguments.
    """

    kind: str
    lo: int = 0
    hi: int = 0
    bin_size: int = 0
    probs: np.ndarray = ()
    values: np.ndarray = ()

    def __post_init__(self) -> None:
        for name in ("lo", "hi", "bin_size"):
            object.__setattr__(self, name, as_cycles(getattr(self, name)))
        values = as_cycle_array(self.values)
        probs = np.array(self.probs, dtype=np.float64)
        for name, arr in (("values", values), ("probs", probs)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.kind == "uniform":
            if self.lo <= 0 or self.hi < self.lo:
                raise ValueError("uniform needs 0 < lo <= hi")
            return
        if self.kind == "histogram":
            if self.bin_size <= 0:
                raise ValueError("bin size must be positive")
        elif self.kind == "points":
            if not len(values):
                raise ValueError("empty support")
            if len(values) != len(probs):
                raise ValueError("values and probs lengths differ")
            if (np.diff(values) <= 0).any():
                raise ValueError("support must be strictly increasing")
            if values[0] <= 0:
                raise ValueError("cycle counts must be positive")
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not (probs >= 0).all():  # also rejects NaN; inf fails the sum
            raise ValueError("probabilities must be nonnegative")
        if abs(math.fsum(probs) - 1.0) > _PROB_TOL:
            raise ValueError("probabilities must sum to 1")

    def __eq__(self, other: object) -> bool:  # field by field, atom arrays elementwise
        return isinstance(other, CycleDistribution) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.lo, self.hi, self.bin_size))

    def __reduce__(self):  # copies go back through __post_init__, so atoms stay read-only
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    # -- constructors ---------------------------------------------------

    @classmethod
    def uniform(cls, lo: int, hi: int) -> "CycleDistribution":
        return cls("uniform", lo=lo, hi=hi)

    @classmethod
    def histogram(cls, bin_size: int, probs: Sequence[float]) -> "CycleDistribution":
        return cls("histogram", bin_size=bin_size, probs=probs)

    @classmethod
    def degenerate(cls, cycles: int) -> "CycleDistribution":
        """Single-bin histogram: always exactly ``cycles``."""
        return cls.histogram(cycles, (1.0,))

    @classmethod
    def from_points(cls, points: dict[int, float]) -> "CycleDistribution":
        items = sorted(points.items())
        return cls("points", values=[v for v, _ in items], probs=[p for _, p in items])

    # -- queries ---------------------------------------------------------

    @property
    def support_max(self) -> int:
        if self.kind == "uniform":
            return self.hi
        return int(self.atoms()[0][-1])

    def n_atoms(self) -> int:
        if self.kind == "uniform":
            return self.hi - self.lo + 1
        return len(self.atoms()[0])

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """Support values and masses; histograms drop empty bins, uniforms build anew."""
        if self.kind == "uniform":
            n = self.hi - self.lo + 1
            return (
                np.arange(self.lo, self.hi + 1, dtype=np.int64),
                np.full(n, 1.0 / n),
            )
        if self.kind == "histogram":
            k = (self.probs > 0).nonzero()[0]  # bin k + 1
            return (k + 1) * self.bin_size, self.probs[k]
        return self.values, self.probs

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
        cap = as_cycles(cap)
        if cap >= self.support_max:
            return self
        vals, mass = self.atoms()
        if cap < vals[0]:
            raise ValueError("cap below the smallest support value")
        k = int(np.searchsorted(vals, cap))  # atoms below cap keep their mass
        tail = np.cumsum(mass[k:])[-1]  # sequential sum, not np.sum's pairwise order
        return CycleDistribution(
            "points", values=np.append(vals[:k], cap), probs=np.append(mass[:k], tail)
        )

    def ranges(self) -> tuple[tuple[float, float], ...]:
        """Closed cycle-demand intervals covered by the distribution.

        Worst-case analysis treats demand as adversarial within the
        distribution's coverage: a histogram bin covers its full cycle
        range, a uniform covers lo..hi, and adjacent coverage merges.
        Explicit atoms stay degenerate.
        """
        return self._ranges

    @cached_property
    def _ranges(self) -> tuple[tuple[float, float], ...]:
        # computed once per distribution: the oracle asks on every call
        if self.kind == "histogram":
            b = self.bin_size
            bins = np.flatnonzero(self.probs > 0)  # bin k - 1
            return tuple(
                (float(first * b), float((last + 1) * b))
                for first, last in _runs(bins).tolist()
            )
        if self.kind == "uniform":
            return ((float(self.lo), float(self.hi)),)
        return tuple((float(v), float(v)) for v in self.values)


def bin_trace(raw_cycle_counts: Sequence[int], b: int) -> CycleDistribution:
    """Group observed cycle counts into fixed-size bins."""
    if len(raw_cycle_counts) == 0:
        raise ValueError("empty trace")
    b = as_cycles(b)
    if b <= 0:
        raise ValueError("bin size must be positive")
    c = as_cycle_array(raw_cycle_counts)
    if (c <= 0).any():
        raise ValueError("cycle counts must be positive")
    # ceil division: c lands in bin k, which covers ((k-1)b, kb]
    return CycleDistribution.histogram(b, np.bincount(-(-c // b))[1:] / len(c))


def _runs(idx: np.ndarray) -> np.ndarray:
    """Maximal runs of consecutive integers in sorted ``idx`` as (first, last) rows."""
    cut = np.flatnonzero(np.diff(idx) > 1)
    return np.column_stack((idx[np.append(0, cut + 1)], idx[np.append(cut, -1)]))


def _run_sum(a: np.ndarray, b: np.ndarray, cap: int) -> np.ndarray:
    """Runs of the Minkowski sum of two run sets; touching runs merge."""
    if len(a) * len(b) > cap:
        raise CapExceededError("convolution support exceeds cap")
    pairs = (a[:, None] + b[None]).reshape(-1, 2)
    pairs = pairs[np.argsort(pairs[:, 0])]
    reach = np.maximum.accumulate(pairs[:, 1])
    new = np.flatnonzero(np.append(True, pairs[1:, 0] > reach[:-1] + 1))
    return np.column_stack((pairs[new, 0], reach[np.append(new[1:], len(pairs)) - 1]))


def convolve(
    dists: Iterable[CycleDistribution], cap: int = CONVOLVE_CAP
) -> CycleDistribution:
    """Exact distribution of the sum of independent cycle demands.

    Every task's mass lies on one integer grid whose stride is the gcd
    of all support gaps. The product of all rfft spectra at one padded
    length gives the sum's mass in a single irfft, which is read, clipped
    at 0 and normalised, only on the sum's exact support: the Minkowski
    sum of each task's runs of consecutive grid indices. Raises
    ``CapExceededError`` when the grid or the run pairs exceed ``cap``.
    """
    dists = list(dists)
    if not dists:
        raise ValueError("nothing to convolve")
    # a lower bound on the grid, checked before any atom is built
    if sum(d.n_atoms() - 1 for d in dists) + 1 > cap:
        raise CapExceededError("convolution support exceeds cap")
    atoms = [d.atoms() for d in dists]
    stride = int(np.gcd.reduce(np.concatenate([np.diff(v) for v, _ in atoms]))) or 1
    idx = [(v - v[0]) // stride for v, _ in atoms]
    size = sum(int(k[-1]) for k in idx) + 1
    if size > cap:
        raise CapExceededError("convolution support exceeds cap")
    # FFT length: the smallest 2**a * 3**i * 5**j >= size, which numpy runs fast
    odd = [3**i * 5**j for i in range(16) for j in range(11)]
    n = min(m << ((size - 1) // m).bit_length() for m in odd)
    spectrum = np.ones(n // 2 + 1, dtype=np.complex128)
    runs = np.zeros((1, 2), dtype=np.int64)
    for k, (_, p) in zip(idx, atoms):
        spectrum *= np.fft.rfft(np.bincount(k, p), n)
        runs = _run_sum(runs, _runs(k), cap)
    lengths = runs[:, 1] - runs[:, 0] + 1
    support = np.repeat(runs[:, 0] - np.cumsum(lengths) + lengths, lengths)
    support += np.arange(len(support))
    mass = np.clip(np.fft.irfft(spectrum, n)[support], 0.0, None)
    mass /= mass.sum()
    offset = sum(int(v[0]) for v, _ in atoms)
    return CycleDistribution("points", values=offset + stride * support, probs=mass)


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
    # cdf[k] > 1 - eps first at k, so P[total < values[k + 1]] > 1 - eps
    k = int(np.searchsorted(np.cumsum(conv.probs), 1.0 - eps + _CDF_GRACE, side="right"))
    frame_percentile = int(conv.values[min(k + 1, len(conv.values) - 1)])
    adjusted = sys.deadline * frame_wcec / frame_percentile
    return SoftDeadlineResult(kappa, frame_wcec, frame_percentile, adjusted)
