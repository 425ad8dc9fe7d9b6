"""Cycle distributions: construction, sampling, moments, convolution,
and the soft-deadline transform. Atoms are read-only numpy arrays,
validated once on construction; uniform atoms are built on demand,
and convolution never asks for them.

Histogram semantics: bin k holds the probability of using between
(k-1)*b cycles exclusive and k*b cycles inclusive. Samples, moments and
percentiles use the bin's upper edge, which never understates load.

Convolution is numpy-only: running sums on a shared integer grid, one
cumulative sum per task and one shifted difference per run of equal
mass, read back only on the exact support of the sum. A uniform is one
run read from lo and hi, and a run that covers its task's whole grid is
written back into the one grid buffer in chunks, top chunk first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .core import CapExceededError, _count_at_or_below, _exact_sum, as_cycle_array, as_cycles

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
# convolve and soft_deadline work on grid-length arrays this many elements at a time
_CHUNK = 32_768


@dataclass(frozen=True, eq=False)
class CycleDistribution:
    """Discrete distribution of a task's cycle demand.

    kind="uniform": integers lo..hi, equally likely. kind="histogram":
    bins of ``bin_size`` cycles with ``probs[k-1]`` the mass of bin k;
    draws and moments land on bin upper edges. kind="points": explicit
    atoms (convolution results, truncations). ``values`` (int64) and
    ``probs`` (float64) are read-only copies of the arguments;
    ``convolve`` hands over its own arrays through ``_trusted``.
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
            if self.hi - self.lo + 1 > 2**53:  # float64 u * n would skip values
                raise ValueError("uniform range must span at most 2**53 values")
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
        if abs(_exact_sum(probs) - 1.0) > _PROB_TOL:
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
    def _trusted(cls, values: np.ndarray, probs: np.ndarray) -> "CycleDistribution":
        """A points distribution on arrays that are valid by construction.

        ``values`` must be int64, positive and strictly increasing, and
        ``probs`` float64, nonnegative and summing to 1. Both are marked
        read-only in place, neither copied nor checked; copies and pickles
        go through ``__reduce__`` and are checked.
        """
        self = object.__new__(cls)
        defaults = {f.name: f.default for f in fields(cls)}
        self.__dict__.update(defaults, kind="points", values=values, probs=probs)
        values.setflags(write=False)
        probs.setflags(write=False)
        return self

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
        return self._mean

    @cached_property
    def _mean(self) -> float:
        # computed once per distribution: dpms_rule asks on every build
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

    def sample_array(
        self, rng: np.random.Generator, size: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Vectorized draws via inverse CDF on one uniform ``u`` per draw.

        Returns a fresh int64 array of ``size`` draws, or, given ``out`` (a
        contiguous float64 array of ``size`` elements), draws the uniforms
        into it, overwrites each with its draw as a float and returns it;
        ``sample_cycles`` passes each column of its matrix. Either way the
        uniforms come from one ``rng.random`` call, so the stream is the
        same, and the draws are taken ``_CHUNK`` at a time so their buffers
        stay in cache. A uniform draw is ``lo + min(int(u * n), n - 1)`` in
        int64. An atom draw takes the atom at index
        ``min(searchsorted(cdf, u, "right"), n - 1)`` of the n atoms: the
        count of ``cdf[:-1]`` values ``<= u`` (``_count_at_or_below``).
        ``np.take`` widens each chunk's counts to ``intp`` once, which
        gathers about three times faster than indexing with int8 counts.
        """
        if out is not None and not (
            isinstance(out, np.ndarray)
            and out.dtype == np.float64
            and out.shape == (size,)
            and out.flags.c_contiguous
        ):
            raise ValueError("out must be a contiguous float64 array of size elements")
        u = rng.random(size, out=out)
        draws = np.empty(size, dtype=np.int64) if out is None else out
        chunk = min(size, _CHUNK)
        if self.kind == "uniform":
            n = self.hi - self.lo + 1
            idx = np.empty(chunk, dtype=np.int64)
            for lo in range(0, size, _CHUNK):
                part = u[lo:lo + _CHUNK]
                k = idx[:len(part)]
                part *= n
                np.copyto(k, part, casting="unsafe")  # truncates, as astype does
                np.minimum(k, n - 1, out=k)
                k += self.lo
                draws[lo:lo + len(part)] = k
            return draws
        vals, mass = self.atoms()
        cuts = np.cumsum(mass)[:-1]
        vals = vals.astype(draws.dtype, copy=False)  # float64 atoms for a float out
        count, hit = np.empty(chunk, dtype=np.int8), np.empty(chunk, dtype=bool)
        for lo in range(0, size, _CHUNK):
            part = u[lo:lo + _CHUNK]
            idx = _count_at_or_below(cuts, part, count[:len(part)], hit[:len(part)])
            # every count is a valid index, so "clip" changes none; it lets take write in place
            np.take(vals, idx, out=draws[lo:lo + len(part)], mode="clip")
        return draws

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
        tail = _exact_sum(mass[k:])  # correctly rounded: a long tail of 1/n stays summing to 1
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
    """Group observed cycle counts into fixed-size bins.

    Kept for trace ingestion: it bins what ``config.read_trace`` returns.
    """
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


def _run_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Runs of the Minkowski sum of two run sets; touching runs merge."""
    if len(a) * len(b) > CONVOLVE_CAP:
        raise CapExceededError("convolution support exceeds cap")
    # each run of b adds a sorted block of starts, which a stable sort merges fast
    first = (b[:, :1] + a[:, 0]).ravel()
    last = (b[:, 1:] + a[:, 1]).ravel()
    order = np.argsort(first, kind="stable")
    first, last = first[order], np.maximum.accumulate(last[order])
    cut = np.flatnonzero(first[1:] > last[:-1] + 1)
    return np.column_stack((first[np.append(0, cut + 1)], last[np.append(cut, -1)]))


def _span(d: CycleDistribution) -> tuple[int, int, int, tuple[np.ndarray, np.ndarray] | None]:
    """First and last support values, the gcd of the gaps between them (0
    for one value), and the atoms they were read from (None for a uniform,
    whose atoms are never built)."""
    if d.kind == "uniform":
        return d.lo, d.hi, int(d.hi > d.lo), None
    v, p = d.atoms()
    return int(v[0]), int(v[-1]), int(np.gcd.reduce(np.diff(v))), (v, p)


def _grid_runs(
    d: CycleDistribution, atoms: tuple[np.ndarray, np.ndarray] | None, stride: int
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Support runs of ``d`` on the grid of ``stride``, and its runs of equal
    nonzero mass a over grid indices s..t-1 as arrays (s, t, a), from the
    ``atoms`` that ``_span`` gave. A uniform's (no atoms) come from lo and
    hi alone (its stride is 1 unless lo == hi): one run, of mass 1/n, the
    bits its atoms would give.
    """
    if atoms is None:
        n = d.hi - d.lo + 1
        return np.array([[0, n - 1]]), (np.array([0]), np.array([n]), np.array([1.0 / n]))
    v, p = atoms
    k = (v - v[0]) // stride
    grid = np.bincount(k, p)
    s = np.flatnonzero(np.append(True, grid[1:] != grid[:-1]))
    t = np.append(s[1:], len(grid))
    a = grid[s]
    keep = a != 0.0
    return _runs(k), (s[keep], t[keep], a[keep])


def convolve(dists: Iterable[CycleDistribution]) -> CycleDistribution:
    """Exact distribution of the sum of independent cycle demands.

    Every task's mass lies on one integer grid whose stride is the gcd
    of all support gaps, where it splits into runs of consecutive
    indices with equal mass. Adding a run [s, e] of mass a to a partial
    sum whose cumulative masses are C adds a * (C[x-s] - C[x-e-1]) at
    each x (running sums: P. Heckbert, "Filtering by Repeated
    Integration", SIGGRAPH 1986). A float cumulative sum of nonnegative
    masses never decreases, so every term is >= 0 and none lands off
    the sum's exact support: the Minkowski sum of each task's runs of
    consecutive grid indices, where the masses are read and normalised.

    A uniform is one run read from lo and hi, so its atoms are never
    built. The partial sum lives in one zero-padded buffer. A task whose
    one run covers its whole grid (every uniform and every single-bin
    histogram) writes its terms back into that buffer in fixed chunks,
    top chunk first, with no zero fill and no second grid-length array:
    a chunk reads only indices at or below its own, none written yet, and
    0.0 + y is y for every y >= +0, so the bits are those of the per-run
    path. Other tasks sum their runs into a scratch array that is copied
    back. A support of one run is read back as a slice.
    Raises ``CapExceededError`` when the grid or the run pairs exceed ``CONVOLVE_CAP``.
    """
    dists = list(dists)
    if not dists:
        raise ValueError("nothing to convolve")
    spans = [_span(d) for d in dists]
    stride = math.gcd(*(g for _, _, g, _ in spans)) or 1
    offset = sum(first for first, _, _, _ in spans)
    # every length is at least its task's atom count, so this also bounds the atoms
    lengths = [(last - first) // stride + 1 for first, last, _, _ in spans]
    size = sum(lengths) - len(lengths) + 1
    if size > CONVOLVE_CAP:
        raise CapExceededError("convolution support exceeds cap")
    runs, mass_runs = np.zeros((1, 2), dtype=np.int64), []
    for d, (_, _, _, atoms) in zip(dists, spans):
        support, task_runs = _grid_runs(d, atoms, stride)
        runs = _run_sum(runs, support)
        mass_runs.append(task_runs)
    del spans  # the atoms are freed before the grid buffer is allocated
    # C[i] is buf[pad + i]; the zeros in front stand for C[i < 0]
    pad = max(lengths)
    buf = np.zeros(pad + size)
    C = buf[pad:]
    C[0] = 1.0  # the empty sum
    chunk = np.empty(min(size, _CHUNK))
    reach = 0  # the partial sum's mass lies on grid indices 0..reach
    for length, (first, stop, level) in zip(lengths, mass_runs):
        n = reach + length
        np.cumsum(C[:n], out=C[:n])
        if len(level) == 1 and stop[0] - first[0] == length:
            # the run 0..length-1 writes a * (C[x] - C[x - length]) at every x < n, one
            # chunk at a time from the top: chunk [lo, hi) reads C only below hi, all unwritten
            for lo in range((n - 1) // _CHUNK * _CHUNK, -1, -_CHUNK):
                hi = min(lo + _CHUNK, n)
                diff = np.subtract(C[lo:hi], buf[pad + lo - length:pad + hi - length], out=chunk[:hi - lo])
                np.multiply(diff, level[0], out=C[lo:hi])
        else:
            out, term = np.zeros(n), np.empty(n)
            for s, t, a in zip(first.tolist(), stop.tolist(), level.tolist()):
                # run s..t-1 adds a * (C[i] - C[i - (t - s)]) at x = s + i, nonzero for i < m
                m = t - s + reach
                diff = np.subtract(C[:m], buf[pad + s - t:pad + reach], out=term[:m])
                out[s:s + m] += np.multiply(diff, a, out=diff)
            C[:n] = out
            del out, term  # freed before the next task or the read-back allocates
        reach = n - 1
    del mass_runs  # freed before the result is read back
    if len(runs) == 1:  # the support is every grid index 0..size-1
        support, mass = np.arange(offset, offset + size * stride, stride, dtype=np.int64), C
    else:
        widths = runs[:, 1] - runs[:, 0] + 1
        support = np.repeat(runs[:, 0] - np.cumsum(widths) + widths, widths)
        support += np.arange(len(support))
        mass = C[support]
        support *= stride
        support += offset
    mass /= mass.sum()
    return CycleDistribution._trusted(support, mass)


def _first_cdf_above(probs: np.ndarray, threshold: float) -> int:
    """``searchsorted(np.cumsum(probs), threshold, "right")`` for nonnegative
    ``probs``, with no full-length array: the same running sum, one chunk
    at a time from the last sum, up to the first chunk that ends above
    ``threshold``. ``len(probs)`` when no sum exceeds it."""
    cdf = np.empty(min(_CHUNK, len(probs)))
    total = 0.0
    for lo in range(0, len(probs), _CHUNK):
        part = probs[lo:lo + _CHUNK]
        chunk = cdf[:len(part)]
        chunk[:] = part
        chunk[0] += total
        np.cumsum(chunk, out=chunk)
        if chunk[-1] > threshold:
            return lo + int(np.searchsorted(chunk, threshold, side="right"))
        total = chunk[-1]
    return len(probs)


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
    eps. A heuristic, not a guarantee. The cumulative masses are summed
    chunk by chunk and only up to the crossing, with no full-length array.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must be in (0, 1)")
    kappa = tuple(t.dist.percentile(eps) for t in sys.tasks)
    frame_wcec = sum(sys.wcecs)
    conv = convolve(t.dist for t in sys.tasks)
    # cdf[k] > 1 - eps first at k, so P[total < values[k + 1]] > 1 - eps
    k = _first_cdf_above(conv.probs, 1.0 - eps + _CDF_GRACE)
    frame_percentile = int(conv.values[min(k + 1, len(conv.values) - 1)])
    adjusted = sys.deadline * frame_wcec / frame_percentile
    return SoftDeadlineResult(kappa, frame_wcec, frame_percentile, adjusted)
