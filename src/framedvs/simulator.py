"""Expedient frame execution with energy and switch-time accounting.

A frame runs the tasks back to back: each task reads its frequency from
its step function at the moment the previous task ends, pays the switch
time (change penalty if the frequency differs, same-speed switch time
otherwise; the first task pays nothing at time 0), executes its cycles,
and hands over. Switching consumes time only; idle time after the last
task consumes no energy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import (
    CapExceededError,
    FrameDvsError,
    FrameSystem,
    InfeasibleSystemError,
    StrategySet,
)
# danger_zones has no caller here; it stays for the per-layer tracer in perfbench/
from .schedulability import DangerZones, danger_zones, danger_zones_overhead  # noqa: F401

__all__ = [
    "FrameResult",
    "SimStats",
    "SweepCell",
    "SweepTable",
    "run_frame",
    "run_frames",
    "monte_carlo",
    "exact_expectation",
    "evaluate",
    "sweep_deadlines",
]

ENUMERATION_CAP = 1_000_000

Builder = Callable[[FrameSystem, DangerZones], StrategySet]


@dataclass(frozen=True)
class FrameResult:
    """Outcome of one simulated frame."""

    finish_times: tuple[float, ...]
    energy: float
    switch_time_total: float
    missed: bool


@dataclass(frozen=True)
class SimStats:
    """Aggregate outcome of many frames."""

    frames: int
    mean_energy: float
    energy_stderr: float
    miss_rate: float
    mean_frequency_changes: float
    mean_switch_time: float = 0.0


class _Prepared:
    """Per-strategy arrays for vectorized frame execution."""

    def __init__(self, sys: FrameSystem, strategy: StrategySet):
        if len(strategy) != sys.n_tasks:
            raise ValueError("strategy length does not match task count")
        cpu = sys.cpu
        self.freqs = np.asarray(cpu.freqs)
        self.power = np.asarray(cpu.power)
        self.pt = np.asarray(cpu.switch_penalty)
        self.st = np.asarray(cpu.same_speed_switch)
        self.deadline = sys.deadline
        self.steps = []
        for fn in strategy.funcs:
            times = np.asarray([t for t, _ in fn.points])
            fidx = np.asarray([cpu.index_of(f) for _, f in fn.points], dtype=np.int64)
            self.steps.append((times, fidx))


def run_frames(
    sys: FrameSystem,
    strategy: StrategySet,
    cycles: np.ndarray,
    overheads: bool = False,
):
    """Execute many frames at once.

    ``cycles`` has one row per frame and one column per task; a
    column-major matrix (as ``sample_cycles`` returns) reads each task's
    column contiguously. Returns (finish_times, energy, switch_time,
    frequency_changes, missed) arrays; ``finish_times`` is column-major.
    A task's step lookup costs one comparison per step of its function.
    """
    prep = _Prepared(sys, strategy)
    cycles = np.asarray(cycles, dtype=np.float64)
    if cycles.ndim != 2 or cycles.shape[1] != sys.n_tasks:
        raise ValueError("cycles must be (frames, tasks)")
    n = cycles.shape[0]
    m = len(prep.freqs)
    # switch cost of prev -> fi at [prev * m + fi]: same-speed time on the diagonal
    cost_of = np.where(np.eye(m, dtype=bool), prep.st, prep.pt).ravel()
    t = np.zeros(n)
    energy = np.zeros(n)
    switch = np.zeros(n)
    changes = np.zeros(n, dtype=np.int64)
    finish = np.empty((n, sys.n_tasks), order="F")
    k = np.empty(n, dtype=np.int64)
    exec_t = np.empty(n)
    prev_idx = None
    for i in range(sys.n_tasks):
        times, fidx = prep.steps[i]
        # index of the last step time <= t, as searchsorted(side="right") - 1
        # gives: times[0] == 0 and the times increase, so count those above t
        # (a tie takes the later step; a NaN start, sorted last, the last one)
        k.fill(len(times) - 1)
        for x in times[1:]:
            k -= t < x
        fi = fidx[k]
        if prev_idx is not None:
            changes += fi != prev_idx
            if overheads:
                cost = cost_of[prev_idx * m + fi]
                t += cost
                switch += cost
        np.divide(cycles[:, i], prep.freqs[fi], out=exec_t)
        energy += prep.power[fi] * exec_t
        t += exec_t
        finish[:, i] = t
        prev_idx = fi
    missed = t > prep.deadline
    return finish, energy, switch, changes, missed


def run_frame(
    sys: FrameSystem,
    strategy: StrategySet,
    cycles: Sequence[int],
    overheads: bool = False,
) -> FrameResult:
    """Execute a single frame with the given per-task cycle demands."""
    if len(cycles) != sys.n_tasks:
        raise ValueError("cycles length does not match task count")
    for c, task in zip(cycles, sys.tasks):
        if c <= 0:
            raise ValueError("cycle demands must be positive")
        if c > task.wcec:
            raise ValueError("cycle demand exceeds the task's worst case")
    finish, energy, switch, _, missed = run_frames(
        sys, strategy, np.asarray([cycles], dtype=np.float64), overheads
    )
    return FrameResult(
        finish_times=tuple(float(x) for x in finish[0]),
        energy=float(energy[0]),
        switch_time_total=float(switch[0]),
        missed=bool(missed[0]),
    )


def _exact_sum(a: np.ndarray) -> float:
    """``math.fsum(a)`` without boxing each element; ``a`` is float64.

    Every finite value is q * 2**(e - 53) with q a 53-bit integer. q is
    split into three 18-bit limbs (the top one signed), and each limb is
    summed per exponent by ``np.bincount``. Those float64 sums are exact,
    because every partial sum is an integer below n * 2**18 < 2**53 for
    n < 2**35. Python ints combine them exactly and one int/int division
    rounds once, so the result is the correctly rounded sum, which is
    unique: the same bits as ``math.fsum``.
    """
    if not np.isfinite(a).all():
        return math.fsum(a)
    mant, exp = np.frexp(a)
    q = (mant * 2.0**53).astype(np.int64)
    e0 = int(exp.min(initial=0))  # <= 0; an empty array sums to 0.0
    exp = exp.astype(np.intp) - e0  # bincount casts any other index type per call
    high = np.bincount(exp, q >> 36).tolist()
    mid = np.bincount(exp, q >> 18 & 0x3FFFF).tolist()
    low = np.bincount(exp, q & 0x3FFFF).tolist()
    total = sum(
        ((int(h) << 36) + (int(m) << 18) + int(lo)) << j
        for j, (h, m, lo) in enumerate(zip(high, mid, low))
    )
    return total / (1 << (53 - e0))  # the sum is total * 2**(e0 - 53)


def _stats(energy, switch, changes, missed) -> SimStats:
    # a correctly rounded sum keeps the mean of identical frames exactly equal
    # to one frame; _exact_sum gives it without boxing every element
    n = len(energy)
    mean = _exact_sum(energy) / n
    if n > 1:
        d = energy - mean
        stderr = math.sqrt(float(np.dot(d, d)) / (n - 1)) / math.sqrt(n)
    else:
        stderr = 0.0
    return SimStats(
        frames=n,
        mean_energy=mean,
        energy_stderr=stderr,
        miss_rate=int(np.count_nonzero(missed)) / n,
        mean_frequency_changes=int(np.sum(changes)) / n,
        mean_switch_time=_exact_sum(switch) / n,
    )


def sample_cycles(sys: FrameSystem, rng: np.random.Generator, n_frames: int) -> np.ndarray:
    """Draw a column-major (n_frames, tasks) float64 cycle matrix, column by column."""
    cycles = np.empty((n_frames, sys.n_tasks), order="F")
    for i, task in enumerate(sys.tasks):
        cycles[:, i] = task.dist.sample_array(rng, n_frames)
    return cycles


def monte_carlo(
    sys: FrameSystem,
    strategy: StrategySet,
    n_frames: int,
    seed: int,
    overheads: bool = False,
) -> SimStats:
    """Simulate independent frames with distribution-drawn cycles.

    Deterministic for a fixed seed: identical inputs produce bit-identical
    statistics.
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    rng = np.random.default_rng(seed)
    cycles = sample_cycles(sys, rng, n_frames)
    _, energy, switch, changes, missed = run_frames(sys, strategy, cycles, overheads)
    return _stats(energy, switch, changes, missed)


def exact_expectation(
    sys: FrameSystem,
    strategy: StrategySet,
    overheads: bool = False,
    cap: int = ENUMERATION_CAP,
) -> SimStats:
    """Exact expected energy and miss probability by full enumeration.

    Walks every combination of per-task support values with its
    probability; the support product must stay within the cap.
    """
    sizes = [t.dist.n_atoms() for t in sys.tasks]
    total = math.prod(sizes)
    if total > cap:
        raise CapExceededError(f"enumeration of {total} outcomes exceeds cap {cap}")
    atoms = [t.dist.atoms() for t in sys.tasks]
    grids = np.meshgrid(*[v.astype(np.float64) for v, _ in atoms], indexing="ij")
    cycles = np.column_stack([g.ravel() for g in grids])
    pgrids = np.meshgrid(*[p for _, p in atoms], indexing="ij")
    probs = np.ones(total)
    for g in pgrids:
        probs = probs * g.ravel()
    mass = float(np.sum(probs))
    if abs(mass - 1.0) > 1e-9:
        raise FrameDvsError("enumerated probability mass deviates from 1")
    _, energy, switch, changes, missed = run_frames(sys, strategy, cycles, overheads)
    return SimStats(
        frames=total,
        mean_energy=float(np.dot(probs, energy)),
        energy_stderr=0.0,
        miss_rate=float(np.dot(probs, missed)),
        mean_frequency_changes=float(np.dot(probs, changes)),
        mean_switch_time=float(np.dot(probs, switch)),
    )


@dataclass(frozen=True)
class SweepCell:
    """One (deadline, strategy) cell; stats are None when infeasible."""

    deadline: float
    strategy: str
    stats: SimStats | None
    energy_ratio: float | None


@dataclass(frozen=True)
class SweepTable:
    cells: tuple[SweepCell, ...]
    baseline: str

    def to_csv(self) -> str:
        lines = ["deadline_s,strategy,mean_energy_j,energy_ratio,miss_rate,stderr_j"]
        for c in self.cells:
            if c.stats is None:
                lines.append(f"{c.deadline!r},{c.strategy},NA,NA,NA,NA")
            else:
                ratio = "NA" if c.energy_ratio is None else repr(c.energy_ratio)
                lines.append(
                    f"{c.deadline!r},{c.strategy},{c.stats.mean_energy!r},"
                    f"{ratio},{c.stats.miss_rate!r},{c.stats.energy_stderr!r}"
                )
        return "\n".join(lines) + "\n"


def evaluate(
    sys: FrameSystem,
    build_sys: FrameSystem,
    zones: DangerZones,
    builders: Sequence[tuple[str, Builder]],
    cycles: np.ndarray,
    overheads: bool = False,
) -> dict[str, SimStats | None]:
    """Build each strategy for ``build_sys`` and run it on ``sys``.

    Every strategy runs on the same cycle draws. A builder that finds the
    system infeasible maps to None.
    """
    out: dict[str, SimStats | None] = {}
    for name, build in builders:
        try:
            strat = build(build_sys, zones)
        except InfeasibleSystemError:
            out[name] = None
            continue
        # no loop variable keeps this run's arrays alive through the next one
        out[name] = _stats(*run_frames(sys, strat, cycles, overheads)[1:])
    return out


def sweep_deadlines(
    sys: FrameSystem,
    strategy_builders: Sequence[tuple[str, Builder]],
    d_lo: float,
    d_hi: float,
    n_points: int,
    n_frames: int,
    seed: int,
    baseline: str | None = None,
    overheads: bool = False,
    zone_mode: str = "plain",
) -> SweepTable:
    """Rebuild and simulate every strategy across a linear deadline grid.

    All strategies at one grid point see the same cycle draws, so energy
    ratios compare like with like. A builder that finds a point
    infeasible yields an NA cell instead of aborting the sweep.
    """
    if not d_lo < d_hi:
        raise ValueError("need d_lo < d_hi")
    if n_points < 2:
        raise ValueError("need at least two grid points")
    names = [name for name, _ in strategy_builders]
    if baseline is None:
        baseline = names[0]
    if baseline not in names:
        raise ValueError(f"baseline {baseline!r} is not a strategy name")
    grid = np.linspace(d_lo, d_hi, n_points)
    cells: list[SweepCell] = []
    for p_idx, d in enumerate(grid):
        sys_d = replace(sys, deadline=float(d))
        rng = np.random.default_rng([seed, p_idx])
        cycles = sample_cycles(sys_d, rng, n_frames)
        zones = danger_zones_overhead(sys_d, zone_mode)
        point_stats = evaluate(sys_d, sys_d, zones, strategy_builders, cycles, overheads)
        base = point_stats[baseline]
        for name in names:
            st = point_stats[name]
            ratio = None
            if st is not None and base is not None and base.mean_energy > 0:
                ratio = st.mean_energy / base.mean_energy
            cells.append(SweepCell(float(d), name, st, ratio))
    return SweepTable(tuple(cells), baseline)
