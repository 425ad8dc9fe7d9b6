"""Expedient frame execution with energy and switch-time accounting.

A frame runs the tasks back to back: each task reads its frequency from
its step function at the moment the previous task ends, pays the CPU's
``switch_cost`` from the previous mode (the first task pays nothing at
time 0), executes its cycles, and hands over. Switching consumes time
only; idle time after the last task consumes no energy.
"""
from __future__ import annotations

import math
import os
import threading
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .core import (
    CapExceededError,
    FrameDvsError,
    FrameSystem,
    InfeasibleSystemError,
    StrategySet,
    _count_at_or_below,
    _exact_sum,
    as_cycles,
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
# rows per run_frames block: its temporaries (256 KiB each) stay in cache, and
# each numpy call runs long enough that lanes seldom wait on the interpreter lock
_FRAME_BLOCK = 32_768
# lanes run_frames may use: the CPUs this process may run on
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# dtypes of run_frames' energy, switch time, frequency changes and missed outputs
_OUT_KINDS = (np.float64, np.float64, np.int64, np.bool_)

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


def run_frames(
    sys: FrameSystem,
    strategy: StrategySet,
    cycles: np.ndarray,
    overheads: bool = False,
    finish: np.ndarray | None = None,
    *,
    out: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
):
    """Execute many frames at once, ``_FRAME_BLOCK`` rows at a time.

    ``cycles`` has one row per frame and one column per task; a
    column-major matrix (as ``sample_cycles`` returns) reads each task's
    column contiguously. Returns (finish, energy, switch_time,
    frequency_changes, missed). ``finish`` is an optional output array,
    as in numpy's ``out=``: a (frames, tasks) float64 array is filled
    with each task's finish times and returned; with None, the default,
    none are computed and None is returned. ``out`` is an optional
    (energy, switch_time, frequency_changes, missed) tuple of
    frames-long float64, float64, int64 and bool arrays; each is
    overwritten in full and returned, so one set can serve many runs.
    With None, fresh arrays are returned.

    Frames are independent, and each block keeps every frame's float
    operations in order, so no output depends on the block size or on the
    lanes. ``min(_CPUS, blocks)`` lanes (``_run_lanes``) each take the
    next unclaimed block until none is left; below two blocks the caller
    runs them alone. Memory is one block per temporary and lane plus the
    full-length outputs. A task counts its block's start times only
    against the step times that the block's smallest and largest start
    straddle (``_count_at_or_below``); a block whose starts all lie on one
    step reads that step's speed and power once, as scalars. Frequency
    changes are counted per block, scalar ones as a Python int, and switch
    costs are read from a per-task table indexed by the previous and the
    current task's step.
    """
    modes = sys.step_modes(strategy)
    cycles = np.asarray(cycles, dtype=np.float64)
    if cycles.ndim != 2 or cycles.shape[1] != sys.n_tasks:
        raise ValueError("cycles must be (frames, tasks)")
    if finish is not None and (finish.shape != cycles.shape or finish.dtype != np.float64):
        raise ValueError("finish must be a float64 array shaped like cycles")
    n = cycles.shape[0]
    if out is None:
        out = tuple(np.empty(n, dtype=kind) for kind in _OUT_KINDS)
    elif len(out) != 4 or any(
        not isinstance(a, np.ndarray) or a.shape != (n,) or a.dtype != kind
        for a, kind in zip(out, _OUT_KINDS)
    ):
        raise ValueError("out must be frames-long float64, float64, int64 and bool arrays")
    energy, switch, changes, missed = out
    cpu = sys.cpu
    cost_table = np.asarray(cpu.switch_cost)
    freqs, power = np.asarray(cpu.freqs), np.asarray(cpu.power)
    # each function's step times after the first (which is 0), the speed and
    # power of each of its steps, and the switch cost from each step of the
    # previous function to each of its own at [prev_k * len(steps) + k]
    steps = []
    prev_modes = None
    for fn, fn_modes in zip(strategy.funcs, modes):
        fidx = np.asarray(fn_modes, dtype=np.intp)
        pair_cost = None if prev_modes is None else cost_table[np.ix_(prev_modes, fidx)].ravel()
        steps.append((fn._times[1:], freqs[fidx], power[fidx], pair_cost, len(fidx)))
        prev_modes = fidx
    block = _FRAME_BLOCK
    n_lanes = max(1, min(_CPUS, -(-n // block)))
    size = min(n, block)
    # a frame changes speed at most n_tasks - 1 times
    ch_kind = np.int8 if sys.n_tasks - 1 <= np.iinfo(np.int8).max else np.int64

    starts = iter(range(0, n, block))
    claim = threading.Lock()

    def next_block() -> int | None:
        with claim:
            return next(starts, None)

    def lane() -> None:
        # takes the next unclaimed block until none is left, so a lane slowed
        # by other work on its core leaves the rest to the others; every lane
        # owns its scratch and writes only its blocks' rows of the outputs
        t_buf, exec_buf = np.empty(size), np.empty(size)
        hit_buf, k8_buf = np.empty(size, dtype=bool), np.empty(size, dtype=np.int8)
        k_bufs = np.empty((2, size), dtype=np.intp)  # this task's step index and the previous one's
        ch_buf = np.empty(size, dtype=ch_kind)
        while (lo := next_block()) is not None:
            hi = min(lo + block, n)
            rows = hi - lo
            t, exec_t, hit, k8 = t_buf[:rows], exec_buf[:rows], hit_buf[:rows], k8_buf[:rows]
            e, sw = energy[lo:hi], switch[lo:hi]
            t.fill(0.0)
            e.fill(0.0)
            sw.fill(0.0)
            ch = ch_buf[:rows]
            ch.fill(0)
            scalar_changes = 0
            prev_f = prev_k = prev_base = None
            for i, (times, fstep, pstep, pair_cost, n_steps) in enumerate(steps):
                # base + k is the step a start t runs on: the count of step times
                # <= t. times[:band_lo] are <= every start and times[band_hi:] above
                # every start, so only the band between is counted; an empty band
                # makes k one scalar for the whole block. A NaN start (NaN min and
                # max) counts the whole band and gets the last step.
                t_min, t_max = float(t.min()), float(t.max())
                if t_min <= t_max:
                    band_lo, band_hi = bisect_right(times, t_min), bisect_right(times, t_max)
                else:
                    band_lo, band_hi = 0, len(times)
                base, k = band_hi, 0
                if band_lo < band_hi:
                    # widened once to intp for the gathers
                    base, k = band_lo, k_bufs[i % 2, :rows]
                    k[:] = _count_at_or_below(times[band_lo:band_hi], t, k8, hit)
                f = fstep[base:][k]
                if prev_f is not None:
                    # speeds are strictly increasing, so equal speed is equal mode
                    if isinstance(k, np.ndarray) or isinstance(prev_k, np.ndarray):
                        ch += np.not_equal(f, prev_f, out=hit).view(np.int8)
                    else:
                        scalar_changes += bool(f != prev_f)
                    if overheads:
                        # switch costs from the previous task's steps prev_base + prev_k
                        # to this task's steps base + k, at [prev_k * n_steps + k]
                        pair = k
                        if isinstance(prev_k, np.ndarray):
                            # prev_k is read nowhere after this, so it takes the pair index
                            prev_k *= n_steps
                            pair = np.add(prev_k, k, out=prev_k)
                        cost = pair_cost[prev_base * n_steps + base:][pair]
                        t += cost
                        sw += cost
                np.divide(cycles[lo:hi, i], f, out=exec_t)
                t += exec_t
                exec_t *= pstep[base:][k]
                e += exec_t
                if finish is not None:
                    finish[lo:hi, i] = t
                prev_f, prev_k, prev_base = f, k, base
            np.add(ch, scalar_changes, out=changes[lo:hi], dtype=np.int64)
            np.greater(t, sys.deadline, out=missed[lo:hi])

    _run_lanes(lane, n_lanes)
    return finish, energy, switch, changes, missed


def _run_lanes(lane: Callable[[], None], n_lanes: int) -> None:
    """Run ``lane()`` on the calling thread and on ``n_lanes - 1`` threads
    of its own, started here and joined before this returns or raises; the
    first error in lane order (the caller's lane is first) is raised. numpy
    releases the interpreter lock inside each ufunc, gather and reduction,
    so the lanes' blocks overlap."""
    errors: list[BaseException | None] = [None] * n_lanes

    def guarded(j: int) -> None:
        try:
            lane()
        except BaseException as exc:  # raised again on the caller below
            errors[j] = exc

    threads = []
    try:
        for j in range(1, n_lanes):
            thread = threading.Thread(target=guarded, args=(j,), name=f"run_frames-lane-{j}")
            thread.start()
            threads.append(thread)
        lane()
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def run_frame(
    sys: FrameSystem,
    strategy: StrategySet,
    cycles: Sequence[int],
    overheads: bool = False,
) -> FrameResult:
    """Execute a single frame with the given per-task cycle demands.

    Kept as a library entry point: one frame with its per-task finish times.
    """
    if len(cycles) != sys.n_tasks:
        raise ValueError("cycles length does not match task count")
    cycles = [as_cycles(c) for c in cycles]
    for c, task in zip(cycles, sys.tasks):
        if c <= 0:
            raise ValueError("cycle demands must be positive")
        if c > task.wcec:
            raise ValueError("cycle demand exceeds the task's worst case")
    finish, energy, switch, _, missed = run_frames(
        sys, strategy, np.asarray([cycles], dtype=np.float64), overheads, np.empty((1, len(cycles)))
    )
    return FrameResult(
        finish_times=tuple(float(x) for x in finish[0]),
        energy=float(energy[0]),
        switch_time_total=float(switch[0]),
        missed=bool(missed[0]),
    )


def _stats(energy, switch, changes, missed) -> SimStats:
    # a correctly rounded sum keeps the mean of identical frames exactly equal
    # to one frame; _exact_sum gives it without boxing every element. Every
    # caller discards the run's outputs after this, so energy is overwritten
    # with its deviations from the mean instead of allocating a second array.
    n = len(energy)
    mean = _exact_sum(energy) / n
    if n > 1:
        d = np.subtract(energy, mean, out=energy)
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
    """Draw a column-major (n_frames, tasks) float64 cycle matrix, each task's
    draws straight into its column."""
    cycles = np.empty((n_frames, sys.n_tasks), order="F")
    for i, task in enumerate(sys.tasks):
        task.dist.sample_array(rng, n_frames, out=cycles[:, i])
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
    statistics. Kept as a library entry point: the README's example calls it.
    """
    if n_frames < 1:
        raise ValueError("need at least one frame")
    rng = np.random.default_rng(seed)
    cycles = sample_cycles(sys, rng, n_frames)
    _, energy, switch, changes, missed = run_frames(sys, strategy, cycles, overheads)
    return _stats(energy, switch, changes, missed)


def exact_expectation(
    sys: FrameSystem, strategy: StrategySet, overheads: bool = False
) -> SimStats:
    """Exact expected energy and miss probability by full enumeration.

    Walks every combination of per-task support values with its
    probability; the support product must stay within ``ENUMERATION_CAP``.
    Each statistic is the correctly rounded sum of ``probs * x``, so no
    BLAS thread count moves its bits. Kept as the exact reference that
    Monte Carlo estimates are tested against.
    """
    total = math.prod(t.dist.n_atoms() for t in sys.tasks)
    if total > ENUMERATION_CAP:
        raise CapExceededError(f"enumeration of {total} outcomes exceeds cap {ENUMERATION_CAP}")
    atoms = [t.dist.atoms() for t in sys.tasks]
    grids = np.meshgrid(*[v.astype(np.float64) for v, _ in atoms], indexing="ij")
    cycles = np.stack(grids, axis=-1).reshape(total, sys.n_tasks)
    probs = reduce(np.multiply.outer, [p for _, p in atoms]).ravel()
    if abs(float(np.sum(probs)) - 1.0) > 1e-9:
        raise FrameDvsError("enumerated probability mass deviates from 1")
    _, energy, switch, changes, missed = run_frames(sys, strategy, cycles, overheads)
    return SimStats(
        frames=total,
        mean_energy=_exact_sum(probs * energy),
        energy_stderr=0.0,
        miss_rate=_exact_sum(probs * missed),
        mean_frequency_changes=_exact_sum(probs * changes),
        mean_switch_time=_exact_sum(probs * switch),
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
    builders: Sequence[tuple[str, Builder]],
    cycles: np.ndarray,
    overheads: bool = False,
) -> dict[str, SimStats | None]:
    """Build each strategy for ``build_sys`` and run it on ``sys``.

    Builders get sufficient zones with ``overheads`` on, so they budget for
    the switch costs the run charges, and plain zones with it off. Every
    strategy runs on the same cycle draws. A builder that finds the system
    infeasible maps to None. Every run fills the same output arrays,
    which ``run_frames`` overwrites in full, so memory does not grow with
    the number of builders.
    """
    n = len(cycles)
    if n < 1:
        raise ValueError("need at least one frame")
    zones = danger_zones_overhead(build_sys, "sufficient" if overheads else "plain")
    bufs = tuple(np.empty(n, dtype=kind) for kind in _OUT_KINDS)
    out: dict[str, SimStats | None] = {}
    for name, build in builders:
        try:
            strat = build(build_sys, zones)
        except InfeasibleSystemError:
            out[name] = None
            continue
        # called through the module attribute, which a tracer may wrap
        out[name] = _stats(*run_frames(sys, strat, cycles, overheads, out=bufs)[1:])
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
) -> SweepTable:
    """Rebuild and simulate every strategy across a linear deadline grid.

    Each point runs ``evaluate``, so the zones follow ``overheads``. All
    strategies at one grid point see the same cycle draws, so energy
    ratios compare like with like. A builder that finds a point
    infeasible yields an NA cell instead of aborting the sweep.
    """
    if not d_lo < d_hi:
        raise ValueError("need d_lo < d_hi")
    if n_points < 2:
        raise ValueError("need at least two grid points")
    if n_frames < 1:
        raise ValueError("need at least one frame")
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
        point_stats = evaluate(sys_d, sys_d, strategy_builders, cycles, overheads)
        base = point_stats[baseline]
        for name in names:
            st = point_stats[name]
            ratio = None
            if st is not None and base is not None and base.mean_energy > 0:
                ratio = st.mean_energy / base.mean_energy
            cells.append(SweepCell(float(d), name, st, ratio))
    return SweepTable(tuple(cells), baseline)
