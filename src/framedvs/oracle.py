"""Worst-case finishing times by interval propagation.

Cycle demand is adversarial within each distribution's coverage (a
histogram bin covers its whole cycle range), so the set of possible
finish times of a task forms a union of intervals. Within one step of a
scheduling function the finish time is affine in the start time, so
suprema occur at interval endpoints, evaluated as one-sided limits where
a step boundary is approached from below, or at cycle-range extremes.
The per-task worst finish can come from a run where an earlier task used
fewer cycles than its worst case: ending just before a step boundary can
leave the successor on the slower side of its function.

Each finish interval remembers the start interval it came from, and the
witness is read back along those links, so it is consistent with the
switch costs the forward pass charged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from .core import CapExceededError, FrameSystem, StrategySet

__all__ = ["WorstCaseReport", "worst_finish_oracle"]

MAX_INTERVALS = 100_000


@dataclass(frozen=True)
class WorstCaseReport:
    """Per-task worst finish times and the cycle choices reaching them.

    ``witness[i]`` lists the cycle demands of tasks 0..i whose run finishes
    at (or arbitrarily close to) ``tau[i]``; it is consistent with the
    switch costs the oracle charged. Entries may be interior bin values,
    as worst cases are not generally all-worst-case runs, and fractional,
    as demand is continuous within each covered range, so a witness
    replays through ``run_frames``, not the integral-only ``run_frame``.
    """

    tau: tuple[float, ...]
    witness: tuple[tuple[float, ...], ...]


# A contribution is the finish interval of one task over one (start
# interval, step piece, demand range) triple, as the plain tuple
#   (fidx, finish_lo, finish_hi, src, cost, dom_lo, dom_hi, f, cyc_lo, cyc_hi)
# where src indexes the task's merged start intervals and fidx is the mode
# it runs at. A merged interval is the list [lo, hi, fidx, members].


def _merge(contribs: list[tuple]) -> list[list]:
    """Union of the finish intervals per run mode, keeping the members."""
    merged: list[list] = []
    for c in sorted(contribs):
        fidx, lo, hi = c[:3]
        if merged and merged[-1][2] == fidx and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
            merged[-1][3].append(c)
        else:
            merged.append([lo, hi, fidx, [c]])
    return merged


def worst_finish_oracle(
    sys: FrameSystem, strategy: StrategySet, overheads: bool = False
) -> WorstCaseReport:
    """Exact per-task worst finish times under expedient execution."""
    modes = sys.step_modes(strategy)
    cpu = sys.cpu
    # Decision times for the next task: finish of the previous one, tagged
    # with the mode it ran at (switch cost depends on it).
    starts: list[list[list]] = [[[0.0, 0.0, None, []]]]
    tops: list[tuple] = []
    for task, fn, idx in zip(sys.tasks, strategy.funcs, modes):
        ends = [t for t, _ in fn.points[1:]] + [math.inf]
        pieces = [(a, b, k, f) for (a, f), b, k in zip(fn.points, ends, idx)]
        ranges = task.dist.ranges()
        contribs: list[tuple] = []
        for src, (rlo, rhi, prev_idx, _) in enumerate(starts[-1]):
            for a, b, fidx, f in pieces:
                dom_lo = max(rlo, a)
                dom_hi = min(rhi, b)
                if dom_lo > dom_hi or dom_lo >= b:
                    continue
                if overheads and prev_idx is not None:
                    cost = cpu.switch_cost[prev_idx][fidx]
                else:
                    cost = 0.0
                for clo, chi in ranges:
                    contribs.append((
                        fidx, dom_lo + cost + clo / f, dom_hi + cost + chi / f,
                        src, cost, dom_lo, dom_hi, f, clo, chi,
                    ))
        if len(contribs) > MAX_INTERVALS:
            raise CapExceededError("reachable interval count exceeds cap")
        tops.append(max(contribs, key=itemgetter(2)))
        starts.append(_merge(contribs))
    return WorstCaseReport(
        tuple(c[2] for c in tops),
        tuple(_reconstruct(starts, i, c) for i, c in enumerate(tops)),
    )


def _reconstruct(starts: list[list[list]], i: int, c: tuple) -> tuple[float, ...]:
    """Walk the worst finish of task i back to the cycle choices producing it.

    ``c`` is the contribution with ``finish_hi == tau[i]``. Each step clamps
    the start time ``theta`` into c's domain, which lies inside the merged
    start interval c came from. That interval's members cover it without
    gaps (merging joins closed intervals that touch, comparing the same
    floats), so one member's closed finish interval always contains
    ``theta``, and it ran at the mode c's switch cost was charged against.
    """
    chain = [0.0] * (i + 1)
    target = c[2]
    for j in range(i, -1, -1):
        _, _, _, src, cost, dom_lo, dom_hi, f, cyc_lo, cyc_hi = c
        theta = min(max(target - cost - cyc_hi / f, dom_lo), dom_hi)
        chain[j] = min(max((target - theta - cost) * f, cyc_lo), cyc_hi)
        if j:
            c = next(m for m in starts[j][src][3] if m[1] <= theta <= m[2])
        target = theta
    return tuple(chain)
