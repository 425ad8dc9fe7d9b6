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
switch costs the forward pass charged. The forward pass is all a caller
of ``tau`` pays for: the walk back runs on the first read of ``witness``.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .core import CapExceededError, FrameSystem, StrategySet

__all__ = ["WorstCaseReport", "worst_finish_oracle"]

MAX_INTERVALS = 100_000


@dataclass(frozen=True, eq=False)
class WorstCaseReport:
    """Per-task worst finish times and the cycle choices reaching them.

    ``witness[i]`` lists the cycle demands of tasks 0..i whose run finishes
    at (or arbitrarily close to) ``tau[i]``; it is consistent with the
    switch costs the oracle charged. Entries may be interior bin values,
    as worst cases are not generally all-worst-case runs, and fractional,
    as demand is continuous within each covered range, so a witness
    replays through ``run_frames``, not the integral-only ``run_frame``.

    The witness is walked back on first read and cached. Until then the
    report keeps the propagation's merged start intervals and each task's
    top contribution; the first read drops them. Reports compare and hash
    by ``tau`` and ``witness``.
    """

    tau: tuple[float, ...]
    _starts: list | None = field(repr=False)
    _tops: list | None = field(repr=False)

    @cached_property
    def witness(self) -> tuple[tuple[float, ...], ...]:
        out = tuple(_reconstruct(self._starts, i, c) for i, c in enumerate(self._tops))
        object.__setattr__(self, "_starts", None)
        object.__setattr__(self, "_tops", None)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, WorstCaseReport):
            return NotImplemented
        return self.tau == other.tau and self.witness == other.witness

    def __hash__(self) -> int:
        return hash((self.tau, self.witness))


# A contribution is the finish interval of one task over one (start
# interval, step piece, demand range) triple, as the plain tuple
#   (fidx, finish_lo, finish_hi, src, cost, dom_lo, dom_hi, f, cyc_lo, cyc_hi)
# where src indexes the task's merged start intervals and fidx is the mode
# it runs at. A merged interval is the list [lo, hi, fidx, members].


def _merge(contribs: list[tuple]) -> list[list]:
    """Union of the finish intervals per run mode, keeping the members."""
    merged: list[list] = []
    last = None
    for c in sorted(contribs):
        if last is not None and last[2] == c[0] and c[1] <= last[1]:
            if c[2] > last[1]:
                last[1] = c[2]
            last[3].append(c)
        else:
            last = [c[1], c[2], c[0], [c]]
            merged.append(last)
    return merged


def worst_finish_oracle(
    sys: FrameSystem, strategy: StrategySet, overheads: bool = False
) -> WorstCaseReport:
    """Exact per-task worst finish times under expedient execution."""
    modes = sys.step_modes(strategy)
    switch_cost = sys.cpu.switch_cost
    # Decision times for the next task: finish of the previous one, tagged
    # with the mode it ran at (switch cost depends on it).
    starts: list[list[list]] = [[[0.0, 0.0, None, []]]]
    tops: list[tuple] = []
    for task, fn, idx in zip(sys.tasks, strategy.funcs, modes):
        times = fn._times
        pieces = list(zip(times, times[1:] + (math.inf,), idx, [f for _, f in fn.points]))
        ranges = task.dist.ranges()
        contribs: list[tuple] = []
        for src, (rlo, rhi, prev_idx, _) in enumerate(starts[-1]):
            costs = switch_cost[prev_idx] if overheads and prev_idx is not None else None
            # the pieces [a, b) with a <= rhi and b > rlo meet the start interval
            first = bisect_right(times, rlo) - 1
            for a, b, fidx, f in pieces[first:bisect_right(times, rhi)]:
                dom_lo = max(rlo, a)
                dom_hi = min(rhi, b)
                cost = 0.0 if costs is None else costs[fidx]
                for clo, chi in ranges:
                    contribs.append((
                        fidx, dom_lo + cost + clo / f, dom_hi + cost + chi / f,
                        src, cost, dom_lo, dom_hi, f, clo, chi,
                    ))
            if len(contribs) > MAX_INTERVALS:
                raise CapExceededError("reachable interval count exceeds cap")
        tops.append(max(contribs, key=itemgetter(2)))
        starts.append(_merge(contribs))
    return WorstCaseReport(tuple(c[2] for c in tops), starts, tops)


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
