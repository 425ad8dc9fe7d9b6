import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from framedvs import (
    FrequencyTable,
    InfeasibleSystemError,
    SpeedRangeError,
    StepFunction,
    build_limit,
    danger_zones,
    eval_step,
    normalize_steps,
    quantize,
)
from framedvs.core import FrameSystem, TaskSpec, _count_at_or_below
from framedvs.workload import CycleDistribution, bin_trace

XSCALE = FrequencyTable(
    (150e6, 400e6, 600e6, 800e6, 1000e6), (0.08, 0.27, 0.54, 0.99, 1.78)
)


def make_system(wcecs, deadline, cpu):
    tasks = tuple(TaskSpec(w, CycleDistribution.degenerate(w)) for w in wcecs)
    return FrameSystem(tasks, deadline, cpu)


class TestEvalStep:
    def test_first_interval(self):
        s = StepFunction(((0.0, 500.0), (0.2, 1000.0)))
        assert eval_step(s, 0.1) == 500.0

    def test_boundary_belongs_to_new_step(self):
        s = StepFunction(((0.0, 500.0), (0.2, 1000.0)))
        assert eval_step(s, 0.2) == 1000.0

    def test_last_step_extends_forever(self):
        s = StepFunction(((0.0, 500.0),))
        assert eval_step(s, 99.0) == 500.0

    def test_negative_time_rejected(self):
        s = StepFunction(((0.0, 500.0),))
        with pytest.raises(ValueError):
            eval_step(s, -0.1)

    def test_agrees_with_linear_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            times = [0.0] + sorted(set(float(t) for t in rng.uniform(0.01, 5.0, n - 1)))
            freqs = [float(f) for f in rng.uniform(1e8, 1e9, len(times))]
            s = StepFunction(tuple(zip(times, freqs)))
            for t in rng.uniform(0.0, 6.0, 20):
                expect = freqs[0]
                for tt, ff in zip(times, freqs):
                    if tt <= t:
                        expect = ff
                assert eval_step(s, float(t)) == expect


class TestNormalize:
    def test_last_wins_collapse(self):
        s = normalize_steps([(0.0, 500.0), (0.0, 1000.0)])
        assert s.points == ((0.0, 1000.0),)

    def test_merge_equal_frequencies(self):
        s = normalize_steps([(0.0, 500.0), (0.2, 500.0), (0.3, 800.0)])
        assert s.points == ((0.0, 500.0), (0.3, 800.0))

    def test_already_normal_unchanged(self):
        pts = [(0.0, 500.0), (0.2, 1000.0)]
        assert normalize_steps(pts).points == tuple(pts)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            times = sorted(float(t) for t in rng.uniform(0.0, 1.0, n))
            times[0] = 0.0
            pts = [(t, float(rng.choice([1e8, 2e8, 4e8]))) for t in times]
            once = normalize_steps(pts)
            again = normalize_steps(once.points)
            assert once.points == again.points

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_steps([])

    def test_decreasing_times_rejected(self):
        with pytest.raises(ValueError):
            normalize_steps([(0.0, 1.0), (0.5, 2.0), (0.4, 3.0)])


class TestQuantize:
    def test_up(self):
        assert quantize(XSCALE, 450e6, "up") == 600e6

    def test_closest_below_midpoint(self):
        assert quantize(XSCALE, 450e6, "closest") == 400e6

    def test_closest_tie_rounds_up(self):
        assert quantize(XSCALE, 500e6, "closest") == 600e6

    def test_up_beyond_max_rejected(self):
        with pytest.raises(SpeedRangeError):
            quantize(XSCALE, 1001e6, "up")

    def test_closest_nonpositive_returns_lowest(self):
        assert quantize(XSCALE, 0.0, "closest") == 150e6
        assert quantize(XSCALE, -5.0, "closest") == 150e6

    def test_properties(self):
        rng = np.random.default_rng(9)
        for x in rng.uniform(1e6, 1000e6, 300):
            up = quantize(XSCALE, float(x), "up")
            assert up >= x and up in XSCALE.freqs
            cl = quantize(XSCALE, float(x), "closest")
            assert all(abs(cl - x) <= abs(f - x) for f in XSCALE.freqs)


class TestValidateSystem:
    """A system is never schedulable exactly when its first plain zone is
    negative, and that is exactly when the builders refuse it. The two
    systems sit on rounding edges where the total-work test disagrees."""

    @pytest.mark.parametrize(
        "wcecs,deadline",
        [
            pytest.param((671263, 336117, 573649), math.nextafter(1581029 / 1e9, 0.0),
                         id="total-over-by-one-rounding-but-zones-fit"),
            pytest.param((850624, 636962, 511136), 1998722 / 1e9,
                         id="total-fits-but-zone-chain-rounds-negative"),
        ],
    )
    def test_never_exactly_when_builders_refuse(self, wcecs, deadline):
        sysd = make_system(wcecs, deadline, FrequencyTable((150e6, 400e6, 1000e6), (0.1, 0.3, 1.0)))
        try:
            build_limit(sysd, danger_zones(sysd))
            feasible = True
        except InfeasibleSystemError:
            feasible = False
        assert (danger_zones(sysd).z[0] < 0) is not feasible


class TestFrequencyTable:
    def test_rejects_nonincreasing(self):
        with pytest.raises(ValueError):
            FrequencyTable((2.0, 1.0), (0.1, 0.2))

    def test_rejects_bad_worst_penalty(self):
        pt = ((0.0, 0.1), (0.5, 0.0))  # max not at slowest-to-fastest
        with pytest.raises(ValueError):
            FrequencyTable((1.0, 2.0), (0.1, 0.2), pt, (0.0, 0.0))

    def test_zero_tables_default(self):
        t = FrequencyTable((1.0, 2.0), (0.1, 0.2))
        assert t.change_penalty_max == 0.0
        assert t.same_speed_at_max == 0.0

    def test_switch_cost_table(self):
        pt = ((0.0, 0.3, 0.5), (0.2, 0.0, 0.4), (0.1, 0.25, 0.0))
        st = (0.01, 0.02, 0.03)
        t = FrequencyTable((1.0, 2.0, 3.0), (0.1, 0.2, 0.3), pt, st)
        for i in range(3):
            for j in range(3):
                assert t.switch_cost[i][j] == (st[j] if i == j else pt[i][j])
        # derived, so it leaves equality and repr alone
        assert t == FrequencyTable((1.0, 2.0, 3.0), (0.1, 0.2, 0.3), pt, st)
        assert "switch_cost" not in repr(t)

    def test_index_of(self):
        assert XSCALE.index_of(600e6) == 2
        with pytest.raises(ValueError):
            XSCALE.index_of(601e6)


class TestStepFunction:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            StepFunction(((0.1, 500.0),))

    def test_strictly_increasing_times(self):
        with pytest.raises(ValueError):
            StepFunction(((0.0, 1.0), (0.0, 2.0)))


START = "step function must start at time 0"
INCREASING = "step times must be strictly increasing"
POSITIVE = "frequencies must be positive"
FINITE = "step times and frequencies must be finite"


def _points(at: int, time: float | None = None, freq: float | None = None):
    """Three valid points with the time or frequency at index ``at`` replaced."""
    pts = [[0.0, 1.0], [0.5, 2.0], [1.0, 3.0]]
    if time is not None:
        pts[at][0] = time
    if freq is not None:
        pts[at][1] = freq
    return tuple(map(tuple, pts))


class TestStepFunctionRefusals:
    """Every refusal names its rule; the first rule a point set breaks wins."""

    @pytest.mark.parametrize(
        "points,message",
        [
            pytest.param((), "step function needs at least one point", id="empty"),
            pytest.param(((0.1, 500.0),), START, id="first-time-positive"),
            pytest.param(_points(0, time=-1.0), START, id="first-time-negative"),
            pytest.param(_points(-1, time=0.5), INCREASING, id="equal-times"),
            pytest.param(_points(-1, time=0.25), INCREASING, id="decreasing-times"),
            pytest.param(_points(0, freq=0.0), POSITIVE, id="first-freq-zero"),
            pytest.param(_points(-1, freq=0.0), POSITIVE, id="last-freq-zero"),
            pytest.param(_points(0, freq=-2.0), POSITIVE, id="first-freq-negative"),
            pytest.param(_points(-1, freq=-2.0), POSITIVE, id="last-freq-negative"),
            pytest.param(_points(0, time=math.nan), START, id="first-time-nan"),
            pytest.param(_points(-1, time=math.nan), FINITE, id="last-time-nan"),
            pytest.param(_points(0, time=math.inf), START, id="first-time-inf"),
            pytest.param(_points(-1, time=math.inf), FINITE, id="last-time-inf"),
            pytest.param(_points(0, time=-math.inf), START, id="first-time-minus-inf"),
            pytest.param(_points(-1, time=-math.inf), INCREASING, id="last-time-minus-inf"),
            pytest.param(_points(0, freq=math.nan), FINITE, id="first-freq-nan"),
            pytest.param(_points(-1, freq=math.nan), FINITE, id="last-freq-nan"),
            pytest.param(_points(0, freq=math.inf), FINITE, id="first-freq-inf"),
            pytest.param(_points(-1, freq=math.inf), FINITE, id="last-freq-inf"),
            pytest.param(_points(0, freq=-math.inf), POSITIVE, id="first-freq-minus-inf"),
            pytest.param(_points(-1, freq=-math.inf), POSITIVE, id="last-freq-minus-inf"),
            pytest.param(((0.1, 0.0),), START, id="start-before-positive"),
            pytest.param(((0.0, 0.0), (0.0, 1.0)), INCREASING, id="increasing-before-positive"),
            pytest.param(((0.0, 0.0), (math.nan, 1.0)), POSITIVE, id="positive-before-finite"),
            pytest.param(((0.0, math.nan), (1.0, 0.0)), POSITIVE,
                         id="positive-before-finite-nan-first"),
        ],
    )
    def test_refusal_message(self, points, message):
        with pytest.raises(ValueError) as exc:
            StepFunction(points)
        assert str(exc.value) == message

    def test_negative_zero_start_is_accepted(self):
        assert StepFunction(((-0.0, 1.0), (1, 2))).points == ((0.0, 1.0), (1.0, 2.0))


class TestTaskSpec:
    def test_support_cannot_exceed_wcec(self):
        with pytest.raises(ValueError):
            TaskSpec(99, CycleDistribution.uniform(1, 100))

    def test_wcec_may_exceed_support(self):
        t = TaskSpec(200, CycleDistribution.uniform(1, 100))
        assert t.wcec == 200


CYCLE_FIELDS = {
    "wcec": lambda v: TaskSpec(v, CycleDistribution.uniform(1, 2)).wcec,
    "uniform-lo": lambda v: CycleDistribution.uniform(v, 40).lo,
    "uniform-hi": lambda v: CycleDistribution.uniform(1, v).hi,
    "bin-size": lambda v: CycleDistribution.histogram(v, (0.5, 0.5)).bin_size,
    "degenerate": lambda v: CycleDistribution.degenerate(v).support_max,
    "point": lambda v: CycleDistribution.from_points({v: 1.0}).support_max,
    "bin-trace-count": lambda v: bin_trace([v], 1).support_max,
    "bin-trace-size": lambda v: bin_trace([10, 20], v).bin_size,
    "truncated-cap": lambda v: CycleDistribution.uniform(1, 10).truncated(v).support_max,
    "points-direct": lambda v: CycleDistribution("points", values=(v,), probs=(1.0,)).support_max,
}


@pytest.mark.parametrize("field", sorted(CYCLE_FIELDS))
@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, 3.9, 7.0, np.float64(7.0), np.int64(7)])
def test_cycle_counts_are_integral(field, value):
    """Integral counts are stored as int; NaN, inf and fractions raise."""
    make = CYCLE_FIELDS[field]
    if math.isfinite(value) and float(value).is_integer():
        got = make(value)
        assert got == 7 and type(got) is int
    else:
        with pytest.raises(ValueError):
            make(value)


SCALAR_CYCLE_FIELDS = ("wcec", "uniform-lo", "uniform-hi", "bin-size", "degenerate",
                       "bin-trace-size", "truncated-cap")


@pytest.mark.parametrize("field", SCALAR_CYCLE_FIELDS)
@pytest.mark.parametrize(
    "value",
    [np.float32(2.5), Fraction(5, 2), Decimal("2.5"), np.float32("inf"), Fraction(7, 1), np.float32(7.0)],
    ids=["f32-2.5", "fraction-2.5", "decimal-2.5", "f32-inf", "fraction-7", "f32-7"],
)
def test_scalar_cycle_counts_of_any_number_type(field, value):
    """The integral check holds for numbers that are not Python floats."""
    make = CYCLE_FIELDS[field]
    if value == 7:
        got = make(value)
        assert got == 7 and type(got) is int
    else:
        with pytest.raises(ValueError):
            make(value)


class TestCountAtOrBelow:
    """The one threshold counter that run_frames' step lookup and
    sample_array's atom draws share: searchsorted(cuts, x, "right"),
    counted in int8 below 128 cuts and binary-searched from 128 on."""

    def cases(self, n, rng):
        cuts = np.sort(rng.uniform(-5.0, 5.0, n))
        yield cuts
        # zero-mass atoms repeat cumulative masses
        yield np.cumsum(rng.random(n) * (rng.random(n) < 0.6))

    def xs(self, cuts, rng):
        return np.concatenate([
            cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
            [np.nan, -np.inf, np.inf, 0.0], rng.uniform(-6.0, 6.0, 50),
        ])

    @pytest.mark.parametrize("n", [0, 1, 2, 126, 127, 128, 129, 300])
    def test_same_count_as_searchsorted(self, n):
        rng = np.random.default_rng(n)
        for cuts in self.cases(n, rng):
            x = self.xs(cuts, rng)
            want = np.searchsorted(cuts, x, side="right")
            for given in (cuts, tuple(cuts.tolist())):  # sample_array's array, run_frames' tuple
                count8, hit = np.full(len(x), 99, dtype=np.int8), np.empty(len(x), dtype=bool)
                got = _count_at_or_below(given, x, count8, hit)
                assert got.dtype == (np.int8 if n < 128 else np.intp), n
                assert (got is count8) == (n < 128)
                assert np.array_equal(got, want), n

