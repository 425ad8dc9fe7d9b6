import math

import numpy as np
import pytest

from framedvs import (
    BetaVector,
    CycleDistribution,
    FrameSystem,
    FrequencyTable,
    InfeasibleSystemError,
    TaskSpec,
    build_limit,
    check,
    danger_zones,
    danger_zones_overhead,
    discretize,
    dpms_rule,
    eval_step,
    limit,
    limit_rule,
    pitdvs_rule,
    quantize,
    rule_from_forward,
)
from framedvs.strategies import ContinuousRule

import gen


def degenerate_system(wcecs, deadline, freqs):
    cpu = FrequencyTable(freqs, tuple(0.1 * (i + 1) for i in range(len(freqs))))
    tasks = tuple(TaskSpec(w, CycleDistribution.degenerate(w)) for w in wcecs)
    return FrameSystem(tasks, deadline, cpu)


class TestBuildLimit:
    def test_clamp_collapses_to_top(self):
        sysd = degenerate_system((600,), 1.0, (500.0, 1000.0))
        strat = build_limit(sysd, danger_zones(sysd))
        assert strat.funcs[0].points == ((0.0, 1000.0),)

    def test_two_steps(self):
        sysd = degenerate_system((400,), 1.0, (500.0, 1000.0))
        strat = build_limit(sysd, danger_zones(sysd))
        pts = strat.funcs[0].points
        assert pts[0] == (0.0, 500.0)
        assert pts[1][0] == pytest.approx(0.2, abs=1e-12)
        assert pts[1][1] == 1000.0

    def test_top_frequency_just_before_zone(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            sysd = gen.realistic_feasible_system(rng)
            zones = danger_zones(sysd)
            strat = build_limit(sysd, zones)
            for i in range(sysd.n_tasks):
                t = zones.z[i] * (1 - 1e-12)
                assert eval_step(strat.funcs[i], t) == sysd.cpu.f_max

    def test_infeasible_raises(self):
        sysd = degenerate_system((600, 600), 1.0, (500.0, 1000.0))
        with pytest.raises(InfeasibleSystemError):
            build_limit(sysd, danger_zones(sysd))


class TestDpmsRule:
    def test_forward_value_at_zero(self):
        # averages 50 and 100 over a one-second frame: first task's
        # continuous speed starts at 150 cycles/s
        cpu = FrequencyTable((100.0, 1000.0), (0.1, 0.2))
        tasks = (
            TaskSpec(100, CycleDistribution.degenerate(50)),
            TaskSpec(200, CycleDistribution.degenerate(100)),
        )
        sysd = FrameSystem(tasks, 1.0, cpu)
        rule = dpms_rule(sysd)
        assert rule.inverse(0, 150.0) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_closed_form(self):
        cpu = FrequencyTable((100.0, 1000.0), (0.1, 0.2))
        tasks = (
            TaskSpec(100, CycleDistribution.degenerate(50)),
            TaskSpec(200, CycleDistribution.degenerate(100)),
        )
        sysd = FrameSystem(tasks, 1.0, cpu)
        rule = dpms_rule(sysd)
        assert rule.inverse(0, 300.0) == pytest.approx(1 - 150 / 300, rel=1e-12)

    def test_single_degenerate_task_matches_limit(self):
        sysd = degenerate_system((400,), 1.0, (500.0, 1000.0))
        zones = danger_zones(sysd)
        rule = dpms_rule(sysd)
        lim = limit_rule(sysd, zones)
        for f in (450.0, 500.0, 700.0, 999.0):
            assert rule.inverse(0, f) == pytest.approx(lim.inverse(0, f), rel=1e-12)

    def test_degenerate_up_is_at_least_limit(self):
        # betting on averages that equal the worst case never schedules
        # below the limit, and with one task the two coincide; with more
        # tasks the average rule runs strictly faster early on
        sysd = degenerate_system((100, 100), 1.0, (500.0, 1000.0))
        zones = danger_zones(sysd)
        up = discretize(sysd, zones, dpms_rule(sysd, "up"), "up")
        lim = build_limit(sysd, zones)
        ts = np.linspace(0.0, 1.0, 101)
        for i in range(2):
            for t in ts:
                assert eval_step(up.funcs[i], float(t)) >= eval_step(lim.funcs[i], float(t))
        # strict somewhere for the first task
        assert any(
            eval_step(up.funcs[0], float(t)) > eval_step(lim.funcs[0], float(t))
            for t in ts
        )


class TestPitdvsRule:
    def test_forward_value(self):
        sysd = degenerate_system((100, 100), 1.0, (100.0, 1000.0))
        rule = pitdvs_rule(sysd, BetaVector.ones(2), 0.0)
        # speed 100 needed from the start: crossing time is 0
        assert rule.inverse(0, 100.0) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_is_deadline_minus_work(self):
        sysd = degenerate_system((100, 100), 1.0, (100.0, 1000.0))
        rule = pitdvs_rule(sysd, BetaVector.ones(2), 0.0)
        for f in (200.0, 400.0, 800.0):
            assert rule.inverse(1, f) == pytest.approx(1.0 - 100 / f, rel=1e-12)

    def test_beta_half_doubles_required_speed(self):
        sysd = degenerate_system((100, 100), 1.0, (100.0, 1000.0))
        full = pitdvs_rule(sysd, BetaVector.ones(2), 0.0)
        half = pitdvs_rule(sysd, BetaVector((0.5, 0.5)), 0.0)
        for f in (200.0, 400.0, 800.0):
            assert half.inverse(1, 2 * f) == pytest.approx(full.inverse(1, f), rel=1e-12)

    def test_penalty_budget_validated(self):
        sysd = degenerate_system((100, 100), 1.0, (100.0, 1000.0))
        with pytest.raises(InfeasibleSystemError):
            pitdvs_rule(sysd, BetaVector.ones(2), 1.5)

    def test_beta_range_validated(self):
        with pytest.raises(ValueError):
            BetaVector((0.0, 1.0))
        with pytest.raises(ValueError):
            BetaVector((1.2,))


class TestDiscretize:
    def test_limit_rule_up_equals_build_limit(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            sysd = gen.realistic_feasible_system(rng)
            zones = danger_zones(sysd)
            a = build_limit(sysd, zones)
            b = discretize(sysd, zones, limit_rule(sysd, zones), "up")
            assert all(x.points == y.points for x, y in zip(a.funcs, b.funcs))

    def test_constant_rule_lifts_quantize(self):
        cpu = FrequencyTable(
            (150e6, 400e6, 600e6, 800e6, 1000e6), (0.1, 0.2, 0.3, 0.4, 0.5)
        )
        # big deadline: the limit stays below 400 MHz everywhere relevant
        tasks = (TaskSpec(1_000_000, CycleDistribution.degenerate(1_000_000)),)
        sysd = FrameSystem(tasks, 1.0, cpu)
        zones = danger_zones(sysd)

        rule = ContinuousRule(
            inverse=lambda i, f: -np.inf if f <= 450e6 else np.inf
        )
        up = discretize(sysd, zones, rule, "up")
        close = discretize(sysd, zones, rule, "closest")
        # stay where the limit is still below 400 MHz (t < 0.9975)
        for t in np.linspace(0.0, 0.99, 50):
            assert eval_step(up.funcs[0], float(t)) == 600e6
            assert eval_step(close.funcs[0], float(t)) == 400e6

    def test_outputs_always_pass_check(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            sysd = gen.realistic_feasible_system(rng, with_overheads=True)
            for zones in (danger_zones(sysd), danger_zones_overhead(sysd, "sufficient")):
                for mode in ("up", "closest"):
                    for rule in (
                        dpms_rule(sysd, mode),
                        pitdvs_rule(
                            sysd,
                            BetaVector.ones(sysd.n_tasks),
                            sysd.cpu.change_penalty_max,
                            mode,
                        ),
                    ):
                        s = discretize(sysd, zones, rule, mode)
                        assert check(sysd, s, zones).schedulable

    def test_pointwise_floors(self):
        # both modes sit on or above the ceilinged limit before the zone;
        # round-up also dominates the continuous rule, and closest
        # dominates the nearest-frequency image of the rule
        rng = np.random.default_rng(3)
        for _ in range(20):
            sysd = gen.realistic_feasible_system(rng)
            zones = danger_zones(sysd)
            rule = dpms_rule(sysd)
            up = discretize(sysd, zones, rule, "up")
            close = discretize(sysd, zones, rule, "closest")
            means = [t.dist.mean() for t in sysd.tasks]
            for i in range(sysd.n_tasks):
                remaining = float(np.sum(means[i:]))
                for frac in (0.0, 0.3, 0.7, 0.95):
                    t = zones.z[i] * frac
                    if t >= zones.z[i]:
                        continue
                    lim_f = quantize(sysd.cpu, limit(sysd, zones, i, t), "up")
                    cont = remaining / (sysd.deadline - t)
                    assert eval_step(up.funcs[i], t) >= lim_f
                    assert eval_step(close.funcs[i], t) >= lim_f
                    if cont <= sysd.cpu.f_max:
                        assert eval_step(up.funcs[i], t) >= cont - 1e-6
                        assert (
                            eval_step(close.funcs[i], t)
                            >= quantize(sysd.cpu, cont, "closest") - 1e-6
                        )

    def test_infeasible_raises(self):
        sysd = degenerate_system((600, 600), 1.0, (500.0, 1000.0))
        with pytest.raises(InfeasibleSystemError):
            discretize(sysd, danger_zones(sysd), dpms_rule(sysd), "up")


class TestRuleFromForward:
    def test_bisection_matches_closed_form(self):
        cpu = FrequencyTable((100.0, 1000.0), (0.1, 0.2))
        tasks = (
            TaskSpec(100, CycleDistribution.degenerate(50)),
            TaskSpec(200, CycleDistribution.degenerate(100)),
        )
        sysd = FrameSystem(tasks, 1.0, cpu)
        closed = dpms_rule(sysd)
        remaining = [150.0, 100.0]

        def forward(i, t):
            return remaining[i] / (sysd.deadline - t) if t < sysd.deadline else np.inf

        bisected = rule_from_forward(forward, sysd.deadline)
        for i in range(2):
            for f in (200.0, 300.0, 450.0, 900.0):
                assert bisected.inverse(i, f) == pytest.approx(
                    closed.inverse(i, f), abs=2e-9
                )

    def test_speeds_outside_the_forward_range_cross_at_infinity(self):
        """A rule already at f by t = 0 crosses at -inf; one below f at the horizon, at +inf."""
        rule = rule_from_forward(lambda i, t: 100.0 + 100.0 * t, 1.0)
        assert rule.inverse(0, 100.0) == -math.inf
        assert rule.inverse(0, 50.0) == -math.inf
        assert rule.inverse(0, 250.0) == math.inf
        assert 0.0 < rule.inverse(0, 150.0) < 1.0
