import math

import numpy as np
import pytest

from framedvs import (
    CheckReport,
    CycleDistribution,
    DangerZones,
    FrameSystem,
    FrequencyTable,
    StepFunction,
    StrategySet,
    TaskSpec,
    Violation,
    build_limit,
    check,
    danger_zones,
    danger_zones_overhead,
    limit,
    run_frame,
    worst_finish_oracle,
)

import gen


def make_system(wcecs, deadline, freqs=(150.0, 1000.0), pt=None, st=None):
    cpu = FrequencyTable(
        freqs, tuple(0.1 * (i + 1) for i in range(len(freqs))), pt or (), st or ()
    )
    tasks = tuple(TaskSpec(w, CycleDistribution.degenerate(w)) for w in wcecs)
    return FrameSystem(tasks, deadline, cpu)


class TestDangerZones:
    def test_three_tasks(self):
        z = danger_zones(make_system((100, 200, 300), 1.0, freqs=(150.0, 1000.0))).z
        assert z == pytest.approx((0.4, 0.5, 0.7, 1.0), abs=1e-12)

    def test_single_task(self):
        z = danger_zones(make_system((600,), 1.0)).z
        assert z == pytest.approx((0.4, 1.0), abs=1e-12)

    def test_negative_zone_when_overloaded(self):
        z = danger_zones(make_system((100, 200, 300), 0.5)).z
        assert z[0] == pytest.approx(-0.1, abs=1e-12)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            sysd = gen.realistic_feasible_system(rng)
            z = danger_zones(sysd).z
            assert all(a < b for a, b in zip(z, z[1:]))


class TestOverheadZones:
    def test_necessary(self):
        sysd = make_system(
            (100, 100), 1.0, pt=((0.0, 0.02), (0.02, 0.0)), st=(0.01, 0.01)
        )
        zn = danger_zones_overhead(sysd, "necessary").z
        assert zn == pytest.approx((0.78, 0.89, 1.0), abs=1e-12)

    def test_sufficient(self):
        sysd = make_system(
            (100, 100), 1.0, pt=((0.0, 0.02), (0.02, 0.0)), st=(0.01, 0.01)
        )
        zs = danger_zones_overhead(sysd, "sufficient").z
        assert zs == pytest.approx((0.76, 0.88, 1.0), abs=1e-12)

    def test_zero_penalties_degenerate_to_plain(self):
        sysd = make_system((100, 100), 1.0)
        assert danger_zones_overhead(sysd, "necessary").z == danger_zones(sysd).z
        assert danger_zones_overhead(sysd, "sufficient").z == danger_zones(sysd).z

    def test_ordering(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            sysd = gen.realistic_feasible_system(rng, with_overheads=True)
            z = danger_zones(sysd).z
            zn = danger_zones_overhead(sysd, "necessary").z
            zs = danger_zones_overhead(sysd, "sufficient").z
            assert all(a <= b + 1e-15 for a, b in zip(zs, zn))
            assert all(a <= b + 1e-15 for a, b in zip(zn, z))
            assert zs[-1] == zn[-1] == z[-1] == sysd.deadline


class TestFinishTargets:
    def test_plain_mode_matches_danger_zones(self):
        sysd = make_system((100, 100), 1.0, pt=((0.0, 0.02), (0.02, 0.0)), st=(0.01, 0.01))
        assert danger_zones_overhead(sysd, "plain") == danger_zones(sysd)

    def test_sufficient_targets_keep_one_penalty_margin(self):
        sysd = make_system((100, 100), 1.0, pt=((0.0, 0.02), (0.02, 0.0)), st=(0.01, 0.01))
        zs = danger_zones_overhead(sysd, "sufficient")
        assert zs.targets == tuple(z - 0.02 for z in zs.z[1:])
        zn = danger_zones_overhead(sysd, "necessary")
        assert zn.targets == zn.z[1:]

    def test_zone_start_is_the_top_speed_crossing(self):
        # a built strategy's top step reaches the zone start exactly, so
        # the zone chain and the crossing must agree bit for bit
        rng = np.random.default_rng(5)
        for _ in range(50):
            sysd = gen.realistic_feasible_system(rng, with_overheads=True)
            for zones in (danger_zones(sysd), danger_zones_overhead(sysd, "sufficient")):
                for i, w in enumerate(sysd.wcecs):
                    assert zones.crossing(i, w, sysd.cpu.f_max) == zones.z[i]

    def test_target_count_validated(self):
        with pytest.raises(ValueError):
            DangerZones((0.5, 1.0), targets=(0.9, 1.0))


class TestLimit:
    def test_direct_value(self):
        # second of three tasks, z_3 = 0.7
        sysd = make_system((100, 200, 300), 1.0)
        zones = danger_zones(sysd)
        assert limit(sysd, zones, 1, 0.0) == pytest.approx(200 / 0.7, rel=1e-12)

    def test_boundary_reaches_top_frequency_exactly(self):
        # dyadic inputs: the identity holds with no tolerance at all
        cpu = FrequencyTable((2.0**27, 2.0**28), (0.1, 0.2))
        tasks = tuple(
            TaskSpec(w, CycleDistribution.degenerate(w)) for w in (2**20, 3 * 2**20)
        )
        sysd = FrameSystem(tasks, 0.125, cpu)
        zones = danger_zones(sysd)
        for i in range(2):
            assert limit(sysd, zones, i, zones.z[i]) == cpu.f_max

    def test_past_horizon_rejected(self):
        sysd = make_system((100, 200, 300), 1.0)
        zones = danger_zones(sysd)
        with pytest.raises(ValueError, match="past feasibility horizon"):
            limit(sysd, zones, 1, 0.7)

    def test_strictly_increasing_in_time(self):
        sysd = make_system((100, 200, 300), 1.0)
        zones = danger_zones(sysd)
        for i in range(3):
            ts = np.linspace(0.0, zones.z[i], 20)
            vals = [limit(sysd, zones, i, float(t)) for t in ts]
            assert all(a < b for a, b in zip(vals, vals[1:]))


class TestCheck:
    def test_limit_strategy_passes(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            sysd = gen.realistic_feasible_system(rng)
            zones = danger_zones(sysd)
            assert check(sysd, build_limit(sysd, zones), zones).schedulable

    def test_constant_top_frequency(self):
        ok = make_system((100, 200), 0.5)
        zones = danger_zones(ok)
        top = StrategySet(
            tuple(StepFunction(((0.0, 1000.0),)) for _ in range(2))
        )
        assert check(ok, top, zones).schedulable
        bad = make_system((300, 300), 0.5)
        assert not check(bad, top, danger_zones(bad)).schedulable

    def test_hand_traced_violation(self):
        # one task, two speeds, w=600, D=1: needs the top frequency from
        # time 0.4 on, so a flat slow function fails with required 1000
        sysd = make_system((600,), 1.0, freqs=(500.0, 1000.0))
        zones = danger_zones(sysd)
        rep = check(sysd, StrategySet((StepFunction(((0.0, 500.0),)),)), zones)
        assert not rep.schedulable
        v = rep.violation
        assert (v.task_number, v.step_number) == (1, 1)
        assert v.required_hz == pytest.approx(1000.0, rel=1e-12)
        assert v.provided_hz == 500.0

    def test_decorative_steps_beyond_zone_ignored(self):
        # dropping to the lowest speed inside the danger zone is harmless
        sysd = make_system((600,), 1.0, freqs=(500.0, 1000.0))
        zones = danger_zones(sysd)
        s = StrategySet((StepFunction(((0.0, 1000.0), (0.5, 500.0))),))
        assert check(sysd, s, zones).schedulable

    def test_negative_zones_report_not_schedulable(self):
        sysd = make_system((100, 200, 300), 0.5)
        zones = danger_zones(sysd)
        top = StrategySet(tuple(StepFunction(((0.0, 1000.0),)) for _ in range(3)))
        rep = check(sysd, top, zones)
        assert not rep.schedulable
        assert rep.violation.required_hz == math.inf
        assert rep.to_dict()["violation"]["required_hz"] is None

    def test_required_speed_is_the_limit_at_the_step_bound(self):
        """A flat slowest strategy fails its last task at z_N; the required speed
        keeps the bits of w_N / (target_N - z_N), the limit there."""
        rng = np.random.default_rng(4)
        for mode in ("plain", "sufficient"):
            for _ in range(20):
                sysd = gen.realistic_feasible_system(rng, with_overheads=True)
                zones = danger_zones_overhead(sysd, mode)
                slow = StrategySet(tuple(StepFunction(((0.0, sysd.cpu.freqs[0]),))
                                         for _ in range(sysd.n_tasks)))
                v = check(sysd, slow, zones).violation
                n = sysd.n_tasks
                assert (v.task_number, v.step_number) == (n, 1)
                assert v.required_hz == sysd.wcecs[-1] / (zones.targets[-1] - zones.z[n - 1])
                assert v.required_hz == limit(sysd, zones, n - 1, zones.z[n - 1])

    def test_zone_rounded_onto_its_target_requires_f_max(self):
        """1 cycle at 1e17 Hz is under half an ulp of 1.0 s: z_1 equals its target,
        where the limit is undefined and only the top speed passes."""
        sysd = make_system((1,), 1.0, freqs=(1e15, 1e17))
        zones = danger_zones(sysd)
        assert zones.z[0] == zones.targets[0] == 1.0
        rep = check(sysd, StrategySet((StepFunction(((0.0, 1e15),)),)), zones)
        assert (rep.violation.required_hz, rep.violation.provided_hz) == (1e17, 1e15)
        assert check(sysd, StrategySet((StepFunction(((0.0, 1e17),)),)), zones).schedulable

    def test_report_is_the_violation(self):
        assert CheckReport().schedulable
        assert CheckReport().to_dict() == {"schedulable": True}
        v = Violation(1, 1, 2.0, 1.0)
        assert not CheckReport(violation=v).schedulable
        with pytest.raises(TypeError):
            CheckReport(True)  # a positional verdict no longer exists

    def test_length_mismatch_rejected(self):
        sysd = make_system((100, 200), 1.0)
        with pytest.raises(ValueError):
            check(sysd, StrategySet((StepFunction(((0.0, 1000.0),)),)), danger_zones(sysd))

    def test_speed_off_the_table_rejected(self):
        """A step no CPU mode can run backs no verdict, however fast it is."""
        sysd = make_system((100, 200), 1.0)
        fast = StrategySet(tuple(StepFunction(((0.0, 5000.0),)) for _ in range(2)))
        with pytest.raises(ValueError, match="not in the table"):
            check(sysd, fast, danger_zones(sysd))

    def test_speed_check_names_the_first_bad_step(self):
        sysd = make_system((100, 200), 1.0)
        mixed = StrategySet((StepFunction(((0.0, 150.0), (0.1, 700.0))),
                             StepFunction(((0.0, 900.0),))))
        zones = danger_zones(sysd)
        with pytest.raises(ValueError, match="frequency 700.0 is not in the table"):
            check(sysd, mixed, zones)
        with pytest.raises(ValueError, match="strategy length does not match task count"):
            check(sysd, StrategySet(mixed.funcs[:1]), zones)


class TestSufficientModeSoundness:
    """The sufficient-mode check must keep simulated frames safe.

    A task reads its frequency when its predecessor ends and only then
    pays the change penalty, so holding each step merely to the next
    shifted zone is not enough: the strategy below satisfies that weaker
    inequality yet overruns the deadline in a worst-case frame. The
    shipped check therefore also budgets one worst change penalty inside
    each finish target, and builders place their steps the same way.
    """

    def example(self):
        pt = ((0.0, 0.05), (0.05, 0.0))
        return make_system((100, 100), 0.31, freqs=(500.0, 1000.0), pt=pt, st=(0.0, 0.0))

    def test_unmargined_target_admits_a_miss(self):
        sysd = self.example()
        zs = danger_zones_overhead(sysd, "sufficient")
        # same zone values but with plain-mode (marginless) evaluation
        literal = DangerZones(zs.z)
        strat = build_limit(sysd, literal)
        assert check(sysd, strat, literal).schedulable
        result = run_frame(sysd, strat, (100, 100), overheads=True)
        assert result.missed  # finishes at 0.35 > 0.31

    def test_margined_target_is_safe_and_tight(self):
        sysd = self.example()
        zs = danger_zones_overhead(sysd, "sufficient")
        strat = build_limit(sysd, zs)
        assert check(sysd, strat, zs).schedulable
        rep = worst_finish_oracle(sysd, strat, overheads=True)
        assert rep.tau[-1] <= sysd.deadline + 1e-12
        assert rep.tau[-1] == pytest.approx(sysd.deadline, rel=1e-9)

    def test_random_systems_worst_case_safe(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            sysd = gen.realistic_feasible_system(rng, with_overheads=True)
            zs = danger_zones_overhead(sysd, "sufficient")
            strat = build_limit(sysd, zs)
            rep = worst_finish_oracle(sysd, strat, overheads=True)
            assert rep.tau[-1] <= sysd.deadline + 1e-12

    def test_necessary_acceptance_scope_is_built_strategies(self):
        """An arbitrary function can pass sufficient yet fail necessary.

        Sufficient mode constrains a shorter prefix of start times than
        necessary mode, so a function that collapses right after the
        sufficient zone is invisible to one check and rejected by the
        other. Builder outputs hold their top speed past the zone and
        are immune; the acceptance ordering is stated for them.
        """
        pt = ((0.0, 0.2), (0.2, 0.0))
        sysd = make_system((600,), 1.0, freqs=(500.0, 1000.0), pt=pt, st=(0.01, 0.01))
        zs = danger_zones_overhead(sysd, "sufficient")
        zn = danger_zones_overhead(sysd, "necessary")
        drop_after_zone = StrategySet(
            (StepFunction(((0.0, 1000.0), (zs.z[0], 500.0))),)
        )
        assert check(sysd, drop_after_zone, zs).schedulable
        assert not check(sysd, drop_after_zone, zn).schedulable


class TestCheckMatchesOracle:
    def test_small_scale_equivalence(self):
        rng = np.random.default_rng(6)
        agree = 0
        for _ in range(200):
            sysd, strat = gen.equivalence_instance(rng)
            verdict = check(sysd, strat, danger_zones(sysd)).schedulable
            tau_n = worst_finish_oracle(sysd, strat).tau[-1]
            assert verdict == (tau_n <= sysd.deadline + 1e-9)
            agree += 1
        assert agree == 200
