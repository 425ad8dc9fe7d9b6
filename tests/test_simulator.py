import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from framedvs import (
    CapExceededError,
    CycleDistribution,
    FrameSystem,
    FrequencyTable,
    StepFunction,
    StrategySet,
    TaskSpec,
    build_limit,
    danger_zones,
    eval_step,
    exact_expectation,
    monte_carlo,
    run_frame,
    run_frames,
    sweep_deadlines,
)
from framedvs.config import load_system
from framedvs.simulator import _exact_sum, evaluate, sample_cycles

import gen


def single_task_system():
    cpu = FrequencyTable((500.0, 1000.0), (0.9, 1.6))
    return FrameSystem(
        (TaskSpec(100, CycleDistribution.degenerate(100)),), 1.0, cpu
    )


def inversion_instance():
    """Two tasks where fewer first-task cycles delay the second task.

    The second task's function steps up at t=0.4; a first task ending
    just before that leaves the successor on the slow side.
    """
    cpu = FrequencyTable((500.0, 1000.0), (1.0, 2.0))
    tasks = (
        TaskSpec(500, CycleDistribution.histogram(100, (0.2,) * 5)),
        TaskSpec(400, CycleDistribution.degenerate(400)),
    )
    sysd = FrameSystem(tasks, 1.0, cpu)
    strat = StrategySet(
        (
            StepFunction(((0.0, 1000.0),)),
            StepFunction(((0.0, 500.0), (0.4, 1000.0))),
        )
    )
    return sysd, strat


class TestRunFrame:
    def test_single_task_energy(self):
        sysd = single_task_system()
        strat = StrategySet((StepFunction(((0.0, 1000.0),)),))
        r = run_frame(sysd, strat, (100,))
        assert r.finish_times == (0.1,)
        assert r.energy == pytest.approx(0.16, rel=1e-12)
        assert not r.missed

    def test_same_speed_switch_only(self):
        cpu = FrequencyTable(
            (500.0, 1000.0), (1.0, 2.0),
            ((0.0, 0.05), (0.05, 0.0)), (0.01, 0.02),
        )
        tasks = tuple(TaskSpec(100, CycleDistribution.degenerate(100)) for _ in range(2))
        sysd = FrameSystem(tasks, 1.0, cpu)
        strat = StrategySet(tuple(StepFunction(((0.0, 1000.0),)) for _ in range(2)))
        r = run_frame(sysd, strat, (100, 100), overheads=True)
        assert r.switch_time_total == 0.02  # one same-speed switch at the top
        assert r.finish_times[1] == pytest.approx(0.1 + 0.02 + 0.1, rel=1e-12)

    def test_shorter_first_task_can_finish_later(self):
        sysd, strat = inversion_instance()
        few = run_frame(sysd, strat, (390, 400))
        many = run_frame(sysd, strat, (410, 400))
        assert few.finish_times[1] > many.finish_times[1]
        assert few.missed and not many.missed

    def test_validation(self):
        sysd = single_task_system()
        strat = StrategySet((StepFunction(((0.0, 1000.0),)),))
        with pytest.raises(ValueError):
            run_frame(sysd, strat, (100, 100))
        with pytest.raises(ValueError):
            run_frame(sysd, strat, (101,))
        with pytest.raises(ValueError):
            run_frame(sysd, strat, (0,))


class TestBatchAgainstScalarReplay:
    def test_independent_recomputation(self):
        """Replay the frame loop in plain Python and compare every field."""
        rng = np.random.default_rng(7)
        for _ in range(25):
            sysd = gen.realistic_feasible_system(rng, with_overheads=True)
            zones = danger_zones(sysd)
            strat = build_limit(sysd, zones)
            cycles = np.column_stack(
                [t.dist.sample_array(rng, 40) for t in sysd.tasks]
            ).astype(np.float64)
            fin, en, sw, ch, miss = run_frames(sysd, strat, cycles, overheads=True)
            cpu = sysd.cpu
            for r in range(cycles.shape[0]):
                t = 0.0
                energy = 0.0
                switch = 0.0
                changes = 0
                prev = None
                for i in range(sysd.n_tasks):
                    f = eval_step(strat.funcs[i], t)
                    j = cpu.index_of(f)
                    if prev is not None:
                        if j != prev:
                            cost = cpu.switch_penalty[prev][j]
                            changes += 1
                        else:
                            cost = cpu.same_speed_switch[j]
                        t += cost
                        switch += cost
                    exec_t = cycles[r, i] / f
                    energy += cpu.power[j] * exec_t
                    t += exec_t
                    assert fin[r, i] == pytest.approx(t, rel=1e-12)
                    prev = j
                assert en[r] == pytest.approx(energy, rel=1e-12)
                assert sw[r] == pytest.approx(switch, rel=1e-12)
                assert ch[r] == changes
                assert bool(miss[r]) == (t > sysd.deadline)

    def test_energy_additivity_exact(self):
        sysd, strat = inversion_instance()
        r = run_frame(sysd, strat, (300, 400), overheads=False)
        cpu = sysd.cpu
        f1 = eval_step(strat.funcs[0], 0.0)
        t1 = 300 / f1
        f2 = eval_step(strat.funcs[1], t1)
        expect = (
            cpu.power[cpu.index_of(f1)] * (300 / f1)
            + cpu.power[cpu.index_of(f2)] * (400 / f2)
        )
        assert r.energy == expect


def scalar_replay(sysd, funcs, cycles, overheads):
    """Plain-Python frame loop over ``eval_step``: the reference for run_frames.

    Runs the first ``len(funcs)`` tasks; returns the five run_frames outputs.
    """
    cpu = sysd.cpu
    finish, energies, switches, counts, missed = [], [], [], [], []
    for row in cycles:
        t = energy = switch = 0.0
        changes = 0
        prev = None
        fin = []
        for fn, c in zip(funcs, row):
            f = eval_step(fn, t)
            j = cpu.index_of(f)
            if prev is not None:
                changes += j != prev
                if overheads:
                    cost = cpu.same_speed_switch[j] if j == prev else cpu.switch_penalty[prev][j]
                    t += cost
                    switch += cost
            exec_t = float(c) / f
            energy += cpu.power[j] * exec_t
            t += exec_t
            fin.append(t)
            prev = j
        finish.append(fin)
        energies.append(energy)
        switches.append(switch)
        counts.append(changes)
        missed.append(t > sysd.deadline)
    return finish, energies, switches, counts, missed


class TestExactScalarReplay:
    def test_arbitrary_strategies_bit_identical(self):
        """run_frames equals the scalar loop with ==, on non-monotone step
        functions of 1-12 steps whose step times include start times that
        earlier frames reach exactly (ties pick the later step)."""
        rng = np.random.default_rng(2024)
        ties = 0
        for case in range(24):
            sysd = gen.realistic_feasible_system(rng, n_max=6, with_overheads=True)
            cycles = sample_cycles(sysd, rng, 200)
            freqs = sysd.cpu.freqs
            funcs = []
            for i in range(sysd.n_tasks):
                n_steps = int(rng.integers(1, 13))
                times = {float(x) for x in rng.uniform(0.0, 1.2 * sysd.deadline, n_steps)}
                if i:
                    for ov in (False, True):
                        starts = np.array(scalar_replay(sysd, funcs, cycles, ov)[0])[:, -1]
                        times |= {float(x) for x in rng.choice(starts, n_steps // 2)}
                times = [0.0] + sorted(times - {0.0})[: n_steps - 1]
                pts = tuple((x, float(freqs[int(rng.integers(len(freqs)))])) for x in times)
                funcs.append(StepFunction(pts))
            strat = StrategySet(tuple(funcs))
            for ov in (False, True):
                want = scalar_replay(sysd, funcs, cycles, ov)
                starts = np.array(want[0])[:, :-1]
                ties += sum(int(np.isin(starts[:, i], fn._times).sum()) for i, fn in enumerate(funcs[1:]))
                for order in ("C", "F"):
                    got = run_frames(sysd, strat, np.asarray(cycles, order=order), overheads=ov)
                    for g, w in zip(got, want):
                        assert np.array_equal(g, np.array(w)), (case, ov, order)
                        assert g.dtype == np.array(w).dtype
        assert ties > 100, "too few start times land exactly on a step time"


class TestExactSum:
    def cases(self):
        rng = np.random.default_rng(5)
        sign = lambda n: rng.choice([-1.0, 1.0], n)
        yield rng.uniform(0.01, 0.02, 20_000)
        yield sign(5000) * rng.uniform(1.0, 10.0, 5000) * 10.0 ** rng.integers(-320, 301, 5000)
        yield rng.integers(-1000, 1000, 3000) * 5e-324  # subnormals
        yield np.concatenate([rng.uniform(-1, 1, 500) * 2.0**-1060, rng.uniform(0, 1, 500)])
        yield np.array([1e300, 1.0, -1e300, 3e-310, -3e-310, 2.0**-1074])
        yield np.zeros(100)
        yield np.array([-0.0] * 10)
        yield np.array([0.0, -0.0, 1.5, -0.0])
        yield np.array([0.1] * 10 + [-0.1] * 9)
        yield sign(2000) * rng.uniform(0, 1, 2000) * 2.0 ** rng.integers(-50, 50, 2000)
        for x in (0.0, -0.0, 5e-324, -2.5, 1.7976931348623157e308, 0.1):
            yield np.array([x])

    def test_equals_fsum(self):
        for a in self.cases():
            got, want = _exact_sum(a), math.fsum(a)
            assert type(got) is float
            assert got == want, (a[:4], got, want)

    def test_non_finite_falls_back_to_fsum(self):
        assert _exact_sum(np.array([1.0, np.inf])) == math.inf
        assert math.isnan(_exact_sum(np.array([1.0, np.nan])))
        with pytest.raises(ValueError):
            _exact_sum(np.array([np.inf, -np.inf]))


def test_evaluate_frees_each_run_before_the_next():
    """Peak memory of evaluate does not grow with the number of builders."""
    sysd = load_system(Path(__file__).resolve().parent.parent / "configs" / "xscale.json")
    zones = danger_zones(sysd)
    cycles = sample_cycles(sysd, np.random.default_rng(0), 200_000)

    def peak(n_builders):
        tracemalloc.start()
        try:
            evaluate(sysd, sysd, zones, [(f"limit{k}", build_limit) for k in range(n_builders)], cycles)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(5) <= 1.05 * peak(1)


class TestMonteCarlo:
    def test_degenerate_equals_single_frame(self):
        sysd = single_task_system()
        strat = StrategySet((StepFunction(((0.0, 1000.0),)),))
        st = monte_carlo(sysd, strat, 500, seed=1)
        r = run_frame(sysd, strat, (100,))
        assert st.mean_energy == r.energy
        assert st.energy_stderr == 0.0
        assert st.miss_rate == 0.0

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(8)
        sysd = gen.realistic_feasible_system(rng)
        strat = build_limit(sysd, danger_zones(sysd))
        a = monte_carlo(sysd, strat, 2000, seed=123)
        b = monte_carlo(sysd, strat, 2000, seed=123)
        assert a == b
        c = monte_carlo(sysd, strat, 2000, seed=124)
        assert c != a


class TestExactExpectation:
    def test_two_point_support(self):
        cpu = FrequencyTable((500.0, 1000.0), (0.9, 1.6))
        dist = CycleDistribution.from_points({50: 0.25, 100: 0.75})
        sysd = FrameSystem((TaskSpec(100, dist),), 1.0, cpu)
        strat = StrategySet((StepFunction(((0.0, 1000.0),)),))
        st = exact_expectation(sysd, strat)
        e50 = run_frame(sysd, strat, (50,)).energy
        e100 = run_frame(sysd, strat, (100,)).energy
        assert st.mean_energy == pytest.approx(0.25 * e50 + 0.75 * e100, rel=1e-12)
        assert st.frames == 2

    def test_probability_weighted_recomputation(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            sysd = gen.atom_system(rng)
            strat = build_limit(sysd, danger_zones(sysd)) if danger_zones(sysd).z[0] >= 0 else None
            if strat is None:
                continue
            st = exact_expectation(sysd, strat, overheads=True)
            # independent recomputation straight from the definition
            import itertools

            total_p = 0.0
            mean_e = 0.0
            miss_p = 0.0
            supports = [list(zip(*t.dist.atoms())) for t in sysd.tasks]
            for combo in itertools.product(*supports):
                cycles = tuple(int(v) for v, _ in combo)
                p = float(np.prod([pp for _, pp in combo]))
                r = run_frame(sysd, strat, cycles, overheads=True)
                total_p += p
                mean_e += p * r.energy
                miss_p += p * r.missed
            assert abs(total_p - 1.0) <= 1e-9
            assert st.mean_energy == pytest.approx(mean_e, rel=1e-9)
            assert st.miss_rate == pytest.approx(miss_p, abs=1e-12)

    def test_monte_carlo_agrees_within_tolerance(self):
        rng = np.random.default_rng(10)
        sysd = gen.atom_system(rng, n_max=3, atoms_max=3)
        zones = danger_zones(sysd)
        if zones.z[0] < 0:
            pytest.skip("random draw was infeasible")
        strat = build_limit(sysd, zones)
        exact = exact_expectation(sysd, strat)
        mc = monte_carlo(sysd, strat, 100_000, seed=5)
        if mc.energy_stderr == 0.0:
            assert mc.mean_energy == pytest.approx(exact.mean_energy, rel=1e-12)
        else:
            assert abs(mc.mean_energy - exact.mean_energy) <= 4 * mc.energy_stderr

    def test_cap(self):
        rng = np.random.default_rng(11)
        sysd = gen.realistic_feasible_system(rng)  # wide uniform supports
        strat = build_limit(sysd, danger_zones(sysd))
        with pytest.raises(CapExceededError):
            exact_expectation(sysd, strat, cap=100)


class TestSchedulabilityEndToEnd:
    def test_builders_safe_on_thousand_systems(self):
        """Builder outputs never overrun the deadline, overheads matched.

        Verified against the worst-case oracle (stronger than sampling)
        on 1,000 random feasible systems, half with switch penalties,
        plus a sampled miss-rate spot check on a subset.
        """
        from framedvs import (
            BetaVector,
            discretize,
            dpms_rule,
            monte_carlo,
            pitdvs_rule,
            worst_finish_oracle,
        )
        from framedvs.schedulability import danger_zones_overhead

        rng = np.random.default_rng(1111)
        for trial in range(1000):
            with_oh = trial % 2 == 0
            sysd = gen.realistic_feasible_system(rng, n_max=4, with_overheads=with_oh)
            zones = (
                danger_zones_overhead(sysd, "sufficient")
                if with_oh
                else danger_zones(sysd)
            )
            strats = [
                build_limit(sysd, zones),
                discretize(sysd, zones, dpms_rule(sysd, "up"), "up"),
                discretize(sysd, zones, dpms_rule(sysd, "closest"), "closest"),
            ]
            if trial % 5 == 0:
                pt = sysd.cpu.change_penalty_max
                beta = BetaVector.ones(sysd.n_tasks)
                strats.append(
                    discretize(sysd, zones, pitdvs_rule(sysd, beta, pt, "up"), "up")
                )
            for strat in strats:
                rep = worst_finish_oracle(sysd, strat, overheads=with_oh)
                assert rep.tau[-1] <= sysd.deadline + 1e-12
            if trial % 20 == 0:
                st = monte_carlo(sysd, strats[0], 2000, seed=trial, overheads=with_oh)
                assert st.miss_rate == 0.0


class TestSweep:
    def builders(self):
        return [
            ("limit_a", lambda s, z: build_limit(s, z)),
            ("limit_b", lambda s, z: build_limit(s, z)),
        ]

    def test_identical_builders_ratio_one(self):
        rng = np.random.default_rng(12)
        sysd = gen.realistic_feasible_system(rng)
        wsum = sum(sysd.wcecs)
        table = sweep_deadlines(
            sysd, self.builders(),
            wsum / sysd.cpu.f_max * 1.001, wsum / sysd.cpu.f_min * 1.1,
            6, 500, seed=3, baseline="limit_a",
        )
        for c in table.cells:
            assert c.energy_ratio == 1.0

    def test_infeasible_cells_are_na(self):
        rng = np.random.default_rng(13)
        sysd = gen.realistic_feasible_system(rng)
        wsum = sum(sysd.wcecs)
        table = sweep_deadlines(
            sysd, self.builders(),
            wsum / sysd.cpu.f_max * 0.5, wsum / sysd.cpu.f_min,
            8, 200, seed=3,
        )
        nas = [c for c in table.cells if c.stats is None]
        assert nas, "expected infeasible cells at overloaded deadlines"
        csv = table.to_csv()
        assert "NA" in csv
        assert csv.splitlines()[0] == "deadline_s,strategy,mean_energy_j,energy_ratio,miss_rate,stderr_j"

    def test_deterministic_csv(self):
        rng = np.random.default_rng(14)
        sysd = gen.realistic_feasible_system(rng)
        wsum = sum(sysd.wcecs)
        args = (
            sysd, self.builders(),
            wsum / sysd.cpu.f_max * 1.01, wsum / sysd.cpu.f_min,
            5, 300,
        )
        a = sweep_deadlines(*args, seed=9).to_csv()
        b = sweep_deadlines(*args, seed=9).to_csv()
        assert a == b
