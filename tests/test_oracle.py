import itertools

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
    danger_zones_overhead,
    discretize,
    dpms_rule,
    run_frame,
    run_frames,
    worst_finish_oracle,
)
from framedvs import oracle

import gen


def inversion_instance():
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


class TestConstantTopSpeed:
    def test_all_worst_case_is_the_worst(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            sysd = gen.atom_system(rng)
            top = StrategySet(
                tuple(StepFunction(((0.0, sysd.cpu.f_max),)) for _ in sysd.tasks)
            )
            rep = worst_finish_oracle(sysd, top)
            running = 0.0
            for i, t in enumerate(sysd.tasks):
                running += t.dist.support_max / sysd.cpu.f_max
                assert rep.tau[i] == pytest.approx(running, rel=1e-12)
            assert rep.witness[-1] == tuple(
                float(t.dist.support_max) for t in sysd.tasks
            )


class TestAgainstEnumeration:
    @pytest.mark.parametrize("overheads", [False, True])
    def test_atom_systems_match_brute_force(self, overheads):
        """With point supports the oracle is plain maximization."""
        rng = np.random.default_rng(1)
        for _ in range(60):
            sysd = gen.atom_system(rng)
            strat = StrategySet(
                tuple(
                    gen.random_step_function(rng, sysd.cpu.freqs, sysd.deadline)
                    for _ in sysd.tasks
                )
            )
            rep = worst_finish_oracle(sysd, strat, overheads=overheads)
            supports = [t.dist.atoms()[0] for t in sysd.tasks]
            worst = [0.0] * sysd.n_tasks
            for combo in itertools.product(*[map(int, s) for s in supports]):
                r = run_frame(sysd, strat, combo, overheads=overheads)
                for i, f in enumerate(r.finish_times):
                    worst[i] = max(worst[i], f)
            for i in range(sysd.n_tasks):
                assert rep.tau[i] == pytest.approx(worst[i], rel=1e-12)

    def test_witness_replays_to_tau_for_atoms(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            sysd = gen.atom_system(rng)
            strat = StrategySet(
                tuple(
                    gen.random_step_function(rng, sysd.cpu.freqs, sysd.deadline)
                    for _ in sysd.tasks
                )
            )
            rep = worst_finish_oracle(sysd, strat, overheads=True)
            for i in range(sysd.n_tasks):
                cycles = [int(t.dist.atoms()[0][0]) for t in sysd.tasks]
                for j, c in enumerate(rep.witness[i]):
                    cycles[j] = int(round(c))
                r = run_frame(sysd, strat, cycles, overheads=True)
                assert r.finish_times[i] == pytest.approx(rep.tau[i], rel=1e-9)

    def test_witnesses_replay_under_switch_costs(self):
        """Each witness replays to tau with the switch costs the oracle charged.

        The exception is a supremum approached from below: a replayed start
        that lands on a step time of its function takes the next step.
        """
        rng = np.random.default_rng(0)
        for _ in range(150):
            sysd = gen.realistic_feasible_system(rng, n_max=6, with_overheads=True)
            zones = danger_zones_overhead(sysd, "sufficient")
            strategies = (
                build_limit(sysd, zones),
                discretize(sysd, zones, dpms_rule(sysd, "closest"), "closest"),
                StrategySet(
                    tuple(
                        gen.random_step_function(rng, sysd.cpu.freqs, sysd.deadline)
                        for _ in sysd.tasks
                    )
                ),
            )
            for strat in strategies:
                rep = worst_finish_oracle(sysd, strat, overheads=True)
                for i, w in enumerate(rep.witness):
                    cycles = [float(t.wcec) for t in sysd.tasks]
                    cycles[: i + 1] = w
                    fin, *_ = run_frames(
                        sysd, strat, np.array([cycles]), overheads=True,
                        finish=np.empty((1, sysd.n_tasks)),
                    )
                    starts = [0.0, *fin[0, :i]]
                    on_step = any(
                        abs(t - bt) <= 1e-9 * bt
                        for fn, t in zip(strat.funcs, starts)
                        for bt, _ in fn.points[1:]
                    )
                    if not on_step:
                        assert fin[0, i] == pytest.approx(rep.tau[i], rel=1e-9)


class TestBinnedDemand:
    def test_inversion_tau_and_witness(self):
        sysd, strat = inversion_instance()
        rep = worst_finish_oracle(sysd, strat)
        # worst finish of the second task: first ends just before 0.4,
        # second runs its 400 cycles at the slow speed
        assert rep.tau[1] == pytest.approx(0.4 + 400 / 500.0, rel=1e-12)
        assert rep.witness[1][0] < sysd.tasks[0].wcec
        assert rep.witness[1][0] == pytest.approx(400.0, rel=1e-12)

    def test_tau_dominates_sampled_runs(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            sysd = FrameSystem(
                tuple(gen.contiguous_task(rng, bins_max=3) for _ in range(3)),
                0.02,
                gen.dyadic_cpu(rng),
            )
            strat = StrategySet(
                tuple(
                    gen.random_step_function(rng, sysd.cpu.freqs, sysd.deadline)
                    for _ in sysd.tasks
                )
            )
            rep = worst_finish_oracle(sysd, strat)
            cycles = np.column_stack(
                [t.dist.sample_array(rng, 300) for t in sysd.tasks]
            )
            from framedvs import run_frames

            fin, *_ = run_frames(sysd, strat, cycles.astype(np.float64), finish=np.empty(cycles.shape))
            for i in range(sysd.n_tasks):
                assert fin[:, i].max() <= rep.tau[i] + 1e-9

    def test_witness_is_reachable_demand(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            sysd = FrameSystem(
                tuple(gen.contiguous_task(rng, bins_max=2) for _ in range(3)),
                0.02,
                gen.dyadic_cpu(rng),
            )
            strat = StrategySet(
                tuple(
                    gen.random_step_function(rng, sysd.cpu.freqs, sysd.deadline)
                    for _ in sysd.tasks
                )
            )
            rep = worst_finish_oracle(sysd, strat)
            for i in range(sysd.n_tasks):
                for j, c in enumerate(rep.witness[i]):
                    assert 0.0 <= c <= sysd.tasks[j].wcec + 1e-9


class TestTwoTaskIndependentRecomputation:
    def test_binned_demand_matches_candidate_maximization(self):
        """Second implementation of the two-task worst case.

        With the first task pinned at time 0, its finish sweeps the
        demand ranges scaled by one frequency, and the worst finish of
        the second task is attained (or approached) either at a range
        endpoint image or just below a step boundary of the second
        function. Maximizing over exactly those candidates reproduces
        the oracle.
        """
        rng = np.random.default_rng(6)
        for _ in range(40):
            cpu = gen.dyadic_cpu(rng)
            t1 = gen.contiguous_task(rng, bins_max=3)
            # occasionally punch a hole in the first task's demand
            if rng.random() < 0.5:
                probs = [0.5, 0.0, 0.5]
                b = int(rng.integers(2**12, 2**20))
                t1 = TaskSpec(3 * b, CycleDistribution.histogram(b, probs))
            t2 = gen.contiguous_task(rng, bins_max=2)
            sysd = FrameSystem((t1, t2), 0.05, cpu)
            s1 = gen.random_step_function(rng, cpu.freqs, 0.02)
            s2 = gen.random_step_function(rng, cpu.freqs, 0.02)
            strat = StrategySet((s1, s2))
            rep = worst_finish_oracle(sysd, strat)

            from framedvs import eval_step

            f1 = eval_step(s1, 0.0)
            thetas = set()
            for lo, hi in t1.dist.ranges():
                thetas.add(lo / f1)
                thetas.add(hi / f1)
            theta_max = t1.dist.support_max / f1
            for bt, _ in s2.points[1:]:
                if bt <= theta_max:
                    thetas.add(bt)            # boundary itself (new step)
                    thetas.add(bt - 1e-15)    # one-sided limit from below
            best = 0.0
            for theta in thetas:
                if theta < 0 or not any(
                    lo / f1 <= theta <= hi / f1 for lo, hi in t1.dist.ranges()
                ):
                    # boundary probes must be reachable first-task finishes
                    continue
                f2 = eval_step(s2, theta)
                for _, hi2 in t2.dist.ranges():
                    best = max(best, theta + hi2 / f2)
            assert rep.tau[1] == pytest.approx(best, rel=1e-9)


class TestCaps:
    def test_interval_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_INTERVALS", 4)
        rng = np.random.default_rng(5)
        # gappy histograms times many steps blow up the interval count
        cpu = FrequencyTable((2.0**27, 2.0**28, 2.0**29), (0.1, 0.2, 0.3))
        tasks = []
        for _ in range(4):
            probs = (0.25, 0.0, 0.25, 0.0, 0.25, 0.0, 0.25)
            tasks.append(TaskSpec(7 * 2**15, CycleDistribution.histogram(2**15, probs)))
        sysd = FrameSystem(tuple(tasks), 0.02, cpu)
        strat = StrategySet(
            tuple(
                gen.random_step_function(rng, cpu.freqs, sysd.deadline)
                for _ in sysd.tasks
            )
        )
        with pytest.raises(CapExceededError):
            worst_finish_oracle(sysd, strat)


class TestLazyWitness:
    """The forward pass gives tau; the witness walk runs once, on first read."""

    def spy(self, monkeypatch) -> list[int]:
        calls: list[int] = []
        real = oracle._reconstruct

        def counting(starts, i, c):
            calls.append(i)
            return real(starts, i, c)

        monkeypatch.setattr(oracle, "_reconstruct", counting)
        return calls

    def test_reading_tau_never_walks_back(self, monkeypatch):
        calls = self.spy(monkeypatch)
        sysd, strat = inversion_instance()
        rep = worst_finish_oracle(sysd, strat, overheads=True)
        assert rep.tau[-1] == pytest.approx(0.4 + 400 / 500.0, rel=1e-12)
        assert calls == []

    def test_witness_walks_once_per_task_and_drops_intervals(self, monkeypatch):
        calls = self.spy(monkeypatch)
        sysd, strat = inversion_instance()
        rep = worst_finish_oracle(sysd, strat)
        first = rep.witness
        assert rep.witness is first
        assert calls == [0, 1]
        assert rep._starts is None and rep._tops is None

    def test_equality_and_hash_cover_tau_and_witness(self):
        sysd, strat = inversion_instance()
        a, b = worst_finish_oracle(sysd, strat), worst_finish_oracle(sysd, strat)
        assert a == b and hash(a) == hash(b)
        assert a.witness == b.witness
        slower = StrategySet((strat.funcs[0], StepFunction(((0.0, 500.0),))))
        assert worst_finish_oracle(sysd, slower) != a
