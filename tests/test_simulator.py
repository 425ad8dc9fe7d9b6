import math
import tracemalloc
from dataclasses import replace
from functools import partial
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
    discretize,
    dpms_rule,
    eval_step,
    exact_expectation,
    monte_carlo,
    run_frame,
    run_frames,
    sweep_deadlines,
)
from framedvs import simulator
from framedvs.cli import _build_entry, _soft_build_system
from framedvs.config import StrategyEntry, load_system
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 50.5])
    def test_non_integer_demand_raises(self, bad):
        sysd = single_task_system()
        strat = StrategySet((StepFunction(((0.0, 1000.0),)),))
        with pytest.raises(ValueError):
            run_frame(sysd, strat, (bad,))

    def test_numpy_integer_demand(self):
        sysd = single_task_system()
        strat = StrategySet((StepFunction(((0.0, 1000.0),)),))
        assert run_frame(sysd, strat, (np.int64(50),)) == run_frame(sysd, strat, (50,))


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
            fin, en, sw, ch, miss = run_frames(
                sysd, strat, cycles, overheads=True, finish=np.empty(cycles.shape)
            )
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


def tie_heavy_cases(rng, n_cases, n_frames=200):
    """(system, step functions, cycles) triples whose non-monotone step
    functions of 1-12 steps have step times that earlier tasks' start
    times reach exactly in some frames (ties pick the later step)."""
    for _ in range(n_cases):
        sysd = gen.realistic_feasible_system(rng, n_max=6, with_overheads=True)
        cycles = sample_cycles(sysd, rng, n_frames)
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
        yield sysd, funcs, cycles


def assert_equals_replay(got, want, msg):
    """Each output equals the reference's, dtype and bits included (NaN equals NaN)."""
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape, msg
        if g.dtype == np.float64:
            g, w = g.view(np.int64), w.view(np.int64)
        assert np.array_equal(g, w), msg


class TestExactScalarReplay:
    def test_arbitrary_strategies_bit_identical(self):
        """run_frames equals the scalar loop with ==, on tie-heavy strategies."""
        ties = 0
        for case, (sysd, funcs, cycles) in enumerate(tie_heavy_cases(np.random.default_rng(2024), 24)):
            strat = StrategySet(tuple(funcs))
            for ov in (False, True):
                want = scalar_replay(sysd, funcs, cycles, ov)
                starts = np.array(want[0])[:, :-1]
                ties += sum(int(np.isin(starts[:, i], fn._times).sum()) for i, fn in enumerate(funcs[1:]))
                for order in ("C", "F"):
                    c = np.asarray(cycles, order=order)
                    got = run_frames(sysd, strat, c, overheads=ov, finish=np.empty(c.shape))
                    assert_equals_replay(got, want, (case, ov, order))
        assert ties > 100, "too few start times land exactly on a step time"

    @pytest.mark.parametrize("block", [1, 7, 16_384, None])
    def test_block_size_does_not_change_outputs(self, monkeypatch, block):
        """Every block size, a block of all frames (None) included, gives the
        scalar loop's bits; 1 and 7 put block edges between tied frames."""
        for case, (sysd, funcs, cycles) in enumerate(tie_heavy_cases(np.random.default_rng(11), 6)):
            monkeypatch.setattr(simulator, "_FRAME_BLOCK", block or len(cycles))
            strat = StrategySet(tuple(funcs))
            for ov in (False, True):
                want = scalar_replay(sysd, funcs, cycles, ov)
                for order in ("C", "F"):
                    c = np.asarray(cycles, order=order)
                    got = run_frames(sysd, strat, c, overheads=ov, finish=np.empty(c.shape))
                    assert_equals_replay(got, want, (block, case, ov, order))

    def test_finish_is_optional(self, monkeypatch):
        """Without ``finish`` the other outputs keep their bits; with it, the
        array passed in is filled and returned, whatever its layout."""
        monkeypatch.setattr(simulator, "_FRAME_BLOCK", 7)
        for sysd, funcs, cycles in tie_heavy_cases(np.random.default_rng(12), 6):
            strat = StrategySet(tuple(funcs))
            for ov in (False, True):
                fin, *full = run_frames(sysd, strat, cycles, ov, np.empty(cycles.shape, order="F"))
                none, *bare = run_frames(sysd, strat, cycles, ov)
                assert none is None
                for a, b in zip(full, bare):
                    assert np.array_equal(a, b) and a.dtype == b.dtype
                out = np.empty(cycles.shape, order="C")
                assert run_frames(sysd, strat, cycles, ov, out)[0] is out
                assert np.array_equal(out, fin)
        for bad in (np.empty((len(cycles), sysd.n_tasks + 1)), np.empty(cycles.shape, dtype=np.float32)):
            with pytest.raises(ValueError):
                run_frames(sysd, strat, cycles, finish=bad)

    def test_aggregate_stats_do_not_depend_on_the_block(self, monkeypatch):
        """evaluate, monte_carlo and exact_expectation read no finish times,
        and their stats are equal at two block sizes."""
        rng = np.random.default_rng(13)
        sysd = gen.realistic_feasible_system(rng, with_overheads=True)
        # four histogram bins a task: 4**n outcomes to enumerate, more than a block of 7
        small = replace(sysd, tasks=tuple(
            TaskSpec(t.wcec, CycleDistribution.histogram(t.wcec // 4, (0.1, 0.2, 0.3, 0.4)))
            for t in sysd.tasks
        ))
        cycles = sample_cycles(sysd, rng, 3_000)
        builders = [
            ("limit", build_limit),
            ("dpms", lambda s, z: discretize(s, z, dpms_rule(s, "closest"), "closest")),
        ]
        small_strat = build_limit(small, danger_zones(small))
        results = []
        for block in (16_384, 7):
            monkeypatch.setattr(simulator, "_FRAME_BLOCK", block)
            results.append([
                (
                    evaluate(sysd, sysd, builders, cycles, ov),
                    monte_carlo(sysd, build_limit(sysd, danger_zones(sysd)), 2_000, 3, ov),
                    exact_expectation(small, small_strat, ov),
                )
                for ov in (False, True)
            ])
        assert results[0] == results[1]


def every_step_run_frames(sys, strategy, cycles, overheads=False, finish=None):
    """The frame loop that compares every start with every step time and
    reads speed and power by mode: the reference for the pruned lookup."""
    modes = sys.step_modes(strategy)
    cycles = np.asarray(cycles, dtype=np.float64)
    cpu = sys.cpu
    freqs, power, m = np.asarray(cpu.freqs), np.asarray(cpu.power), cpu.n_modes
    cost_of = np.ravel(cpu.switch_cost)
    n = cycles.shape[0]
    energy, switch, t = np.zeros(n), np.zeros(n), np.zeros(n)
    changes = np.zeros(n, dtype=np.int64)
    prev_idx = None
    for i, fn in enumerate(strategy.funcs):
        times = fn._times[1:]
        k = np.full(n, len(times), dtype=np.int64)
        for x in times:
            k -= t < x
        fi = np.asarray(modes[i], dtype=np.int64)[k]
        if prev_idx is not None:
            changes += fi != prev_idx
            if overheads:
                cost = cost_of[prev_idx * m + fi]
                t += cost
                switch += cost
        exec_t = cycles[:, i] / freqs[fi]
        energy += power[fi] * exec_t
        t += exec_t
        if finish is not None:
            finish[:, i] = t
        prev_idx = fi
    return finish, energy, switch, changes, t > sys.deadline


class TestBandedStepLookup:
    """run_frames compares a block's starts only with the step times between
    the block's smallest and largest start, and reads one scalar speed when
    there are none; every case gives the bits of the compare-every-step loop
    and of the scalar replay, at block sizes 1, 7 and all frames."""

    CPU = FrequencyTable(
        (100.0, 200.0, 400.0),
        (1.0, 3.0, 9.0),
        ((0.0, 1e-3, 3e-3), (1e-3, 0.0, 2e-3), (2e-3, 1e-3, 0.0)),
        (1e-4, 2e-4, 3e-4),
    )

    def system(self, n_tasks):
        task = TaskSpec(200, CycleDistribution.uniform(100, 200))
        return FrameSystem((task,) * n_tasks, 10.0, self.CPU)

    def check(self, monkeypatch, sysd, funcs, cycles):
        strat = StrategySet(tuple(funcs))
        for block in (1, 7, None):
            monkeypatch.setattr(simulator, "_FRAME_BLOCK", block or len(cycles))
            for ov in (False, True):
                got = run_frames(sysd, strat, cycles, ov, np.empty(cycles.shape))
                want = every_step_run_frames(sysd, strat, cycles, ov, np.empty(cycles.shape))
                assert_equals_replay(got, want, (block, ov))
                assert_equals_replay(got, scalar_replay(sysd, funcs, cycles, ov), (block, ov))

    def cycles(self, n_tasks, n_frames=50, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(100, 201, (n_frames, n_tasks)).astype(np.float64)

    def test_starts_on_one_step(self, monkeypatch):
        """Task 1 starts in [1, 2] s: every block sits on its middle step, and
        with 150 cycles every start equals that step's time (the later step)."""
        sysd = self.system(2)
        first = StepFunction(((0.0, 100.0),))
        inside = StepFunction(((0.0, 400.0), (0.5, 200.0), (3.0, 100.0)))
        self.check(monkeypatch, sysd, [first, inside], self.cycles(2))
        on = StepFunction(((0.0, 400.0), (1.5, 200.0), (3.0, 100.0)))
        cycles = np.full((20, 2), 150.0)
        self.check(monkeypatch, sysd, [first, on], cycles)
        _, energy, *_ = run_frames(sysd, StrategySet((first, on)), cycles)
        assert np.all(energy == 1.0 * 1.5 + 3.0 * (150.0 / 200.0))

    def test_block_min_and_max_on_step_times(self, monkeypatch):
        """Each block of 7 starts has its smallest start on one step time and
        its largest on the next; ties take the later step."""
        sysd = self.system(3)
        pattern = [100.0, 200.0, 150.0, 130.0, 170.0, 100.0, 200.0]
        cycles = np.column_stack([pattern * 6, np.full(42, 120.0), np.full(42, 160.0)])
        funcs = [
            StepFunction(((0.0, 100.0),)),
            StepFunction(((0.0, 100.0), (1.0, 400.0), (2.0, 200.0))),
            StepFunction(((0.0, 400.0), (1.0, 100.0), (2.5, 200.0))),
        ]
        starts = cycles[:, 0] / 100.0
        assert starts.min() == 1.0 and starts.max() == 2.0
        self.check(monkeypatch, sysd, funcs, cycles)

    def test_nan_and_inf_rows(self, monkeypatch):
        """A NaN start makes a block's min and max NaN: that block compares
        every step, and the NaN frame takes the last step, as an inf one does."""
        sysd = self.system(3)
        cycles = self.cycles(3, seed=1)
        cycles[3, 0] = np.nan
        cycles[9, 0] = np.inf
        cycles[20, 1] = np.nan
        funcs = [
            StepFunction(((0.0, 100.0),)),
            StepFunction(((0.0, 100.0), (1.5, 400.0), (5.0, 200.0))),
            StepFunction(((0.0, 200.0), (1.8, 100.0), (2.3, 400.0), (20.0, 200.0))),
        ]
        self.check(monkeypatch, sysd, funcs, cycles)
        fin, *_ = run_frames(sysd, StrategySet(tuple(funcs)), cycles, finish=np.empty(cycles.shape))
        assert np.isnan(fin[3]).all() and np.isinf(fin[9]).all()

    def test_zero_frames(self, monkeypatch):
        sysd = self.system(2)
        funcs = StrategySet((StepFunction(((0.0, 100.0),)), StepFunction(((0.0, 100.0), (1.5, 400.0)))))
        cycles = np.empty((0, 2))
        for ov in (False, True):
            got = run_frames(sysd, funcs, cycles, ov, np.empty((0, 2)))
            assert_equals_replay(got, every_step_run_frames(sysd, funcs, cycles, ov, np.empty((0, 2))), ov)
            assert [g.dtype for g in got] == [np.float64, np.float64, np.float64, np.int64, bool]

    def test_overheads_with_every_scalar_and_array_mix(self, monkeypatch):
        """Tasks whose starts straddle a step (array speed) or lie on one step
        (scalar speed) follow each other in all four orders, so the switch
        cost is looked up for each mix of previous and current mode."""
        sysd = self.system(6)
        cycles = self.cycles(6, n_frames=60, seed=2)
        kinds = "sAAssA"  # scalar or array lookup of each task
        funcs = [StepFunction(((0.0, 100.0),))]
        for i, kind in enumerate(kinds[1:], start=1):
            starts = np.concatenate([
                np.array(scalar_replay(sysd, funcs, cycles, ov)[0])[:, -1] for ov in (False, True)
            ])
            if kind == "s":
                times = (0.0, 0.5 * starts.min(), 2.0 * starts.max())
                speeds = (400.0, 200.0, 100.0)
            else:
                times = (0.0, float(np.median(starts)))
                speeds = (100.0, 400.0) if i % 2 else (200.0, 100.0)
            funcs.append(StepFunction(tuple(zip(times, speeds))))
        for ov in (False, True):
            fin = np.array(scalar_replay(sysd, funcs, cycles, ov)[0])
            for i, kind in enumerate(kinds[1:], start=1):
                starts, times = fin[:, i - 1], np.array(funcs[i]._times[1:])
                straddled = ((times > starts.min()) & (times <= starts.max())).any()
                assert straddled == (kind == "A"), (i, ov)
        self.check(monkeypatch, sysd, funcs, cycles)

    def test_first_task_reads_its_first_step(self, monkeypatch):
        """The first task starts at 0 in every frame, so its steps after the
        first, however close to 0, never apply."""
        sysd = self.system(2)
        funcs = [
            StepFunction(((0.0, 200.0), (1e-12, 100.0), (0.5, 400.0))),
            StepFunction(((0.0, 100.0), (0.75, 400.0))),
        ]
        cycles = self.cycles(2, seed=3)
        self.check(monkeypatch, sysd, funcs, cycles)
        fin, *_ = run_frames(sysd, StrategySet(tuple(funcs)), cycles, finish=np.empty(cycles.shape))
        assert np.array_equal(fin[:, 0], cycles[:, 0] / 200.0)


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


class TestBlockedExactSum:
    """Long inputs are summed in blocks of 65,536 and short ones by math.fsum;
    either way the bits, the sign of zero included, are math.fsum's."""

    LENGTHS = (1, 1023, 1024, 65535, 65536, 65537, 200_001)

    def arrays(self, n):
        rng = np.random.default_rng(n)
        sign = rng.choice([-1.0, 1.0], n)
        yield sign * rng.uniform(1.0, 2.0, n) * 2.0 ** rng.integers(-1074, 1001, n)
        yield rng.integers(-1000, 1000, n) * 5e-324  # subnormals
        yield rng.choice([0.0, -0.0], n)
        yield np.full(n, -0.0)
        # large terms that cancel exactly, around a residue far below them
        half = n // 2
        x = sign[:half] * rng.uniform(0.0, 1.0, half) * 2.0 ** rng.integers(-30, 1000, half)
        tiny = rng.uniform(-1.0, 1.0, n - 2 * half) * 2.0**-1060
        yield rng.permutation(np.concatenate([x, -x, tiny]))
        yield np.concatenate([np.full(half, 0.1), np.full(n - half, -0.1)])

    @pytest.mark.parametrize("n", LENGTHS)
    def test_bits_equal_fsum(self, n):
        for a in self.arrays(n):
            assert len(a) == n
            got, want = _exact_sum(a), math.fsum(a)
            assert type(got) is float
            assert got.hex() == want.hex(), (n, a[:4], got, want)

    def fast_path_arrays(self):
        """Blocks that take the int64 path next to blocks that fall back to
        math.fsum, with the limits of the int64 path on either side."""
        b = 65_536
        rng = np.random.default_rng(62)
        fast = rng.uniform(1e-3, 5e-3, b)  # frame energies: within 2**9 of the max
        wide = rng.choice([-1.0, 1.0], b) * rng.uniform(1.0, 2.0, b) * 2.0 ** rng.integers(-1074, 1001, b)
        subnormal = rng.integers(-1000, 1000, b) * 5e-324
        yield np.concatenate([fast, wide, -3.0 * fast, subnormal, fast[:1000]])
        # 2**-70 times the block maximum is no integer once scaled; the rest
        # of the block cancels exactly, so that value is the whole sum
        x = rng.uniform(1.0, 2.0, b // 2 - 1)
        odd = rng.permutation(np.concatenate([x, -x, [x.max() * 2.0**-70, 0.0]]))
        yield odd
        yield np.concatenate([fast, -fast, odd])
        # maxima just under 2**62 (int64 path, no scaling) and at 2**62 (fallback)
        for top in (np.nextafter(2.0**62, 0.0), 2.0**62):
            big = rng.uniform(0.5, 1.0, b) * top
            big[0] = top
            yield big  # one int64 sum of these would overflow
            half = big[2:b // 2]
            yield rng.permutation(np.concatenate([half, -half, [top, 1024.0 - top, 7.0, -3.0]]))
        # the lower limit of the int64 path, 2**-961, and just below it
        for top in (2.0**-961, np.nextafter(2.0**-961, 0.0)):
            small = rng.uniform(0.5, 1.0, b) * top
            small[0] = top
            yield small
        # negative values set the block's largest magnitude
        neg = -rng.uniform(1.0, 2.0, b) * 2.0**40
        neg[::7] *= -0.25
        yield neg
        yield np.concatenate([fast, neg, fast])
        zeros, negzeros = np.zeros(b), np.full(b, -0.0)
        yield np.concatenate([zeros, fast, negzeros, -fast, negzeros[:10]])
        yield np.concatenate([negzeros, negzeros, negzeros[:10]])
        yield np.concatenate([zeros, negzeros, wide[:10]])

    def test_fast_path_bits_equal_fsum(self):
        for a in self.fast_path_arrays():
            got, want = _exact_sum(a), math.fsum(a)
            assert type(got) is float
            assert got.hex() == want.hex(), (len(a), a[:4], got, want)

    def test_non_finite_after_fast_blocks(self):
        fast = np.random.default_rng(9).uniform(1e-3, 5e-3, 3 * 65_536)
        assert math.isnan(_exact_sum(np.concatenate([fast, [2.0, np.nan, 1.0]])))
        assert _exact_sum(np.concatenate([fast, [2.0, np.inf]])) == math.inf
        assert _exact_sum(np.concatenate([fast, fast, [-np.inf]])) == -math.inf
        with pytest.raises(ValueError):  # as math.fsum: inf - inf has no value
            _exact_sum(np.concatenate([fast, [np.inf], fast, [-np.inf]]))

    def test_memory_is_bounded_by_the_block(self):
        a = np.random.default_rng(3).random(1_500_000)
        tracemalloc.start()
        try:
            _exact_sum(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("overheads", [False, True])
    def test_frame_sums_never_fall_back(self, monkeypatch, overheads):
        """Frame energies and switch times take the int64 block path: over
        70,000 frames, more than one block, math.fsum only sees short inputs."""
        if overheads:
            sysd = gen.realistic_feasible_system(np.random.default_rng(0), with_overheads=True)
        else:
            sysd = load_system(Path(__file__).resolve().parent.parent / "configs" / "xscale.json")
        cycles = sample_cycles(sysd, np.random.default_rng(0), 70_000)
        fsum, sizes = math.fsum, []

        def spy(xs):
            xs = list(xs)
            sizes.append(len(xs))
            return fsum(xs)

        monkeypatch.setattr(math, "fsum", spy)
        builders = [
            ("limit", build_limit),
            ("dpms", lambda s, z: discretize(s, z, dpms_rule(s, "closest"), "closest")),
        ]
        out = evaluate(sysd, sysd, builders, cycles, overheads)
        assert all(st is not None and st.mean_energy > 0 for st in out.values())
        assert all((st.mean_switch_time > 0) == overheads for st in out.values())
        assert sizes and max(sizes) < 1024


def test_sweeps_with_overheads_never_miss():
    """With overheads on, the builders budget for the switch costs the run charges."""
    rng = np.random.default_rng(0)
    for _ in range(10):
        sysd = gen.realistic_feasible_system(rng, with_overheads=True)
        budget = sum(sysd.wcecs) / sysd.cpu.f_max + sysd.n_tasks * sysd.cpu.change_penalty_max
        table = sweep_deadlines(
            sysd, [("limit", build_limit)], 1.01 * budget, 3 * budget, 3, 1000, 0, overheads=True
        )
        for c in table.cells:
            assert c.stats is None or c.stats.miss_rate == 0, (sysd, c)


@pytest.mark.parametrize("overheads", [False, True], ids=["overheads-off", "overheads-on"])
def test_soft_builds_never_miss_within_the_percentiles(overheads):
    """simulate's soft_eps strategies meet the true deadline when every draw is <= its kappa."""
    entries = [StrategyEntry("limit", "limit"), StrategyEntry("dpms_up", "dpms", "up"),
               StrategyEntry("dpms_closest", "dpms", "closest"),
               StrategyEntry("pitdvs_up", "pitdvs", "up"), StrategyEntry("pitdvs", "pitdvs")]
    builders = [(e.name, partial(_build_entry, e)) for e in entries]
    configs = Path(__file__).resolve().parent.parent / "configs"
    rng = np.random.default_rng(17)
    systems = [load_system(configs / "ppc405.json"), load_system(configs / "xscale.json")]
    systems += [gen.realistic_feasible_system(rng, with_overheads=overheads) for _ in range(6)]
    for sysd in systems:
        for eps in (0.05, 0.2):
            build_sys = _soft_build_system(sysd, eps)
            assert build_sys.deadline == sysd.deadline
            kappa = np.array(build_sys.wcecs, dtype=np.float64)
            cycles = np.minimum(sample_cycles(sysd, rng, 1000), kappa)
            cycles[0] = kappa
            for name, st in evaluate(sysd, build_sys, builders, cycles, overheads).items():
                assert st is not None and st.miss_rate == 0, (sysd, eps, name)


def test_evaluate_frees_each_run_before_the_next():
    """Peak memory of evaluate does not grow with the number of builders."""
    sysd = load_system(Path(__file__).resolve().parent.parent / "configs" / "xscale.json")
    cycles = sample_cycles(sysd, np.random.default_rng(0), 200_000)

    def peak(n_builders):
        tracemalloc.start()
        try:
            evaluate(sysd, sysd, [(f"limit{k}", build_limit) for k in range(n_builders)], cycles)
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

    def test_one_frame_has_zero_stderr(self):
        rng = np.random.default_rng(8)
        sysd = gen.realistic_feasible_system(rng)
        st = monte_carlo(sysd, build_limit(sysd, danger_zones(sysd)), 1, seed=3)
        assert st.frames == 1
        assert st.energy_stderr == 0.0

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

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(simulator, "ENUMERATION_CAP", 100)
        rng = np.random.default_rng(11)
        sysd = gen.realistic_feasible_system(rng)  # wide uniform supports
        strat = build_limit(sysd, danger_zones(sysd))
        with pytest.raises(CapExceededError):
            exact_expectation(sysd, strat)


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

    @pytest.mark.parametrize("n_frames", [0, -1])
    def test_no_frames_is_a_value_error(self, n_frames):
        sysd = gen.realistic_feasible_system(np.random.default_rng(15))
        wsum = sum(sysd.wcecs)
        with pytest.raises(ValueError, match="need at least one frame"):
            sweep_deadlines(
                sysd, self.builders(), wsum / sysd.cpu.f_max, wsum / sysd.cpu.f_min, 3, n_frames, seed=1
            )


def test_evaluate_on_no_frames_is_a_value_error():
    sysd = gen.realistic_feasible_system(np.random.default_rng(16))
    with pytest.raises(ValueError, match="need at least one frame"):
        evaluate(sysd, sysd, [("limit", build_limit)], np.empty((0, sysd.n_tasks)))
