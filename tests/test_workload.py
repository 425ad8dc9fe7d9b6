import copy
import itertools
import math
import pickle
import sys
import tracemalloc

import numpy as np
import pytest

from framedvs import CycleDistribution, bin_trace, convolve, soft_deadline
from framedvs.core import CapExceededError, FrameSystem, FrequencyTable, TaskSpec


def end_bins(n_bins):
    """One-cycle bins with half the mass in each end bin: atoms 1 and n_bins."""
    return CycleDistribution.histogram(1, [0.5] + [0.0] * (n_bins - 2) + [0.5])


def brute_force(dists):
    """Sum distribution by enumerating every combination of atoms."""
    expect: dict[int, float] = {}
    supports = [list(zip(*d.atoms())) for d in dists]
    for combo in itertools.product(*supports):
        s = sum(int(v) for v, _ in combo)
        pr = math.prod(float(p) for _, p in combo)
        expect[s] = expect.get(s, 0.0) + pr
    return expect


def system_of(dists, deadline=1.0, f=(150.0, 1000.0)):
    cpu = FrequencyTable(f, tuple(0.1 * (i + 1) for i in range(len(f))))
    tasks = tuple(TaskSpec(d.support_max, d) for d in dists)
    return FrameSystem(tasks, deadline, cpu)


class TestSampling:
    def test_degenerate_always_hits(self):
        d = CycleDistribution.degenerate(100)
        rng = np.random.default_rng(0)
        assert all(d.sample(rng) == 100 for _ in range(50))

    def test_uniform_law_of_large_numbers(self):
        d = CycleDistribution.uniform(1, 10)
        rng = np.random.default_rng(1)
        xs = d.sample_array(rng, 1_000_000)
        assert abs(xs.mean() - 5.5) < 0.01

    def test_fixed_seed_reproduces(self):
        d = CycleDistribution.histogram(50, (0.25, 0.5, 0.25))
        a = d.sample_array(np.random.default_rng(42), 1000)
        b = d.sample_array(np.random.default_rng(42), 1000)
        assert np.array_equal(a, b)

    def test_histogram_draws_upper_edges(self):
        d = CycleDistribution.histogram(50, (0.5, 0.5))
        rng = np.random.default_rng(2)
        assert set(np.unique(d.sample_array(rng, 500))) <= {50, 100}


class TestMoments:
    def test_histogram_mean(self):
        d = CycleDistribution.histogram(50, (0.5, 0.5))
        assert d.mean() == 75.0

    def test_uniform_mean_exact(self):
        assert CycleDistribution.uniform(1, 10).mean() == 5.5

    def test_percentile_uniform(self):
        assert CycleDistribution.uniform(1, 10).percentile(0.2) == 8

    def test_percentile_tiny_eps_is_support_max(self):
        d = CycleDistribution.histogram(100, (0.2, 0.5, 0.3))
        assert d.percentile(1e-9) == d.support_max

    def test_percentile_monotone_in_eps(self):
        d = CycleDistribution.uniform(5, 40)
        vals = [d.percentile(e) for e in (0.01, 0.05, 0.1, 0.3, 0.6, 0.9)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_percentile_eps_validated(self):
        d = CycleDistribution.uniform(1, 4)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                d.percentile(bad)


class TestArrayAtoms:
    def test_atoms_are_read_only_arrays(self):
        d = CycleDistribution.histogram(10, (0.5, 0.5))
        with pytest.raises(ValueError):
            d.probs[0] = 1.0
        c = convolve([d, CycleDistribution.uniform(1, 3)])
        assert type(c.values) is np.ndarray and c.values.dtype == np.int64
        assert c.probs.dtype == np.float64
        with pytest.raises(ValueError):
            c.values[0] = 1

    def test_constructor_copies_caller_arrays(self):
        probs = np.array([0.5, 0.5])
        values = np.array([3, 9])
        h = CycleDistribution.histogram(10, probs)
        p = CycleDistribution("points", values=values, probs=probs)
        probs[0], values[0] = 0.9, 1
        assert h.probs.tolist() == p.probs.tolist() == [0.5, 0.5]
        assert p.values.tolist() == [3, 9]

    def test_equal_by_value(self):
        a = CycleDistribution.histogram(10, (0.5, 0.5))
        b = CycleDistribution.histogram(10, np.array([0.5, 0.5]))
        assert a == b and hash(a) == hash(b)
        assert a != CycleDistribution.histogram(10, (0.25, 0.75))
        assert a != CycleDistribution.histogram(20, (0.5, 0.5))
        assert a != "histogram"

    @pytest.mark.parametrize("copier", [lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy])
    def test_copies_stay_read_only(self, copier):
        for d in (CycleDistribution.histogram(10, (0.5, 0.5)),
                  CycleDistribution.from_points({3: 0.25, 9: 0.75}),
                  CycleDistribution.uniform(2, 5)):
            c = copier(d)
            assert c == d
            for arr in (c.probs, c.values):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[...] = 1


class TestBinTrace:
    def test_basic(self):
        d = bin_trace([100, 100, 200], 100)
        assert d.bin_size == 100
        assert d.probs.tolist() == [2 / 3, 1 / 3]

    def test_single_sample(self):
        d = bin_trace([1], 100)
        assert d.probs == (1.0,)
        assert d.support_max == 100

    def test_support_max_is_rounded_up(self):
        d = bin_trace([101, 205, 330], 100)
        assert d.support_max == math.ceil(330 / 100) * 100

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bin_trace([], 10)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            raw = rng.integers(1, 400, int(rng.integers(1, 60))).tolist()
            b = int(rng.integers(1, 50))
            counts: dict[int, int] = {}
            for c in raw:
                counts[-(-c // b)] = counts.get(-(-c // b), 0) + 1
            expect = [counts.get(k, 0) / len(raw) for k in range(1, max(counts) + 1)]
            assert bin_trace(raw, b).probs.tolist() == expect


class TestConvolve:
    def test_two_uniforms(self):
        u = CycleDistribution.uniform(1, 2)
        c = convolve([u, u])
        assert dict(zip(c.values, c.probs)) == pytest.approx({2: 0.25, 3: 0.5, 4: 0.25})

    def test_degenerate_shifts_support(self):
        u = CycleDistribution.uniform(1, 3)
        c = convolve([u, CycleDistribution.degenerate(10)])
        assert c.values.tolist() == [11, 12, 13]
        assert c.probs == pytest.approx(u.atoms()[1].tolist())

    def test_all_degenerate_single_mass(self):
        c = convolve([CycleDistribution.degenerate(w) for w in (100, 200, 300)])
        assert c.values == (600,)
        assert c.probs == (1.0,)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(20):
            dists = []
            for _ in range(int(rng.integers(2, 4))):
                k = int(rng.integers(1, 4))
                vals = sorted({int(v) for v in rng.integers(1, 60, k)})
                p = rng.uniform(0.1, 1, len(vals))
                p = p / p.sum()
                dists.append(
                    CycleDistribution.from_points(
                        {v: float(x) for v, x in zip(vals, p)}
                    )
                )
            cases.append(dists)
        # sparse histograms whose bin counts multiply past 4M
        sparse = np.random.default_rng(13)
        for _ in range(6):
            dists = []
            for _ in range(int(sparse.integers(2, 4))):
                n_bins = int(sparse.integers(2100, 3000))
                probs = np.zeros(n_bins)
                nonzero = sparse.choice(n_bins - 1, int(sparse.integers(1, 6)), replace=False)
                probs[np.append(nonzero, n_bins - 1)] = sparse.uniform(0.1, 1, len(nonzero) + 1)
                dists.append(CycleDistribution.histogram(int(sparse.integers(1, 4)), probs / probs.sum()))
            cases.append(dists)
        for dists in cases:
            got = convolve(dists)
            assert dict(zip(got.values, got.probs)) == pytest.approx(brute_force(dists), abs=1e-12)

    def test_end_bins_keep_exact_support(self):
        c = convolve([end_bins(3000), end_bins(2000)])
        assert c.values.tolist() == [2, 2001, 3001, 5000]
        assert c.probs == pytest.approx((0.25,) * 4, abs=1e-12)

    def test_numpy_only(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.signal", None)
        u = CycleDistribution.uniform(1, 3000)
        c = convolve([u, u])
        assert c.values.tolist() == list(range(2, 6001))
        assert c.mean() == pytest.approx(2 * u.mean(), rel=1e-12)

    def test_order_invariant(self):
        a = CycleDistribution.uniform(1, 5)
        b = CycleDistribution.histogram(3, (0.4, 0.6))
        c = CycleDistribution.degenerate(7)
        x = convolve([a, b, c])
        y = convolve([c, a, b])
        assert x.values.tolist() == y.values.tolist()
        assert x.probs == pytest.approx(y.probs, abs=1e-12)

    def test_mean_additivity(self):
        a = CycleDistribution.uniform(10, 500)
        b = CycleDistribution.histogram(40, (0.1, 0.2, 0.3, 0.4))
        c = convolve([a, b])
        assert c.mean() == pytest.approx(a.mean() + b.mean(), rel=1e-9)

    def test_cap(self):
        a = CycleDistribution.uniform(1, 100_000)
        with pytest.raises(CapExceededError):
            convolve([a, a], cap=1000)

    def test_cap_checked_before_atoms_are_built(self):
        a = CycleDistribution.uniform(1, 5_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                convolve([a, a], cap=1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_cap_counts_run_pairs(self):
        # 50 separate runs on a 500-point grid: 2500 run pairs, 999 grid points
        a = CycleDistribution.from_points({v: 1 / 51 for v in [1, 2] + list(range(20, 510, 10))})
        assert len(convolve([a, a], cap=2500).values) > 51
        with pytest.raises(CapExceededError):
            convolve([a, a], cap=2499)


class TestRanges:
    def test_histogram_contiguous_merges(self):
        d = CycleDistribution.histogram(100, (0.3, 0.7))
        assert d.ranges() == ((0.0, 200.0),)

    def test_histogram_gap_preserved(self):
        d = CycleDistribution.histogram(100, (0.5, 0.0, 0.5))
        assert d.ranges() == ((0.0, 100.0), (200.0, 300.0))

    def test_uniform_single_range(self):
        assert CycleDistribution.uniform(5, 20).ranges() == ((5.0, 20.0),)

    def test_points_degenerate(self):
        d = CycleDistribution.from_points({3: 0.4, 9: 0.6})
        assert d.ranges() == ((3.0, 3.0), (9.0, 9.0))


class TestTruncated:
    def test_moves_tail_mass(self):
        d = CycleDistribution.from_points({10: 0.5, 20: 0.3, 30: 0.2})
        t = d.truncated(20)
        assert dict(zip(t.values, t.probs)) == pytest.approx({10: 0.5, 20: 0.5})

    def test_matches_loop_reference(self):
        """Bit for bit the same as summing the clamped tail one atom at a time."""
        rng = np.random.default_rng(4)
        dists = [CycleDistribution.uniform(3, 90), CycleDistribution.histogram(7, rng.dirichlet(np.ones(30)))]
        for _ in range(10):
            vals = np.unique(rng.integers(1, 500, 40))
            dists.append(CycleDistribution("points", values=vals, probs=rng.dirichlet(np.ones(len(vals)))))
        for d in dists:
            vals, mass = d.atoms()
            for cap in rng.integers(vals[0], vals[-1], 5).tolist():
                expect: dict[int, float] = {}
                for v, p in zip(vals.tolist(), mass.tolist()):
                    expect[min(v, cap)] = expect.get(min(v, cap), 0.0) + p
                t = d.truncated(cap)
                assert t.values.tolist() == list(expect)
                assert t.probs.tolist() == list(expect.values())

    def test_noop_above_max(self):
        d = CycleDistribution.uniform(1, 10)
        assert d.truncated(10) is d


class TestSoftDeadline:
    def test_degenerate_keeps_deadline(self):
        sys0 = system_of([CycleDistribution.degenerate(w) for w in (100, 200)], deadline=2.0)
        r = soft_deadline(sys0, 0.05)
        assert r.frame_percentile == r.frame_wcec == 300
        assert r.adjusted_deadline == 2.0

    def test_two_uniform_tasks_half_eps(self):
        sys0 = system_of([CycleDistribution.uniform(1, 2)] * 2, deadline=1.0, f=(1.0, 10.0))
        r = soft_deadline(sys0, 0.5)
        # sum distribution {2: .25, 3: .5, 4: .25}: smallest c with P[sum<c] > .5 is 4
        assert r.frame_percentile == 4
        assert r.adjusted_deadline == 1.0

    def test_invariants(self):
        sys0 = system_of(
            [CycleDistribution.uniform(50, 300), CycleDistribution.histogram(40, (0.2, 0.3, 0.5))],
            deadline=0.5,
        )
        for eps in (0.01, 0.2, 0.7):
            r = soft_deadline(sys0, eps)
            assert all(k <= t.wcec for k, t in zip(r.kappa, sys0.tasks))
            assert r.frame_percentile <= r.frame_wcec
            assert r.adjusted_deadline >= sys0.deadline

    def test_end_bins_percentile_on_support(self):
        r = soft_deadline(system_of([end_bins(3000), end_bins(2000)]), 0.6)
        # sum is 2, 2001, 3001, 5000 with 1/4 each: P[sum < 3001] = .5 > .4
        assert r.frame_percentile == 3001

    def test_eps_validated(self):
        sys0 = system_of([CycleDistribution.uniform(1, 4)])
        with pytest.raises(ValueError):
            soft_deadline(sys0, 0.0)
