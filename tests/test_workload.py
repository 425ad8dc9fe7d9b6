import copy
import hashlib
import itertools
import math
import pickle
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from framedvs import (
    CycleDistribution, bin_trace, build_soft_speed, convolve, monte_carlo, soft_deadline, workload,
)
from framedvs.config import load_system
from framedvs.core import CapExceededError, FrameSystem, FrequencyTable, TaskSpec
from framedvs.simulator import sample_cycles

import gen


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
        assert all(d.sample_array(rng, 1)[0] == 100 for _ in range(50))

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


class TestUniformDraws:
    """Uniform draws scale ``u`` in place and cast it one ``_CHUNK`` at a
    time; they are the int64 draws of ``lo + min(int(u * n), n - 1)`` on
    the same uniforms, and with ``out=`` those draws as float64."""

    @staticmethod
    def plain(d, u):
        n = d.hi - d.lo + 1
        return d.lo + np.minimum((u * n).astype(np.int64), n - 1)

    @pytest.mark.parametrize("lo, hi", [(7, 7), (1, 10), (800_000, 1_500_000), (1, 2**31 - 1), (5, 2**31 + 3)])
    @pytest.mark.parametrize("size", [1, 2, 1000, 16_383, 16_384, 16_385, 2 * workload._CHUNK + 3])
    def test_same_draws_as_the_plain_formula(self, lo, hi, size):
        d = CycleDistribution.uniform(lo, hi)
        got = d.sample_array(np.random.default_rng(size), size)
        want = self.plain(d, np.random.default_rng(size).random(size))
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert got.min() >= lo and got.max() <= hi
        assert_draws_into_a_column(d, np.random.default_rng(size), want)

    @pytest.mark.parametrize("lo, hi", [(7, 7), (1, 10), (1, 2**31 - 1), (5, 2**31 + 3), (1, 2**53)])
    def test_edge_uniforms(self, lo, hi):
        """0 draws lo and the largest uniform below 1 draws hi."""
        d = CycleDistribution.uniform(lo, hi)
        u = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])
        got = d.sample_array(FixedUniforms(u.copy()), len(u))
        assert got.dtype == np.int64 and np.array_equal(got, self.plain(d, u))
        assert got[0] == lo and got[-1] == hi
        assert_draws_into_a_column(d, FixedUniforms(u), got)

    @pytest.mark.parametrize("lo, hi", [(1, 2**53 + 1), (5, 2**60)])
    def test_ranges_wider_than_2_53_are_refused(self, lo, hi):
        """Past 2**53 values, float64 ``u * n`` cannot reach every value."""
        with pytest.raises(ValueError, match="2\\*\\*53"):
            CycleDistribution.uniform(lo, hi)


class FixedUniforms:
    """Stands in for a Generator whose ``random`` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size, out=None):
        assert size == len(self.u)
        if out is None:
            return self.u
        out[:] = self.u
        return out


def assert_draws_into_a_column(d, rng, want):
    """``sample_array(..., out=col)`` on a column of a column-major matrix
    fills that column with ``want`` cast to float64, returns it, and leaves
    the other columns alone."""
    matrix = np.full((len(want), 3), -1.0, order="F")
    col = matrix[:, 1]
    assert d.sample_array(rng, len(want), out=col) is col
    expect = want.astype(np.float64)
    assert np.array_equal(col.view(np.int64), expect.view(np.int64))
    assert (matrix[:, [0, 2]] == -1.0).all()


def searchsorted_draw(d, u):
    """Atom draws by binary search over the cdf, capped at the last atom."""
    vals, mass = d.atoms()
    cdf = np.cumsum(mass)
    return vals[np.minimum(np.searchsorted(cdf, u, "right"), len(vals) - 1)]


def with_total(probs, above):
    """``probs`` with the last mass stepped until ``cumsum[-1]`` is just above
    (or just below) 1."""
    probs = probs.copy()
    step = 2.0**-50 if above else -(2.0**-50)
    while (np.cumsum(probs)[-1] - 1.0) * step <= 0.0:
        probs[-1] += step
    return probs


class TestCountingDraws:
    """Up to 128 atoms sample_array counts cdf values instead of searching
    them; either way each uniform gives the atom that searchsorted gives."""

    def uniforms(self, d, rng):
        cdf = np.cumsum(d.atoms()[1])
        at = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0)])
        return np.concatenate([at, [0.0, np.nextafter(1.0, 0.0)], rng.random(100)])

    def dists(self, n, rng):
        probs = rng.uniform(0.5, 1.0, n)
        probs /= probs.sum()
        yield CycleDistribution.histogram(7, probs)
        # zero-mass atoms repeat cdf values; the first and last atoms keep mass
        holes = probs * (rng.random(n) < 0.7)
        holes[[0, -1]] = probs[[0, -1]]
        holes /= holes.sum()
        yield CycleDistribution("points", values=np.arange(1, n + 1) * 3, probs=holes)
        for above, base in ((False, probs), (True, holes)):
            skewed = with_total(base, above)
            total = np.cumsum(skewed)[-1]
            assert (total > 1.0) if above else (total < 1.0)
            yield CycleDistribution("points", values=np.arange(1, n + 1), probs=skewed)

    def test_same_atoms_as_searchsorted(self):
        rng = np.random.default_rng(12)
        for n in range(1, 2001):
            for d in self.dists(n, rng):
                u = self.uniforms(d, rng)
                got = d.sample_array(FixedUniforms(u), len(u))
                assert np.array_equal(got, searchsorted_draw(d, u)), (n, d.kind)

    @pytest.mark.parametrize("size", [
        workload._CHUNK - 1, workload._CHUNK, workload._CHUNK + 1, 2 * workload._CHUNK + 3,
    ])
    def test_sizes_across_chunk_edges(self, size):
        """Draws taken one ``_CHUNK`` of ``u`` at a time give searchsorted's
        atoms; cdf values and their neighbours repeat through every chunk,
        so they also sit on either side of each chunk edge."""
        rng = np.random.default_rng(size)
        for n in (1, 2, 10, 128, 129):
            for d in self.dists(n, rng):
                u = np.resize(self.uniforms(d, rng), size)
                want = searchsorted_draw(d, u)
                got = d.sample_array(FixedUniforms(u), size)
                assert got.dtype == want.dtype and np.array_equal(got, want), (size, n, d.kind)
                assert_draws_into_a_column(d, FixedUniforms(u), want)

    def test_wide_histogram_draws_in_chunks(self):
        """1e6 draws from 2,000 bins hold u and the draws (16 MB) plus one
        chunk's counts: 22.9 MiB at the peak while more than 128 atoms took
        two full-length intp arrays, 15.9 MiB one chunk at a time."""
        d = CycleDistribution.histogram(3, np.random.default_rng(9).dirichlet(np.ones(2_000)))
        tracemalloc.start()
        try:
            d.sample_array(np.random.default_rng(0), 1_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 18 * 2**20

    @pytest.mark.parametrize("name, n_frames", [
        pytest.param("ppc405", 20_000, id="ppc405"),
        pytest.param("xscale", 20_000, id="xscale"),
        pytest.param("ppc405", 2 * workload._CHUNK + 3, id="ppc405-over-chunk"),
    ])
    def test_sample_cycles_pinned_to_searchsorted(self, name, n_frames):
        system = load_system(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")
        rng = np.random.default_rng(2024)
        want = np.empty((n_frames, system.n_tasks))
        for i, task in enumerate(system.tasks):
            d = task.dist
            u = rng.random(n_frames)
            if d.kind == "uniform":
                n = d.hi - d.lo + 1
                want[:, i] = d.lo + np.minimum((u * n).astype(np.int64), n - 1)
            else:
                want[:, i] = searchsorted_draw(d, u)
        got = sample_cycles(system, np.random.default_rng(2024), n_frames)
        assert np.array_equal(got, want)


class TestMoments:
    def test_histogram_mean(self):
        d = CycleDistribution.histogram(50, (0.5, 0.5))
        assert d.mean() == 75.0

    def test_uniform_mean_exact(self):
        assert CycleDistribution.uniform(1, 10).mean() == 5.5

    def test_mean_built_once_from_the_atoms(self, monkeypatch):
        d = CycleDistribution.histogram(7, np.random.default_rng(3).dirichlet(np.ones(30)))
        want = float(np.dot(*d.atoms()))
        calls = []
        atoms = CycleDistribution.atoms
        monkeypatch.setattr(CycleDistribution, "atoms", lambda self: calls.append(1) or atoms(self))
        assert [d.mean() for _ in range(3)] == [want] * 3
        assert len(calls) == 1

    def test_percentile_uniform(self):
        assert CycleDistribution.uniform(1, 10).percentile(0.2) == 8

    def test_percentile_tiny_eps_is_support_max(self):
        d = CycleDistribution.histogram(100, (0.2, 0.5, 0.3))
        assert d.percentile(1e-9) == d.support_max

    def test_percentile_monotone_in_eps(self):
        d = CycleDistribution.uniform(5, 40)
        vals = [d.percentile(e) for e in (0.01, 0.05, 0.1, 0.3, 0.6, 0.9)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_percentile_matches_full_cumulative_sum(self):
        """percentile reads the first cumulative mass at or above 1 - eps
        through _first_cdf_above at the threshold's float predecessor:
        the index ``searchsorted(np.cumsum(mass), x, "left")`` gives, on
        points with zero masses, thresholds on cdf values and beside them."""
        rng = np.random.default_rng(41)
        for size in [1, 2, 7, 300, workload._CHUNK + 5] * 6:
            mass = rng.random(size)
            mass[rng.random(size) < 0.3] = 0.0
            mass[-1] += 0.1
            mass /= mass.sum()
            d = CycleDistribution("points", values=np.arange(1, size + 1), probs=mass)
            cdf = np.cumsum(mass)
            at = rng.choice(cdf, min(size, 40)).tolist()
            thresholds = at + [math.nextafter(x, 2.0) for x in at] + [math.nextafter(x, -1.0) for x in at]
            for x in thresholds + [0.0, 1.0, 2.0]:
                want = int(np.searchsorted(cdf, x, side="left"))
                assert workload._first_cdf_above(mass, math.nextafter(x, -math.inf)) == want, x
            for eps in [1.0 - workload._CDF_GRACE - x for x in at] + [1e-9, 0.05, 0.5, 0.999]:
                if 0.0 < eps < 1.0:
                    k = int(np.searchsorted(cdf, 1.0 - eps - workload._CDF_GRACE, side="left"))
                    assert d.percentile(eps) == d.values[min(k, size - 1)], eps

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

    def test_convolve_result_is_not_copied_or_rechecked(self, monkeypatch):
        """convolve builds a valid support and marks it read-only in place;
        a pickled copy of the result is still checked on the way back in."""
        a, b = CycleDistribution.uniform(1, 3), CycleDistribution.histogram(10, (0.5, 0.5))
        checked = []
        post_init = CycleDistribution.__post_init__
        monkeypatch.setattr(
            CycleDistribution, "__post_init__", lambda d: checked.append(d.kind) or post_init(d)
        )
        c = convolve([a, b])
        assert checked == []
        assert (c.kind, c.lo, c.hi, c.bin_size) == ("points", 0, 0, 0)
        assert c.values.tolist() == [11, 12, 13, 21, 22, 23]
        for arr in (c.values, c.probs):
            assert not arr.flags.writeable
        copied = pickle.loads(pickle.dumps(c))
        assert checked == ["points"]
        assert copied == c and not copied.probs.flags.writeable

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

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(workload, "CONVOLVE_CAP", 1000)
        a = CycleDistribution.uniform(1, 100_000)
        with pytest.raises(CapExceededError):
            convolve([a, a])

    @pytest.mark.parametrize("name, want", [("ppc405", 8), ("xscale", 0)])
    def test_atoms_built_once_per_task(self, monkeypatch, name, want):
        """Each histogram's atoms are built once per convolve (three times
        while an atom-count pre-pass, the span and the grid runs each asked),
        and a uniform's never."""
        system = load_system(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")
        calls = []
        atoms = CycleDistribution.atoms
        monkeypatch.setattr(CycleDistribution, "atoms", lambda self: calls.append(1) or atoms(self))
        convolve(t.dist for t in system.tasks)
        assert len(calls) == want

    def test_cap_checked_before_atoms_are_built(self, monkeypatch):
        monkeypatch.setattr(workload, "CONVOLVE_CAP", 1_000_000)
        a = CycleDistribution.uniform(1, 5_000_000)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError):
                convolve([a, a])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_multi_run_task_memory(self):
        """Peak traced memory of convolve over xscale's twelve uniforms plus
        one 10-bin histogram: 37.1 MiB while a multi-run task summed its runs
        into two grid-length scratch arrays, 25.6 MiB summed one chunk at a
        time into the grid buffer."""
        tracemalloc.start()
        try:
            convolve(xscale_with_histogram())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 28 * 2**20

    def test_cap_counts_run_pairs(self, monkeypatch):
        # 50 separate runs on a 500-point grid: 2500 run pairs, 999 grid points
        a = CycleDistribution.from_points({v: 1 / 51 for v in [1, 2] + list(range(20, 510, 10))})
        monkeypatch.setattr(workload, "CONVOLVE_CAP", 2500)
        assert len(convolve([a, a]).values) > 51
        monkeypatch.setattr(workload, "CONVOLVE_CAP", 2499)
        with pytest.raises(CapExceededError):
            convolve([a, a])


def xscale_with_histogram():
    """xscale's twelve uniforms and a 10-bin histogram of distinct masses:
    a 10-run task on a grid of 1,539,001 indices, 47 chunks."""
    xscale = load_system(Path(__file__).resolve().parent.parent / "configs" / "xscale.json")
    hist = CycleDistribution.histogram(1000, [0.02, 0.08, 0.15, 0.05, 0.2, 0.1, 0.12, 0.03, 0.18, 0.07])
    return [t.dist for t in xscale.tasks] + [hist]


def mixed_dists(rng):
    """Uniforms (some of a single value), histograms with empty bins and
    runs of equal mass, and points with zero masses, ends included. Cases
    with ``g > 1`` keep every support on a multiple-of-g grid."""
    g = int(rng.choice([1, 1, 3, 10]))
    dists = []
    for _ in range(int(rng.integers(1, 5))):
        kind = int(rng.integers(3))
        if kind == 0:
            lo = int(rng.integers(1, 300))
            width = 0 if g > 1 or rng.random() < 0.3 else int(rng.integers(1, 200))
            dists.append(CycleDistribution.uniform(lo, lo + width))
            continue
        n_runs = int(rng.integers(1, 5))
        levels = rng.uniform(0.1, 1, n_runs)
        levels[rng.random(n_runs) < 0.3] = 0.0
        mass = np.repeat(levels, rng.integers(1, 12, n_runs))
        if mass.sum() == 0.0:
            mass[-1] = 1.0
        if kind == 1:
            dists.append(CycleDistribution.histogram(g * int(rng.integers(1, 6)), mass / mass.sum()))
        else:
            values = g * (int(rng.integers(1, 40)) + np.arange(len(mass)) * int(rng.integers(1, 3)))
            dists.append(CycleDistribution("points", values=values, probs=mass / mass.sum()))
    return dists


def wide_dists(rng):
    """Mixes whose sum grids span several 32K-element chunks: uniforms up
    to 90k wide, degenerate tasks (one run of length 1 that covers the
    task's grid), histograms with empty bins and sparse points. Cases with
    ``g > 1`` have no wide uniform and keep every support on a
    multiple-of-g grid."""
    g = int(rng.choice([1, 1, 7]))
    dists = []
    for _ in range(int(rng.integers(1, 6))):
        kind = int(rng.integers(4))
        if kind == 0 and g == 1:
            lo = int(rng.integers(1, 5000))
            dists.append(CycleDistribution.uniform(lo, lo + int(rng.integers(1, 90_001))))
        elif kind <= 1:
            dists.append(CycleDistribution.degenerate(g * int(rng.integers(1, 5000))))
        elif kind == 2:
            mass = rng.uniform(0.1, 1, int(rng.integers(2, 40)))
            mass[rng.random(len(mass)) < 0.3] = 0.0
            mass[-1] = 1.0
            dists.append(CycleDistribution.histogram(g * int(rng.integers(1, 2500)), mass / mass.sum()))
        else:
            values = g * np.unique(rng.integers(1, 30_000, int(rng.integers(2, 20))))
            dists.append(CycleDistribution("points", values=values, probs=rng.dirichlet(np.ones(len(values)))))
    return dists


class TestConvolveBits:
    """The bytes of convolve's values and probs, recorded before its
    internals changed: a rewrite that moves one bit fails here."""

    @staticmethod
    def digest(results):
        h = hashlib.sha256()
        for c in results:
            h.update(c.values.tobytes() + c.probs.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("name, recorded", [
        ("xscale", "b4e059a7bf8193879d8bf638b8e6c7c6ed24cc2f4bf91618ef471633d27a846b"),
        ("ppc405", "b0fbd5af244a7f2df44a6e69721a8ccb988d6da5c4fcf119130b89a7bccb5998"),
    ])
    def test_shipped_configs(self, name, recorded):
        system = load_system(Path(__file__).resolve().parent.parent / "configs" / f"{name}.json")
        assert self.digest([convolve(t.dist for t in system.tasks)]) == recorded

    def test_seeded_mix(self):
        rng = np.random.default_rng(20)
        assert self.digest(convolve(mixed_dists(rng)) for _ in range(300)) == (
            "73f0e7a78a47137154504758416b7e010915dbd196e0896bd08d8aa7e0073148"
        )

    def test_seeded_wide_mix(self):
        """Recorded before convolve wrote its differences in chunks."""
        rng = np.random.default_rng(21)
        assert self.digest(convolve(wide_dists(rng)) for _ in range(60)) == (
            "ef825031d89fec6db136d6fb7351dff87dae67b1cac83cc730798a313a7880cb"
        )

    def test_xscale_with_degenerates(self):
        """Four length-1 runs over a 1.5M-index grid, each differencing the whole sum."""
        xscale = load_system(Path(__file__).resolve().parent.parent / "configs" / "xscale.json")
        dists = [t.dist for t in xscale.tasks] + [CycleDistribution.degenerate(7)] * 4
        assert self.digest([convolve(dists)]) == (
            "51f7ec58b0b98aa444d16a0e165efd8506559b6fef3bf58aaed1b6b483b54e59"
        )


    def test_xscale_with_histogram(self):
        """Recorded while multi-run tasks summed into grid-length scratch
        arrays, with the histogram last (10 runs over 47 chunks) and first
        (its runs summed onto the empty sum)."""
        dists = xscale_with_histogram()
        assert self.digest([convolve(dists), convolve(dists[-1:] + dists[:-1])]) == (
            "27999e14a83190324297faebfaea7b6b0dae7592eb62f89724bcde5d2dc5e965"
        )

    def test_chunks_no_run_meets(self):
        """Runs far apart on grids of two or three chunks: a chunk in the gap
        between a task's runs, and chunks above its last run where its top
        atom has zero mass. Recorded while multi-run tasks summed into
        grid-length scratch arrays."""
        gap = CycleDistribution.from_points({1: 0.25, 2: 0.25, 70_001: 0.5})
        top = CycleDistribution("points", values=[1, 3, 80_000], probs=[0.3, 0.7, 0.0])
        one = CycleDistribution("points", values=[1, 2, 80_000], probs=[0.5, 0.5, 0.0])
        u = CycleDistribution.uniform(1, 5)
        mixes = [[gap, u], [u, gap], [top, u], [u, top], [one, u], [gap, top, one]]
        assert self.digest(convolve(ds) for ds in mixes) == (
            "596ac1a36f05e63bb9a2fb1f8216607f7498c7cbed945ecaece8edfa1b7f432d"
        )


class TestRunningSums:
    """Convolution adds each run of equal mass as a difference of running sums."""

    def kernel(self, rng):
        """A histogram or points distribution with several runs of equal mass,
        masses spread over hundreds of decades, some runs empty."""
        n_runs = int(rng.integers(2, 6))
        levels = 10.0 ** -rng.integers(0, 300, n_runs) * rng.uniform(1, 2, n_runs)
        levels[rng.random(n_runs) < 0.3] = 0.0
        levels[-1] = rng.uniform(0.1, 1)  # the last run is never empty
        mass = np.repeat(levels, rng.integers(1, 8, n_runs))
        if rng.random() < 0.5:
            return CycleDistribution.histogram(int(rng.integers(1, 4)), mass / mass.sum())
        keep = mass > 0
        values = int(rng.integers(1, 30)) + np.flatnonzero(keep)
        return CycleDistribution("points", values=values, probs=mass[keep] / mass[keep].sum())

    def test_masses_nonnegative_and_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            dists = [self.kernel(rng) for _ in range(int(rng.integers(2, 4)))]
            got = convolve(dists)
            assert (got.probs >= 0).all()
            assert dict(zip(got.values, got.probs)) == pytest.approx(brute_force(dists), abs=1e-12)

    def test_xscale_soft_deadline_pinned(self):
        """Recorded in perfbench/golden.json and checked exactly by its soft-deadline workload."""
        xscale = load_system(Path(__file__).resolve().parent.parent / "configs" / "xscale.json")
        recorded = {
            0.01: (1690775, [119000, 198600, 148850, 258200, 89350, 168800,
                             297900, 139000, 208600, 109200, 178750, 218450]),
            0.05: (1604802, [115000, 193000, 144250, 251000, 86750, 164000,
                             289500, 135000, 203000, 106000, 173750, 212250]),
            0.1: (1557369, [110000, 186000, 138500, 242000, 83500, 158000,
                            279000, 130000, 196000, 102000, 167500, 204500]),
            0.2: (1498845, [100000, 172000, 127000, 224000, 77000, 146000,
                            258000, 120000, 182000, 94000, 155000, 189000]),
        }
        for eps, (frame, kappa) in recorded.items():
            r = soft_deadline(xscale, eps)
            assert (r.frame_percentile, list(r.kappa)) == (frame, kappa), eps


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
        """Bit for bit the atoms below cap, then the correctly rounded sum of the clamped tail."""
        rng = np.random.default_rng(4)
        dists = [CycleDistribution.uniform(3, 90), CycleDistribution.histogram(7, rng.dirichlet(np.ones(30)))]
        for _ in range(10):
            vals = np.unique(rng.integers(1, 500, 40))
            dists.append(CycleDistribution("points", values=vals, probs=rng.dirichlet(np.ones(len(vals)))))
        for d in dists:
            vals, mass = d.atoms()
            for cap in rng.integers(vals[0], vals[-1], 5).tolist():
                expect = {v: p for v, p in zip(vals.tolist(), mass.tolist()) if v < cap}
                expect[cap] = math.fsum(p for v, p in zip(vals.tolist(), mass.tolist()) if v >= cap)
                t = d.truncated(cap)
                assert t.values.tolist() == list(expect)
                assert t.probs.tolist() == list(expect.values())

    def test_noop_above_max(self):
        d = CycleDistribution.uniform(1, 10)
        assert d.truncated(10) is d

    def test_wide_uniform_tail_still_sums_to_one(self):
        """266,071 tail atoms of 1/n summed left to right drift past the sum-to-1 tolerance."""
        n = 1_330_351
        d = CycleDistribution.uniform(1, n)
        cap = d.percentile(0.2)
        t = d.truncated(cap)
        assert t.values[-1] == cap and len(t.values) == cap
        assert t.probs[-1] == math.fsum([1.0 / n] * (n - cap + 1))
        assert abs(math.fsum(t.probs.tolist()) - 1.0) <= 2.0**-52


class TestFirstCdfAbove:
    """The chunked percentile search against the full cumulative sum."""

    @pytest.mark.parametrize("seed, n", [(0, 10), (1, 3 * workload._CHUNK + 123), (2, 2 * workload._CHUNK)])
    def test_same_index_as_searchsorted(self, seed, n):
        rng = np.random.default_rng(seed)
        p = rng.random(n)
        p[rng.random(n) < 0.2] = 0.0  # flat stretches: ties in the cumulative sum
        p /= p.sum()
        cdf = np.cumsum(p)
        chunk = workload._CHUNK
        # crossings in the first chunk, on both sides of each chunk boundary
        # and at the last element; ties; then at and above the float total
        at = [1, 5, n // 2, n - 1] + [k for b in range(chunk, n, chunk) for k in (b - 1, b, b + 1)]
        thresholds = [0.0, cdf[-1], 2.0, float(np.nextafter(cdf[-1], 3.0))]
        for k in at:
            thresholds += [cdf[k - 1], (cdf[k - 1] + cdf[k]) / 2]
        thresholds += rng.random(20).tolist()
        for thr in thresholds:
            want = int(np.searchsorted(cdf, thr, side="right"))
            assert workload._first_cdf_above(p, thr) == want, thr
        assert workload._first_cdf_above(p, 2.0) == n

    def test_crossing_at_each_chunk_edge(self):
        """One atom of mass carries the crossing onto a chosen index."""
        chunk = workload._CHUNK
        for k in (0, chunk - 1, chunk, 2 * chunk, 3 * chunk - 1):
            p = np.zeros(3 * chunk)
            p[k] = 0.75
            p[-1] += 0.25
            assert workload._first_cdf_above(p, 0.5) == k


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

    def test_xscale_report_memory(self):
        """Peak traced memory of one xscale report: 51.5 MiB while uniforms
        were convolved from their atoms, 36.6 MiB from their runs in two
        buffers with a full-length cumulative sum for the percentile, 25.2 MiB
        in one buffer with the percentile found chunk by chunk."""
        xscale = load_system(Path(__file__).resolve().parent.parent / "configs" / "xscale.json")
        tracemalloc.start()
        try:
            soft_deadline(xscale, 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 28 * 2**20

    def test_eps_validated(self):
        sys0 = system_of([CycleDistribution.uniform(1, 4)])
        with pytest.raises(ValueError):
            soft_deadline(sys0, 0.0)


class TestFlatSoftRoute:
    """``build_soft_speed`` runs every task at f*, the smallest table speed not
    below frame_wcec / adjusted_deadline, so a frame misses exactly when its
    total demand exceeds f*·D. That probability, read from ``convolve``, stays
    below eps."""

    def test_exact_miss_probability_below_eps(self):
        rng = np.random.default_rng(5)
        nonzero = []
        for _ in range(200):
            cpu = gen.realistic_cpu(rng, pt_scale=0.0)
            cpu = FrequencyTable(cpu.freqs, cpu.power)  # overheads off
            tasks = []
            for _ in range(int(rng.integers(2, 5))):
                lo, hi = sorted(int(c) for c in rng.integers(1_000, 20_001, 2))
                tasks.append(TaskSpec(hi, CycleDistribution.uniform(lo, hi)))
            # a worst-case speed between the table's ends puts table speeds
            # between the percentile speed and the worst case
            wsum = sum(t.wcec for t in tasks)
            sysd = FrameSystem(tuple(tasks), wsum / float(rng.uniform(cpu.f_min, cpu.f_max)), cpu)
            conv = convolve(t.dist for t in tasks)
            for eps in (0.01, 0.05, 0.1):
                strat = build_soft_speed(sysd, soft_deadline(sysd, eps))
                ((_, f_star),) = strat.funcs[0].points
                miss = math.fsum(conv.probs[conv.values > f_star * sysd.deadline].tolist())
                assert miss < eps
                if miss > 0:
                    nonzero.append(((id(sysd), f_star), sysd, strat, miss))
        assert len(nonzero) >= 100
        # Monte Carlo on the first few nonzero cases, one per system and speed,
        # that expect at least ten misses in n frames
        n = 20_000
        distinct = {key: case for key, *case in nonzero if case[2] * n >= 10}
        for seed, (sysd, strat, miss) in enumerate(list(distinct.values())[:4]):
            rate = monte_carlo(sysd, strat, n, seed=seed).miss_rate
            assert abs(rate - miss) <= 4 * math.sqrt(miss * (1 - miss) / n)
