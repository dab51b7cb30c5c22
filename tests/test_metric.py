import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainsup import dist, metric
from chainsup.metric import IndexSet, ProcessSpec, increment_norm, latala_norm
from chainsup.streams import derived_stream

E = math.e


def gauss_proc(n):
    return ProcessSpec.homogeneous(dist.gaussian(), n)


def rad_proc(n):
    return ProcessSpec.homogeneous(dist.rademacher(), n)


def exp_proc(n):
    return ProcessSpec.homogeneous(dist.sym_exponential(), n)


class TestProcessSpec:
    def test_family_detection(self):
        assert gauss_proc(3).family == "gaussian"
        mixed = ProcessSpec(models=(dist.gaussian(), dist.rademacher()))
        assert mixed.family is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProcessSpec(models=())

    def test_sample_matrix_shape(self):
        import numpy.random as npr
        x = gauss_proc(4).sample_matrix(npr.default_rng(0), 100)
        assert x.shape == (100, 4)


class TestIndexSet:
    def test_basis(self):
        T = IndexSet.basis(5)
        assert len(T) == 5 and T.dimension == 5
        assert np.allclose(T.points, np.eye(5))

    def test_with_origin(self):
        T = IndexSet.with_origin([[1.0, 2.0]])
        assert len(T) == 2
        assert np.allclose(T.points[0], 0.0)

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            IndexSet(np.eye(2), labels=("a",))


class TestIncrementNorm:
    def test_gaussian_closed_form(self):
        s = np.array([1.0, 2.0, 0.0])
        t = np.array([0.0, 0.0, 2.0])
        r = increment_norm(gauss_proc(3), s, t, 4.0)
        assert r.method == "closed_form"
        assert r.error_bound == 0.0
        assert r.value == pytest.approx(3.0 * dist.gaussian().moment(4), rel=1e-12)

    def test_rademacher_enumeration_pairs(self):
        # ||eps_1 + eps_2||_4 = 8^(1/4); ||eps_1+eps_2+eps_3||_4 = 21^(1/4)
        r2 = increment_norm(rad_proc(2), np.array([1.0, 1.0]), np.zeros(2), 4.0)
        assert r2.method == "enumeration"
        assert r2.value == pytest.approx(8.0 ** 0.25, rel=1e-12)
        r3 = increment_norm(rad_proc(3), np.ones(3), np.zeros(3), 4.0)
        assert r3.value == pytest.approx(21.0 ** 0.25, rel=1e-12)

    def test_zero_increment(self):
        r = increment_norm(exp_proc(2), np.ones(2), np.ones(2), 3.0)
        assert r.value == 0.0 and r.error_bound == 0.0

    def test_mc_matches_exact_p2(self):
        # at p = 2 every standardized process gives the euclidean norm
        s, t = np.array([1.0, -2.0, 0.5]), np.array([0.0, 1.0, 0.0])
        r = increment_norm(exp_proc(3), s, t, 2.0, samples=200_000, seed=11)
        assert r.method == "monte_carlo"
        exact = float(np.linalg.norm(s - t))
        assert abs(r.value - exact) <= r.error_bound + 1e-3

    def test_mc_deterministic(self):
        s, t = np.array([1.0, 2.0]), np.zeros(2)
        a = increment_norm(exp_proc(2), s, t, 3.0, samples=50_000, seed=5)
        b = increment_norm(exp_proc(2), s, t, 3.0, samples=50_000, seed=5)
        assert a.value == b.value

    def test_mc_seed_sensitivity(self):
        s, t = np.array([1.0, 2.0]), np.zeros(2)
        a = increment_norm(exp_proc(2), s, t, 3.0, samples=50_000, seed=5)
        b = increment_norm(exp_proc(2), s, t, 3.0, samples=50_000, seed=6)
        assert a.value != b.value

    def test_monotone_in_p(self):
        s, t = np.array([1.0, 1.0, -1.0]), np.zeros(3)
        for proc in (gauss_proc(3), rad_proc(3)):
            vals = [increment_norm(proc, s, t, p).value for p in (1, 2, 4, 8, 16)]
            assert all(hi >= lo - 1e-12 for lo, hi in zip(vals, vals[1:]))

    def test_mc_p_cap(self):
        with pytest.raises(ValueError):
            increment_norm(exp_proc(2), np.ones(2), np.zeros(2), 200.0)

    def test_metric_axioms_exact(self):
        rng = np.random.default_rng(7)
        for proc in (gauss_proc(4), rad_proc(4)):
            pts = rng.standard_normal((3, 4))
            a, b, c = pts
            for p in (2.0, 5.0):
                dab = increment_norm(proc, a, b, p).value
                dba = increment_norm(proc, b, a, p).value
                dac = increment_norm(proc, a, c, p).value
                dcb = increment_norm(proc, c, b, p).value
                assert dab == pytest.approx(dba, rel=1e-12)
                assert dab <= dac + dcb + 1e-9


class TestDistanceMatrix:
    def test_matches_pairwise_gaussian(self):
        T = IndexSet(np.random.default_rng(3).standard_normal((5, 3)))
        proc = gauss_proc(3)
        dm = metric.distance_matrix(proc, T, 4.0)
        for i in range(5):
            for j in range(5):
                expect = increment_norm(proc, T.points[i], T.points[j], 4.0).value
                assert dm[i, j] == pytest.approx(expect, rel=1e-12)

    def test_symmetry_zero_diag_mc(self):
        T = IndexSet(np.random.default_rng(4).standard_normal((6, 3)))
        dm = metric.distance_matrix(exp_proc(3), T, 3.0, samples=20_000, seed=1)
        assert np.allclose(dm, dm.T)
        assert np.allclose(np.diag(dm), 0.0)

    def test_mc_determinism(self):
        T = IndexSet(np.random.default_rng(4).standard_normal((6, 3)))
        a = metric.distance_matrix(exp_proc(3), T, 3.0, samples=20_000, seed=1)
        b = metric.distance_matrix(exp_proc(3), T, 3.0, samples=20_000, seed=1)
        assert np.array_equal(a, b)

    def test_rademacher_enumeration_path(self):
        T = IndexSet.basis(4)
        dm = metric.distance_matrix(rad_proc(4), T, 2.0)
        off = dm[~np.eye(4, dtype=bool)]
        assert np.allclose(off, math.sqrt(2.0))

    @pytest.mark.parametrize("make_proc", [gauss_proc, rad_proc, exp_proc])
    def test_pair_equals_increment_norm(self, make_proc):
        # one backend: a pair's matrix entry is its increment norm, bit for bit
        s, t = np.array([1.0, -2.0, 0.5]), np.array([0.0, 1.0, 0.0])
        proc = make_proc(3)
        r = increment_norm(proc, s, t, 3.0, samples=30_000, seed=4)
        dm = metric.distance_matrix(proc, IndexSet(np.stack([s, t])), 3.0,
                                    samples=30_000, seed=4)
        assert r.value == dm[0, 1] == dm[1, 0]

    def test_mc_memory_bounded_in_pairs(self):
        # 19,900 pairs: a (samples x pairs) array alone would take 300 MiB
        T = IndexSet(np.random.default_rng(9).standard_normal((200, 3)))
        tracemalloc.start()
        try:
            metric.distance_matrix(exp_proc(3), T, 3.0, samples=2_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20


class TestMonteCarloKernel:
    """The in-place, tiled kernel against a naive reduction of the same draws."""

    @staticmethod
    def naive(proc, pts, p, samples, seed):
        diffs = metric._pair_diffs(pts)
        rng = derived_stream(seed, "distance_matrix", diffs.tobytes(), p, samples).generator()
        sizes = [min(metric._MC_CHUNK, samples - n) for n in range(0, samples, metric._MC_CHUNK)]
        v = np.hstack([pts @ proc.sample_matrix(rng, c).T for c in sizes])
        values, errors = [], []
        for i in range(len(pts) - 1):
            for j in range(i + 1, len(pts)):
                x = np.abs(v[i] - v[j]) ** p
                mean = np.mean(x)
                values.append(mean ** (1.0 / p))
                errors.append(3.0 * np.std(x) / math.sqrt(samples)
                              / (p * mean ** (1.0 - 1.0 / p)))
        return np.array(values), np.array(errors)

    @pytest.mark.parametrize("m", [2, 3, 70])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0, 8.0, math.log(5.0)])
    def test_matches_naive_reduction(self, m, p):
        # 21,234 samples: neither a multiple of the chunk nor of any tile
        samples = 21_234
        assert samples % metric._MC_CHUNK and samples > metric._MC_CHUNK
        # at 70 points the budget splits each chunk into several tiles
        assert metric._MC_TILE_ELEMS // 69 < metric._MC_CHUNK
        make = dist.sym_exponential if m != 3 else (lambda: dist.three_point(2.0))
        proc = ProcessSpec.homogeneous(make(), 4)
        pts = np.random.default_rng(m).standard_normal((m, 4))
        values, errors, method = metric._pair_norms(proc, pts, p, samples, 5)
        assert method == "monte_carlo"
        want_values, want_errors = self.naive(proc, pts, p, samples, 5)
        np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(errors, want_errors, rtol=1e-12, atol=0)


@given(pts=st.lists(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3, max_size=3),
                    min_size=3, max_size=5),
       family=st.sampled_from(["sym_exponential", "three_point"]),
       p=st.sampled_from([1.0, 2.0, 3.0, 4.0, 8.0, math.log(5.0), 2.5]),
       seed=st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=30, deadline=None)
def test_mc_distance_matrix_triangle_inequality(pts, family, p, seed):
    # one empirical measure under every pair: Minkowski holds up to rounding
    model = dist.sym_exponential() if family == "sym_exponential" else dist.three_point(2.0)
    proc = ProcessSpec.homogeneous(model, 3)
    dm = metric.distance_matrix(proc, IndexSet(np.array(pts)), p, samples=2_000, seed=seed)
    via = dm[:, :, None] + dm[None, :, :]          # d(i, j) + d(j, k) at [i, j, k]
    direct = dm[:, None, :]                          # d(i, k) at [i, j, k]
    assert np.all(direct <= via * (1.0 + 1e-12))


class TestDiameter:
    def test_singleton(self):
        assert metric.diameter(IndexSet(np.zeros((1, 2))), gauss_proc(2), 2.0) == 0.0

    def test_basis_gaussian(self):
        T = IndexSet.basis(3)
        assert metric.diameter(T, gauss_proc(3), 2.0) == pytest.approx(
            math.sqrt(2.0), rel=1e-12)

    def test_monotone_under_subset(self):
        pts = np.random.default_rng(5).standard_normal((6, 3))
        proc = gauss_proc(3)
        full = metric.diameter(IndexSet(pts), proc, 4.0)
        sub = metric.diameter(IndexSet(pts[:4]), proc, 4.0)
        assert sub <= full + 1e-12


class TestLatalaNorm:
    def test_single_rademacher_r2(self):
        # E(1 + eps/u)^2 = 1 + 1/u^2 = e^2 at u = 1/sqrt(e^2 - 1)
        v = latala_norm([1.0], rad_proc(1), 2)
        assert v == pytest.approx(1.0 / math.sqrt(E * E - 1.0), rel=1e-9)
        assert v == pytest.approx(0.39562310696055647, rel=1e-9)

    def test_homogeneity(self):
        a = np.array([1.0, -0.5, 2.0])
        proc = gauss_proc(3)
        v1 = latala_norm(a, proc, 4)
        v2 = latala_norm(3.0 * a, proc, 4)
        assert v2 == pytest.approx(3.0 * v1, rel=1e-8)

    def test_threshold_is_root(self):
        # at the returned u the log-moment product sits at the target e^r
        a = np.array([1.0, 0.7])
        proc = rad_proc(2)
        r = 4
        u = latala_norm(a, proc, r)
        half = r // 2

        def log_product(uu):
            total = 0.0
            for ai in a:
                z = (ai / uu) ** 2
                s = 0.0
                for k in range(half, 0, -1):
                    s = s * z + math.comb(r, 2 * k) * 1.0  # rademacher even moments = 1
                total += math.log1p(s * z)
            return total

        assert log_product(u) == pytest.approx(float(r), abs=1e-7)

    def test_zero_coeffs(self):
        assert latala_norm(np.zeros(3), gauss_proc(3), 2) == 0.0

    def test_odd_r_rejected(self):
        with pytest.raises(ValueError):
            latala_norm([1.0], gauss_proc(1), 3)

    @pytest.mark.parametrize("make_proc,r", [
        (rad_proc, 2), (rad_proc, 4), (rad_proc, 8),
        (gauss_proc, 2), (gauss_proc, 4), (gauss_proc, 8),
    ])
    def test_sum_bracket(self, make_proc, r):
        # (e-1)/(2e^2) ||| . ||| <= ||sum a_i X_i||_r <= e ||| . |||
        rng = np.random.default_rng(42 + r)
        for _ in range(5):
            n = int(rng.integers(1, 6))
            a = rng.standard_normal(n)
            proc = make_proc(n)
            v = latala_norm(a, proc, r)
            norm = increment_norm(proc, a, np.zeros(n), float(r)).value
            lo = (E - 1.0) / (2.0 * E * E) * v
            hi = E * v
            assert lo - 1e-9 <= norm <= hi + 1e-9


@given(scale=st.floats(min_value=0.1, max_value=3.0),
       bump=st.floats(min_value=0.0, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_latala_monotone_in_coefficients(scale, bump):
    proc = rad_proc(2)
    base = latala_norm([scale, scale], proc, 4)
    bigger = latala_norm([scale + bump, scale], proc, 4)
    assert bigger >= base - 1e-9


@given(p=st.floats(min_value=1.0, max_value=32.0))
@settings(max_examples=40, deadline=None)
def test_gaussian_norm_scales_euclidean(p):
    s = np.array([3.0, 4.0])
    r = increment_norm(gauss_proc(2), s, np.zeros(2), p)
    assert r.value == pytest.approx(5.0 * dist.gaussian().moment(p), rel=1e-12)


def test_is_exact_metric():
    assert metric.is_exact_metric(gauss_proc(100), IndexSet.basis(100))
    assert metric.is_exact_metric(rad_proc(8), IndexSet.basis(8))
    assert not metric.is_exact_metric(rad_proc(24), IndexSet.with_origin(np.ones((1, 24))))
    assert not metric.is_exact_metric(exp_proc(2), IndexSet.basis(2))
