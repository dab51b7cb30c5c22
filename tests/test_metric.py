import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import squareform

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

    @pytest.mark.parametrize("count", [1, 7, 20_003])
    def test_sample_matrix_matches_sequential_draws(self, count):
        # one sample_with call per column, in column order, from one generator
        models = (dist.gaussian(), dist.rademacher(), dist.sym_exponential(),
                  dist.sym_weibull(1.5), dist.three_point(3.0))
        x = ProcessSpec(models=models).sample_matrix(np.random.default_rng(17), count)
        rng = np.random.default_rng(17)
        want = np.column_stack([m.sample_with(rng, count) for m in models])
        assert x.shape == want.shape
        assert x.tobytes() == want.tobytes()


class TestIndexSet:
    def test_basis(self):
        T = IndexSet.basis(5)
        assert len(T) == 5 and T.dimension == 5
        assert np.allclose(T.points, np.eye(5))

    def test_with_origin(self):
        T = IndexSet.with_origin([[1.0, 2.0]])
        assert len(T) == 2
        assert np.allclose(T.points[0], 0.0)

    def test_points_are_a_read_only_copy(self):
        pts = np.array([[0.0, 1.0], [2.0, 3.0]])
        T = IndexSet(pts)
        lengths = T.pair_lengths()
        with pytest.raises(ValueError):
            T.points[0, 0] = 5.0
        with pytest.raises(ValueError):
            lengths[0] = 0.0
        pts[0, 0] = 5.0  # the caller's array is not frozen, and not shared
        assert pts.flags.writeable and T.points[0, 0] == 0.0
        assert T.pair_lengths() is lengths and lengths[0] == math.sqrt(8.0)

    def test_pair_lengths_of_tiny_sets(self):
        assert IndexSet(np.zeros((0, 3))).pair_lengths().shape == (0,)
        assert IndexSet([1.0, 2.0]).pair_lengths().shape == (0,)
        assert IndexSet([[3.0, 0.0], [0.0, 4.0]]).pair_lengths().tolist() == [5.0]


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
        dm = squareform(metric.distance_matrix(proc, T, 4.0)[0])
        for i in range(5):
            for j in range(5):
                expect = increment_norm(proc, T.points[i], T.points[j], 4.0).value
                assert dm[i, j] == pytest.approx(expect, rel=1e-12)

    def test_symmetry_zero_diag_mc(self):
        # one condensed entry per pair i < j: the square is symmetric with a
        # zero diagonal by construction
        T = IndexSet(np.random.default_rng(4).standard_normal((6, 3)))
        v = metric.distance_matrix(exp_proc(3), T, 3.0, samples=20_000, seed=1)[0]
        assert v.shape == (15,)
        dm = squareform(v)
        assert np.array_equal(dm, dm.T)
        assert not np.diag(dm).any()

    def test_mc_determinism(self):
        T = IndexSet(np.random.default_rng(4).standard_normal((6, 3)))
        a = metric.distance_matrix(exp_proc(3), T, 3.0, samples=20_000, seed=1)[0]
        b = metric.distance_matrix(exp_proc(3), T, 3.0, samples=20_000, seed=1)[0]
        assert np.array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metric.distance_matrix(gauss_proc(2), IndexSet(np.zeros((0, 2))), 2.0)

    def test_rademacher_enumeration_path(self):
        T = IndexSet.basis(4)
        v = metric.distance_matrix(rad_proc(4), T, 2.0)[0]
        assert v.shape == (6,)
        assert np.allclose(v, math.sqrt(2.0))

    @pytest.mark.parametrize("make_proc", [gauss_proc, rad_proc, exp_proc])
    def test_pair_equals_increment_norm(self, make_proc):
        # one backend: a pair's matrix entry is its increment norm, bit for bit
        s, t = np.array([1.0, -2.0, 0.5]), np.array([0.0, 1.0, 0.0])
        proc = make_proc(3)
        r = increment_norm(proc, s, t, 3.0, samples=30_000, seed=4)
        v = metric.distance_matrix(proc, IndexSet(np.stack([s, t])), 3.0,
                                   samples=30_000, seed=4)[0]
        assert v.shape == (1,)
        assert r.value == v[0]

    def test_gaussian_memory_bounded_in_pairs(self):
        # 179,700 pairs in R^128: the (pairs x dim) difference array alone
        # would take 184 MB; the lengths and their scaled copy take 3 MB
        T = IndexSet(np.random.default_rng(8).standard_normal((600, 128)))
        tracemalloc.start()
        try:
            metric.distance_matrix(gauss_proc(128), T, 4.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_exact_paths_build_no_difference_array(self, monkeypatch):
        def no_diffs(pts):
            raise AssertionError("(pairs x dim) difference array built")

        T = IndexSet(np.random.default_rng(6).standard_normal((40, 24)))
        monkeypatch.setattr(metric, "_pair_diffs", no_diffs)
        v = metric.distance_matrix(gauss_proc(24), T, 8.0)[0]
        assert v[0] == np.linalg.norm(T.points[0] - T.points[1]) * \
            dist.gaussian().moment(8.0)
        assert metric.is_exact_metric(gauss_proc(24), T)
        assert not metric.is_exact_metric(rad_proc(24), T)
        assert not metric.is_exact_metric(exp_proc(24), T)
        assert metric.is_exact_metric(exp_proc(24), IndexSet(np.ones((40, 24))))

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

    def test_monte_carlo_memory_on_a_thousand_points(self):
        # the stream key hashes the 61 MiB difference bytes; its whole repr
        # and encoding took the peak to 528 MiB
        T = IndexSet(np.random.default_rng(0).standard_normal((1_000, 16)))
        tracemalloc.start()
        try:
            metric.distance_matrix(exp_proc(16), T, 3.0, samples=200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 160 * 2 ** 20

    @pytest.mark.parametrize("make_proc, method", [(exp_proc, "monte_carlo"),
                                                   (rad_proc, "enumeration")])
    def test_pass_past_the_byte_limit_raises_before_it_allocates(self, make_proc, method,
                                                                  monkeypatch):
        def no_diffs(pts):
            raise AssertionError("(pairs x dim) difference array built")

        # 44,850 pairs in R^16: 6.0 MiB of differences and outputs alone
        monkeypatch.setattr(metric, "_PASS_MAX_BYTES", 1 << 20)
        monkeypatch.setattr(metric, "_pair_diffs", no_diffs)
        proc = make_proc(16)
        T = IndexSet(np.random.default_rng(7).standard_normal((300, 16)))
        with pytest.raises(ValueError, match=rf"^{method} pair norms of 300 points in "
                                             rf"R\^16 under the {proc.family} process "
                                             r"need about [\d,]+ MiB, past the 1 MiB"):
            metric.distance_matrix(proc, T, 3.0, samples=1_000)

    def test_single_point_is_one_zero(self):
        # no pairs; the square of the empty condensed vector is one zero
        one = metric.distance_matrix(exp_proc(2), IndexSet(np.ones((1, 2))), 3.0)[0]
        assert one.shape == (0,)
        assert squareform(one).tobytes() == np.array([[0.0]]).tobytes()


@given(m=st.integers(2, 300), data=st.data())
@settings(max_examples=60, deadline=None)
def test_pair_of_inverts_pair_index(m, data):
    # every position of the condensed vector decodes to its triu pair
    k = np.arange(m * (m - 1) // 2)
    i, j = metric.pair_of(k, m)
    ii, jj = np.triu_indices(m, 1)
    assert np.array_equal(i, ii) and np.array_equal(j, jj)
    assert np.array_equal(metric.pair_index(i, j, m), k)
    one = data.draw(st.integers(0, len(k) - 1))
    assert tuple(int(x) for x in metric.pair_of(one, m)) == (ii[one], jj[one])


def test_every_pair_norm_pass_enters_through_distance_matrix(monkeypatch):
    # rebind every chainsup name bound to distance_matrix, as an outside
    # tracer does, and count the calls each entry point makes
    import sys

    from chainsup import gamma, stochlab, verify
    from chainsup.streams import RngStream

    real = metric.distance_matrix
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "chainsup" or name.startswith("chainsup.")):
            for key, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, key, spy)
    proc = exp_proc(3)
    T = IndexSet(np.random.default_rng(17).standard_normal((5, 3)))
    stream = RngStream(18, 0)
    tree = gamma.compute_gamma(T, proc, mode="greedy", samples=500)[1]
    runs = {
        "sudakov_experiment": lambda: verify.sudakov_experiment(
            proc, T, 3.0, 0.1, 500, stream),
        # rademacher increments are dominated by gaussian ones, exactly
        "comparison_experiment": lambda: verify.comparison_experiment(
            gauss_proc(3), rad_proc(3), T, p_grid=(3.0,), samples=500, stream=stream),
        "symmetrization_check": lambda: stochlab.symmetrization_check(
            proc, T, 3.0, 500, stream),
        "compute_gamma": lambda: gamma.compute_gamma(T, proc, mode="greedy",
                                                     samples=500),
        "evaluate_certificate": lambda: gamma.evaluate_certificate(
            tree, T, proc, samples=500),
        "convex_hull_decomposition": lambda: verify.convex_hull_decomposition(
            T, tree, proc, samples=500),
        "increment_norm": lambda: metric.increment_norm(
            proc, T.points[0], T.points[1], 3.0, samples=500),
    }
    silent = []
    for name, run in runs.items():
        before = len(calls)
        run()
        if len(calls) == before:
            silent.append(name)
    assert silent == []
    assert not hasattr(metric, "_pair_norms")


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
        values, errors, method = metric.distance_matrix(proc, IndexSet(pts), p, samples, 5)
        assert method == "monte_carlo"
        want_values, want_errors = self.naive(proc, pts, p, samples, 5)
        np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(errors, want_errors, rtol=1e-12, atol=0)

    def test_overflow_at_large_p_raises(self):
        # |d|^(2p) overflows at p = 128 once a sample has |d| above about 16;
        # these two points gave d = 23.5 with a NaN 3-sigma error
        pts = np.random.default_rng(3).standard_normal((2, 5))
        with pytest.raises(ValueError, match=r"p = 128 .* 1 of 1 pairs of the "
                                             r"sym_exponential process"):
            metric.distance_matrix(exp_proc(5), IndexSet(pts), 128, 21_234, 0)


class TestPairNormCache:
    """Enumerated and Monte-Carlo pair norms are kept on the IndexSet."""

    def test_int_and_float_p_draw_the_same_samples(self):
        pts = np.random.default_rng(3).standard_normal((3, 4))
        a = metric.distance_matrix(exp_proc(4), IndexSet(pts), 4, 2_000, 7)
        b = metric.distance_matrix(exp_proc(4), IndexSet(pts), 4.0, 2_000, 7)
        assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    def test_one_monte_carlo_pass_per_distinct_p(self, monkeypatch):
        from chainsup import gamma, verify

        passes = []

        def spy(seed, *tokens):
            if tokens[0] == "distance_matrix" and len(tokens[1]) == 496 * 16 * 8:
                passes.append(tokens[2])  # a pass over the 496 pairs of T
            return derived_stream(seed, *tokens)

        monkeypatch.setattr(metric, "derived_stream", spy)
        proc = exp_proc(16)
        T = IndexSet(np.random.default_rng(4).standard_normal((32, 16)))
        _, tree = gamma.compute_gamma(T, proc, "gammaX", mode="greedy",
                                      samples=2_000, seed=3)
        # the split and the certificate share d_2 and d_4
        assert sorted(passes) == [1.0, 2.0, 4.0, 8.0]
        verify.convex_hull_decomposition(T, tree, proc, samples=2_000, seed=3)
        # the hull steps at d_4, d_8 and d_16; only d_16 is new
        assert sorted(passes) == [1.0, 2.0, 4.0, 8.0, 16.0]

    def test_gaussian_sets_keep_no_vectors(self):
        T = IndexSet(np.random.default_rng(5).standard_normal((12, 3)))
        for p in (1.0, 2.0, 4.0, 8.0):
            metric.distance_matrix(gauss_proc(3), T, p, samples=1_000, seed=1)
        assert T._norms == {}

    def test_keyed_on_process_samples_and_seed(self):
        pts = np.random.default_rng(6).standard_normal((4, 3))
        T = IndexSet(pts)
        three = ProcessSpec.homogeneous(dist.three_point(2.0), 3)
        for proc, samples, seed in [(exp_proc(3), 1_000, 1), (exp_proc(3), 1_000, 2),
                                    (exp_proc(3), 1_500, 1), (three, 1_000, 1)]:
            got = metric.distance_matrix(proc, T, 3.0, samples, seed)[0]
            want = metric.distance_matrix(proc, IndexSet(pts), 3.0, samples, seed)[0]
            assert got.tobytes() == want.tobytes()
        assert len(T._norms) == 4


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
    dm = squareform(metric.distance_matrix(proc, IndexSet(np.array(pts)), p,
                                           samples=2_000, seed=seed)[0])
    via = dm[:, :, None] + dm[None, :, :]          # d(i, j) + d(j, k) at [i, j, k]
    direct = dm[:, None, :]                          # d(i, k) at [i, j, k]
    assert np.all(direct <= via * (1.0 + 1e-12))


class TestDiameter:
    def test_singleton(self):
        v = metric.distance_matrix(gauss_proc(2), IndexSet(np.zeros((1, 2))), 2.0)[0]
        assert squareform(v).max() == 0.0

    def test_basis_gaussian(self):
        T = IndexSet.basis(3)
        assert metric.distance_matrix(gauss_proc(3), T, 2.0)[0].max() == pytest.approx(
            math.sqrt(2.0), rel=1e-12)

    def test_monotone_under_subset(self):
        pts = np.random.default_rng(5).standard_normal((6, 3))
        proc = gauss_proc(3)
        full = metric.distance_matrix(proc, IndexSet(pts), 4.0)[0].max()
        sub = metric.distance_matrix(proc, IndexSet(pts[:4]), 4.0)[0].max()
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


_COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(min_value=-1e6, max_value=1e6))


@st.composite
def point_sets(draw, coords=_COORDS, dims=(1, 2, 3, 9, 17, 130)):
    """Small point sets with repeated points: rows drawn with replacement."""
    dim = draw(st.sampled_from(dims))
    rows = draw(st.lists(st.lists(coords, min_size=dim, max_size=dim),
                         min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=7))
    return np.array([rows[k] for k in picks])


@given(pts=point_sets())
@example(pts=np.array([[-0.0, 0.0]]))
@example(pts=np.array([[0.0, -0.0], [-0.0, 0.0]]))
@example(pts=np.array([[1.5, -0.0, 2.0], [1.5, 0.0, 2.0], [1.5, -0.0, 2.0]]))
@settings(max_examples=200, deadline=None)
def test_pair_lengths_equal_norms_of_the_difference_array(pts):
    want = np.linalg.norm(metric._pair_diffs(pts), axis=1)
    assert IndexSet(pts).pair_lengths().tobytes() == want.tobytes()


@given(pts=point_sets(dims=(1, 2, 3, 9)),
       make=st.sampled_from([dist.sym_exponential, lambda: dist.three_point(2.0),
                             dist.rademacher]),
       p=st.sampled_from([1.0, 2.0, 3.0, 4.0, 8.0, math.log(5.0)]))
@settings(max_examples=60, deadline=None)
def test_cached_pair_norms_equal_fresh_ones(pts, make, p):
    proc = ProcessSpec.homogeneous(make(), pts.shape[1])
    T = IndexSet(pts)
    first = metric.distance_matrix(proc, T, p, 500, 9)
    first[0][:] = -1.0  # writing into a returned array must not reach the cache
    if first[2] == "closed_form":  # one shared read-only zero vector
        assert not first[1].flags.writeable
    else:
        first[1][:] = -1.0
    again = metric.distance_matrix(proc, T, p, 500, 9)
    fresh = metric.distance_matrix(proc, IndexSet(pts), p, 500, 9)
    assert again[2] == fresh[2]
    assert len(T._norms) == (again[2] != "closed_form")
    assert again[0].tobytes() == fresh[0].tobytes()
    assert again[1].tobytes() == fresh[1].tobytes()


def _method_from_diffs(proc, pts):
    """The dispatch rule read off the whole (pairs x dim) difference array."""
    diffs = metric._pair_diffs(pts)
    fam = proc.family
    if fam == "gaussian" or not np.any(diffs):
        return "closed_form"
    if fam == "rademacher" and \
            np.count_nonzero(diffs, axis=1).max() <= metric.ENUMERATION_LIMIT:
        return "enumeration"
    return "monte_carlo"


@given(pts=point_sets(coords=st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                      dims=(1, 3, 20, 21, 24)),
       zero_rows=st.integers(0, 2),
       make=st.sampled_from([dist.gaussian, dist.rademacher, dist.sym_exponential, None]))
# increments with exactly ENUMERATION_LIMIT and ENUMERATION_LIMIT + 1 nonzeros
@example(pts=np.ones((1, 20)), zero_rows=1, make=dist.rademacher)
@example(pts=np.ones((1, 21)), zero_rows=1, make=dist.rademacher)
@settings(max_examples=300, deadline=None)
def test_method_matches_the_difference_array_rule(pts, zero_rows, make):
    pts = np.vstack([pts, np.zeros((zero_rows, pts.shape[1]))])
    n = pts.shape[1]
    if make is None:  # no common family
        proc = ProcessSpec(models=(dist.rademacher(),) * (n - 1) + (dist.gaussian(),))
    else:
        proc = ProcessSpec.homogeneous(make(), n)
    assert metric._method(proc, pts) == _method_from_diffs(proc, pts)


def test_is_exact_metric():
    assert metric.is_exact_metric(gauss_proc(100), IndexSet.basis(100))
    assert metric.is_exact_metric(rad_proc(8), IndexSet.basis(8))
    assert not metric.is_exact_metric(rad_proc(24), IndexSet.with_origin(np.ones((1, 24))))
    assert not metric.is_exact_metric(exp_proc(2), IndexSet.basis(2))


# nonzero coordinates in [1e-3, 1e3]: unless the one difference d of the point
# set {0, d} is 0 (then d_p is 0 at every p), 1e-3 <= sum |d_j| <= 9e3, so the
# enumerated mean of |sum|^p (its term with the signs of d alone is
# >= 1e-96 / 2^9) neither underflows nor overflows for p <= 32 in R^9
_MODERATE_COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                             st.floats(min_value=1e-3, max_value=1e3),
                             st.floats(min_value=-1e3, max_value=-1e-3))


@given(d=st.sampled_from([1, 2, 3, 9]).flatmap(
           lambda dim: st.lists(_MODERATE_COORDS, min_size=dim, max_size=dim)),
       family=st.sampled_from([dist.gaussian, dist.rademacher]),
       ps=st.lists(st.floats(min_value=1.0, max_value=32.0), min_size=2, max_size=2,
                   unique=True).map(sorted))
@example(d=[1.0, -1.0, 0.5], family=dist.rademacher, ps=[1.0, 1.0 + 1e-9])
@settings(max_examples=150, deadline=None, derandomize=True)
def test_d_p_nondecreasing_in_p_on_exact_backends(d, family, ps):
    # ||Y||_p is nondecreasing in p (Lyapunov); the closed form and the
    # sign enumeration must keep that to rounding
    pts = np.array([np.zeros(len(d)), d])
    proc = ProcessSpec.homogeneous(family(), pts.shape[1])
    T = IndexSet(pts)
    lo, lo_err, method = metric.distance_matrix(proc, T, ps[0])
    hi, hi_err, _ = metric.distance_matrix(proc, T, ps[1])
    assert method in ("closed_form", "enumeration")
    assert not lo_err.any() and not hi_err.any()
    assert np.all(hi >= lo * (1.0 - 1e-12))
