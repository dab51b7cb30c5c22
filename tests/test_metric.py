import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import squareform

from chainsup import dist, laplace, metric
from chainsup.metric import IndexSet, ProcessSpec, increment_norm, latala_norm
from chainsup.streams import derived_stream

E = math.e


def gauss_proc(n):
    return ProcessSpec.homogeneous(dist.gaussian(), n)


def rad_proc(n):
    return ProcessSpec.homogeneous(dist.rademacher(), n)


def exp_proc(n):
    return ProcessSpec.homogeneous(dist.sym_exponential(), n)


def three_point_proc(n):
    # a finite-atom law off rademacher: exact d_p at every p but 2
    return ProcessSpec.homogeneous(dist.three_point(3.0), n)


def weibull_proc(n):
    # a law whose d_p is Monte Carlo at every p but the even p >= 4
    return ProcessSpec.homogeneous(dist.sym_weibull(1.5), n)


def axis_points(m, dim):
    # m scaled unit vectors, cycling through the axes: every increment has
    # at most two nonzeros, so rademacher enumerates it
    return np.eye(dim)[np.arange(m) % dim] * (1.0 + np.arange(m)[:, None])


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

    @pytest.mark.parametrize("count, tile", [(1_000, 300), (1_000, 250), (7, 7),
                                             (7, 50), (1, 4), (1, 1)])
    def test_projected_tiles_cover_one_sample_matrix(self, count, tile):
        # tile not dividing count, dividing it, equal to it, past it, and a
        # single sample: the tiles are pts @ x.T in order, in one buffer
        models = (dist.gaussian(), dist.rademacher(), dist.sym_exponential(),
                  dist.sym_weibull(1.5), dist.three_point(3.0))
        proc = ProcessSpec(models=models)
        pts = np.random.default_rng(30).standard_normal((4, 5))
        rng = np.random.default_rng(31)
        tiles = list(proc.projected_tiles(rng, count, pts, tile))
        ref = np.random.default_rng(31)
        x = proc.sample_matrix(ref, count)
        assert rng.bit_generator.state == ref.bit_generator.state
        assert [lo for lo, _ in tiles] == list(range(0, count, tile))
        assert [v.shape for lo, v in tiles] == [(4, min(tile, count - lo)) for lo, _ in tiles]
        assert all(np.shares_memory(v, tiles[0][1]) for _, v in tiles)
        # each tile is read before the next overwrites the buffer
        rng = np.random.default_rng(31)
        got = np.hstack([v.copy() for _, v in proc.projected_tiles(rng, count, pts, tile)])
        want = pts @ x.T
        bound = 1e-14 * (np.abs(pts) @ np.abs(x).T)
        assert np.all(np.abs(got - want) <= bound)


@given(dim=st.sampled_from((1, 2, 7, 8, 9, 16, 17, 47, 48, 128, 129, 130)),
       m=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1), spread=st.integers(0, 250),
       repeats=st.integers(0, 3), tile=st.integers(1, 1 << 12))
@settings(max_examples=150, deadline=None)
def test_tiled_pair_lengths_keep_the_norms_bytes(dim, m, seed, spread, repeats, tile):
    # coordinates 2^-spread to 2^spread apart, some points repeated, and a
    # small tile, so that tiles end inside a row of pairs and the squares
    # reach the subnormals on both sides of the column cut
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, dim)) * np.exp2(rng.integers(-spread, spread + 1, (m, dim)))
    pts[rng.integers(0, m, repeats)] = pts[0]
    want = np.linalg.norm(metric._pair_diffs(pts), axis=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "TILE_ELEMS", tile)
        assert IndexSet(pts).pair_lengths().tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 47, 127, 128])
def test_column_sums_follow_numpys_pairwise_order(n):
    # numpy's pairwise sum of each contiguous row, up to its 128-term blocks
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, 33)) * np.exp2(rng.integers(-40, 41, (n, 33)))
    want = np.add.reduce(np.ascontiguousarray(a.T), axis=1)
    assert metric._column_sums(a.copy()).tobytes() == want.tobytes()


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
        # ||eps_1 + eps_2||_4 = 8^(1/4); ||eps_1+eps_2+eps_3||_4 = 21^(1/4),
        # from the even moments; at p = 3 the sign enumeration gives
        # (E|eps_1 + eps_2|^3)^(1/3) = 4^(1/3) and 7.5^(1/3)
        for p, method, two, three in ((4.0, "even_moments", 8.0, 21.0),
                                      (3.0, "enumeration", 4.0, 7.5)):
            r2 = increment_norm(rad_proc(2), np.array([1.0, 1.0]), np.zeros(2), p)
            assert r2.method == method
            assert r2.value == pytest.approx(two ** (1.0 / p), rel=1e-12)
            r3 = increment_norm(rad_proc(3), np.ones(3), np.zeros(3), p)
            assert r3.value == pytest.approx(three ** (1.0 / p), rel=1e-12)

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
        a = increment_norm(weibull_proc(2), s, t, 3.0, samples=50_000, seed=5)
        b = increment_norm(weibull_proc(2), s, t, 3.0, samples=50_000, seed=5)
        assert a.method == "monte_carlo"
        assert a.value == b.value

    def test_mc_seed_sensitivity(self):
        s, t = np.array([1.0, 2.0]), np.zeros(2)
        a = increment_norm(weibull_proc(2), s, t, 3.0, samples=50_000, seed=5)
        b = increment_norm(weibull_proc(2), s, t, 3.0, samples=50_000, seed=6)
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
        dm = squareform(metric.distance_matrix(proc, T, 4.0).values())
        for i in range(5):
            for j in range(5):
                expect = increment_norm(proc, T.points[i], T.points[j], 4.0).value
                assert dm[i, j] == pytest.approx(expect, rel=1e-12)

    def test_symmetry_zero_diag_mc(self):
        # one condensed entry per pair i < j: the square is symmetric with a
        # zero diagonal by construction
        T = IndexSet(np.random.default_rng(4).standard_normal((6, 3)))
        v = metric.distance_matrix(weibull_proc(3), T, 3.0, samples=20_000, seed=1).values()
        assert v.shape == (15,)
        dm = squareform(v)
        assert np.array_equal(dm, dm.T)
        assert not np.diag(dm).any()

    def test_mc_determinism(self):
        T = IndexSet(np.random.default_rng(4).standard_normal((6, 3)))
        a = metric.distance_matrix(weibull_proc(3), T, 3.0, samples=20_000, seed=1).values()
        b = metric.distance_matrix(weibull_proc(3), T, 3.0, samples=20_000, seed=1).values()
        assert np.array_equal(a, b)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metric.distance_matrix(gauss_proc(2), IndexSet(np.zeros((0, 2))), 2.0)

    @pytest.mark.parametrize("make_proc", [gauss_proc, rad_proc, exp_proc])
    def test_dimension_mismatch_raises(self, make_proc):
        # the closed form and the enumeration read T alone, and Monte Carlo
        # failed inside the projection
        T = IndexSet(np.random.default_rng(5).standard_normal((4, 5)))
        with pytest.raises(ValueError, match=r"dimension 5 does not match the "
                                             r"process dimension 3"):
            metric.distance_matrix(make_proc(3), T, 2.0, samples=1_000)

    def test_rademacher_enumeration_path(self):
        T = IndexSet.basis(4)
        v = metric.distance_matrix(rad_proc(4), T, 2.0).values()
        assert v.shape == (6,)
        assert np.allclose(v, math.sqrt(2.0))

    @pytest.mark.parametrize("make_proc", [gauss_proc, rad_proc, exp_proc])
    def test_pair_equals_increment_norm(self, make_proc):
        # one backend: a pair's matrix entry is its increment norm, bit for bit
        s, t = np.array([1.0, -2.0, 0.5]), np.array([0.0, 1.0, 0.0])
        proc = make_proc(3)
        r = increment_norm(proc, s, t, 3.0, samples=30_000, seed=4)
        v = metric.distance_matrix(proc, IndexSet(np.stack([s, t])), 3.0,
                                   samples=30_000, seed=4).values()
        assert v.shape == (1,)
        assert r.value == v[0]

    def test_gaussian_memory_bounded_in_pairs(self):
        # 179,700 pairs in R^128: the (pairs x dim) difference array alone
        # would take 184 MB; the lengths take 1.4 MB and are read scaled
        T = IndexSet(np.random.default_rng(8).standard_normal((600, 128)))
        tracemalloc.start()
        try:
            metric.distance_matrix(gauss_proc(128), T, 4.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_exact_paths_build_no_difference_array(self, monkeypatch):
        real = metric._pair_diffs
        calls = []

        def tile_diffs(pts, k=None):
            assert k is not None and len(k) <= metric.TILE_ELEMS // pts.shape[1], \
                "(pairs x dim) difference array built"
            calls.append(k)
            return real(pts, k)

        T = IndexSet(np.random.default_rng(6).standard_normal((40, 24)))
        monkeypatch.setattr(metric, "_pair_diffs", tile_diffs)
        v = metric.distance_matrix(gauss_proc(24), T, 8.0).values()
        assert v[0] == np.linalg.norm(T.points[0] - T.points[1]) * \
            dist.gaussian().moment(8.0)
        assert metric.is_exact_metric(gauss_proc(24), T)
        assert not metric.is_exact_metric(rad_proc(24), T)
        assert not metric.is_exact_metric(exp_proc(24), T)
        assert metric.is_exact_metric(exp_proc(24), IndexSet(np.ones((40, 24))))
        assert calls == []
        # 780 pairs with at most two nonzeros, 64 to a tile: each wanted
        # position is gathered once, and each value is the two-point pass's
        monkeypatch.setattr(metric, "TILE_ELEMS", 64 * 24)
        pts = axis_points(40, 24)
        for make_proc, method in ((rad_proc, "enumeration"), (exp_proc, "quadrature")):
            calls.clear()
            v = metric.distance_matrix(make_proc(24), IndexSet(pts), 3.0)
            assert v.method == method and len(calls) == 13
            assert np.array_equal(np.concatenate(calls), np.arange(780))
            i, j = metric.pair_of(np.arange(0, 780, 97), 40)
            assert [increment_norm(make_proc(24), pts[a], pts[b], 3.0).value
                    for a, b in zip(i, j)] == v.values()[::97].tolist()

    def test_mc_memory_bounded_in_pairs(self):
        # 19,900 pairs: a (samples x pairs) array alone would take 300 MiB
        T = IndexSet(np.random.default_rng(9).standard_normal((200, 3)))
        tracemalloc.start()
        try:
            metric.distance_matrix(weibull_proc(3), T, 3.0, samples=2_000, seed=1)
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
            metric.distance_matrix(weibull_proc(16), T, 3.0, samples=200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 160 * 2 ** 20

    @pytest.mark.parametrize("make_proc, method", [(exp_proc, "quadrature"),
                                                   (rad_proc, "enumeration")],
                             ids=["quadrature", "enumeration"])
    def test_exact_pass_holds_tiles_not_differences(self, make_proc, method):
        # 44,850 pairs in R^128 whose increments have at most two nonzeros:
        # 44 MiB of differences, whose gather peaks at 88 MiB; an exact pass
        # reads them one tile of pairs at a time
        T = IndexSet(axis_points(300, 128))
        tracemalloc.start()
        try:
            v = metric.distance_matrix(make_proc(128), T, 1.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v.method == method and np.isfinite(v.values()).all()
        assert peak < 32 * 2 ** 20

    def test_exact_passes_fit_a_limit_below_their_differences(self, monkeypatch):
        # the 44 MiB of differences above under a 32 MiB limit: the exact
        # passes run, Monte Carlo (sym_exponential at p = 5) raises
        monkeypatch.setattr(metric, "_PASS_MAX_BYTES", 32 << 20)
        pts = axis_points(300, 128)
        for make_proc, method, p in ((exp_proc, "quadrature", 1.5),
                                     (rad_proc, "enumeration", 1.5),
                                     (exp_proc, "even_moments", 4.0)):
            assert metric.distance_matrix(make_proc(128), IndexSet(pts), p).method == method
        with pytest.raises(ValueError, match=r"^monte_carlo pair norms of 300 points in "
                                             r"R\^128 .* past the 32 MiB limit of one pass$"):
            metric.distance_matrix(exp_proc(128), IndexSet(pts), 5.0, samples=1_000)

    @pytest.mark.parametrize("make_proc, method", [(rad_proc, "enumeration"),
                                                   (exp_proc, "quadrature"),
                                                   (three_point_proc, "enumeration")])
    def test_an_overflowed_increment_raises(self, make_proc, method):
        # 1e308 - (-1e308) overflows to inf: no value is returned for it
        T = IndexSet([[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]])
        with np.errstate(over="ignore"), pytest.raises(
                ValueError, match=rf"^{method} d_p at p = 1.5 of an increment that is not finite$"):
            metric.distance_matrix(make_proc(2), T, 1.5)

    @pytest.mark.parametrize("make_proc, method, p", [(exp_proc, "monte_carlo", 5.0),
                                                      (rad_proc, "enumeration", 3.0),
                                                      (exp_proc, "quadrature", 3.0),
                                                      (exp_proc, "even_moments", 4.0),
                                                      (three_point_proc, "enumeration", 3.0)],
                             ids=["exp_proc-monte_carlo", "rad_proc-enumeration",
                                  "exp_proc-quadrature", "exp_proc-even_moments",
                                  "three_point_proc-enumeration"])
    def test_pass_past_the_byte_limit_raises_before_it_allocates(self, make_proc, method, p,
                                                                  monkeypatch):
        def no_diffs(pts, k=None):
            raise AssertionError("(pairs x dim) difference array built")

        # 44,850 pairs in R^16: 6.0 MiB of differences and outputs alone;
        # sym_exponential is Monte Carlo at p = 5, quadrature at p = 3 and
        # even moments at p = 4; the last four coordinates are 0, so every
        # three_point increment has at most 3^12 atoms and is enumerated
        monkeypatch.setattr(metric, "_PASS_MAX_BYTES", 1 << 20)
        monkeypatch.setattr(metric, "_pair_diffs", no_diffs)
        proc = make_proc(16)
        pts = np.random.default_rng(7).standard_normal((300, 16))
        pts[:, 12:] = 0.0
        T = IndexSet(pts)
        with pytest.raises(ValueError, match=rf"^{method} pair norms of 300 points in "
                                             rf"R\^16 under the {proc.family} process "
                                             r"need about [\d,]+ MiB, past the 1 MiB"):
            metric.distance_matrix(proc, T, p, samples=1_000)

    def test_monte_carlo_pass_just_past_the_limit_refuses(self, monkeypatch):
        # the estimate: the differences and the key's copy, the outputs and
        # six class vectors, one chunk's draws, a tile's projection and the
        # scratch buffer, and the three Gram sums of p = 2 with their product
        m, dim, samples = 60, 16, 30_000
        tile = min(metric._MC_CHUNK, metric.TILE_ELEMS // (m - 1))
        need = 8 * (m * (m - 1) // 2 * (2 * dim + 8) + metric._MC_CHUNK * dim
                    + 2 * m * tile + 4 * m * m)
        T = IndexSet(np.random.default_rng(8).standard_normal((m, dim)))
        pair_diffs = metric._pair_diffs

        def no_diffs(pts, k=None):
            raise AssertionError("(pairs x dim) difference array built")

        monkeypatch.setattr(metric, "_PASS_MAX_BYTES", need - 1)
        monkeypatch.setattr(metric, "_pair_diffs", no_diffs)
        with pytest.raises(ValueError, match=rf"^monte_carlo pair norms of {m} points in "
                                             r"R\^16 under the sym_exponential process"):
            metric.distance_matrix(exp_proc(dim), T, 2.0, samples)
        # at the estimate itself the pass runs, and takes less than it
        monkeypatch.setattr(metric, "_PASS_MAX_BYTES", need)
        monkeypatch.setattr(metric, "_pair_diffs", pair_diffs)
        tracemalloc.start()
        try:
            v = metric.distance_matrix(exp_proc(dim), T, 2.0, samples)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert v.method == "monte_carlo" and np.isfinite(v.values()).all()
        assert peak < need

    def test_single_point_is_one_zero(self):
        # no pairs; the square of the empty condensed vector is one zero
        d = metric.distance_matrix(exp_proc(2), IndexSet(np.ones((1, 2))), 3.0)
        assert d.n_points() == 1
        one = d.values()
        assert one.shape == (0,)
        assert squareform(one).tobytes() == np.array([[0.0]]).tobytes()


@given(m=st.integers(2, 300), data=st.data())
@settings(max_examples=60, deadline=None)
def test_pair_of_inverts_pair_index(m, data):
    # every position of the condensed vector decodes to its triu pair
    k = np.arange(m * (m - 1) // 2)
    v = metric.PairNorms(np.zeros(len(k)), 1.0, np.zeros(len(k)), "closed_form")
    assert v.n_points() == m
    i, j = metric.pair_of(k, m)
    ii, jj = np.triu_indices(m, 1)
    assert np.array_equal(i, ii) and np.array_equal(j, jj)
    assert np.array_equal(metric.pair_index(i, j, m), k)
    assert np.array_equal(metric.pair_index(j, i, m), k)
    one = data.draw(st.integers(0, len(k) - 1))
    assert tuple(int(x) for x in metric.pair_of(one, m)) == (ii[one], jj[one])
    # broadcasting over a 2-d array of positions keeps its shape
    grid = np.array(data.draw(st.lists(st.integers(0, len(k) - 1), min_size=6, max_size=6)))
    i, j = metric.pair_of(grid.reshape(2, 3), m)
    assert i.shape == j.shape == (2, 3)
    assert np.array_equal(i.ravel(), ii[grid]) and np.array_equal(j.ravel(), jj[grid])


@given(m=st.integers(1, 40), dim=st.sampled_from([1, 3, 17]), data=st.data())
@settings(max_examples=100, deadline=None)
def test_pair_diffs_at_positions_equal_the_triu_gather(m, dim, data):
    pts = np.random.default_rng(m * dim).standard_normal((m, dim))
    ii, jj = np.triu_indices(m, 1)
    full = pts[ii] - pts[jj]
    assert metric._pair_diffs(pts).tobytes() == full.tobytes()
    k = np.array(data.draw(st.lists(st.integers(0, max(len(ii) - 1, 0)),
                                    max_size=60 if len(ii) else 0)), dtype=np.intp)
    got = metric._pair_diffs(pts, k)
    assert got.shape == (len(k), pts.shape[1]) and got.tobytes() == full[k].tobytes()


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


def _monte_carlo(proc, pts, p, samples, seed):
    """Values and 3-sigma errors of the Monte-Carlo kernel at every pair,
    also at the even p where `distance_matrix` takes the even moments."""
    m = len(pts)
    return metric._uncached_pair_norms(proc, pts, float(p), samples, seed, "monte_carlo",
                                       np.ones(m * (m - 1) // 2, bool))


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
                # a zero increment has value 0 and error 0
                errors.append(3.0 * np.std(x) / math.sqrt(samples)
                              / (p * mean ** (1.0 - 1.0 / p)) if mean else 0.0)
        return np.array(values), np.array(errors)

    @staticmethod
    def case(m):
        make = (lambda: dist.sym_weibull(1.5)) if m != 3 else (lambda: dist.three_point(2.0))
        return (ProcessSpec.homogeneous(make(), 4),
                np.random.default_rng(m).standard_normal((m, 4)))

    @pytest.mark.parametrize("m", [2, 3, 70])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, math.log(5.0)])
    def test_matches_naive_reduction(self, m, p):
        # 21,234 samples: neither a multiple of the chunk nor of any tile
        samples = 21_234
        assert samples % metric._MC_CHUNK and samples > metric._MC_CHUNK
        # at 70 points the budget splits each chunk into several tiles
        assert metric.TILE_ELEMS // 69 < metric._MC_CHUNK
        # the kernel itself: at p = 4, 6 and 8 distance_matrix takes the
        # even moments, on three_point (m = 3) it enumerates the atoms at
        # every p but 2, and at the other p it is this pass
        proc, pts = self.case(m)
        values, errors = _monte_carlo(proc, pts, p, samples, 5)
        if p % 2 and m != 3:
            d = metric.distance_matrix(proc, IndexSet(pts), p, samples, 5)
            assert d.method == "monte_carlo"
            assert d.values().tobytes() == values.tobytes()
        want_values, want_errors = self.naive(proc, pts, p, samples, 5)
        np.testing.assert_allclose(values, want_values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(errors, want_errors, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("model", [dist.sym_exponential(), dist.sym_weibull(0.5)],
                             ids=["sym_exponential", "sym_weibull_0.5"])
    def test_close_pairs_keep_the_row_kernel(self, model):
        # copies of t_0 moved by 1e-5, 1e-7 and 1e-9 relative, and an exact
        # repeat of t_1, beside three well-separated points: at p = 2 the
        # Gram expansions cancel to rounding at the close pairs (with every
        # pair on the Gram sums, six values here were off, one 22-fold), so
        # they take the row kernel, and the others the Gram sums
        rng = np.random.default_rng(11)
        base = rng.standard_normal((3, 4))
        step = rng.standard_normal(4)
        step *= np.linalg.norm(base[0]) / np.linalg.norm(step)
        pts = np.vstack([base, base[0] + np.multiply.outer([1e-5, 1e-7, 1e-9], step), base[1]])
        proc = ProcessSpec.homogeneous(model, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d = metric.distance_matrix(proc, IndexSet(pts), 2.0, 30_000, 4)
        assert d.method == "monte_carlo"
        want_values, want_errors = self.naive(proc, pts, 2.0, 30_000, 4)
        np.testing.assert_allclose(d.values(), want_values, rtol=1e-9, atol=0)
        np.testing.assert_allclose(d.errors, want_errors, rtol=1e-9, atol=0)
        repeat = metric.pair_index(1, 6, 7)
        assert d.values()[repeat] == 0.0 and d.errors[repeat] == 0.0
        assert (d.values() > 0).sum() == 20

    def test_gram_sums_replay_where_rounding_dominates(self):
        # d = X_1 on the pair (0, 1) (r = 1 / 3.88, past _CLOSE): one draw
        # of d^2 has no spread, so the Gram sums' centred sum d^4 is all
        # rounding (a 3-sigma error of 1e-7 for seed 12, where d^2 = 9); the
        # pass reduces such a pair again by the row kernel, from the same draws
        proc = ProcessSpec(models=(dist.three_point(3.0), dist.sym_weibull(0.5)))
        T = IndexSet([[0.0, 1.2], [1.0, 1.2], [0.3, -1.0]])
        values = set()
        for seed in range(60):
            d = metric.distance_matrix(proc, T, 2.0, 1, seed)
            values.add(float(d.values()[0]))
            assert d.errors[0] == 0.0
        assert values == {0.0, 3.0}

    def test_sudakov_packing_pass_holds_one_tile(self):
        # the 66 points of packing_set(2, 12): one chunk's projection alone
        # took 10.1 MiB, a 24.9 MiB peak; one tile's takes about 2 MiB
        from chainsup import verify

        T = verify.packing_set(2, 12)
        tracemalloc.start()
        try:
            _monte_carlo(exp_proc(12), T.points, 4.0, 100_000, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20

    def test_overflow_at_large_p_raises(self):
        # |d|^(2p) overflows at p = 128 once a sample has |d| above about 16;
        # these two points gave d = 23.5 with a NaN 3-sigma error
        pts = np.random.default_rng(3).standard_normal((2, 5))
        with pytest.raises(ValueError, match=r"p = 128 .* 1 of 1 pairs of the "
                                             r"sym_exponential process"):
            _monte_carlo(exp_proc(5), pts, 128, 21_234, 0)


class TestIncrementClasses:
    """Pairs whose increments share a law share one Monte-Carlo reduction."""

    def test_permutations_and_sign_flips_share_the_bits(self):
        # with one model object on every coordinate, d_p(0, t) depends only
        # on the sorted |t|
        d = np.array([0.5, -1.0, 2.0, 0.0, 1.5])
        T = IndexSet.with_origin([d, d[::-1], -d, d * [1, 1, -1, 1, -1],
                                  np.roll(-d, 2)])
        v = metric.distance_matrix(weibull_proc(5), T, 3.0, 5_000, 2)
        assert v.method == "monte_carlo"
        assert len(set(v.values()[:5].tolist())) == 1
        assert len(set(v.errors[:5].tolist())) == 1
        # other increments keep their own estimates
        assert v.values()[5] != v.values()[0]

    def test_coordinates_with_different_laws_do_not_merge(self):
        proc = ProcessSpec(models=(dist.sym_exponential(), dist.three_point(2.0)))
        values, errors = _monte_carlo(proc, IndexSet.with_origin(np.eye(2)).points, 4.0,
                                      5_000, 2)
        assert values[0] != values[1]
        assert errors[0] != errors[1]

    def test_exchangeable_means_one_model_object(self):
        # two objects of one law: a descriptor need not fix a law, so the
        # coordinates are not sorted and (0, e1), (0, e2) keep two estimates
        pts = IndexSet.with_origin(np.eye(2)).points
        two = ProcessSpec(models=(dist.sym_exponential(), dist.sym_exponential()))
        v = _monte_carlo(two, pts, 4.0, 5_000, 2)[0]
        assert v[0] != v[1]
        v = _monte_carlo(exp_proc(2), pts, 4.0, 5_000, 2)[0]
        assert v[0] == v[1]

    def test_sudakov_packing_holds_the_two_closed_forms(self):
        # packing_set(2, 12): two points share one coordinate or none, so
        # |s - t| has two or four ones, and under standardized Laplace
        # coordinates (E X^4 = 6) d_4 is 18^(1/4) or 60^(1/4)
        from chainsup import verify

        pts = verify.packing_set(2, 12).points
        vals, errors = _monte_carlo(exp_proc(12), pts, 4.0, 100_000, 3)
        distinct, first = np.unique(vals, return_index=True)
        assert len(distinct) == 2
        for value, err, exact in zip(distinct, errors[first], [18 ** 0.25, 60 ** 0.25]):
            assert abs(value - exact) <= err
        assert np.array_equal(errors, errors[first][(vals == distinct[1]).astype(int)])
        # distance_matrix takes the even moments, which give the two values
        v = metric.distance_matrix(exp_proc(12), IndexSet(pts), 4.0)
        assert v.method == "even_moments" and not v.errors.any()
        np.testing.assert_allclose(np.unique(v.values()), [18 ** 0.25, 60 ** 0.25],
                                   rtol=1e-15, atol=0)


_QUAD_PS = [1.0, math.log(4.0), 1.5, math.log(7.0), 1.999, 2.001, math.log(8.0), E, 3.0, 3.99]


def _laplace_moment(c, p):
    """E|sum_i c_i X_i|^p for standardized Laplace X_i and distinct
    alpha_i = c_i^2 / 2, from the partial fractions of the characteristic
    function: Gamma(p + 1) sum_i alpha_i^(p/2) prod_(j != i) alpha_i / (alpha_i - alpha_j)."""
    alpha = [x * x / 2.0 for x in c]
    return math.gamma(p + 1.0) * sum(
        ai ** (p / 2.0) * math.prod(ai / (ai - aj) for j, aj in enumerate(alpha) if j != i)
        for i, ai in enumerate(alpha))


class TestLaplaceQuadrature:
    """sym_exponential d_p at 1 <= p < 4, p != 2, by characteristic-function quadrature."""

    @pytest.mark.parametrize("p", _QUAD_PS)
    def test_one_coordinate(self, p):
        r = increment_norm(exp_proc(1), [-2.5], [0.0], p)
        assert r.method == "quadrature" and r.error_bound == 0.0
        want = 2.5 * math.gamma(p + 1.0) ** (1.0 / p) / math.sqrt(2.0)
        assert r.value == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("p", _QUAD_PS)
    def test_distinct_coefficients_match_the_partial_fractions(self, p):
        for c in ([1.0, -0.5], [0.3, -1.2, 2.0], [1.0, 0.7, -0.2, 0.05]):
            v = metric.distance_matrix(exp_proc(len(c)), IndexSet.with_origin([c]), p)
            assert v.method == "quadrature" and not v.errors.any()
            want = _laplace_moment(c, p) ** (1.0 / p)
            assert v.values()[0] == pytest.approx(want, rel=1e-12, abs=0)

    def test_tends_to_the_euclidean_length_at_p_2(self):
        d = np.array([0.3, -1.2, 2.0, 0.0])
        T = IndexSet.with_origin([d])
        two = float(np.linalg.norm(d))
        for h in (1e-2, 1e-4, 1e-6):
            lo, hi = (metric.distance_matrix(exp_proc(4), T, 2.0 + s * h).values()[0]
                      for s in (-1, 1))
            assert lo < two < hi
            assert hi - lo <= h * two

    def test_extreme_scales_and_zero_increments(self):
        d = np.array([0.3, -1.2, 2.0])
        for p in (1.0, 1.5, 3.0):
            one = increment_norm(exp_proc(3), d, np.zeros(3), p).value
            for c in (1e-300, 1e200):
                v = increment_norm(exp_proc(3), c * d, np.zeros(3), p).value
                assert math.isfinite(v) and v == pytest.approx(c * one, rel=1e-14, abs=0)
            # 1e-300 next to 1e200 adds nothing a float can hold
            v = increment_norm(exp_proc(2), [1e-300, 1e200], [0.0, 0.0], p).value
            assert v == pytest.approx(1e200 * math.gamma(p + 1.0) ** (1.0 / p) / math.sqrt(2.0),
                                      rel=1e-12, abs=0)
            # a repeated point: its pair is 0, the others are not
            v = metric.distance_matrix(exp_proc(3), IndexSet([d, d, -d]), p)
            assert v.method == "quadrature" and v.values()[0] == 0.0 and v.values()[1] > 0.0

    def test_permutations_and_sign_flips_share_the_bits(self):
        d = np.array([0.5, -1.0, 2.0, 0.0, 1.5])
        T = IndexSet.with_origin([d, d[::-1], -d, d * [1, 1, -1, 1, -1], np.roll(-d, 2)])
        v = metric.distance_matrix(exp_proc(5), T, 3.0)
        assert v.method == "quadrature"
        assert len(set(v.values()[:5].tolist())) == 1

    def test_fills_the_requested_pairs_and_draws_nothing(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a quadrature pass drew samples")

        pts = np.random.default_rng(12).standard_normal((6, 3))
        full = metric.distance_matrix(exp_proc(3), IndexSet(pts), 3.0)
        monkeypatch.setattr(metric, "derived_stream", no_draws)
        monkeypatch.setattr(ProcessSpec, "sample_matrix", no_draws)
        blocks = [[0, 1, 2], [4, 5]]
        part = metric.distance_matrix(exp_proc(3), IndexSet(pts), 3.0, blocks=blocks)
        known = np.flatnonzero(~np.isnan(part.errors))
        assert known.tolist() == _pair_positions(blocks, 6).tolist()
        assert part.base[known].tobytes() == full.base[known].tobytes()
        assert not part.errors[known].any()
        with pytest.raises(LookupError):
            part.block([0], [3])

    def test_within_four_sigma_of_monte_carlo(self):
        d = np.array([0.3, -1.2, 2.0, 0.7])
        rng = np.random.default_rng(13)
        model = dist.sym_exponential()
        s = np.abs(np.column_stack([model.sample_with(rng, 200_000) for _ in d]) @ d)
        for p in (1.0, 1.5, 3.0):
            y = s ** p
            exact = increment_norm(exp_proc(4), d, np.zeros(4), p).value ** p
            assert abs(y.mean() - exact) <= 4.0 * y.std() / math.sqrt(len(y))

    def test_raises_past_the_node_cap_and_on_overflow(self, monkeypatch):
        # 1e308 - (-1e308) overflows to inf: no value is returned for it
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
            increment_norm(exp_proc(1), [1e308], [-1e308], 1.5)
        monkeypatch.setattr(laplace, "_MAX_NODES", laplace._FIRST_NODES)
        with pytest.raises(ValueError, match=r"did not converge on 1 increments within 48 nodes"):
            increment_norm(exp_proc(2), [1.0, 0.5], [0.0, 0.0], 3.0)

    def test_imports_no_scipy_and_calls_no_eigen_solver(self):
        import ast
        from pathlib import Path

        tree = ast.parse(Path(laplace.__file__).read_text())
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
        imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
        # the package's own metric, for its tile size, and no scipy
        assert imported == {"__future__", "functools", "math", "numpy", "metric"}
        assert not [n.lineno for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute) and n.attr == "linalg"]


# lattice point sets repeat increment patterns; the classes must be those
# of a plain grouping of the patterns by their bytes
@given(pts=st.integers(1, 5).flatmap(lambda dim: st.lists(
           st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0]),
                    min_size=dim, max_size=dim), min_size=2, max_size=12)),
       mixed=st.booleans())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_increment_classes_equal_a_grouping_by_row_bytes(pts, mixed):
    pts = np.array(pts)
    dim = pts.shape[1]
    if mixed:  # no two coordinates share a model object: rows are not sorted
        proc = ProcessSpec(models=tuple(dist.sym_exponential() if j % 2 else
                                        dist.three_point(2.0) for j in range(dim)))
    else:
        proc = exp_proc(dim)
    diffs = metric._pair_diffs(pts)
    patterns = np.abs(diffs)
    if all(m is proc.models[0] for m in proc.models):
        patterns.sort(axis=1)
    lowest = {}
    want = [lowest.setdefault(row.tobytes(), k) for k, row in enumerate(patterns)]
    rep_of = metric._increment_classes(proc, diffs)
    assert sorted(set(rep_of.tolist())) == sorted(lowest.values())
    assert rep_of.tolist() == want


class TestPairNormCache:
    """Enumerated and Monte-Carlo pair norms are kept on the IndexSet."""

    def test_int_and_float_p_draw_the_same_samples(self):
        pts = np.random.default_rng(3).standard_normal((3, 4))
        a = metric.distance_matrix(exp_proc(4), IndexSet(pts), 4, 2_000, 7)
        b = metric.distance_matrix(exp_proc(4), IndexSet(pts), 4.0, 2_000, 7)
        assert a.values().tobytes() == b.values().tobytes()
        assert a.errors.tobytes() == b.errors.tobytes()

    def test_one_monte_carlo_pass_per_distinct_p(self, monkeypatch):
        from chainsup import gamma, verify

        passes = []
        exact = []

        def spy(seed, *tokens):
            if tokens[0] == "distance_matrix" and len(tokens[1]) == 496 * 16 * 8:
                passes.append(tokens[2])  # a pass over the 496 pairs of T
            return derived_stream(seed, *tokens)

        real = metric._uncached_pair_norms

        def exact_spy(proc, pts, p, samples, seed, method, want):
            if method != "monte_carlo":
                exact.append((p, method, np.flatnonzero(want)))
            return real(proc, pts, p, samples, seed, method, want)

        monkeypatch.setattr(metric, "derived_stream", spy)
        monkeypatch.setattr(metric, "_uncached_pair_norms", exact_spy)
        proc = weibull_proc(16)
        T = IndexSet(np.random.default_rng(4).standard_normal((32, 16)))
        _, tree = gamma.compute_gamma(T, proc, "gammaX", mode="greedy",
                                      samples=2_000, seed=3)
        # the split and the certificate share d_1 and d_2; d_4 is exact, and
        # level 3's cap 256 reaches the 32 points, so it is all singletons
        # and reads no d_8
        assert sorted(passes) == [1.0, 2.0]
        assert [(p, method) for p, method, _ in exact] == [(4.0, "even_moments")]
        split = set(exact[0][2].tolist())
        verify.convex_hull_decomposition(T, tree, proc, samples=2_000, seed=3)
        # the hull steps at d_4, d_8 and d_16, all exact: no Monte-Carlo
        # pass is added.  Its level-1 steps join points of different level-1
        # blocks, pairs the d_4 pass of the split (inside those blocks) did
        # not reduce, so an exact d_4 pass reduces those alone
        assert sorted(passes) == [1.0, 2.0]
        steps = [(p, method) for p, method, _ in exact[1:]]
        assert sorted(steps) == [(4.0, "even_moments"), (8.0, "even_moments"),
                                 (16.0, "even_moments")]
        new = next(w for p, _, w in exact[1:] if p == 4.0)
        assert new.size and not split & set(new.tolist())

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
            got = metric.distance_matrix(proc, T, 3.0, samples, seed).values()
            want = metric.distance_matrix(proc, IndexSet(pts), 3.0, samples, seed).values()
            assert got.tobytes() == want.tobytes()
        assert len(T._norms) == 4

    @pytest.mark.parametrize("make_proc", [exp_proc, rad_proc])
    def test_a_pair_never_requested_cannot_be_read(self, make_proc):
        T, proc = IndexSet(np.random.default_rng(7).standard_normal((4, 3))), make_proc(3)
        v = metric.distance_matrix(proc, T, 3.0, 1_000, 1, blocks=[[0, 1]])
        assert v.method != "closed_form"
        assert v.block([0, 1], [0, 1])[0, 1] == v.block([1], 0).item() > 0.0
        for read in (lambda: v.block([0], [2]), v.max, v.values):
            with pytest.raises(LookupError):
                read()
        # a later request fills the same view, and reads of all of T work
        assert metric.distance_matrix(proc, T, 3.0, 1_000, 1) is v
        assert v.max() == v.values().max() > 0.0

    def test_a_kept_view_is_served_without_picking_the_method(self, monkeypatch):
        # picking enumeration scans every row of pair differences for its
        # atom count; a key already kept reads its view's own method
        calls = []
        real = metric._method

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(metric, "_method", spy)
        T, proc = IndexSet(axis_points(40, 12)), rad_proc(12)
        v = metric.distance_matrix(proc, T, 1.5, blocks=[[0, 1, 2]])
        assert v.method == "enumeration" and calls == [1]
        # known pairs, then pairs no request reduced yet: the same view
        assert metric.distance_matrix(proc, T, 1.5, blocks=[[0, 2]]) is v
        assert metric.distance_matrix(proc, T, 1.5) is v
        assert calls == [1]
        assert v.values().tobytes() == \
            metric.distance_matrix(proc, IndexSet(T.points), 1.5).values().tobytes()
        metric.distance_matrix(proc, T, 3.0)  # a new key picks again
        assert calls == [1, 1, 1]

    def test_a_request_of_known_pairs_draws_nothing(self, monkeypatch):
        T, proc = IndexSet(np.random.default_rng(8).standard_normal((6, 3))), weibull_proc(3)
        metric.distance_matrix(proc, T, 3.0, 1_000, 1, blocks=[[0, 1, 2], [3, 4]])
        calls = []

        def spy(*args):
            calls.append(1)
            return derived_stream(*args)

        monkeypatch.setattr(metric, "derived_stream", spy)
        metric.distance_matrix(proc, T, 3.0, 1_000, 1, blocks=[[0, 2], [4, 3], [5]])
        assert calls == []
        metric.distance_matrix(proc, T, 3.0, 1_000, 1, blocks=[[1, 5]])
        assert calls == [1]


def _pair_positions(blocks, m):
    """Positions of the pairs inside the blocks, sorted."""
    return np.unique(np.concatenate(
        [metric.pair_index(*np.take(b, np.triu_indices(len(b), 1)), m) for b in blocks]
        + [np.zeros(0, int)])).astype(int)


@st.composite
def restricted_requests(draw):
    """An index set on the sphere or a small lattice (many equal increment
    patterns), a process and p, and two random partitions of its points."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    m, dim = draw(st.integers(2, 9)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        pts = rng.standard_normal((m, dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    else:
        pts = rng.integers(-2, 3, (m, dim)).astype(float)
    model = draw(st.sampled_from([dist.sym_exponential(), dist.three_point(2.0),
                                  dist.sym_weibull(1.5), dist.rademacher()]))
    p = draw(st.sampled_from([1.0, 1.7, 2.0, 3.0, 4.0]))

    def partition():
        labels = rng.integers(0, draw(st.integers(1, m)), m)
        return [np.flatnonzero(labels == c).tolist() for c in np.unique(labels)]

    return pts, ProcessSpec.homogeneous(model, dim), p, partition(), partition()


@given(case=restricted_requests(), seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_restricted_pass_equals_a_full_pass_at_the_requested_pairs(case, seed):
    pts, proc, p, first, second = case
    m = len(pts)
    full = metric.distance_matrix(proc, IndexSet(pts), p, 40_000, seed)
    T = IndexSet(pts)
    part = metric.distance_matrix(proc, T, p, 40_000, seed, blocks=first)
    if part.method == "closed_form":
        return
    # values and 3-sigma errors at every reduced pair, the requested ones
    # among them, are bit for bit those of one pass over every pair
    known = np.flatnonzero(~np.isnan(part.errors))
    assert set(_pair_positions(first, m)) <= set(known)
    assert part.base[known].tobytes() == full.base[known].tobytes()
    assert part.errors[known].tobytes() == full.errors[known].tobytes()
    for b in first:
        assert part.block(b, b).tobytes() == full.block(b, b).tobytes()
    # two requests in turn reduce what one request of their union does
    metric.distance_matrix(proc, T, p, 40_000, seed, blocks=second)
    union = metric.distance_matrix(proc, IndexSet(pts), p, 40_000, seed,
                                   blocks=first + second)
    assert part.base.tobytes() == union.base.tobytes()
    assert part.errors.tobytes() == union.errors.tobytes()


_GRAM_LAWS = (dist.three_point(2.0), dist.three_point(3.0), dist.sym_exponential(),
              dist.sym_weibull(0.5), dist.sym_weibull(1.5))


@st.composite
def gram_passes(draw):
    """A sphere or small-lattice index set (lattices repeat points and
    patterns), one law or a mix of the laws whose d_2 is Monte Carlo, and
    a sample count."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    m, dim = draw(st.integers(2, 9)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        pts = rng.standard_normal((m, dim))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    else:
        pts = rng.integers(-2, 3, (m, dim)).astype(float)
    if draw(st.booleans()):
        proc = ProcessSpec.homogeneous(draw(st.sampled_from(_GRAM_LAWS)), dim)
    else:
        proc = ProcessSpec(models=tuple(draw(st.sampled_from(_GRAM_LAWS)) for _ in range(dim)))
    return pts, proc, draw(st.integers(100, 40_000))


@given(case=gram_passes(), seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_p2_gram_sums_match_a_plain_reduction(case, seed):
    # the Gram sums at p = 2, and the row kernel at its close pairs, against
    # |v_i - v_j|^2 reduced pair by pair from the same stream's draws, read
    # at each pair's increment-pattern representative
    pts, proc, samples = case
    d = metric.distance_matrix(proc, IndexSet(pts), 2.0, samples, seed)
    if d.method == "closed_form":
        return
    assert d.method == "monte_carlo"
    rep_of = metric._increment_classes(proc, metric._pair_diffs(pts))
    want_values, want_errors = TestMonteCarloKernel.naive(proc, pts, 2.0, samples, seed)
    want_values, want_errors = want_values[rep_of], want_errors[rep_of]
    np.testing.assert_allclose(d.values(), want_values, rtol=1e-12, atol=0)
    np.testing.assert_allclose(d.errors, want_errors, rtol=1e-12, atol=0)


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
                                           samples=2_000, seed=seed).values())
    via = dm[:, :, None] + dm[None, :, :]          # d(i, j) + d(j, k) at [i, j, k]
    direct = dm[:, None, :]                          # d(i, k) at [i, j, k]
    assert np.all(direct <= via * (1.0 + 1e-12))


class TestDiameter:
    def test_singleton(self):
        v = metric.distance_matrix(gauss_proc(2), IndexSet(np.zeros((1, 2))), 2.0).values()
        assert squareform(v).max() == 0.0

    def test_basis_gaussian(self):
        T = IndexSet.basis(3)
        assert metric.distance_matrix(gauss_proc(3), T, 2.0).max() == pytest.approx(
            math.sqrt(2.0), rel=1e-12)

    def test_monotone_under_subset(self):
        pts = np.random.default_rng(5).standard_normal((6, 3))
        proc = gauss_proc(3)
        full = metric.distance_matrix(proc, IndexSet(pts), 4.0).max()
        sub = metric.distance_matrix(proc, IndexSet(pts[:4]), 4.0).max()
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
        # solved on a / max|a_i|: a power of two scales the result bit for
        # bit, and no scale a float holds leaves the bracket
        for k in (200, -200):
            assert latala_norm(2.0 ** k * a, proc, 4) == 2.0 ** k * v1
        for scale in (1e100, 1e-100, 1e300, 1e-300):
            v = latala_norm(scale * a, proc, 4)
            assert math.isfinite(v) and v == pytest.approx(scale * v1, rel=1e-8)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"^coefficient {bad} at position 1 is not finite$"):
            latala_norm([1.0, bad], gauss_proc(2), 4)

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

    @pytest.mark.parametrize("make_proc, r", [(gauss_proc, 400),
                                              (lambda n: ProcessSpec.homogeneous(
                                                  dist.sym_weibull(0.5), n), 128)],
                             ids=["gaussian-400", "weibull-half-128"])
    def test_moments_past_the_float_range(self, make_proc, r):
        # E g^400 = 399!! and E X^128 of sym_weibull(0.5) overflow a float:
        # the Horner table's moment(2k) ** (2k) raised OverflowError, the log
        # table gives the functional, inside Latala's bracket of ||sum a_i X_i||_r
        a = np.array([1.0, 0.5])
        proc = make_proc(2)
        v = latala_norm(a, proc, r)
        norm = increment_norm(proc, a, np.zeros(2), float(r)).value
        assert math.isfinite(v) and math.isfinite(norm)
        assert (E - 1.0) / (2.0 * E * E) * v <= norm <= E * v
        assert latala_norm(2.0 * a, proc, r) == 2.0 * v

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
    # the kept vectors are read-only, and values() is the caller's own copy
    for kept in (first.base, first.errors):
        with pytest.raises(ValueError, match="read-only"):
            kept[...] = -1.0
    before = first.values().tobytes()
    first.values()[...] = -1.0
    again = metric.distance_matrix(proc, T, p, 500, 9)
    fresh = metric.distance_matrix(proc, IndexSet(pts), p, 500, 9)
    assert again.values().tobytes() == before
    assert again.method == fresh.method
    assert len(T._norms) == (again.method != "closed_form")
    assert again.values().tobytes() == fresh.values().tobytes()
    assert again.errors.tobytes() == fresh.errors.tobytes()


# nonnegative and negative floats, -0.0, inf, subnormals, and values an
# ulp apart that a scale can merge into a tie; no product overflows
_BASE_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, 5e-324, 1e-310, 1.0, 1.0 + 2.0 ** -52, 2.0]),
    st.floats(min_value=-1e150, max_value=1e150, allow_subnormal=True))


@given(base=st.lists(_BASE_ENTRIES, min_size=1, max_size=40),
       scale=st.one_of(st.sampled_from([1.0, 0.5, 2.0 ** -1074, 1e-300,
                                        dist.gaussian().moment(4.0)]),
                       st.floats(min_value=5e-324, max_value=1e150, allow_subnormal=True)),
       picks=st.lists(st.integers(0, 1 << 20), max_size=60))
@example(base=[-0.0, 0.0, -0.0], scale=1.0, picks=[2, 1, 0, 1])
@example(base=[1.0, 1.0 + 2.0 ** -52, 0.0], scale=2.0 ** -1074, picks=[1, 0])
@example(base=[math.inf, 5e-324, -0.0], scale=1e-300, picks=[0, 1, 2])
@settings(max_examples=300, deadline=None)
def test_gather_then_scale_is_scale_then_gather(base, scale, picks):
    # the entries repeated up to the pair count of the fewest points that
    # hold them all; pick a reads pair (i[a], j[a]), on the block's diagonal
    m = 2
    while m * (m - 1) // 2 < len(base):
        m += 1
    base = np.resize(np.array(base), m * (m - 1) // 2)
    idx = np.array(picks, dtype=np.intp) % len(base)
    v = metric.PairNorms(base, scale, np.zeros(len(base)), "closed_form")
    scaled = base * scale
    i, j = metric.pair_of(idx, m)
    assert np.diagonal(v.block(i, j)).tobytes() == scaled[idx].tobytes()
    assert v.max() == scaled.max()
    assert v.values().tobytes() == scaled.tobytes()


def weibull_half():
    # a heavy tail: E X^128 is about e^964, past the float range
    return dist.sym_weibull(0.5)


def three_point_3():
    return dist.three_point(3.0)


def _method_from_diffs(proc, pts, p):
    """The dispatch rule read off the whole (pairs x dim) difference array."""
    diffs = metric._pair_diffs(pts)
    fam = proc.family
    if fam == "gaussian" or not np.any(diffs):
        return "closed_form"
    if p in range(2, 129, 2) and (fam == "rademacher" or p >= 4.0 and
                                  {m.family for m in proc.models} <= dist.FAMILIES.keys()):
        return "even_moments"
    # finite-atom laws whose increments have at most ATOM_LIMIT atoms, in
    # exact integers, except at p = 2
    if p != 2.0 and all(m.atoms is not None for m in proc.models) and \
            max(math.prod(len(proc.models[j].atoms[0]) for j in np.flatnonzero(d))
                for d in diffs) <= metric.ATOM_LIMIT:
        return "enumeration"
    if fam == "sym_exponential" and 1.0 <= p < 4.0 and p != 2.0:
        return "quadrature"
    return "monte_carlo"


@given(pts=point_sets(coords=st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                      dims=(1, 3, 20, 21, 24)),
       zero_rows=st.integers(0, 2),
       make=st.sampled_from([dist.gaussian, dist.rademacher, dist.sym_exponential,
                             three_point_3, None, "named", "finite"]),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0, 3.999, 4.0, 8.0, 128.0, 130.0]))
# increments of exactly ATOM_LIMIT atoms (2^20) and of one coordinate more
@example(pts=np.ones((1, 20)), zero_rows=1, make=dist.rademacher, p=1.0)
@example(pts=np.ones((1, 21)), zero_rows=1, make=dist.rademacher, p=1.0)
# 3^12 atoms fit the limit and 3^13 do not, nor do 2^5 3^10 in a mix of
# three_point and rademacher, where 2^5 3^9 do
@example(pts=np.ones((1, 12)), zero_rows=1, make=three_point_3, p=1.0)
@example(pts=np.ones((1, 13)), zero_rows=1, make=three_point_3, p=1.0)
@example(pts=np.ones((1, 14)), zero_rows=1, make="finite", p=3.0)
@example(pts=np.ones((1, 15)), zero_rows=1, make="finite", p=3.0)
# past the limit the even moments take even p <= MC_MAX_P, and no other p
@example(pts=np.ones((1, 21)), zero_rows=1, make=dist.rademacher, p=2.0)
@example(pts=np.ones((1, 21)), zero_rows=1, make=dist.rademacher, p=130.0)
# three_point's d_2 stays Monte Carlo
@example(pts=np.ones((1, 3)), zero_rows=1, make=three_point_3, p=2.0)
@settings(max_examples=300, deadline=None)
def test_method_matches_the_difference_array_rule(pts, zero_rows, make, p):
    pts = np.vstack([pts, np.zeros((zero_rows, pts.shape[1]))])
    n = pts.shape[1]
    if make is None:  # no common family
        proc = ProcessSpec(models=(dist.rademacher(),) * (n - 1) + (dist.gaussian(),))
    elif make == "named":  # every law a config can name, in turn
        laws = (dist.gaussian(), dist.rademacher(), dist.sym_exponential(),
                dist.three_point(3.0), dist.sym_weibull(0.5))
        proc = ProcessSpec(models=[laws[i % len(laws)] for i in range(n)])
    elif make == "finite":  # the finite-atom laws, in turn
        laws = (dist.three_point(3.0), dist.rademacher(), dist.three_point(5.0))
        proc = ProcessSpec(models=[laws[i % len(laws)] for i in range(n)])
    else:
        proc = ProcessSpec.homogeneous(make(), n)
    assert metric._method(proc, pts, p) == _method_from_diffs(proc, pts, p)


def test_is_exact_metric():
    assert metric.is_exact_metric(gauss_proc(100), IndexSet.basis(100))
    assert metric.is_exact_metric(rad_proc(8), IndexSet.basis(8))
    assert not metric.is_exact_metric(rad_proc(24), IndexSet.with_origin(np.ones((1, 24))))
    assert not metric.is_exact_metric(exp_proc(2), IndexSet.basis(2))
    # three_point's d_1 is enumerated, but its d_2 is Monte Carlo
    assert not metric.is_exact_metric(three_point_proc(8), IndexSet.basis(8))



_TABLE_P = (1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 128.0, 130.0, 131.5)
_TABLE_DIM = 24
_TABLE_POINTS = {
    "equal": np.ones((3, _TABLE_DIM)),
    "basis": np.eye(_TABLE_DIM),
    # 13 nonzeros: 2^13 rademacher atoms, 3^13 three_point atoms > ATOM_LIMIT
    "wide": np.vstack([np.zeros(_TABLE_DIM), np.eye(_TABLE_DIM)[:13].sum(axis=0)]),
    "dense": np.vstack([np.zeros(_TABLE_DIM), np.ones(_TABLE_DIM)]),
}


def _table_processes():
    two_atom = dist.DistributionModel(  # a finite-atom law no config can name
        "two_atom", {}, moment_fn=lambda p: 1.0,
        tail_fn=lambda t: np.where(np.asarray(t) < 1.0, 0.0, np.inf),
        sampler=lambda rng, out: None, support_bound=1.0,
        atoms=([-1.0, 1.0], [0.5, 0.5]))
    tail = dist.log_concave_from_tail(lambda t: np.sqrt(2) * np.asarray(t))

    def cycle(*laws):
        return ProcessSpec(models=[laws[i % len(laws)] for i in range(_TABLE_DIM)])

    return {
        "gaussian": cycle(dist.gaussian()),
        "rademacher": cycle(dist.rademacher()),
        "sym_exponential": cycle(dist.sym_exponential()),
        "sym_weibull": cycle(dist.sym_weibull(1.5)),
        "three_point": cycle(dist.three_point(3.0)),
        "two_atom": cycle(two_atom),
        "tail": cycle(tail),
        "rademacher+three_point": cycle(dist.rademacher(), dist.three_point(3.0)),
        "rademacher+gaussian": cycle(dist.rademacher(), dist.gaussian()),
        "named": cycle(dist.gaussian(), dist.rademacher(), dist.sym_exponential(),
                       dist.three_point(3.0), dist.sym_weibull(0.5)),
        "rademacher+two_atom": cycle(dist.rademacher(), two_atom),
        "sym_exponential+tail": cycle(dist.sym_exponential(), tail),
    }


# (process, points) -> the method at each p of _TABLE_P: closed_form,
# even_moments, enumeration (n), quadrature, monte_carlo
_METHOD_TABLE = {
    ("gaussian", "equal"): "cccccccccc",
    ("gaussian", "basis"): "cccccccccc",
    ("gaussian", "wide"): "cccccccccc",
    ("gaussian", "dense"): "cccccccccc",
    ("rademacher", "equal"): "cccccccccc",
    ("rademacher", "basis"): "nneneneenn",
    ("rademacher", "wide"): "nneneneenn",
    ("rademacher", "dense"): "mmememeemm",
    ("sym_exponential", "equal"): "cccccccccc",
    ("sym_exponential", "basis"): "qqmqemeemm",
    ("sym_exponential", "wide"): "qqmqemeemm",
    ("sym_exponential", "dense"): "qqmqemeemm",
    ("sym_weibull", "equal"): "cccccccccc",
    ("sym_weibull", "basis"): "mmmmemeemm",
    ("sym_weibull", "wide"): "mmmmemeemm",
    ("sym_weibull", "dense"): "mmmmemeemm",
    ("three_point", "equal"): "cccccccccc",
    ("three_point", "basis"): "nnmneneenn",
    ("three_point", "wide"): "mmmmemeemm",
    ("three_point", "dense"): "mmmmemeemm",
    ("two_atom", "equal"): "cccccccccc",
    ("two_atom", "basis"): "nnmnnnnnnn",
    ("two_atom", "wide"): "nnmnnnnnnn",
    ("two_atom", "dense"): "mmmmmmmmmm",
    ("tail", "equal"): "cccccccccc",
    ("tail", "basis"): "mmmmmmmmmm",
    ("tail", "wide"): "mmmmmmmmmm",
    ("tail", "dense"): "mmmmmmmmmm",
    ("rademacher+three_point", "equal"): "cccccccccc",
    ("rademacher+three_point", "basis"): "nnmneneenn",
    ("rademacher+three_point", "wide"): "nnmneneenn",
    ("rademacher+three_point", "dense"): "mmmmemeemm",
    ("rademacher+gaussian", "equal"): "cccccccccc",
    ("rademacher+gaussian", "basis"): "mmmmemeemm",
    ("rademacher+gaussian", "wide"): "mmmmemeemm",
    ("rademacher+gaussian", "dense"): "mmmmemeemm",
    ("named", "equal"): "cccccccccc",
    ("named", "basis"): "mmmmemeemm",
    ("named", "wide"): "mmmmemeemm",
    ("named", "dense"): "mmmmemeemm",
    ("rademacher+two_atom", "equal"): "cccccccccc",
    ("rademacher+two_atom", "basis"): "nnmnnnnnnn",
    ("rademacher+two_atom", "wide"): "nnmnnnnnnn",
    ("rademacher+two_atom", "dense"): "mmmmmmmmmm",
    ("sym_exponential+tail", "equal"): "cccccccccc",
    ("sym_exponential+tail", "basis"): "mmmmmmmmmm",
    ("sym_exponential+tail", "wide"): "mmmmmmmmmm",
    ("sym_exponential+tail", "dense"): "mmmmmmmmmm",
}


def test_method_table():
    code = {"closed_form": "c", "even_moments": "e", "enumeration": "n",
            "quadrature": "q", "monte_carlo": "m"}
    got = {(name, where): "".join(code[metric._method(proc, pts, p)] for p in _TABLE_P)
           for name, proc in _table_processes().items()
           for where, pts in _TABLE_POINTS.items()}
    assert got == _METHOD_TABLE

@pytest.mark.parametrize("make, p", [(rad_proc, 2.0), (rad_proc, 16.0), (rad_proc, 32.0),
                                     (rad_proc, 40.0), (three_point_proc, 1.0),
                                     (three_point_proc, 33.0), (three_point_proc, 40.5)],
                         ids=["2.0", "16.0", "32.0", "40.0", "three_point-1.0",
                              "three_point-33.0", "three_point-40.5"])
def test_enumerated_tiny_increment_does_not_underflow(make, p):
    # unscaled, (1e-20)^32 underflows to 0.0 and two distinct points sat at
    # distance 0 in the metric of greedy level 5; d_p of one coordinate is
    # |d| ||X||_p
    proc = make(1)
    r = increment_norm(proc, [1e-20], [0.0], p)
    assert r.value == pytest.approx(1e-20 * proc.models[0].moment(p), rel=1e-14, abs=0)
    if make is rad_proc:
        assert r.value == 1e-20


def test_enumerated_huge_increment_does_not_overflow():
    # sum |d_i| of (1e308, 1e308) is past the largest float, but the
    # increment is first scaled by a power of two: E|e_1 + e_2| = 1, and
    # E|X_1 + X_2| = 51 / 81 for three_point(3), whose d_3 of 1.88e308
    # overflows and raises
    assert increment_norm(rad_proc(2), [1e308, 1e308], [0.0, 0.0], 1.0).value == 1e308
    got = increment_norm(three_point_proc(2), [1e308, 1e308], [0.0, 0.0], 1.0)
    assert got.method == "enumeration"
    assert got.value == pytest.approx(1e308 * (51.0 / 81.0), rel=1e-15, abs=0)
    with pytest.raises(ValueError, match=r"^enumeration d_p at p = 3 of a nonzero increment "
                                         r"is 0 or not finite$"):
        increment_norm(three_point_proc(2), [1e308, 1e308], [0.0, 0.0], 3.0)


# rademacher and three_point with atoms near 1, at 3 and far out
_FINITE_LAWS = (dist.rademacher(), dist.three_point(1.5), dist.three_point(3.0),
                dist.three_point(40.0))


@st.composite
def finite_increments(draw, coords=_COORDS):
    """A process of up to ten finite-atom coordinates, mixed, and a nonzero
    increment in it."""
    n = draw(st.integers(1, 10))
    models = draw(st.lists(st.sampled_from(_FINITE_LAWS), min_size=n, max_size=n))
    d = draw(st.lists(coords, min_size=n, max_size=n).filter(any))
    return ProcessSpec(models=models), np.array(d)


def _engine(proc, d, p):
    """The finite-atom engine's d_p of the increment d, called directly."""
    return metric._uncached_pair_norms(proc, np.array([d, np.zeros(len(d))]), p, 0, 0,
                                       "enumeration", np.ones(1, bool))[0, 0]


def _atom_table(proc, d):
    """The value sum_i d_i x_i and probability prod_i w_i of every tuple of
    atoms (itertools.product over the nonzero coordinates)."""
    live = np.flatnonzero(d)
    laws = [proc.models[i].atoms for i in live]
    idx = np.array(list(itertools.product(*[range(len(x)) for x, _ in laws])))
    values = sum(d[i] * x[idx[:, j]] for j, (i, (x, _)) in enumerate(zip(live, laws)))
    weights = np.prod([w[idx[:, j]] for j, (_, w) in enumerate(laws)], axis=0)
    return values, weights


class TestAtomEngine:
    """Exact d_p on finite-atom laws against sums over every tuple of atoms."""

    @given(case=finite_increments())
    @example(case=(ProcessSpec.homogeneous(dist.three_point(3.0), 10), np.ones(10)))
    # 17 ulps off when the prefix sums are a plain np.cumsum
    @example(case=(ProcessSpec.homogeneous(dist.three_point(3.0), 10),
                   np.array([-0.304, -0.9, 0.164, 2.245, -0.832, -0.624, 0.205, 0.493,
                             -0.176, -0.206])))
    @example(case=(ProcessSpec.homogeneous(dist.rademacher(), 10),
                   np.array([1.0, -1.0] * 5)))
    @settings(max_examples=100, deadline=None)
    def test_p1_equals_the_exact_rational_sum(self, case):
        # every float is a dyadic rational, so sum_i d_i x_i and the product
        # of the probabilities are exact integers over powers of two; the
        # engine's atoms and probabilities each round up to ten times (4.1
        # ulps seen in 3,000 examples)
        from fractions import Fraction

        proc, d = case
        live = np.flatnonzero(d)
        terms = [[(Fraction(float(d[i])) * Fraction(float(x)), Fraction(float(w)))
                  for x, w in zip(*proc.models[i].atoms)] for i in live]
        # the denominators are powers of two, so the largest is their lcm
        scale = max(v.denominator for row in terms for v, _ in row)
        weight = max(w.denominator for row in terms for _, w in row)
        ints = [[(int(v * scale), int(w * weight)) for v, w in row] for row in terms]
        total = sum(math.prod(w for _, w in combo) * abs(sum(v for v, _ in combo))
                    for combo in itertools.product(*ints))
        want = Fraction(total, scale * weight ** len(live))
        got = _engine(proc, d, 1.0)
        assert abs(Fraction(got) - want) <= 8 * Fraction(math.ulp(float(want)))

    @given(case=finite_increments(),
           p=st.one_of(st.integers(1, 63).map(lambda k: 2.0 * k + 1.0),
                       # three_point's d_2 is Monte Carlo
                       st.floats(min_value=1.0, max_value=64.0).filter(lambda p: p != 2.0)))
    @example(case=(ProcessSpec.homogeneous(dist.three_point(40.0), 9), np.ones(9)), p=127.0)
    @example(case=(ProcessSpec.homogeneous(dist.rademacher(), 10), np.ones(10)), p=63.5)
    @settings(max_examples=100, deadline=None)
    def test_odd_and_fractional_p_equal_the_product_sum(self, case, p):
        proc, d = case
        # scaled so that no |value| exceeds 1 and no power overflows
        top = math.fsum(abs(c) * proc.models[i].support_bound for i, c in enumerate(d))
        values, weights = _atom_table(proc, d / top)
        want = top * math.fsum(weights * np.abs(values) ** p) ** (1.0 / p)
        v = metric.distance_matrix(proc, IndexSet([d, np.zeros(len(d))]), p)
        assert v.method == ("even_moments" if p % 2 == 0 else "enumeration")
        assert _engine(proc, d, p) == pytest.approx(want, rel=1e-13, abs=0)
        if v.method == "enumeration":
            assert v.values()[0] == _engine(proc, d, p) and not v.errors.any()

    @given(case=finite_increments(), k=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_even_p_equals_the_even_moments(self, case, k):
        # distance_matrix takes the even moments here, but at p = 2 only on
        # rademacher: three_point's d_2 is Monte Carlo
        proc, d = case
        pts = np.array([np.zeros(len(d)), d])
        want = metric._uncached_pair_norms(proc, pts, 2.0 * k, 0, 0, "even_moments",
                                           np.ones(1, bool))[0, 0]
        assert _engine(proc, d, 2.0 * k) == pytest.approx(want, rel=1e-13, abs=0)
        if k > 1 or proc.family == "rademacher":
            v = metric.distance_matrix(proc, IndexSet(pts), 2.0 * k)
            assert v.method == "even_moments" and not v.errors.any()
            assert v.values()[0] == want
        else:
            assert metric._method(proc, pts, 2.0) == "monte_carlo"

    @pytest.mark.parametrize("p", [1.0, 3.0, 2.5])
    def test_the_atom_limit_is_the_method_edge(self, p):
        # 20 rademacher nonzeros are 2^20 = ATOM_LIMIT atoms, enumerated;
        # one coordinate more, of either law, is Monte Carlo
        c = np.array([1.0] * 20)
        got = increment_norm(rad_proc(20), c, np.zeros(20), p)
        assert got.method == "enumeration"
        # |sum of 20 signs| = |20 - 2i| with probability C(20, i) / 2^20
        want = math.fsum(math.comb(20, i) * abs(20 - 2 * i) ** p for i in range(21))
        assert got.value == pytest.approx((want / 2.0 ** 20) ** (1.0 / p), rel=1e-13, abs=0)
        for extra in (dist.rademacher(), dist.three_point(3.0)):
            proc = ProcessSpec(models=(dist.rademacher(),) * 20 + (extra,))
            r = increment_norm(proc, np.ones(21), np.zeros(21), p, samples=100)
            assert r.method == "monte_carlo"

    @pytest.mark.parametrize("p", [1.0, 3.0, 2.5, 127.0, 127.5, 1001.0])
    def test_far_atoms_never_give_zero(self, p):
        # three_point(1e6) on 12 coordinates, 3^12 atoms: X is 0 with
        # probability 1 - 1e-12 and each of the 2^12 sign patterns of its
        # largest sum has probability about 1e-148: at p = 1001 only the
        # terms of the largest sums keep E|S|^p from underflowing to 0
        proc = ProcessSpec.homogeneous(dist.three_point(1e6), 12)
        d = np.linspace(1.0, 2.0, 12)
        got = increment_norm(proc, d, np.zeros(12), p)
        assert got.method == "enumeration"
        assert math.isfinite(got.value) and got.value > 0.0
        # ||sum_i d_i X_i||_p >= max_i |d_i| ||X||_p
        assert got.value >= 2.0 * proc.models[0].moment(p) * (1.0 - 1e-13)


# nonzero coordinates in [1e-30, 1e30]: the enumeration scales each
# increment by its largest |d_j| before the power, so at p <= 128 in R^9
# no power of a signed sum underflows to a zero norm or overflows
_MODERATE_COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                             st.floats(min_value=1e-30, max_value=1e30),
                             st.floats(min_value=-1e30, max_value=-1e-30))


_EVEN_PS = st.integers(1, 64).map(lambda k: 2.0 * k)


def _orders(family):
    """Two sorted orders p at which `family` has an exact backend: any
    p <= 128 for gaussian and rademacher, an even p <= 128 otherwise (p = 2
    among them), and for sym_exponential also the quadrature's 1 <= p < 4."""
    if family is dist.sym_exponential:
        p = st.one_of(_EVEN_PS, st.floats(min_value=1.0, max_value=4.0, exclude_max=True))
    elif family in (dist.gaussian, dist.rademacher):
        p = st.floats(min_value=1.0, max_value=128.0)
    else:
        p = _EVEN_PS
    return st.lists(p, min_size=2, max_size=2, unique=True).map(sorted)


def _exact_pair_norm(proc, T, p):
    """distance_matrix's view, but at p = 2 the exact ||d||_2 of any
    standardized law, where only gaussian and rademacher have an exact
    backend."""
    if p == 2.0:
        lengths = T.pair_lengths()
        return metric.PairNorms(lengths, 1.0, np.zeros(len(lengths)), "closed_form")
    return metric.distance_matrix(proc, T, p)


@given(d=st.sampled_from([1, 2, 3, 9]).flatmap(
           lambda dim: st.lists(_MODERATE_COORDS, min_size=dim, max_size=dim)),
       case=st.sampled_from([dist.gaussian, dist.rademacher, dist.sym_exponential,
                             weibull_half, three_point_3]).flatmap(
           lambda family: st.tuples(st.just(family), _orders(family))))
@example(d=[1.0, -1.0, 0.5], case=(dist.rademacher, [1.0, 1.0 + 1e-9]))
@example(d=[1.0, -1.0, 0.5], case=(dist.sym_exponential, [2.0 - 1e-9, 2.0]))
@example(d=[1.0, -1.0, 0.5], case=(dist.sym_exponential, [2.0, 2.0 + 1e-9]))
@example(d=[1e-30, 3.0], case=(dist.sym_exponential, [3.999, 3.9999]))
# 20^p overflows past p = 237 unless the signed sums are scaled below 1
@example(d=[1.0] * 20, case=(dist.rademacher, [300.0, 1000.0]))
# E X^128 of sym_weibull(0.5) is past the float range; its d_128 is not
@example(d=[1e30, -1e-30, 2.0], case=(weibull_half, [126.0, 128.0]))
@example(d=[1.0] * 9, case=(weibull_half, [2.0, 128.0]))
@example(d=[1.0, -1.0, 0.5], case=(dist.sym_exponential, [3.999, 4.0]))
@example(d=[1.0, -1.0, 0.5], case=(dist.rademacher, [127.999, 128.0]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_d_p_nondecreasing_in_p_on_exact_backends(d, case):
    # ||Y||_p is nondecreasing in p (Lyapunov); the closed form, the even
    # moments, the sign enumeration and the quadrature, next to the exact
    # d_2, must keep that to rounding, and rademacher's d_p stays below
    # sum |d_i| at every p
    family, ps = case
    pts = np.array([np.zeros(len(d)), d])
    proc = ProcessSpec.homogeneous(family(), pts.shape[1])
    T = IndexSet(pts)
    lo, hi = (_exact_pair_norm(proc, T, p) for p in ps)
    assert {lo.method, hi.method} <= {"closed_form", "even_moments", "enumeration",
                                      "quadrature"}
    lo, lo_err, hi, hi_err = lo.values(), lo.errors, hi.values(), hi.errors
    assert not lo_err.any() and not hi_err.any()
    assert np.isfinite(hi).all()
    assert np.all(hi >= lo * (1.0 - 1e-12))
    if family is dist.rademacher:
        assert np.all(hi <= np.abs(d).sum() * (1.0 + 1e-12))


def _laplace_even_moment(c, k):
    """E (sum_i c_i X_i)^(2k) for standardized Laplace X_i, from the
    cumulants: log E e^(tS) = sum_m (sum_i c_i^(2m)) x^m / m with
    x = t^2 / 2, exponentiated by n b_n = sum_m m a_m b_(n - m), every term
    >= 0; E S^(2k) = (2k)! b_k / 2^k."""
    a = [0.0] + [math.fsum(ci ** (2 * m) for ci in c) / m for m in range(1, k + 1)]
    b = [1.0]
    for n in range(1, k + 1):
        b.append(math.fsum(m * a[m] * b[n - m] for m in range(1, n + 1)) / n)
    return math.factorial(2 * k) * b[k] / 2.0 ** k


def _binomial_norm(x, y, a, b, k):
    """||a X + b Y||_(2k) of independent symmetric X and Y, from
    E (a X + b Y)^(2k) = sum_j C(2k, 2j) a^(2j) E X^(2j) b^(2k-2j) E Y^(2k-2j)."""
    def even(model, j):
        return model.moment(2 * j) ** (2 * j) if j else 1.0

    return math.fsum(math.comb(2 * k, 2 * j) * a ** (2 * j) * even(x, j)
                     * b ** (2 * k - 2 * j) * even(y, k - j)
                     for j in range(k + 1)) ** (0.5 / k)


class TestEvenMoments:
    """d_p at even p from one table of even moments per model."""

    def test_laplace_pair_is_the_fourth_root_of_18(self):
        r = increment_norm(exp_proc(2), [1.0, 0.0], [0.0, 1.0], 4.0)
        assert r.method == "even_moments" and r.error_bound == 0.0
        assert r.value == pytest.approx(18.0 ** 0.25, rel=4.4e-16, abs=0)  # 2 ulp

    def test_every_bar_covers_the_exact_value_on_the_sphere(self):
        # 32 sphere points in R^16 under Laplace coordinates at 100,000
        # samples: Monte Carlo's 3-sigma bar missed the exact d_16 at 39% of
        # the 496 pairs (biased low), d_8 at 1.2% and d_4 at 0.8%; the exact
        # values come from the cumulants, not from the engine
        pts = np.random.default_rng(14).standard_normal((32, 16))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        i, j = metric.pair_of(np.arange(496), 32)
        for p in (4.0, 8.0, 16.0):
            v = metric.distance_matrix(exp_proc(16), IndexSet(pts), p, 100_000, 5)
            exact = np.array([_laplace_even_moment((pts[a] - pts[b]).tolist(), int(p) // 2)
                              ** (1.0 / p) for a, b in zip(i, j)])
            miss = np.abs(v.values() - exact) > v.errors + 1e-13 * exact
            assert not miss.any(), f"d_{p:g}: {miss.mean():.0%} of the bars miss"

    @given(first=st.sampled_from([dist.gaussian, dist.rademacher, dist.sym_exponential,
                                  weibull_half, three_point_3]),
           second=st.sampled_from([dist.sym_exponential, weibull_half, three_point_3]),
           c=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=2),
           k=st.integers(2, 16))
    @settings(max_examples=100, deadline=None)
    def test_two_coordinates_equal_the_binomial_sum(self, first, second, c, k):
        x, y = first(), second()
        got = increment_norm(ProcessSpec(models=(x, y)), c, np.zeros(2), 2.0 * k)
        assert got.method == "even_moments"
        assert got.value == pytest.approx(_binomial_norm(x, y, *c, k), rel=1e-13, abs=0)

    @pytest.mark.parametrize("laws", [(dist.gaussian(), dist.sym_exponential()),
                                      (dist.rademacher(), dist.three_point(3.0),
                                       dist.sym_weibull(0.5))],
                             ids=["gaussian-sym_exponential",
                                  "rademacher-three_point-sym_weibull"])
    def test_named_law_mixes_draw_nothing(self, laws, monkeypatch):
        # every law a config can name has closed-form moments, so a mix of
        # them, gaussian and rademacher included, is exact at even p >= 4;
        # the origin and scaled axes give increments of one or two nonzeros
        def no_draws(*args):
            raise AssertionError("a named-law mix drew samples")

        monkeypatch.setattr(ProcessSpec, "sample_matrix", no_draws)
        proc = ProcessSpec(models=laws)
        c = np.array([0.7, 2.5, 1.3])[:len(laws)]
        T = IndexSet.with_origin(np.diag(c))
        i, j = metric.pair_of(np.arange(len(T) * (len(T) - 1) // 2), len(T))
        for p in (4.0, 8.0):
            v = metric.distance_matrix(proc, T, p)
            assert v.method == "even_moments" and not v.errors.any()
            for value, a, b in zip(v.values(), i, j):
                # pair (0, b) is c_b e_b; pair (a, b), a >= 1, is c_a e_a - c_b e_b
                x, ca = (laws[a - 1], c[a - 1]) if a else (laws[0], 0.0)
                want = _binomial_norm(x, laws[b - 1], ca, c[b - 1], int(p) // 2)
                assert value == pytest.approx(want, rel=1e-13, abs=0)

    def test_a_mix_with_an_unnamed_law_stays_monte_carlo(self):
        # a tail-defined law's moments come from quadrature, not a closed form
        laplace_tail = dist.log_concave_from_tail(lambda t: np.sqrt(2) * np.asarray(t))
        proc = ProcessSpec(models=(laplace_tail, dist.sym_exponential()))
        for p in (4.0, 8.0):
            v = metric.distance_matrix(proc, IndexSet([[0.0, 0.0], [1.0, 2.0]]), p, 2_000)
            assert v.method == "monte_carlo" and v.errors.all()

    @given(d=st.lists(_MODERATE_COORDS, min_size=1, max_size=20).filter(lambda d: any(d)),
           k=st.integers(1, 64))
    @settings(max_examples=100, deadline=None)
    def test_gaussian_moments_give_the_closed_form(self, d, k):
        # fed gaussian moments, the engine gives ||g||_p |d|_2
        pts = np.array([np.zeros(len(d)), d])
        got = metric._uncached_pair_norms(gauss_proc(len(d)), pts, 2.0 * k, 0, 0,
                                          "even_moments", np.ones(1, bool))[0]
        want = dist.gaussian().moment(2.0 * k) * np.linalg.norm(d)
        assert got == pytest.approx(want, rel=1e-13, abs=0)

    def test_mixes_zeros_and_extreme_scales(self):
        # each coordinate reads its own model's table; a zero coordinate or
        # increment raises no warning, and 1e-300 and 1e200 stay finite
        proc = ProcessSpec(models=(dist.sym_exponential(), dist.three_point(3.0),
                                   dist.sym_weibull(0.5), dist.sym_weibull(1.5)))
        d = np.array([0.3, 0.0, -1.2, 2.0])
        for p in (4.0, 8.0, 128.0):
            v = metric.distance_matrix(proc, IndexSet([d, d, -d, 0.0 * d]), p)
            assert v.method == "even_moments"
            assert v.values()[0] == 0.0 and (v.values()[1:] > 0.0).all()
            one = v.values()[2]  # the pair (d, 0)
            for c in (1e-300, 1e200):
                got = increment_norm(proc, c * d, np.zeros(4), p).value
                assert math.isfinite(got) and got == pytest.approx(c * one, rel=1e-14, abs=0)

    def test_draws_nothing_and_fills_the_requested_pairs(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("an even-moment pass drew samples")

        pts = np.random.default_rng(12).standard_normal((6, 3))
        full = metric.distance_matrix(weibull_proc(3), IndexSet(pts), 8.0)
        monkeypatch.setattr(metric, "derived_stream", no_draws)
        monkeypatch.setattr(ProcessSpec, "sample_matrix", no_draws)
        blocks = [[0, 1, 2], [4, 5]]
        part = metric.distance_matrix(weibull_proc(3), IndexSet(pts), 8.0, blocks=blocks)
        known = np.flatnonzero(~np.isnan(part.errors))
        assert known.tolist() == _pair_positions(blocks, 6).tolist()
        assert part.base[known].tobytes() == full.base[known].tobytes()
        assert not part.errors[known].any()

    def test_refuses_odd_p_past_the_cap_and_overflow(self):
        pts = np.array([[0.0, 0.0], [1.0, 2.0]])
        for p in (3.0, 130.0):
            with pytest.raises(ValueError, match=rf"^even-moment d_p needs an even "
                                                 rf"p <= 128, not p = {p:g}$"):
                metric._uncached_pair_norms(exp_proc(2), pts, p, 0, 0, "even_moments",
                                            np.ones(1, bool))
        # 1e308 times ||X||_128 = 1863 of sym_weibull(0.5) is past the float range
        weibull = ProcessSpec.homogeneous(dist.sym_weibull(0.5), 2)
        with pytest.raises(ValueError, match=r"^even_moments d_p at p = 128 of a nonzero "
                                             r"increment is 0 or not finite$"):
            increment_norm(weibull, [1e308, 0.0], [0.0, 0.0], 128.0)

    def test_dense_rademacher_at_p_128_matches_the_binomial_sum(self):
        # E S^128 of 2,048 signs is about e^734, past the float range, and so
        # is its ratio to one sign's moment: the accumulator is rescaled by
        # powers of two.  Exactly, S = 2B - n with B binomial(n, 1/2)
        n = 2048
        total = sum(math.comb(n, b) * (2 * b - n) ** 128 for b in range(n + 1))
        want = math.exp((math.log(total) - n * math.log(2.0)) / 128.0)
        got = increment_norm(rad_proc(n), np.ones(n), np.zeros(n), 128.0)
        assert got.method == "even_moments"
        assert got.value == pytest.approx(want, rel=1e-13, abs=0)


# every exact engine, a process it serves and the orders p it is tried at:
# named-law mixes at even p, finite-atom mixes at odd and fractional p (and
# p = 1001, past the binomial expansion), Laplace at 1 <= p < 4
_EXACT_ENGINES = {
    "even_moments": ((dist.sym_exponential(), dist.three_point(3.0), dist.sym_weibull(0.5),
                      dist.gaussian()), (4.0, 8.0, 128.0)),
    "enumeration": ((dist.three_point(3.0), dist.rademacher(), dist.three_point(40.0)),
                    (1.0, 2.5, 3.0, 1001.0)),
    "quadrature": ((dist.sym_exponential(),), (1.0, 1.5, 3.0, 3.99)),
}


@pytest.mark.parametrize("method", list(_EXACT_ENGINES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_exact_engines_keep_one_contract(method, data):
    # d_p is 1-homogeneous: metric hands every engine the increment scaled
    # by a power of two, so d_p(2^k c) is ldexp(d_p(c), k) bit for bit, and
    # a value past the float range (or under it, to 0) raises one refusal
    laws, ps = _EXACT_ENGINES[method]
    n = data.draw(st.integers(1, 4))
    proc = ProcessSpec(models=[laws[i % len(laws)] for i in range(n)])
    p = data.draw(st.sampled_from(ps))
    mags = st.floats(min_value=2.0 ** -30, max_value=2.0 ** 30)
    c = np.array(data.draw(st.lists(st.one_of(st.just(0.0), mags, mags.map(lambda x: -x)),
                                    min_size=n, max_size=n).filter(any)))
    live = np.abs(c[c != 0.0])
    # every coordinate of 2^k c stays a finite normal float; the top k puts
    # the largest in the float range's last binade, [2^1023, 2^1024)
    lo, hi = -1021 - int(np.frexp(live.min())[1]), 1024 - int(np.frexp(live.max())[1])
    k = data.draw(st.one_of(st.integers(lo, hi), st.sampled_from([lo, hi])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = metric.distance_matrix(proc, IndexSet([np.zeros(n), c, c]), p)
        assert v.method == method and not v.errors.any()
        one, again, zero = v.values()
    assert zero == 0.0 and 0.0 < one == again < math.inf
    with np.errstate(over="ignore", under="ignore"):
        want = np.ldexp(one, k)
    scaled = IndexSet([np.zeros(n), np.ldexp(c, k)])
    if 0.0 < want < math.inf:
        assert metric.distance_matrix(proc, scaled, p).values()[0] == want
    else:
        with pytest.raises(ValueError, match=rf"^{method} d_p at p = {p:g} of a nonzero "
                                             rf"increment is 0 or not finite$"):
            metric.distance_matrix(proc, scaled, p)


@pytest.mark.parametrize("call, match", [
    (lambda: increment_norm(gauss_proc(2), [1.0, 0.0, 0.0], [0.0, 0.0, 0.0], 2.0),
     "^index vectors must match the process dimension$"),
    (lambda: metric.distance_matrix(gauss_proc(3), IndexSet(np.eye(3)), 0.5),
     r"^increment norm requires a finite p >= 1, got 0\.5$"),
    # ||g||_inf was NaN: the closed form returned NaN norms
    (lambda: metric.distance_matrix(gauss_proc(3), IndexSet(np.eye(3)), math.inf),
     "^increment norm requires a finite p >= 1, got inf$"),
    (lambda: metric.distance_matrix(rad_proc(3), IndexSet(np.eye(3)), math.nan),
     "^increment norm requires a finite p >= 1, got nan$"),
    (lambda: latala_norm([1.0, 2.0], rad_proc(3), 4),
     "^coefficient vector must match the process dimension$"),
], ids=["increment_dimension", "p_below_one", "infinite_p", "nan_p", "latala_length"])
def test_guards_refuse(call, match):
    with pytest.raises(ValueError, match=match):
        call()
