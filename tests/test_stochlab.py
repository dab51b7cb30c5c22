import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chainsup import dist, metric, stochlab, verify
from chainsup.metric import IndexSet, ProcessSpec
from chainsup.streams import RngStream


def gauss_proc(n):
    return ProcessSpec.homogeneous(dist.gaussian(), n)


def rad_proc(n):
    return ProcessSpec.homogeneous(dist.rademacher(), n)


# gaussian, rademacher, sym_exponential, sym_weibull(1.5), three_point(3):
# the three_point zero atom times a negative coefficient is -0.0
_FAMILIES = (dist.gaussian(), dist.rademacher(), dist.sym_exponential(),
             dist.sym_weibull(1.5), dist.three_point(3.0))


def mixed_proc(n):
    return ProcessSpec(models=tuple(_FAMILIES[j % 5] for j in range(n)))


def _sphere(n, dim, seed):
    pts = np.random.default_rng(seed).standard_normal((n, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


# index sets in R^5: coordinate selections (folded) and dense sets (matmul)
_SELECTIONS = {
    "basis_with_origin": np.vstack([np.zeros(5), np.eye(5), np.eye(5)[2]]),
    "permuted_repeated": np.eye(5)[[3, 1, 4, 1, 0, 2, 3]],
    "signed_scaled": np.eye(5)[[4, 0, 4, 2, 1, 3, 4]] * np.array(
        [[-1.0], [2.5], [-0.3], [-0.0], [-7.0], [1e-3], [0.0]]),
}
_NOT_SELECTIONS = {
    "packing": verify.packing_set(2, 5).points,
    "sphere": _sphere(7, 5, 26),
}

# the sup targets as reductions of a (rows, |T|) matrix of process values:
# an oracle that shares no code with stochlab's max/min fold
_MATRIX_REDUCERS = {
    "sup_increments": lambda v: v.max(axis=1) - v.min(axis=1),
    "sup_abs": lambda v: np.abs(v).max(axis=1),
    "max_only": lambda v: v.max(axis=1),
}


class TestEstimateSup:
    def test_singleton_exact_zero(self):
        est = stochlab.estimate_sup(gauss_proc(2), IndexSet(np.ones((1, 2))),
                                    1000, RngStream(0, 0))
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_two_gaussians_increments(self):
        # E|g1 - g2| = 2/sqrt(pi)
        est = stochlab.estimate_sup(gauss_proc(2), IndexSet.basis(2),
                                    200_000, RngStream(1, 0))
        assert est.within(2.0 / math.sqrt(math.pi))

    def test_two_gaussians_max_only(self):
        # E max(g1, g2) = 1/sqrt(pi)
        est = stochlab.estimate_sup(gauss_proc(2), IndexSet.basis(2),
                                    200_000, RngStream(1, 1), target="max_only")
        assert est.within(1.0 / math.sqrt(math.pi))

    def test_rademacher_basis8(self):
        # max - min is 2 unless all signs agree: E = 2 * (1 - 2/256)
        est = stochlab.estimate_sup(rad_proc(8), IndexSet.basis(8),
                                    200_000, RngStream(2, 0))
        assert est.within(2.0 * 254.0 / 256.0)

    def test_determinism(self):
        a = stochlab.estimate_sup(gauss_proc(3), IndexSet.basis(3),
                                  10_000, RngStream(7, 3))
        b = stochlab.estimate_sup(gauss_proc(3), IndexSet.basis(3),
                                  10_000, RngStream(7, 3))
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_worker_count_invariance(self):
        # chunk streams are indexed, so thread count cannot move the result
        a = stochlab.estimate_sup(gauss_proc(4), IndexSet.basis(4),
                                  200_000, RngStream(15, 0), workers=1)
        b = stochlab.estimate_sup(gauss_proc(4), IndexSet.basis(4),
                                  200_000, RngStream(15, 0), workers=8)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_point_monotonicity(self):
        # enlarging T never drops the estimate beyond combined noise
        pts = np.random.default_rng(3).standard_normal((6, 3))
        proc = gauss_proc(3)
        small = stochlab.estimate_sup(proc, IndexSet(pts[:5]), 50_000, RngStream(4, 0))
        big = stochlab.estimate_sup(proc, IndexSet(pts), 50_000, RngStream(4, 1))
        assert big.mean >= small.mean - 3 * (big.stderr + small.stderr)

    def test_bad_target(self):
        with pytest.raises(ValueError):
            stochlab.estimate_sup(gauss_proc(2), IndexSet.basis(2), 1000,
                                  RngStream(0, 0), target="median")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            stochlab.estimate_sup(gauss_proc(3), IndexSet.basis(2), 1000,
                                  RngStream(0, 0))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            stochlab.estimate_sup(gauss_proc(2), IndexSet.basis(2), 10,
                                  RngStream(0, 0))

    def test_worker_count_invariance_on_basis(self):
        # a basis folds each drawn column into running row max/min;
        # threads must not move it
        a = stochlab.estimate_sup(rad_proc(64), IndexSet.basis(64),
                                  200_000, RngStream(17, 0), workers=1)
        b = stochlab.estimate_sup(rad_proc(64), IndexSet.basis(64),
                                  200_000, RngStream(17, 0), workers=2)
        assert (a.mean, a.stderr) == (b.mean, b.stderr)


class TestEstimateMeanInputs:
    """`estimate_mean` refuses what `estimate_sup` refuses."""

    @staticmethod
    def run(proc, T, samples):
        return stochlab.estimate_mean(proc, T, samples, RngStream(0, 0),
                                      lambda hi, lo: hi)

    def test_empty_index_set(self):
        with pytest.raises(ValueError, match="empty"):
            self.run(gauss_proc(2), IndexSet(np.empty((0, 2))), 1000)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="100 samples"):
            self.run(gauss_proc(2), IndexSet.basis(2), 10)

    def test_dimension_mismatch(self):
        # a selection fold would silently read only the first two coordinates
        with pytest.raises(ValueError, match="dimension"):
            self.run(gauss_proc(3), IndexSet.basis(2), 1000)


class TestTiledProjection:
    """The max/min fold and the row-tiled projection against a naive
    reduction of the full value matrix of the same draws."""

    @staticmethod
    def naive(proc, pts, samples, stream, reduce):
        # re-derive each chunk's child stream and reduce the full value matrix
        total = total_sq = 0.0
        for i, lo in enumerate(range(0, samples, stochlab._CHUNK)):
            rng = stream.child(i + 1).generator()
            count = min(stochlab._CHUNK, samples - lo)
            x = np.column_stack([m.sample_with(rng, count) for m in proc.models])
            vals = reduce(x @ pts.T)
            total += vals.sum()
            total_sq += (vals * vals).sum()
        mean = total / samples
        return mean, np.sqrt(np.maximum(total_sq / samples - mean * mean, 0.0) / samples)

    @pytest.fixture
    def uneven_tiles(self, monkeypatch):
        # 7 points: tiles of 142 rows, partial at the end of both chunks
        monkeypatch.setattr(stochlab, "TILE_ELEMS", 1000)
        assert stochlab._CHUNK % 142 and (70_001 - stochlab._CHUNK) % 142

    def setup_method(self):
        self.proc = mixed_proc(5)
        self.pts = np.random.default_rng(21).standard_normal((7, 5))
        self.samples = 70_001

    @pytest.mark.parametrize("target", stochlab.TARGETS)
    def test_estimate_sup(self, uneven_tiles, target):
        stream = RngStream(22, 3)
        est = stochlab.estimate_sup(self.proc, IndexSet(self.pts), self.samples,
                                    stream, target=target)
        mean, stderr = self.naive(self.proc, self.pts, self.samples, stream,
                                  _MATRIX_REDUCERS[target])
        assert est.samples == self.samples
        assert (est.mean, est.stderr) == (mean, stderr)

    def test_estimate_mean(self, uneven_tiles):
        stream = RngStream(23, 4)
        got = stochlab.estimate_mean(self.proc, IndexSet(self.pts), self.samples,
                                     stream, lambda hi, lo: np.maximum(hi, -lo) ** 3)
        assert got == self.naive(self.proc, self.pts, self.samples, stream,
                                 lambda v: np.abs(v).max(axis=1) ** 3)

    @pytest.mark.parametrize("name", [*_SELECTIONS, *_NOT_SELECTIONS])
    @pytest.mark.parametrize("target", stochlab.TARGETS)
    def test_estimate_sup_on_selections(self, uneven_tiles, name, target):
        pts = {**_SELECTIONS, **_NOT_SELECTIONS}[name]
        assert (stochlab._selection(pts) is None) == (name in _NOT_SELECTIONS)
        stream = RngStream(27, 5)
        est = stochlab.estimate_sup(self.proc, IndexSet(pts), self.samples,
                                    stream, target=target)
        assert (est.mean, est.stderr) == self.naive(
            self.proc, pts, self.samples, stream, _MATRIX_REDUCERS[target])

    @pytest.mark.parametrize("name", [*_SELECTIONS, *_NOT_SELECTIONS])
    def test_estimate_mean_on_selections(self, uneven_tiles, name):
        pts = {**_SELECTIONS, **_NOT_SELECTIONS}[name]
        stream = RngStream(28, 6)
        got = stochlab.estimate_mean(self.proc, IndexSet(pts), self.samples,
                                     stream, lambda hi, lo: np.maximum(hi, -lo) ** 4)
        assert got == self.naive(self.proc, pts, self.samples, stream,
                                 lambda v: np.abs(v).max(axis=1) ** 4)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", [*_SELECTIONS, *_NOT_SELECTIONS])
    def test_k_functionals_equal_k_one_functional_calls(self, uneven_tiles, name,
                                                        workers):
        pts = {**_SELECTIONS, **_NOT_SELECTIONS}[name]
        fs = (lambda hi, lo: hi - lo, lambda hi, lo: hi,
              lambda hi, lo: np.maximum(hi, -lo) ** 3)
        stream = RngStream(29, 7)
        means, errs = stochlab.estimate_mean(
            self.proc, IndexSet(pts), self.samples, stream,
            lambda hi, lo: np.stack([f(hi, lo) for f in fs]), workers=workers)
        assert list(zip(means, errs)) == [
            stochlab.estimate_mean(self.proc, IndexSet(pts), self.samples, stream, f)
            for f in fs]

    @pytest.mark.parametrize("target", stochlab.TARGETS)
    def test_selection_that_skips_coordinates(self, target):
        # e_1 and e_5 in R^8: coordinates 2-4 and 6-8 are drawn but unused,
        # so a fold that skipped them would read e_5 from the wrong draws
        pts = np.eye(8)[[0, 4]]
        proc = mixed_proc(8)
        stream = RngStream(29, 7)
        est = stochlab.estimate_sup(proc, IndexSet(pts), self.samples, stream,
                                    target=target)
        assert (est.mean, est.stderr) == self.naive(
            proc, pts, self.samples, stream, _MATRIX_REDUCERS[target])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_fold_extremes_equal_the_matmul_bytes(self, data):
        # signed zeros included: tobytes tells -0.0 from +0.0, == does not
        dim = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 12))
        cols = data.draw(st.lists(st.integers(0, dim - 1), min_size=n, max_size=n))
        coef = data.draw(st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0])
            | st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False),
            min_size=n, max_size=n))
        pts = np.zeros((n, dim))
        pts[np.arange(n), cols] = coef
        dense = dim > 1 and data.draw(st.booleans())
        if dense:  # a second nonzero in one row: not a selection
            r = data.draw(st.integers(0, n - 1))
            pts[r, cols[r]] = pts[r, cols[r]] or 1.5
            pts[r, (cols[r] + 1) % dim] = data.draw(st.sampled_from([0.5, -2.0]))
        assert (stochlab._selection(pts) is None) == dense
        proc = mixed_proc(dim)
        rows = data.draw(st.integers(1, 600))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stochlab, "TILE_ELEMS", 256)
            hi, lo = stochlab._tiled_draw(proc, pts, lambda hi, lo: (hi, lo))(
                np.random.default_rng(seed), rows)
        v = proc.sample_matrix(np.random.default_rng(seed), rows) @ pts.T
        assert hi.tobytes() == v.max(axis=1).tobytes()
        assert lo.tobytes() == v.min(axis=1).tobytes()

    def test_memory_flat_for_a_wide_basis(self):
        # a (65,536 x 257) draw matrix alone would take 128 MiB
        tracemalloc.start()
        try:
            stochlab.estimate_sup(rad_proc(257), IndexSet.basis(257), 65_536,
                                  RngStream(25, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_memory_flat_for_a_scaled_basis(self):
        # 1,000 scaled coordinate vectors in R^4: each drawn column, times its
        # extreme coefficients, is folded into running row max/min
        pts = np.zeros((1000, 4))
        pts[np.arange(1000), np.arange(1000) % 4] = np.linspace(0.5, 2.0, 1000)
        assert stochlab._selection(pts) is not None
        tracemalloc.start()
        try:
            stochlab.estimate_sup(gauss_proc(4), IndexSet(pts), 65_536, RngStream(25, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_memory_flat_in_index_set_size(self):
        # a (65,536 x 1,000) matrix of process values alone would take 500 MiB
        T = IndexSet(np.random.default_rng(24).standard_normal((1000, 4)))
        tracemalloc.start()
        try:
            stochlab.estimate_sup(gauss_proc(4), T, 65_536, RngStream(25, 0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20


def test_dense_sets_project_through_projected_tiles(monkeypatch):
    # both Monte-Carlo kernels draw and project through the one method, and
    # stochlab makes no sample matrix or matmul of its own
    real = ProcessSpec.projected_tiles
    counts = []

    def spy(self, rng, count, pts, tile):
        counts.append(count)
        yield from real(self, rng, count, pts, tile)

    monkeypatch.setattr(ProcessSpec, "projected_tiles", spy)
    proc = ProcessSpec.homogeneous(dist.sym_weibull(1.5), 3)
    T = IndexSet(np.random.default_rng(19).standard_normal((5, 3)))
    stochlab.estimate_sup(proc, T, 1_000, RngStream(20, 0))
    assert counts == [1_000]
    metric.distance_matrix(proc, T, 3.0, samples=1_000, seed=21)
    assert counts == [1_000, 1_000]
    tree = ast.parse(Path(stochlab.__file__).read_text())
    own = [n.lineno for n in ast.walk(tree)
           if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)
           or isinstance(n, ast.Attribute) and n.attr in ("matmul", "dot", "sample_matrix")]
    assert own == []


class TestOrderStats:
    def test_rademacher_degenerate(self):
        recs = stochlab.order_stat_means(dist.rademacher(), 4, [1, 2, 4], qs=(2.0, 4.0))
        for rec in recs:
            assert rec["mean"] == pytest.approx(1.0, abs=1e-12)
            for q, bound in rec["bounds"].items():
                assert bound == pytest.approx(2.0 * (4.0 / rec["k"]) ** (1.0 / q))
                assert rec["mean"] <= bound

    def test_gaussian_ordering_and_bounds(self):
        recs = stochlab.order_stat_means(dist.gaussian(), 8, [1, 3, 8], qs=(2.0, 4.0))
        means = [r["mean"] for r in recs]
        assert means[0] > means[1] > means[2] > 0.0  # k-th largest decreases in k
        for rec in recs:
            assert set(rec) == {"k", "mean", "bounds"}
            for bound in rec["bounds"].values():
                assert rec["mean"] <= bound

    @pytest.mark.parametrize("n", [1, 9, 16])
    def test_sym_exponential_matches_the_harmonic_sums(self, n):
        # |X| ~ Exp with mean 1/sqrt(2); the k-th largest of n has mean
        # (1/sqrt(2)) sum_{j=k}^n 1/j (Renyi's representation)
        recs = stochlab.order_stat_means(dist.sym_exponential(), n, range(1, n + 1))
        for rec in recs:
            harmonic = sum(1.0 / j for j in range(rec["k"], n + 1)) / math.sqrt(2.0)
            assert rec["mean"] == pytest.approx(harmonic, rel=1e-10)

    @pytest.mark.parametrize("n", [1, 9, 16])
    def test_three_point_matches_the_binomial_tail(self, n):
        # |X| is a with probability 1/a^2, else 0: E|X|_(k) = a P(Bin(n, 1/a^2) >= k)
        a, q = 3.0, 1.0 / 9.0
        recs = stochlab.order_stat_means(dist.three_point(a), n, range(1, n + 1))
        for rec in recs:
            tail = sum(math.comb(n, j) * q ** j * (1.0 - q) ** (n - j)
                       for j in range(rec["k"], n + 1))
            assert rec["mean"] == pytest.approx(a * tail, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("model", [dist.gaussian(), dist.sym_weibull(1.5)],
                             ids=["gaussian", "sym_weibull_1.5"])
    def test_largest_within_4_sigma_of_monte_carlo(self, model):
        n = 9
        (rec,) = stochlab.order_stat_means(model, n, [1])
        mean, stderr = stochlab.estimate_mean(ProcessSpec.homogeneous(model, n),
                                              IndexSet.basis(n), 50_000, RngStream(31, 0),
                                              lambda hi, lo: np.maximum(hi, -lo))
        assert abs(rec["mean"] - mean) <= 4.0 * stderr

    def test_draws_nothing(self, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("order_stat_means drew a sample")

        monkeypatch.setattr(dist.DistributionModel, "sample_with", no_draw)
        monkeypatch.setattr(stochlab, "_accumulate", no_draw)
        for model in (dist.gaussian(), dist.sym_weibull(0.5), dist.three_point(3.0)):
            recs = stochlab.order_stat_means(model, 5, [1, 3, 5])
            assert all(r["mean"] > 0.0 for r in recs)

    def test_bad_k(self):
        for k in (0, 5):
            with pytest.raises(ValueError):
                stochlab.order_stat_means(dist.gaussian(), 4, [k])


class TestPaleyZygmund:
    def test_two_point_exact(self):
        out = stochlab.paley_zygmund_check(values=[0.0, 2.0], probs=[0.5, 0.5],
                                           lam=0.5)
        assert out["exact"]
        assert out["lhs"] == pytest.approx(0.5)
        assert out["rhs"] == pytest.approx(0.125)
        assert out["passed"]

    def test_degenerate(self):
        out = stochlab.paley_zygmund_check(values=[3.0], probs=[1.0], lam=0.9)
        assert out["lhs"] == 1.0
        assert out["rhs"] == pytest.approx((1 - 0.9) ** 2)
        assert out["passed"]

    def test_empirical(self):
        s = np.abs(RngStream(6, 0).generator().standard_normal(100_000))
        out = stochlab.paley_zygmund_check(samples=s, lam=0.3)
        assert not out["exact"]
        assert out["passed"]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            stochlab.paley_zygmund_check(values=[-1.0, 1.0])

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            stochlab.paley_zygmund_check(values=[1.0], lam=1.0)


class TestContraction:
    def test_norm_only(self):
        out = stochlab.contraction_check([1.0, 0.0], [1.0, 1.0], 4.0)
        assert out["passed"]
        assert out["norm_a"] == pytest.approx(1.0)
        assert out["norm_b"] == pytest.approx(8.0 ** 0.25, rel=1e-12)

    def test_with_index_set(self):
        T = IndexSet(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        out = stochlab.contraction_check([0.5, 0.8], [1.0, 1.0], 2.0, T=T,
                                         samples=50_000, stream=RngStream(8, 0))
        assert out["passed"]
        assert out["esup_a"].mean <= out["esup_b"].mean + 3 * (
            out["esup_a"].stderr + out["esup_b"].stderr)

    def test_dominance_violation_rejected(self):
        with pytest.raises(ValueError):
            stochlab.contraction_check([2.0, 0.0], [1.0, 1.0], 2.0)

    def test_norms_draw_the_given_budget(self, monkeypatch):
        # 24 nonzero rademacher coefficients are past enumeration
        seen = []
        pair_norms = metric.distance_matrix

        def spy(proc, T, p, samples=metric.MC_DEFAULT_SAMPLES, seed=0):
            seen.append((samples, seed))
            return pair_norms(proc, T, p, samples, seed)

        monkeypatch.setattr(metric, "distance_matrix", spy)
        out = stochlab.contraction_check(np.full(24, 0.5), np.ones(24), 3.0,
                                         samples=1_000, stream=RngStream(5, 0))
        assert out["passed"]
        # both norms from one pass over {0, a, b}
        assert seen == [(1_000, 5)]

    def test_monte_carlo_near_tie_passes(self):
        # 30 rademacher coordinates are past enumeration, so both norms are
        # Monte Carlo; a is b with one coefficient scaled by 0.9999, far
        # inside the noise of 2,000 samples.  Without the error bars, 10 of
        # these 20 streams reported a violation
        b = np.ones(30)
        a = b.copy()
        a[0] *= 0.9999
        for seed in range(20):
            out = stochlab.contraction_check(a, b, 4.0, samples=2_000,
                                             stream=RngStream(seed, 0))
            assert out["passed"], seed

    @pytest.mark.parametrize("value_a, passed", [(1.71, False), (1.69, True)])
    def test_planted_violation_past_both_bars_fails(self, monkeypatch, value_a, passed):
        # norm_b 1.5 and two bars of 0.1: a norm_a past 1.7 is a violation;
        # the pass over {0, a, b} holds (0, a), (0, b), then (a, b)
        planted = metric.PairNorms(np.array([value_a, 1.5, 0.4]), 1.0,
                                   np.array([0.1, 0.1, 0.1]), "monte_carlo")
        monkeypatch.setattr(metric, "distance_matrix", lambda *a, **kw: planted)
        out = stochlab.contraction_check(np.full(30, 0.5), np.ones(30), 4.0,
                                         samples=2_000)
        assert (out["norm_a"], out["norm_b"]) == (value_a, 1.5)
        assert out["passed"] is passed

    def test_sign_flip_reads_the_same_bits(self):
        # (0, -b) and (0, b) share one increment law, so one estimate
        b = np.linspace(0.5, 1.5, 24)
        out = stochlab.contraction_check(-b, b, 3.0, samples=2_000, stream=RngStream(3, 0))
        assert out["norm_a"] == out["norm_b"]
        assert out["passed"]

    def test_both_esup_estimates_read_one_child_stream(self, monkeypatch):
        streams = []
        real = stochlab.estimate_sup

        def spy(proc, T, samples, stream, **kw):
            streams.append(stream)
            return real(proc, T, samples, stream, **kw)

        monkeypatch.setattr(stochlab, "estimate_sup", spy)
        T = IndexSet(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        out = stochlab.contraction_check([0.5, 0.8], [1.0, 1.0], 2.0, T=T,
                                         samples=2_000, stream=RngStream(8, 0))
        assert streams == [RngStream(8, 0).child(0)] * 2
        assert out["passed"]

    def test_random_pairs(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            b = rng.uniform(0.1, 2.0, size=n)
            a = b * rng.uniform(0.0, 1.0, size=n)
            out = stochlab.contraction_check(a, b, float(rng.choice([2.0, 4.0])))
            assert out["passed"]


class TestSymmetrization:
    def test_gaussian_set(self):
        pts = np.random.default_rng(11).standard_normal((4, 3))
        out = stochlab.symmetrization_check(gauss_proc(3), IndexSet(pts), 2.0,
                                            samples=40_000, stream=RngStream(12, 0))
        assert out["moment_bracket_ok"]
        assert out["esup_bracket_ok"]
        assert out["esup_identity_ok"]
        assert out["passed"]

    def test_symmetric_law_is_fixed_point(self):
        # sign-randomizing an already symmetric law leaves E sup unchanged
        pts = np.random.default_rng(13).standard_normal((3, 2))
        out = stochlab.symmetrization_check(gauss_proc(2), IndexSet(pts), 2.0,
                                            samples=60_000, stream=RngStream(14, 0))
        ex, es = out["esup_base"], out["esup_sym"]
        assert abs(ex.mean - es.mean) <= 4 * (ex.stderr + es.stderr)

    def test_one_symmetrized_model_per_base_model(self, monkeypatch):
        # a homogeneous process stays homogeneous, so its coordinates stay
        # exchangeable; distinct base objects keep distinct symmetrized ones
        procs = []
        real = metric.distance_matrix

        def spy(proc, T, p, samples=metric.MC_DEFAULT_SAMPLES, seed=0):
            procs.append(proc)
            return real(proc, T, p, samples, seed)

        monkeypatch.setattr(metric, "distance_matrix", spy)
        pts = np.random.default_rng(15).standard_normal((3, 3))
        exp = dist.sym_exponential()
        mixed = ProcessSpec(models=(exp, dist.three_point(2.0), exp))
        for proc in (ProcessSpec.homogeneous(exp, 3), mixed):
            stochlab.symmetrization_check(proc, IndexSet(pts), 3.0, samples=1_000,
                                          stream=RngStream(16, 0))
        homo, mixed_sym = procs[1].models, procs[3].models
        assert homo[0] is homo[1] is homo[2]
        assert mixed_sym[0] is mixed_sym[2] and mixed_sym[0] is not mixed_sym[1]
        assert [m.family for m in mixed_sym] == ["sym_exponential_symmetrized",
                                                 "three_point_symmetrized",
                                                 "sym_exponential_symmetrized"]

    @staticmethod
    def _patch_distance_matrix(monkeypatch, scale_second=1.0):
        real = metric.distance_matrix
        calls = []

        def counting(proc, T, p, samples=metric.MC_DEFAULT_SAMPLES, seed=0):
            calls.append((len(T), p, seed))
            d = real(proc, T, p, samples, seed)
            return metric.PairNorms(d.values() * (scale_second if len(calls) == 2 else 1.0),
                                    1.0, d.errors, d.method)

        def no_pair_loop(*args, **kw):
            raise AssertionError("per-pair increment_norm call")

        monkeypatch.setattr(metric, "distance_matrix", counting)
        monkeypatch.setattr(metric, "increment_norm", no_pair_loop)
        return calls

    def test_moment_bracket_takes_two_pair_norm_passes(self, monkeypatch):
        calls = self._patch_distance_matrix(monkeypatch)
        pts = np.random.default_rng(15).standard_normal((4, 3))
        out = stochlab.symmetrization_check(gauss_proc(3), IndexSet(pts), 3.0,
                                            samples=20_000, stream=RngStream(16, 0))
        assert calls == [(4, 3.0, 16), (4, 3.0, 17)]
        assert out["moment_bracket_ok"]

    def test_moment_bracket_can_fail(self, monkeypatch):
        # symmetrized norms three times too large break the factor-2 bracket
        self._patch_distance_matrix(monkeypatch, scale_second=3.0)
        pts = np.random.default_rng(15).standard_normal((4, 3))
        out = stochlab.symmetrization_check(gauss_proc(3), IndexSet(pts), 3.0,
                                            samples=20_000, stream=RngStream(16, 0))
        assert not out["moment_bracket_ok"] and not out["passed"]

    def test_symmetrized_sups_take_one_pass(self, monkeypatch):
        passes = []
        real = stochlab._accumulate

        def spy(stream, *args, **kw):
            passes.append(stream)
            return real(stream, *args, **kw)

        monkeypatch.setattr(stochlab, "_accumulate", spy)
        pts = np.random.default_rng(15).standard_normal((4, 3))
        out = stochlab.symmetrization_check(gauss_proc(3), IndexSet(pts), 2.0,
                                            samples=2_000, stream=RngStream(16, 0))
        assert passes == [RngStream(16, 0).child(0), RngStream(16, 0).child(1)]
        assert out["esup_sym"].stream_id == out["esup_sym_max"].stream_id

    def test_esup_identity_can_fail(self, monkeypatch):
        # E sup X_t planted 1.5 times too large breaks E sup (X_s - X_t) = 2 E sup X_t
        real = stochlab.estimate_mean

        def planted(*args, **kw):
            (sup_inc, sup_max), errs = real(*args, **kw)
            return [sup_inc, 1.5 * sup_max], errs

        monkeypatch.setattr(stochlab, "estimate_mean", planted)
        pts = np.random.default_rng(11).standard_normal((4, 3))
        out = stochlab.symmetrization_check(gauss_proc(3), IndexSet(pts), 2.0,
                                            samples=40_000, stream=RngStream(12, 0))
        assert out["moment_bracket_ok"] and out["esup_bracket_ok"]
        assert not out["esup_identity_ok"] and not out["passed"]

    def test_nan_distance_fails_the_bracket(self, monkeypatch):
        real = metric.distance_matrix

        def with_nan(proc, T, p, samples=metric.MC_DEFAULT_SAMPLES, seed=0):
            d = real(proc, T, p, samples, seed)
            values = d.values()
            values[0] = math.nan
            return metric.PairNorms(values, 1.0, d.errors, d.method)

        monkeypatch.setattr(metric, "distance_matrix", with_nan)
        pts = np.random.default_rng(15).standard_normal((4, 3))
        out = stochlab.symmetrization_check(gauss_proc(3), IndexSet(pts), 3.0,
                                            samples=20_000, stream=RngStream(16, 0))
        assert not out["moment_bracket_ok"] and not out["passed"]


# ----------------------------------------------------------------------
# order-statistic oracle: on a scaled basis c * {e_1..e_n} with i.i.d.
# symmetric coordinates the sup is an order statistic, so its mean is a
# one-dimensional integral of the tail exponent N(t) = -ln P(|X| > t)
# ----------------------------------------------------------------------

def _half_line_quad(f, model):
    from scipy import integrate

    return integrate.quad(f, 0.0, model.support_bound, epsabs=0.0, epsrel=1e-12,
                          limit=200)[0]


def sup_increments_oracle(model, n):
    """E(max - min) of n draws: 2 int_0^inf [1 - (1 - q)^n - q^n] dx with
    q = P(X > x) = exp(-N(x)) / 2."""
    def integrand(x):
        q = 0.5 * math.exp(-float(model.tail_value(x)))
        return 1.0 - (1.0 - q) ** n - q ** n
    return 2.0 * _half_line_quad(integrand, model)


def max_abs_power_oracle(model, n, p):
    """E max|X_i|^p of n draws: int_0^inf p t^(p-1) [1 - (1 - exp(-N(t)))^n] dt."""
    def integrand(t):
        return p * t ** (p - 1.0) * (1.0 - (1.0 - math.exp(-float(model.tail_value(t)))) ** n)
    return _half_line_quad(integrand, model)


_ORDER_STAT_LAWS = [("gaussian", dist.gaussian(), 16),
                    ("sym_exponential", dist.sym_exponential(), 32),
                    ("three_point", dist.three_point(3.0), 12)]


def test_three_point_oracles_match_their_closed_forms():
    # P(X = 3) = P(X = -3) = 1/18: max - min is 3 when some draw is 3, plus
    # 3 when some draw is -3, less 6 when every draw is -3 (or every is 3)
    model = dist.three_point(3.0)
    for n in (1, 2, 12, 40):
        closed = 6.0 * (1.0 - (17.0 / 18.0) ** n - (1.0 / 18.0) ** n)
        assert sup_increments_oracle(model, n) == pytest.approx(closed, rel=1e-12)
        assert max_abs_power_oracle(model, n, 3.0) == pytest.approx(
            27.0 * (1.0 - (8.0 / 9.0) ** n), rel=1e-12)
    assert sup_increments_oracle(model, 12) == pytest.approx(
        6.0 * (1.0 - (17.0 / 18.0) ** 12), rel=1e-14)


@pytest.mark.parametrize("name, model, n", _ORDER_STAT_LAWS, ids=lambda v: str(v))
@pytest.mark.parametrize("scale, seed", [(1.0, 0), (0.3, 1), (2.5, 2)])
def test_estimates_on_scaled_bases_within_4_sigma_of_the_quadrature(name, model, n,
                                                                    scale, seed):
    proc = ProcessSpec.homogeneous(model, n)
    T = IndexSet(scale * np.eye(n))
    est = stochlab.estimate_sup(proc, T, 50_000, RngStream(seed, 1))
    assert abs(est.mean - scale * sup_increments_oracle(model, n)) <= 4.0 * est.stderr
    p = 3.0
    mean, stderr = stochlab.estimate_mean(proc, T, 50_000, RngStream(seed, 2),
                                          lambda hi, lo: np.maximum(hi, -lo) ** p)
    assert abs(mean - scale ** p * max_abs_power_oracle(model, n, p)) <= 4.0 * stderr
