import math

import numpy as np
import pytest

from chainsup import dist, gamma, verify
from chainsup.metric import IndexSet, ProcessSpec
from chainsup.streams import RngStream


def gauss_proc(n):
    return ProcessSpec.homogeneous(dist.gaussian(), n)


def rad_proc(n):
    return ProcessSpec.homogeneous(dist.rademacher(), n)


class TestPackingSet:
    def test_sizes(self):
        assert len(verify.packing_set(1, 8)) == 8
        assert len(verify.packing_set(2, 8)) == 28
        assert len(verify.packing_set(3, 9)) == 84

    def test_rows_have_m_ones(self):
        T = verify.packing_set(3, 7)
        sums = T.points.sum(axis=1)
        assert np.all(sums == 3.0)
        assert set(np.unique(T.points)) <= {0.0, 1.0}

    def test_cardinality_floor(self):
        for m, n in ((1, 8), (2, 9), (3, 12)):
            assert len(verify.packing_set(m, n)) >= (n / m) ** m

    def test_invalid(self):
        with pytest.raises(ValueError):
            verify.packing_set(5, 4)


class TestInterleave:
    def test_shape_and_slots(self):
        T = IndexSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = verify.interleave(T)
        assert len(out) == 4 and out.dimension == 4
        # row for (s=point0, t=point1): evens carry s, odds carry t
        row = out.points[1]
        assert np.allclose(row[0::2], [1.0, 2.0])
        assert np.allclose(row[1::2], [3.0, 4.0])

    def test_diagonal_rows(self):
        T = IndexSet(np.array([[1.0], [2.0]]))
        out = verify.interleave(T)
        assert np.allclose(out.points[0], [1.0, 1.0])
        assert np.allclose(out.points[3], [2.0, 2.0])


class TestSudakov:
    def test_gaussian_basis(self):
        rep = verify.sudakov_experiment(gauss_proc(8), IndexSet.basis(8),
                                        p=2.0, u=math.sqrt(2.0),
                                        samples=100_000, stream=RngStream(21, 0))
        assert rep.separation_ok
        assert rep.worst_pair is None
        assert rep.cardinality_ok  # 8 >= e^2
        assert rep.kappa_obs >= 0.2
        # E sup increments of 8 iid gaussians is about 2.85; kappa ~ 2.0
        assert 1.5 <= rep.kappa_obs <= 2.5

    def test_separation_failure_reported(self):
        rep = verify.sudakov_experiment(gauss_proc(4), IndexSet.basis(4),
                                        p=2.0, u=10.0,
                                        samples=1_000, stream=RngStream(21, 1))
        assert not rep.separation_ok
        assert rep.worst_pair is not None
        i, j = rep.worst_pair
        assert i != j

    def test_cardinality_flag(self):
        rep = verify.sudakov_experiment(gauss_proc(4), IndexSet.basis(4),
                                        p=4.0, u=1.0,
                                        samples=1_000, stream=RngStream(21, 2))
        assert not rep.cardinality_ok  # 4 < e^4

    def test_packing_separation_exceeds_single_norm(self):
        # distinct m-subsets differ in >= 2 coordinates; the increment norm
        # is at least the single-coordinate norm
        proc = ProcessSpec.homogeneous(dist.sym_exponential(), 8)
        u = dist.sym_exponential().moment(2)
        rep = verify.sudakov_experiment(proc, verify.packing_set(2, 8),
                                        p=2.0, u=u, samples=20_000,
                                        stream=RngStream(21, 3),
                                        metric_samples=50_000)
        assert rep.separation_ok

    def test_too_small(self):
        with pytest.raises(ValueError):
            verify.sudakov_experiment(gauss_proc(2), IndexSet(np.ones((1, 2))),
                                      2.0, 1.0, 1_000, RngStream(0, 0))


class TestTwoSided:
    def test_gaussian_exact_small(self):
        T = IndexSet(np.random.default_rng(22).standard_normal((6, 3)))
        rep = verify.two_sided_experiment(gauss_proc(3), T, samples=100_000,
                                          stream=RngStream(23, 0))
        assert rep.gamma_exact is not None
        assert rep.gamma_exact <= rep.gamma_upper_cert + 1e-12
        assert rep.esup.mean <= verify.UPPER_BOUND_POLICY_CONSTANT * rep.gamma_exact
        assert rep.ratio_upper == pytest.approx(rep.esup.mean / rep.gamma_upper_cert)
        assert not rep.degenerate
        rep.certificate.validate(6)

    def test_oracle_override(self):
        n = 257
        oracle = gamma.uniform_space_gamma(n, lambda p: 2.0 * 2.0 ** (-1.0 / p))
        rep = verify.two_sided_experiment(rad_proc(n), IndexSet.basis(n),
                                          samples=50_000, stream=RngStream(24, 0),
                                          gamma_value=oracle)
        assert rep.gamma_upper_cert == pytest.approx(oracle)
        assert rep.certificate is None
        # E sup is close to 2 while gamma_X is close to 5.93
        assert rep.ratio_lower >= 2.5

    def test_degenerate_singleton(self):
        rep = verify.two_sided_experiment(gauss_proc(2), IndexSet(np.ones((1, 2))),
                                          samples=1_000, stream=RngStream(24, 1))
        assert rep.degenerate
        assert rep.ratio_upper == 0.0 and rep.ratio_lower == 0.0


class TestWeakStrong:
    def test_rademacher_basis_exact_half(self):
        # sup_t |X_t| = 1 surely: numerator 1, denominator 1 + 1
        out = verify.weak_strong_experiment(rad_proc(8), IndexSet.basis(8),
                                            p=8.0, samples=5_000,
                                            stream=RngStream(25, 0))
        assert out["C_obs"] == pytest.approx(0.5, abs=1e-12)
        assert out["sup_increment_norm"] == pytest.approx(1.0)

    def test_gaussian_reasonable_constant(self):
        out = verify.weak_strong_experiment(gauss_proc(8), IndexSet.basis(8),
                                            p=4.0, samples=200_000,
                                            stream=RngStream(25, 1))
        assert 0.0 < out["C_obs"] <= 4.0
        assert out["sup_increment_norm"] == pytest.approx(
            dist.gaussian().moment(4), rel=1e-12)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            verify.weak_strong_experiment(gauss_proc(2), IndexSet.basis(2),
                                          p=0.5, samples=1_000,
                                          stream=RngStream(0, 0))


class TestComparison:
    def test_scaled_process_dominated(self):
        n = 4
        T = IndexSet.with_origin(np.eye(n))
        procX = rad_proc(n)
        half = dist.DistributionModel(
            "rademacher_half", {},
            moment_fn=lambda p: 0.5,
            tail_fn=lambda t: np.where(np.asarray(t) < 0.5, 0.0, np.inf),
            sampler=lambda rng, c: 0.5 * (rng.integers(0, 2, size=c) * 2.0 - 1.0),
            support_bound=0.5)
        procY = ProcessSpec.homogeneous(half, n)
        out = verify.comparison_experiment(procX, procY, T, p_grid=(2.0, 4.0),
                                           samples=60_000, stream=RngStream(26, 0))
        assert out["domination_checked_pairs"] == 2 * (5 * 4 // 2)
        assert out["esup_ratio"] == pytest.approx(0.5, abs=0.05)
        for c in out["tail_curves"]:
            assert c["p_supY_ge_u"] <= 1.0

    def test_domination_violation_raises(self):
        T = IndexSet.with_origin(np.eye(2))
        with pytest.raises(ValueError):
            # gaussian increments dominate rademacher ones at p = 4
            verify.comparison_experiment(rad_proc(2), gauss_proc(2), T,
                                         p_grid=(4.0,), samples=20_000,
                                         stream=RngStream(26, 1))


class TestHullDecomposition:
    def _make(self, seed=27, m=8):
        pts = np.random.default_rng(seed).standard_normal((m, 3))
        T = IndexSet(pts)
        proc = gauss_proc(3)
        _, tree = gamma.compute_gamma(T, proc, "gammaX", mode="greedy")
        return T, tree, proc

    def test_residuals_vanish(self):
        T, tree, proc = self._make()
        hull = verify.convex_hull_decomposition(T, tree, proc)
        assert hull.max_residual <= 1e-9

    def test_residual_sees_a_corrupted_step_vector(self, monkeypatch):
        # the first emitted vector is bumped in place while its norm cap is
        # taken, after it was computed and before the residuals are summed
        T, tree, proc = self._make()
        norm = verify.increment_norm
        calls = []

        def corrupting_norm(proc, s, t, p, **kw):
            if not calls:
                s[0] += 1e-3
            calls.append(p)
            return norm(proc, s, t, p, **kw)

        monkeypatch.setattr(verify, "increment_norm", corrupting_norm)
        hull = verify.convex_hull_decomposition(T, tree, proc)
        assert len(calls) == len(hull.chain_points) > 1
        assert hull.max_residual > 1e-9

    def test_norm_caps(self):
        T, tree, proc = self._make()
        hull = verify.convex_hull_decomposition(T, tree, proc)
        assert hull.max_norm_cap <= 1.0 + 1e-9
        for cp in hull.chain_points:
            assert cp["norm_cap"] <= 1.0 + 1e-9
            assert cp["k"] >= 1

    def test_R_dominates_steps(self):
        T, tree, proc = self._make()
        hull = verify.convex_hull_decomposition(T, tree, proc)
        if hull.chain_points:
            largest = max(cp["step_norm"] for cp in hull.chain_points)
            assert hull.R >= 2.0 * largest - 1e-12

    def test_k_indices_respect_level_bookkeeping(self):
        T, tree, proc = self._make(seed=28)
        hull = verify.convex_hull_decomposition(T, tree, proc)
        caps = verify._cumulative_caps(tree.depth)
        for cp in hull.chain_points:
            n = cp["level"]
            assert caps[n - 1] < cp["k"] <= caps[n]

    REPEATED = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 0.0]]

    def test_repeated_points_skip_the_zero_step(self):
        # the exact tree puts the two copies of (0, 0) in one block, so one
        # step joins distinct indices of equal points
        T = IndexSet(np.array(self.REPEATED))
        proc = gauss_proc(2)
        _, tree = gamma.compute_gamma(T, proc, "gammaX", mode="exact")
        hull = verify.convex_hull_decomposition(T, tree, proc)
        assert hull.skipped_steps > 0
        for cp in hull.chain_points:
            assert cp["step_norm"] > 0.0
            assert np.all(np.isfinite(cp["vector"])) and math.isfinite(cp["norm_cap"])
        assert hull.max_residual <= 1e-12
        assert hull.max_norm_cap <= 1.0 + 1e-9

    def test_a_nan_fails_the_checks(self, monkeypatch):
        T, tree, proc = self._make()
        norm = verify.increment_norm

        def nan_norm(*args, **kw):
            r = norm(*args, **kw)
            return type(r)(math.nan, r.error_bound, r.method)

        monkeypatch.setattr(verify, "increment_norm", nan_norm)
        hull = verify.convex_hull_decomposition(T, tree, proc)
        assert math.isnan(hull.max_norm_cap)

    def test_trivial_tree_two_points(self):
        T = IndexSet(np.array([[0.0, 0.0], [3.0, 4.0]]))
        proc = gauss_proc(2)
        tree = gamma.PartitionTree.trivial(2)
        hull = verify.convex_hull_decomposition(T, tree, proc)
        assert hull.max_residual <= 1e-12
        assert len(hull.chain_points) == 1
        # step norm is the d_4 distance of the pair
        assert hull.chain_points[0]["step_norm"] == pytest.approx(
            5.0 * dist.gaussian().moment(4), rel=1e-12)
