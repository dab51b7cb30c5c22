import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import squareform

from chainsup import dist, gamma, metric, stochlab, verify
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
                                        p=2.0, u=u, samples=50_000,
                                        stream=RngStream(21, 3))
        assert rep.separation_ok

    def test_too_small(self):
        with pytest.raises(ValueError):
            verify.sudakov_experiment(gauss_proc(2), IndexSet(np.ones((1, 2))),
                                      2.0, 1.0, 1_000, RngStream(0, 0))

    @pytest.mark.parametrize("family, T, p, u", [
        ("gaussian", IndexSet.basis(8), 2.0, math.sqrt(2.0)),
        ("gaussian", IndexSet.basis(8), 2.0, 10.0),
        ("rademacher", verify.packing_set(2, 8), 4.0, 1.5),
        ("rademacher", verify.packing_set(2, 8), 4.0, 2.5),
        ("sym_exponential", verify.packing_set(2, 6), 4.0, 1.2),
        ("sym_exponential", verify.packing_set(2, 6), 4.0, 3.0),
    ])
    def test_separation_matches_the_distance_matrix_oracle(self, family, T, p, u):
        # the oracle reads the upper triangle of the full matrix drawn at
        # the experiment's samples and seed, as the harness once did
        proc = ProcessSpec.homogeneous(dist.model_from_descriptor({"family": family}),
                                       T.dimension)
        stream = RngStream(31, 0)
        rep = verify.sudakov_experiment(proc, T, p, u, 2_000, stream)
        dm = squareform(metric.distance_matrix(proc, T, p, samples=2_000,
                                               seed=stream.master_seed).values())
        iu = np.triu_indices(len(T), k=1)
        vals = dm[iu]
        k = int(np.argmin(vals))
        tol = 1e-9 if metric.is_exact_metric(proc, T) else 0.05 * u
        ok = vals[k] >= u - tol
        assert rep.min_observed_separation == float(vals[k])
        assert rep.separation_ok == ok
        assert rep.worst_pair == (None if ok else (int(iu[0][k]), int(iu[1][k])))


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

    @pytest.mark.parametrize("seed", [22, 39])
    def test_exact_mode_certificate_is_the_exact_tree(self, seed):
        T = IndexSet(np.random.default_rng(seed).standard_normal((10, 4)))
        proc = gauss_proc(4)
        rep = verify.two_sided_experiment(proc, T, samples=1_000,
                                          stream=RngStream(seed, 0), mode="exact")
        assert rep.gamma_upper_cert == rep.gamma_exact
        assert gamma.evaluate_certificate(rep.certificate, T, proc) == rep.gamma_upper_cert

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

    def test_process_drawn_once(self, monkeypatch):
        # E sup|X_t| and E sup|X_t|^p read one pass; the first is the
        # estimate_sup of the same stream, bit for bit
        passes = []
        real = stochlab._accumulate

        def spy(*args, **kw):
            passes.append(args[0])
            return real(*args, **kw)

        monkeypatch.setattr(stochlab, "_accumulate", spy)
        proc = ProcessSpec.homogeneous(dist.sym_exponential(), 3)
        T = IndexSet(np.random.default_rng(26).standard_normal((5, 3)))
        stream = RngStream(25, 2)
        out = verify.weak_strong_experiment(proc, T, p=3.0, samples=3_000,
                                            stream=stream)
        assert passes == [stream.child(1)]
        assert out["esup_abs"] == stochlab.estimate_sup(proc, T, 3_000, stream.child(1),
                                                        target="sup_abs")

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
            sampler=lambda rng, out: np.multiply(
                0.5, rng.integers(0, 2, size=len(out)) * 2.0 - 1.0, out=out),
            support_bound=0.5)
        procY = ProcessSpec.homogeneous(half, n)
        out = verify.comparison_experiment(procX, procY, T, p_grid=(2.0, 4.0),
                                           samples=60_000, stream=RngStream(26, 0))
        assert out["domination_checked_pairs"] == 2 * (5 * 4 // 2)
        assert out["esup_ratio"] == pytest.approx(0.5, abs=0.05)
        for c in out["tail_curves"]:
            assert c["p_supY_ge_u"] <= 1.0

    @pytest.mark.parametrize("seed", [4, 5, 7])
    def test_exact_tie_at_p2_does_not_raise(self, seed):
        # these seeds raised when p = 2 compared two Monte-Carlo estimates of
        # the tie between standardized laws
        pts = np.random.default_rng(seed).standard_normal((8, 6))
        T = IndexSet(pts / np.linalg.norm(pts, axis=1, keepdims=True))
        procX = ProcessSpec.homogeneous(dist.sym_exponential(), 6)
        out = verify.comparison_experiment(procX, gauss_proc(6), T, p_grid=(2.0, 4.0),
                                           samples=20_000, stream=RngStream(seed, 0))
        assert out["domination_checked_pairs"] == 2 * 28

    def test_doubled_process_fails_at_p2(self):
        # Y = 2 * rademacher has twice the exact second moments of X = gaussian
        n = 4
        T = IndexSet.with_origin(np.eye(n))
        double = dist.DistributionModel(
            "rademacher_double", {},
            moment_fn=lambda p: 2.0,
            tail_fn=lambda t: np.where(np.asarray(t) < 2.0, 0.0, np.inf),
            sampler=lambda rng, out: np.multiply(
                2.0, rng.integers(0, 2, size=len(out)) * 2.0 - 1.0, out=out),
            support_bound=2.0)
        with pytest.raises(ValueError, match=r"p=2\.0\)"):
            verify.comparison_experiment(gauss_proc(n), ProcessSpec.homogeneous(double, n),
                                         T, p_grid=(2.0,), samples=20_000,
                                         stream=RngStream(26, 3))

    def test_empty_p_grid_rejected(self):
        # a grid with no p checks no pair, so the domination check could not fail
        T = IndexSet.with_origin(np.eye(2))
        with pytest.raises(ValueError, match="nonempty p_grid"):
            verify.comparison_experiment(rad_proc(2), rad_proc(2), T, p_grid=(),
                                         samples=1_000, stream=RngStream(26, 2))

    def test_domination_violation_raises(self):
        T = IndexSet.with_origin(np.eye(2))
        with pytest.raises(ValueError):
            # gaussian increments dominate rademacher ones at p = 4
            verify.comparison_experiment(rad_proc(2), gauss_proc(2), T,
                                         p_grid=(4.0,), samples=20_000,
                                         stream=RngStream(26, 1))

    def test_one_pair_norm_pass_per_process_and_p(self, monkeypatch):
        T = IndexSet(np.random.default_rng(40).standard_normal((4, 3)))
        procX = ProcessSpec.homogeneous(dist.sym_exponential(), 3)
        procY = gauss_proc(3)
        real = metric.distance_matrix
        calls = []

        def counting(proc, T, p, samples=metric.MC_DEFAULT_SAMPLES, seed=0):
            calls.append((proc, len(T), p, seed))
            return real(proc, T, p, samples, seed)

        def no_pair_loop(*args, **kw):
            raise AssertionError("per-pair increment_norm call")

        monkeypatch.setattr(metric, "distance_matrix", counting)
        monkeypatch.setattr(metric, "increment_norm", no_pair_loop)
        monkeypatch.setattr(verify, "increment_norm", no_pair_loop)
        out = verify.comparison_experiment(procX, procY, T, p_grid=(3.0, 4.0),
                                           samples=20_000, stream=RngStream(41, 0))
        assert calls == [(procX, 4, 3.0, 41), (procY, 4, 3.0, 42),
                         (procX, 4, 4.0, 41), (procY, 4, 4.0, 42)]
        assert out["domination_checked_pairs"] == 2 * 6

    @staticmethod
    def _first_violation(procX, procY, T, p_grid):
        # per-pair oracle: the domination check pair by pair
        pts = T.points
        for p in p_grid:
            for i in range(len(T)):
                for j in range(i + 1, len(T)):
                    dx = metric.increment_norm(procX, pts[i], pts[j], p)
                    dy = metric.increment_norm(procY, pts[i], pts[j], p)
                    tol = dx.error_bound + dy.error_bound + 1e-9 * (1.0 + dx.value)
                    if dy.value > dx.value + tol:
                        return f"(s={i}, t={j}, p={p})"
        return None

    def test_exact_check_matches_the_per_pair_oracle(self):
        rng = np.random.default_rng(42)
        sets = [IndexSet.with_origin(np.eye(2)),
                IndexSet(np.array([[1.0, 1.0], [0.0, 0.0], [1.0, -1.0], [2.0, 0.0]])),
                *(IndexSet(rng.standard_normal((5, 3))) for _ in range(3))]
        outcomes = set()
        for T in sets:
            n = T.dimension
            for procX, procY in ((gauss_proc(n), rad_proc(n)), (rad_proc(n), gauss_proc(n))):
                for p_grid in ((1.5,), (3.0,), (4.0,), (1.5, 3.0, 4.0), (4.0, 1.5)):
                    expect = self._first_violation(procX, procY, T, p_grid)
                    outcomes.add(expect)
                    if expect is None:
                        verify.comparison_experiment(procX, procY, T, p_grid,
                                                     samples=1_000, stream=RngStream(43, 0))
                        continue
                    with pytest.raises(ValueError) as info:
                        verify.comparison_experiment(procX, procY, T, p_grid,
                                                     samples=1_000, stream=RngStream(43, 0))
                    assert expect in str(info.value)
        # both verdicts occur, and some first violation is past the first pair
        assert None in outcomes
        assert any(o and not o.startswith("(s=0, t=1,") for o in outcomes)

    def test_nan_distance_raises(self, monkeypatch):
        real = metric.distance_matrix

        def with_nan(proc, T, p, samples=metric.MC_DEFAULT_SAMPLES, seed=0):
            d = real(proc, T, p, samples, seed)
            values = d.values()
            values[0] = math.nan
            return metric.PairNorms(values, 1.0, d.errors, d.method)

        monkeypatch.setattr(metric, "distance_matrix", with_nan)
        T = IndexSet.with_origin(np.eye(2))
        # rademacher increments are dominated by gaussian ones, so only the
        # NaN can fail the check
        with pytest.raises(ValueError, match=r"\(s=0, t=1, p=4\.0\)"):
            verify.comparison_experiment(gauss_proc(2), rad_proc(2), T,
                                         p_grid=(4.0,), samples=1_000,
                                         stream=RngStream(26, 1))

    def test_first_violation_named(self):
        T = IndexSet.with_origin(np.eye(2))
        with pytest.raises(ValueError, match=r"\(s=0, t=1, p=4\.0\)"):
            verify.comparison_experiment(rad_proc(2), gauss_proc(2), T,
                                         p_grid=(4.0,), samples=1_000,
                                         stream=RngStream(26, 1))


def reference_hull(T, tree, proc, samples=metric.MC_DEFAULT_SAMPLES, seed=0):
    """Oracle: the per-point hull decomposition, with a representative
    table per level, a step dedup dict and one telescoping sum per point."""
    tree.validate(len(T))
    pts = T.points
    m = len(T)
    depth = tree.depth
    caps = list(itertools.accumulate(gamma.level_cap(n) for n in range(depth)))
    reps = []
    for n in range(depth):
        level_rep = np.zeros(m, dtype=int)
        for block in tree.levels[n]:
            for i in block:
                level_rep[i] = min(block)
        reps.append(level_rep)
    dms = {n: squareform(metric.distance_matrix(proc, T, float(2 ** (n + 1)),
                                                samples=samples, seed=seed).values())
           for n in range(1, depth)}
    chain_points = []
    step_sums = np.zeros(m)
    skipped = 0
    step_of = {}
    for n in range(1, depth):
        level_count = 0
        for i in range(m):
            a, b = reps[n][i], reps[n - 1][i]
            if a == b or dms[n][a, b] == 0.0:
                skipped += 1
                continue
            if (n, a, b) in step_of:
                step_sums[i] += step_of[(n, a, b)]["step_norm"]
                continue
            d = float(dms[n][a, b])
            step_sums[i] += d
            level_count += 1
            k = caps[n - 1] + level_count
            vec = (pts[a] - pts[b]) / d
            cap = metric.increment_norm(proc, vec, np.zeros(proc.dimension),
                                        max(math.log(k + 2), 1.0), samples=samples,
                                        seed=seed).value
            step_of[(n, a, b)] = {"level": n, "k": k, "vector": vec,
                                  "step_norm": d, "norm_cap": cap}
            chain_points.append(step_of[(n, a, b)])
    recon = np.zeros_like(pts)
    for i in range(m):
        acc = pts[reps[0][i]].copy()
        for n in range(1, depth):
            step = step_of.get((n, reps[n][i], reps[n - 1][i]))
            if step is not None:
                acc = acc + step["vector"] * step["step_norm"]
        recon[i] = acc
    max_resid = float(np.max([np.abs((pts[i] - pts) - (recon[i] - recon)).max()
                              for i in range(m)]))
    max_cap = float(np.max([cp["norm_cap"] for cp in chain_points], initial=0.0))
    return verify.HullDecomposition(chain_points=chain_points,
                                    R=2.0 * float(step_sums.max(initial=0.0)),
                                    max_residual=max_resid, max_norm_cap=max_cap,
                                    skipped_steps=skipped)


@st.composite
def hull_cases(draw):
    """(T, tree, proc): random, small-lattice (repeated points, exact
    ties) or ulp-jittered lattice (near ties) sets under a gaussian or
    Monte-Carlo sym_exponential process, with a greedy tree, or the exact
    tree when the metric allows it."""
    m = draw(st.integers(min_value=1, max_value=14))
    dim = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "lattice", "jittered"]))
    if kind == "random":
        pts = rng.standard_normal((m, dim))
    else:
        pts = rng.integers(-1, 2, size=(m, dim)).astype(float)
    if kind == "jittered":  # distances a few ulps apart, inside the 1e-15 slack
        pts += rng.integers(-2, 3, size=(m, dim)) * 2.0 ** -52
    family = draw(st.sampled_from([dist.gaussian, dist.sym_exponential]))
    proc = ProcessSpec.homogeneous(family(), dim)
    T = IndexSet(pts)
    exact = (family is dist.gaussian and m <= gamma.EXACT_LIMIT
             and draw(st.booleans()))
    _, tree = gamma.compute_gamma(T, proc, mode="exact" if exact else "greedy",
                                  samples=2_000)
    return T, tree, proc


@given(case=hull_cases())
@settings(max_examples=80, deadline=None)
def test_hull_matches_the_per_point_oracle(case):
    T, tree, proc = case
    hull = verify.convex_hull_decomposition(T, tree, proc, samples=2_000)
    oracle = reference_hull(T, tree, proc, samples=2_000)
    assert len(hull.chain_points) == len(oracle.chain_points)
    for cp, ref in zip(hull.chain_points, oracle.chain_points):
        assert (cp["level"], cp["k"], cp["step_norm"]) == \
            (ref["level"], ref["k"], ref["step_norm"])
        assert cp["vector"].tobytes() == ref["vector"].tobytes()
        assert cp["norm_cap"] == ref["norm_cap"]
    assert (hull.skipped_steps, hull.R, hull.max_residual, hull.max_norm_cap) == \
        (oracle.skipped_steps, oracle.R, oracle.max_residual, oracle.max_norm_cap)


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
        caps = list(itertools.accumulate(gamma.level_cap(n) for n in range(tree.depth)))
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
