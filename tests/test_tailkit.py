import math

import numpy as np
import pytest
from scipy.optimize import brentq

from chainsup import dist, tailkit
from chainsup.metric import ProcessSpec
from chainsup.streams import RngStream

E = math.e


class TestTailFunction:
    def test_callable_and_support(self):
        tf = tailkit.TailFunction(lambda t: 2.0 * np.asarray(t), support_bound=5.0)
        assert tf(1.0) == pytest.approx(2.0)
        assert tf(5.0) == math.inf
        assert tf(7.0) == math.inf

    def test_export_grid(self):
        tf = tailkit.TailFunction(lambda t: np.asarray(t) ** 2)
        grid = tf.export_grid(np.array([0.0, 1.0, 3.0]))
        assert grid.shape == (3, 2)
        assert grid[2, 1] == pytest.approx(9.0)


class TestConvexMinorant:
    def test_linear_exact(self):
        # f(t) = t, c = 2: the running sup of f(y/c)/y is the constant 1/2
        g = tailkit.convex_minorant(lambda t: np.asarray(t, dtype=float), c=2.0)
        ts = np.linspace(0.0, 50.0, 101)
        assert np.allclose(g(ts), ts / 2.0, atol=1e-9)
        assert g(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_anchor_zero(self):
        c, t0 = 3.0, 0.7
        g = tailkit.convex_minorant(lambda t: np.asarray(t, dtype=float), c=c, t0=t0)
        assert g(c * t0) == pytest.approx(0.0, abs=1e-12)
        assert g(c * t0 / 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_sandwich_exponential(self):
        c = 2.0
        f = lambda t: math.sqrt(2.0) * np.asarray(t, dtype=float)
        g = tailkit.convex_minorant(f, c=c)
        ts = np.geomspace(0.01, 100.0, 300)
        gv = g(ts)
        fv = f(ts)
        gcc = g(c * c * ts)
        assert np.all(gv <= fv * (1 + 1e-9) + 1e-12)
        assert np.all(fv <= gcc * (1 + 1e-9) + 1e-12)

    def test_convexity_midpoints(self):
        g = tailkit.convex_minorant(
            lambda t: np.sqrt(2.0) * np.asarray(t, dtype=float) ** 1.3, c=2.0)
        a = np.geomspace(0.05, 40.0, 150)
        b = a * 2.7
        mid = g((a + b) / 2.0)
        assert np.all(mid <= 0.5 * (g(a) + g(b)) + 1e-7 * (1.0 + np.abs(g(b))))

    def test_nondecreasing(self):
        g = tailkit.convex_minorant(
            lambda t: np.asarray(t, dtype=float) ** 2, c=2.0)
        ts = np.geomspace(1e-3, 30.0, 400)
        vals = g(ts)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_sublinearity_violation_raises(self):
        # sqrt fails f(c*lam*t) >= lam*f(t) once lam > c
        with pytest.raises(tailkit.SublinearityError) as exc:
            tailkit.convex_minorant(lambda t: np.sqrt(np.asarray(t, dtype=float)), c=2.0)
        lam, t = exc.value.witness
        assert lam > 2.0
        assert math.sqrt(2.0 * lam * t) < lam * math.sqrt(t)

    def test_small_c_rejected(self):
        with pytest.raises(ValueError):
            tailkit.convex_minorant(lambda t: np.asarray(t), c=1.5)

    def test_refinement_stability(self):
        # doubling the interrogation density should not move values
        f = lambda t: np.sqrt(2.0) * np.asarray(t, dtype=float) ** 1.5
        g1 = tailkit.convex_minorant(f, c=2.0)
        g2 = tailkit.convex_minorant(f, c=2.0)
        coarse = np.geomspace(0.1, 20.0, 50)
        fine = np.geomspace(0.1, 20.0, 500)
        g2(fine)  # force a denser internal grid before evaluating coarse
        assert np.allclose(g1(coarse), g2(coarse), rtol=1e-6)


class TestRegularityConstants:
    def test_alpha_one_values(self):
        c = tailkit.regularity_constants(1.0)
        assert c.kappa_alpha == pytest.approx(4 * E * E / (E - 1), rel=1e-14)
        assert c.kappa_alpha == pytest.approx(17.201034141313485, rel=1e-12)
        assert c.T_alpha == pytest.approx(4 * E, rel=1e-14)
        assert c.L_alpha == pytest.approx(c.kappa_alpha ** 2, rel=1e-14)
        assert c.b_alpha == pytest.approx(1 + 2 * math.log(2.0), rel=1e-14)
        assert c.t0 == pytest.approx(1 - 1 / E, rel=1e-14)

    def test_alpha_scaling(self):
        c1 = tailkit.regularity_constants(1.0)
        c2 = tailkit.regularity_constants(2.0)
        assert c2.kappa_alpha == pytest.approx(8.0 * c1.kappa_alpha, rel=1e-12)
        assert c2.T_alpha == pytest.approx(8.0 * c1.T_alpha, rel=1e-12)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            tailkit.regularity_constants(0.9)


class TestEnvelope:
    @pytest.mark.parametrize("make,alpha", [
        (dist.gaussian, 1.0),
        (dist.sym_exponential, 1.0),
        (lambda: dist.sym_weibull(1.5), 1.0),
    ])
    def test_sandwich(self, make, alpha):
        model = make()
        consts = tailkit.regularity_constants(alpha)
        env = tailkit.log_concave_envelope(model, alpha)
        ts = np.geomspace(consts.T_alpha, 100.0 * consts.T_alpha, 256)
        m = np.asarray(env(ts))
        n = np.asarray(model.tail_value(ts))
        m_up = np.asarray(env(consts.L_alpha * ts))
        assert np.all(m <= n * (1 + 1e-9) + 1e-9)
        assert np.all(n <= m_up * (1 + 1e-9) + 1e-9)

    def test_zero_below_threshold(self):
        env = tailkit.log_concave_envelope(dist.gaussian(), 1.0)
        consts = tailkit.regularity_constants(1.0)
        ts = np.linspace(0.0, consts.T_alpha, 64)
        assert np.allclose(env(ts), 0.0, atol=1e-12)

    def test_convexity(self):
        env = tailkit.log_concave_envelope(dist.gaussian(), 1.0)
        consts = tailkit.regularity_constants(1.0)
        a = np.geomspace(consts.T_alpha, 50.0 * consts.T_alpha, 100)
        b = 1.9 * a
        mid = np.asarray(env((a + b) / 2.0))
        assert np.all(mid <= 0.5 * (np.asarray(env(a)) + np.asarray(env(b))) + 1e-6)

    def test_irregular_model_rejected(self):
        with pytest.raises(ValueError):
            tailkit.log_concave_envelope(dist.three_point(100.0), 2.0)

    def test_quantile_matches_root_finder(self):
        env = tailkit.log_concave_envelope(dist.gaussian(), 1.0)
        T = tailkit.regularity_constants(1.0).T_alpha
        for e in np.geomspace(1e-6, 40.0, 60):
            hi = 2.0 * T
            while env(hi) < e:
                hi *= 2.0
            root = brentq(lambda t: env(t) - e, T, hi, xtol=1e-13, rtol=1e-15)
            assert env.quantile(e) == pytest.approx(root, rel=1e-7)

    @pytest.mark.parametrize("make", [dist.gaussian, dist.sym_exponential])
    def test_quantile_starts_at_threshold(self, make):
        # M is 0 on [0, T_alpha]: no draw lands below T_alpha
        env = tailkit.log_concave_envelope(make(), 1.0)
        assert env.quantile(1e-12) >= tailkit.regularity_constants(1.0).T_alpha


class TestGrowthConstant:
    @pytest.mark.parametrize("alpha,beta,r,expect_c,expect_k", [
        (1.0, 2.0, 2.0, 17.0, 3),
        (1.0, 2.0, 4.0, 33.0, 4),
        (1.0, 2.0, 1.5, 17.0, 3),
    ])
    def test_values(self, alpha, beta, r, expect_c, expect_k):
        c, k = tailkit.growth_constant(alpha, beta, r)
        assert k == expect_k
        assert c == pytest.approx(expect_c, rel=1e-12)

    def test_formula(self):
        alpha, beta, r = 1.5, 3.0, 10.0
        c, k = tailkit.growth_constant(alpha, beta, r)
        assert 2.0 ** (k - 2) >= r > 2.0 ** (k - 3)
        expected = (math.log(2) + 2 * beta ** k * math.log(2 * alpha)) / math.log(2)
        assert c == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_r(self):
        cs = [tailkit.growth_constant(1.0, 2.0, r)[0] for r in (1.5, 3, 9, 33, 130)]
        assert all(hi >= lo for lo, hi in zip(cs, cs[1:]))

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            tailkit.growth_constant(1.0, 2.0, 1.0)


class TestModerateGrowth:
    def test_gaussian_passes(self):
        ok, worst = tailkit.check_moderate_growth(
            dist.gaussian().tail_value, r=2.0, C=17.0)
        assert ok
        # N(2t)/N(t) tends to 4 for the squared-exponential tail
        assert 3.5 <= worst <= 17.0

    def test_tight_c_fails(self):
        ok, worst = tailkit.check_moderate_growth(
            dist.gaussian().tail_value, r=2.0, C=3.0)
        assert not ok
        assert worst > 3.0

    def test_bounded_support_fails(self):
        ok, worst = tailkit.check_moderate_growth(
            dist.three_point(100.0).tail_value, r=2.0, C=1e6)
        assert not ok
        assert worst == math.inf

    def test_t_min_guard(self):
        with pytest.raises(ValueError):
            tailkit.check_moderate_growth(dist.gaussian().tail_value, 2.0, 17.0,
                                          t_min=1.0)


@pytest.fixture(scope="module")
def family():
    proc = ProcessSpec.homogeneous(dist.gaussian(), 2)
    return tailkit.build_surrogates(proc, alpha=1.0, beta=8.0)


class TestSurrogates:
    def test_gamma_tilde(self, family):
        consts = tailkit.regularity_constants(1.0)
        c, _ = tailkit.growth_constant(1.0, 8.0, 2.0 * consts.L_alpha)
        assert family.gamma_tilde == pytest.approx(max(2.0, c))

    def test_t_alpha(self, family):
        consts = tailkit.regularity_constants(1.0)
        coord = family.coordinates[0]
        assert coord.t_alpha == pytest.approx(
            consts.L_alpha * max(2.0, consts.T_alpha), rel=1e-12)

    def test_m_tilde_continuity_and_growth(self, family):
        coord = family.coordinates[0]
        ta = coord.t_alpha
        assert coord.m_tilde(ta) == pytest.approx(float(coord.envelope(ta)), rel=1e-9)
        assert coord.m_tilde(0.0) == pytest.approx(0.0, abs=1e-12)
        # doubling inequality for the repaired envelope
        ts = np.geomspace(ta * 1e-3, ta * 50.0, 200)
        m1 = np.asarray(coord.m_tilde(ts))
        m2 = np.asarray(coord.m_tilde(2.0 * ts))
        pos = m1 > 0
        assert np.all(m2[pos] <= family.gamma_tilde * m1[pos] * (1 + 1e-9))

    def test_u_tail_range(self, family):
        coord = family.coordinates[0]
        assert coord.u_tail(0.0) == pytest.approx(1.0, abs=1e-12)
        assert coord.u_tail(coord.t_alpha) == pytest.approx(0.0, abs=1e-12)
        ts = np.linspace(0, coord.t_alpha * 1.2, 100)
        vals = np.asarray(coord.u_tail(ts))
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    def test_couplings_pathwise(self, family):
        coord = family.coordinates[0]
        rng = RngStream(2024, 5).generator()
        draws = coord.sample_coupled(rng, 200_000)
        x, xt, y, z = (np.abs(draws[k]) for k in ("X", "X_tilde", "Y", "Z"))
        L = coord.constants.L_alpha
        assert np.all(xt >= x - 1e-9)
        assert np.all(y >= xt * (1 - 1e-6) - 1e-9)
        assert np.all(xt >= y / L * (1 - 1e-6) - 1e-9)
        assert np.all(np.abs(draws["Y"] - draws["Z"]) <= 2.0 * coord.t_alpha + 1e-9)
        assert np.all(np.abs(draws["U"]) <= coord.t_alpha + 1e-9)

    def test_z_mean_lower_bound(self, family):
        coord = family.coordinates[0]
        m_at = float(coord.envelope(coord.t_alpha))
        bound = coord.t_alpha / m_at * (1.0 - math.exp(-m_at))
        rng = RngStream(77, 0).generator()
        z = np.abs(coord.sample_coupled(rng, 400_000)["Z"])
        se = z.std() / math.sqrt(len(z))
        assert z.mean() >= bound - 3 * se

    def test_y_matches_envelope(self, family):
        coord = family.coordinates[0]
        rng = RngStream(33, 1).generator()
        y = np.abs(coord.sample_coupled(rng, 400_000)["Y"])
        for t in (coord.constants.T_alpha * 1.5, coord.t_alpha, coord.t_alpha * 1.5):
            target = math.exp(-float(coord.envelope(t)))
            emp = float(np.mean(y > t))
            se = math.sqrt(max(target * (1 - target), 1e-9) / len(y))
            assert emp == pytest.approx(target, abs=4 * se + 1e-4)

    def test_irregular_coordinate_rejected(self):
        proc = ProcessSpec.homogeneous(dist.rademacher(), 2)
        with pytest.raises(ValueError):
            # bounded support: fails the speed-beta check
            tailkit.build_surrogates(proc, alpha=1.0, beta=8.0)

    def test_sym_exponential_family_builds(self):
        proc = ProcessSpec.homogeneous(dist.sym_exponential(), 2)
        fam = tailkit.build_surrogates(proc, alpha=1.0, beta=4.0)
        coord = fam.coordinates[0]
        rng = RngStream(9, 9).generator()
        draws = coord.sample_coupled(rng, 100_000)
        assert np.all(np.abs(draws["Y"]) >= np.abs(draws["X_tilde"]) * (1 - 1e-6) - 1e-9)
