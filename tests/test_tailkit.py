import math

import numpy as np
import pytest
from scipy.optimize import brentq

from chainsup import dist, tailkit

E = math.e


class TestTailFunction:
    def test_callable_and_support(self):
        tf = tailkit.TailFunction(lambda t: 2.0 * np.asarray(t), support_bound=5.0)
        assert tf(1.0) == pytest.approx(2.0)
        assert tf(5.0) == math.inf
        assert tf(7.0) == math.inf


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

    def test_checks_sublinearity_at_kappa(self, monkeypatch):
        # alpha-regularity is checked on a p grid only, so the envelope also
        # checks the minorant's own precondition at c = kappa_alpha
        calls = []
        real = tailkit._check_sublinear

        def spy(f, c, t0, *args, **kwargs):
            calls.append((f, c, t0))
            return real(f, c, t0, *args, **kwargs)

        monkeypatch.setattr(tailkit, "_check_sublinear", spy)
        model = dist.sym_exponential()
        tailkit.log_concave_envelope(model, 2.0)
        consts = tailkit.regularity_constants(2.0)
        assert calls == [(model.tail, consts.kappa_alpha, consts.t0)]

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

    @pytest.mark.parametrize("make", [
        dist.gaussian, dist.sym_exponential, lambda: dist.sym_weibull(1.5)])
    def test_quantile_sandwich(self, make):
        # the sandwich M <= N <= M(L_alpha .) read through the quantiles: the
        # variable with tail exponent M dominates max(X, T_alpha), and is
        # dominated by L_alpha times it, at every level e
        model = make()
        consts = tailkit.regularity_constants(1.0)
        env = tailkit.log_concave_envelope(model, 1.0)
        e = np.geomspace(1e-9, 700.0, 400)
        xt = np.maximum(model.tail.quantile(e), consts.T_alpha)
        y = env.quantile(e)
        assert np.all(y >= xt * (1 - 1e-6) - 1e-9)
        assert np.all(xt >= y / consts.L_alpha * (1 - 1e-6) - 1e-9)
