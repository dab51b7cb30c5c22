"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from chainsup import dist, gamma, metric, stochlab, tailkit, verify
from chainsup.metric import IndexSet, ProcessSpec, increment_norm, latala_norm
from chainsup.streams import RngStream

E = math.e


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_bernoulli_counterexample():
    t0 = time.perf_counter()
    n = 257
    oracle = gamma.uniform_space_gamma(n, lambda p: 2.0 * 2.0 ** (-1.0 / p))
    gamma_ok = abs(oracle - 5.930014479289866) <= 1e-6
    proc = ProcessSpec.homogeneous(dist.rademacher(), n)
    est = stochlab.estimate_sup(proc, IndexSet.basis(n), 100_000, RngStream(101, 0))
    esup_ok = abs(est.mean - 2.0) <= 0.02
    ratio = oracle / est.mean
    elapsed = time.perf_counter() - t0
    ok = gamma_ok and esup_ok and ratio >= 2.9 and elapsed < 10.0
    verdict(1, ok, f"gamma_X={oracle:.9f}, E sup={est.mean:.6f}, "
                   f"ratio={ratio:.4f} (>=2.9), {elapsed:.2f}s")


def test_criterion_02_two_point_identities():
    t0 = time.perf_counter()
    T = IndexSet.with_origin(np.eye(1))
    proc = ProcessSpec.homogeneous(dist.gaussian(), 1)
    g2, _ = gamma.compute_gamma(T, proc, "gamma2", mode="exact")
    gx, _ = gamma.compute_gamma(T, proc, "gammaX", mode="exact")
    elapsed = time.perf_counter() - t0
    ok = (abs(g2 - 1.0) <= 1e-6
          and abs(gx - math.sqrt(2.0 / math.pi)) <= 1e-6
          and elapsed < 1.0)
    verdict(2, ok, f"gamma_2={g2:.9f} (1), gamma_X={gx:.9f} "
                   f"(sqrt(2/pi)={math.sqrt(2/math.pi):.9f}), {elapsed:.2f}s")


def test_criterion_03_envelope_sandwich():
    t0 = time.perf_counter()
    alpha = 1.0
    consts = tailkit.regularity_constants(alpha)
    families = {"gaussian": dist.gaussian(),
                "sym_exponential": dist.sym_exponential(),
                "sym_weibull(1.5)": dist.sym_weibull(1.5)}
    worst = 0.0
    for name, model in families.items():
        assert dist.check_alpha_regular(model, alpha).passed, name
        env = tailkit.log_concave_envelope(model, alpha)
        ts = np.geomspace(consts.T_alpha, 100.0 * consts.T_alpha, 256)
        m = np.asarray(env(ts))
        nval = np.asarray(model.tail_value(ts))
        m_up = np.asarray(env(consts.L_alpha * ts))
        lower_gap = np.max(m - nval)          # must be <= slack
        upper_gap = np.max(nval - m_up)
        worst = max(worst, float(lower_gap), float(upper_gap))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    verdict(3, ok, f"3 families, 256 points on [T_a, 100 T_a], "
                   f"worst sandwich violation {worst:.2e} (<=1e-8), {elapsed:.2f}s")


def test_criterion_04_convex_minorant():
    t0 = time.perf_counter()
    # exact linear case
    g_lin = tailkit.convex_minorant(lambda t: np.asarray(t, dtype=float), c=2.0)
    ts = np.linspace(0.0, 40.0, 401)
    lin_err = float(np.max(np.abs(np.asarray(g_lin(ts)) - ts / 2.0)))
    # anchor
    g_anchor = tailkit.convex_minorant(lambda t: np.asarray(t, dtype=float),
                                       c=2.0, t0=0.5)
    anchor_val = abs(g_anchor(1.0))
    # exponential-tail sandwich
    c = 2.0
    f = lambda t: math.sqrt(2.0) * np.asarray(t, dtype=float)
    g = tailkit.convex_minorant(f, c=c)
    tg = np.geomspace(0.01, 100.0, 300)
    sandwich_ok = (np.all(np.asarray(g(tg)) <= f(tg) + 1e-9)
                   and np.all(f(tg) <= np.asarray(g(c * c * tg)) + 1e-9))
    # convexity midpoints
    a = np.geomspace(0.05, 40.0, 200)
    b = 2.3 * a
    conv_viol = float(np.max(np.asarray(g((a + b) / 2.0))
                             - 0.5 * (np.asarray(g(a)) + np.asarray(g(b)))))
    elapsed = time.perf_counter() - t0
    ok = (lin_err <= 1e-9 and anchor_val <= 1e-9 and sandwich_ok
          and conv_viol <= 1e-9 and elapsed < 2.0)
    verdict(4, ok, f"linear err {lin_err:.2e}, g(c t0)={anchor_val:.2e}, "
                   f"sandwich {'ok' if sandwich_ok else 'BAD'}, "
                   f"midpoint violation {conv_viol:.2e}, {elapsed:.2f}s")


def _exact_sum_norm(coeffs, laws, r: int) -> float:
    """||sum a_i X_i||_r by enumerating the finite product law."""
    total = 0.0
    for combo in itertools.product(*laws):
        s = sum(a * v for a, (v, _) in zip(coeffs, combo))
        pr = math.prod(p for _, p in combo)
        total += pr * abs(s) ** r
    return total ** (1.0 / r)


def test_criterion_05_latala_bracket():
    t0 = time.perf_counter()
    rad_law = [(1.0, 0.5), (-1.0, 0.5)]
    a_atom = 3.0
    p_atom = 1.0 / (a_atom * a_atom)
    tp_law = [(a_atom, p_atom / 2), (-a_atom, p_atom / 2), (0.0, 1.0 - p_atom)]
    rad_model, tp_model = dist.rademacher(), dist.three_point(a_atom)

    single = latala_norm([1.0], ProcessSpec(models=(rad_model,)), 2)
    single_ok = abs(single - 1.0 / math.sqrt(E * E - 1.0)) <= 1e-6

    lo_c, hi_c = (E - 1.0) / (2.0 * E * E), E
    rng = np.random.default_rng(505)
    checked = 0
    bracket_ok = True
    for r in (2, 4, 8):
        for _ in range(6):
            n = int(rng.integers(1, 6))
            kinds = rng.integers(0, 2, size=n)
            coeffs = rng.uniform(0.3, 2.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            laws = [rad_law if k == 0 else tp_law for k in kinds]
            models = tuple(rad_model if k == 0 else tp_model for k in kinds)
            v = latala_norm(coeffs, ProcessSpec(models=models), r)
            norm = _exact_sum_norm(coeffs, laws, r)
            if not (lo_c * v - 1e-9 <= norm <= hi_c * v + 1e-9):
                bracket_ok = False
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = single_ok and bracket_ok and elapsed < 1.0
    verdict(5, ok, f"single rademacher r=2 -> {single:.5f} (0.39562); "
                   f"{checked} exact sums bracketed in "
                   f"[(e-1)/(2e^2), e] x |||.|||, {elapsed:.2f}s")


def test_criterion_06_chaining_upper_bound_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    makers = [("gaussian", dist.gaussian), ("rademacher", dist.rademacher),
              ("sym_exponential", dist.sym_exponential)]
    ratios_up = []
    for i in range(20):
        fam, make = makers[i % 3]
        dim = int(rng.integers(2, 17))
        size = int(rng.integers(3, 33))
        T = IndexSet(rng.standard_normal((size, dim)))
        proc = ProcessSpec.homogeneous(make(), dim)
        cert, _ = gamma.compute_gamma(T, proc, "gammaX", mode="greedy",
                                      samples=100_000, seed=1000 + i)
        est = stochlab.estimate_sup(proc, T, 100_000, RngStream(1000 + i, 0))
        ratios_up.append((fam, size, dim, est.mean / cert))
    upper_ok = all(r <= verify.UPPER_BOUND_POLICY_CONSTANT
                   for _, _, _, r in ratios_up)

    # lower-bound spot checks: exact gamma for gaussian, greedy certificate
    # (an upper bound on gamma, hence a harder target) for sym_exponential
    lower_ok = True
    lower_obs = []
    for j in range(3):
        dim = int(rng.integers(2, 9))
        size = int(rng.integers(3, 11))
        pts = rng.standard_normal((size, dim))
        gproc = ProcessSpec.homogeneous(dist.gaussian(), dim)
        gex, _ = gamma.compute_gamma(IndexSet(pts), gproc, "gammaX", mode="exact")
        gest = stochlab.estimate_sup(gproc, IndexSet(pts), 100_000,
                                     RngStream(2000 + j, 0))
        lower_obs.append(("gaussian", gest.mean / gex))
        if gest.mean + 3 * gest.stderr < gex / verify.UPPER_BOUND_POLICY_CONSTANT:
            lower_ok = False
        eproc = ProcessSpec.homogeneous(dist.sym_exponential(), dim)
        ecert, _ = gamma.compute_gamma(IndexSet(pts), eproc, "gammaX",
                                       mode="greedy", samples=100_000,
                                       seed=3000 + j)
        eest = stochlab.estimate_sup(eproc, IndexSet(pts), 100_000,
                                     RngStream(3000 + j, 0))
        lower_obs.append(("sym_exponential", eest.mean / ecert))
        if eest.mean + 3 * eest.stderr < ecert / verify.UPPER_BOUND_POLICY_CONSTANT:
            lower_ok = False
    elapsed = time.perf_counter() - t0
    max_up = max(r for _, _, _, r in ratios_up)
    min_low = min(r for _, r in lower_obs)
    ok = upper_ok and lower_ok and elapsed < 300.0
    verdict(6, ok, f"20 sets: max E sup / certificate = {max_up:.3f} (<=40); "
                   f"6 small instances: min E sup / gamma = {min_low:.3f} "
                   f"(>= 1/40); {elapsed:.1f}s")


def test_criterion_07_sudakov_batteries():
    t0 = time.perf_counter()
    gproc = ProcessSpec.homogeneous(dist.gaussian(), 8)
    rep = verify.sudakov_experiment(gproc, IndexSet.basis(8), 2.0, math.sqrt(2.0),
                                    100_000, RngStream(707, 0))
    g_ok = (rep.separation_ok and rep.cardinality_ok
            and rep.kappa_obs + 3 * rep.esup.stderr / rep.u >= 0.2)

    kappas = []
    e_ok = True
    for m, n, p in ((1, 8, 2.0), (2, 8, 2.0), (3, 9, 2.0),
                    (2, 12, 4.0), (3, 9, 4.0)):
        u = dist.sym_exponential().moment(p)
        proc = ProcessSpec.homogeneous(dist.sym_exponential(), n)
        r = verify.sudakov_experiment(proc, verify.packing_set(m, n), p, u,
                                      100_000, RngStream(708, 10 * m + n))
        kappas.append(((m, n, p), r.kappa_obs))
        if not r.separation_ok:
            e_ok = False
        if r.kappa_obs + 3 * r.esup.stderr / u < 0.1:
            e_ok = False
        if len(verify.packing_set(m, n)) >= math.exp(p) and not r.cardinality_ok:
            e_ok = False
    elapsed = time.perf_counter() - t0
    kmin = min(k for _, k in kappas)
    ok = g_ok and e_ok and elapsed < 120.0
    verdict(7, ok, f"gaussian basis-8 kappa_obs={rep.kappa_obs:.3f} (>=0.2); "
                   f"5 sym_exponential packing runs, min kappa_obs={kmin:.3f} "
                   f"(>=0.1); {elapsed:.1f}s")


def test_criterion_08_packing_chain():
    t0 = time.perf_counter()
    ok = True
    details = []
    for model, tag in ((dist.sym_exponential(), "exp"), (dist.gaussian(), "gauss")):
        for m, n in ((1, 8), (2, 8), (3, 9)):
            proc = ProcessSpec.homogeneous(model, n)
            T = verify.packing_set(m, n)
            est = stochlab.estimate_sup(proc, T, 100_000,
                                        RngStream(808, 100 * m + n))
            recs = stochlab.order_stat_means(model, n, list(range(1, m + 1)),
                                             qs=(2.0, 4.0))
            top_sum = sum(r["mean"] for r in recs)
            slack = 3.0 * est.stderr
            if est.mean > 2.0 * top_sum + slack:
                ok = False
            for r in recs:
                for bound in r["bounds"].values():
                    if r["mean"] > bound:
                        ok = False
            details.append(f"{tag} T({m},{n}): {est.mean:.3f} <= "
                           f"{2 * top_sum:.3f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    verdict(8, ok, "; ".join(details) + f"; order-stat bounds q in {{2,4}} hold; "
                   f"{elapsed:.1f}s")


def test_criterion_09_weak_strong():
    t0 = time.perf_counter()
    proc = ProcessSpec.homogeneous(dist.gaussian(), 16)
    T = IndexSet.basis(16)
    cs = []
    for i, p in enumerate((2.0, 4.0, 8.0)):
        out = verify.weak_strong_experiment(proc, T, p, 1_000_000,
                                            RngStream(909, i))
        cs.append((p, out["C_obs"]))
    elapsed = time.perf_counter() - t0
    ok = all(c <= 4.0 for _, c in cs) and elapsed < 120.0
    verdict(9, ok, "gaussian basis-16, 1e6 samples: " +
            ", ".join(f"C_obs(p={p:g})={c:.3f}" for p, c in cs) +
            f" (all <=4); {elapsed:.1f}s")


def test_criterion_10_section_harnesses():
    t0 = time.perf_counter()
    pz = stochlab.paley_zygmund_check(values=[0.0, 2.0], probs=[0.5, 0.5], lam=0.5)
    pz_ok = (pz["passed"] and abs(pz["lhs"] - 0.5) < 1e-12
             and abs(pz["rhs"] - 0.125) < 1e-12)

    rng = np.random.default_rng(1010)
    contraction_ok = True
    for _ in range(100):
        nn = int(rng.integers(1, 7))
        b = rng.uniform(0.05, 2.0, size=nn) * rng.choice([-1.0, 1.0], size=nn)
        a = b * rng.uniform(0.0, 1.0, size=nn)
        out = stochlab.contraction_check(a, b, float(rng.choice([2.0, 4.0, 8.0])))
        if not out["passed"]:
            contraction_ok = False

    sym_ok = True
    for s in range(2):
        pts = rng.standard_normal((8, 4))
        out = stochlab.symmetrization_check(
            ProcessSpec.homogeneous(dist.gaussian(), 4), IndexSet(pts), 2.0,
            samples=30_000, stream=RngStream(1011, s))
        if not out["passed"]:
            sym_ok = False
    elapsed = time.perf_counter() - t0
    ok = pz_ok and contraction_ok and sym_ok and elapsed < 60.0
    verdict(10, ok, f"PZ lhs=1/2 >= rhs=1/8; contraction 100/100; "
                    f"symmetrization factor-2 bracket on 2 gaussian 8-point "
                    f"sets; {elapsed:.1f}s")


def test_criterion_11_regularity_classifier():
    t0 = time.perf_counter()
    g = dist.gaussian()
    r1 = dist.check_alpha_regular(g, 1.0)
    s8 = dist.check_speed_beta(g, 8.0)
    s4 = dist.check_speed_beta(g, 4.0)
    s4_ok = (not s4.passed and s4.witness_pair[0] == 2.0
             and abs(s4.ratio - 105.0 ** 0.125) <= 1e-6)
    rad_ok = all(not dist.check_speed_beta(dist.rademacher(), b).passed
                 for b in (2.0, 4.0, 8.0))
    tp = dist.check_alpha_regular(dist.three_point(100.0), 5.0, (2, 4))
    tp_ok = (not tp.passed and tp.witness_pair == (2.0, 4.0)
             and abs(tp.ratio - 10.0) <= 1e-6)
    elapsed = time.perf_counter() - t0
    ok = (r1.passed and s8.passed and s4_ok and rad_ok and tp_ok
          and elapsed < 1.0)
    verdict(11, ok, f"gaussian: R1 pass, S8 pass, S4 fail at p=2 with "
                    f"ratio {s4.ratio:.5f} (105^(1/8)); rademacher fails "
                    f"S_beta for beta in {{2,4,8}}; three_point(100) fails R5 "
                    f"with witness (2,4), ratio {tp.ratio:.6f}; {elapsed:.2f}s")


def test_criterion_12_hull_decomposition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1212)
    ok = True
    worst_resid = 0.0
    worst_cap = 0.0
    for _ in range(5):
        dim = int(rng.integers(2, 6))
        size = int(rng.integers(3, 11))
        T = IndexSet(rng.standard_normal((size, dim)))
        proc = ProcessSpec.homogeneous(dist.gaussian(), dim)
        _, tree = gamma.compute_gamma(T, proc, "gammaX", mode="exact")
        hull = verify.convex_hull_decomposition(T, tree, proc)
        worst_resid = max(worst_resid, hull.max_residual)
        worst_cap = max(worst_cap, hull.max_norm_cap)
        if hull.max_residual > 1e-9 or hull.max_norm_cap > 1.0 + 1e-9:
            ok = False
        if hull.chain_points:
            largest = max(cp["step_norm"] for cp in hull.chain_points)
            if not (math.isfinite(hull.R) and hull.R >= 2.0 * largest - 1e-12):
                ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    verdict(12, ok, f"5 exact-mode gaussian instances: max residual "
                    f"{worst_resid:.2e} (<=1e-9), max norm cap {worst_cap:.9f} "
                    f"(<=1+1e-9), R >= 2 x largest step; {elapsed:.1f}s")


def test_criterion_13_determinism_across_worker_counts(tmp_path, run_cli):
    config = {
        "process": {"family": "sym_exponential"},
        "index_set": {"type": "sphere_random", "count": 12, "n": 6, "seed": 3},
        "params": {"seed": 1313, "samples": 100_000},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    blobs = []
    hashes = []
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        r = run_cli(["supremum", "--config", str(cfg), "--out", str(out),
                     "--workers", str(workers)], tmp_path)
        assert r.returncode == 0, r.stderr
        blobs.append((out / "report.json").read_bytes())
        hashes.append(json.loads(blobs[-1])["config_hash"])
    ok = blobs[0] == blobs[1] and hashes[0] == hashes[1]
    verdict(13, ok, f"config hash {hashes[0][:12]}...: report bytes identical "
                    f"for worker counts 1 and 8 "
                    f"({len(blobs[0])} bytes each)")
