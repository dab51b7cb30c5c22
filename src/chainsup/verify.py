"""Theorem-level experiment suites.

Each experiment bundles metric computations, chaining certificates and
Monte-Carlo estimates into a report object with the observed constants;
none of them asserts the (unspecified) universal constants of the
underlying results, only desk-scale regression floors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import gamma as gamma_mod
from . import metric as metric_mod
from .gamma import PartitionTree
from .metric import IndexSet, ProcessSpec, distance_matrix, increment_norm
from .stochlab import RngStream, SupremumEstimate, estimate_mean, estimate_sup

__all__ = [
    "SudakovReport",
    "TwoSidedReport",
    "HullDecomposition",
    "sudakov_experiment",
    "packing_set",
    "interleave",
    "two_sided_experiment",
    "weak_strong_experiment",
    "comparison_experiment",
    "convex_hull_decomposition",
]

# Conservative desk-scale constant for the chaining upper bound; the true
# universal constant is unspecified, observed ratios are first-class.
UPPER_BOUND_POLICY_CONSTANT = 40.0


@dataclass
class SudakovReport:
    p: float
    u: float
    min_observed_separation: float
    separation_ok: bool
    worst_pair: Optional[tuple]
    cardinality_ok: bool
    esup: SupremumEstimate
    kappa_obs: float


def sudakov_experiment(proc: ProcessSpec, T: IndexSet, p: float, u: float,
                       samples: int, stream: RngStream,
                       metric_samples: int = metric_mod.MC_DEFAULT_SAMPLES,
                       workers: int = 1) -> SudakovReport:
    """Minoration harness: verify the separation claim, estimate E sup,
    report the observed minoration constant E sup / u."""
    if len(T) < 2:
        raise ValueError("minoration experiment needs at least two points")
    dm = distance_matrix(proc, T, p, samples=metric_samples, seed=stream.master_seed)
    iu = np.triu_indices(len(T), k=1)
    vals = dm[iu]
    k = int(np.argmin(vals))
    min_sep = float(vals[k])
    worst_pair = (int(iu[0][k]), int(iu[1][k]))
    tol = 1e-9 if metric_mod.is_exact_metric(proc, T) else 0.05 * u
    separation_ok = min_sep >= u - tol
    esup = estimate_sup(proc, T, samples, stream, workers=workers)
    return SudakovReport(
        p=float(p), u=float(u),
        min_observed_separation=min_sep,
        separation_ok=separation_ok,
        worst_pair=None if separation_ok else worst_pair,
        cardinality_ok=len(T) >= math.exp(p),
        esup=esup,
        kappa_obs=esup.mean / u,
    )


def packing_set(m: int, n: int) -> IndexSet:
    """All 0/1 vectors in R^n with exactly m ones; |T| = C(n, m) >= (n/m)^m."""
    if not 1 <= m <= n:
        raise ValueError("packing set requires 1 <= m <= n")
    from itertools import combinations
    pts = np.zeros((math.comb(n, m), n))
    for row, idx in enumerate(combinations(range(n), m)):
        pts[row, list(idx)] = 1.0
    return IndexSet(pts)


def interleave(T: IndexSet) -> IndexSet:
    """{(s_1, t_1, s_2, t_2, ...) : s, t in T} in dimension 2n; |T|^2 points."""
    pts = T.points
    m, n = pts.shape
    out = np.zeros((m * m, 2 * n))
    row = 0
    for i in range(m):
        for j in range(m):
            out[row, 0::2] = pts[i]
            out[row, 1::2] = pts[j]
            row += 1
    return IndexSet(out)


@dataclass
class TwoSidedReport:
    gamma_upper_cert: float
    gamma_exact: Optional[float]
    esup: SupremumEstimate
    ratio_upper: float   # esup / gamma  (should stay below the policy constant)
    ratio_lower: float   # gamma / esup  (the reversibility constant)
    degenerate: bool
    certificate: Optional[PartitionTree] = None


def two_sided_experiment(proc: ProcessSpec, T: IndexSet, samples: int,
                         stream: RngStream, mode: str = "greedy",
                         gamma_value: Optional[float] = None,
                         workers: int = 1) -> TwoSidedReport:
    """gamma_X certificate (exact when affordable) vs the MC E sup.

    `gamma_value` overrides the search when an analytic oracle value is
    available (uniform spaces)."""
    cert_tree = None
    exact_val = None
    if gamma_value is not None:
        cert_val = float(gamma_value)
    else:
        cert_val, cert_tree = gamma_mod.compute_gamma(
            T, proc, "gammaX", mode="greedy", samples=samples, seed=stream.master_seed)
    if len(T) <= gamma_mod.EXACT_LIMIT and metric_mod.is_exact_metric(proc, T):
        exact_val, _ = gamma_mod.compute_gamma(T, proc, "gammaX", mode="exact",
                                               seed=stream.master_seed)
        if mode == "exact":
            cert_val = exact_val
    esup = estimate_sup(proc, T, samples, stream, workers=workers)
    degenerate = len(T) == 1
    if degenerate:
        up, low = 0.0, 0.0
    else:
        up = esup.mean / cert_val if cert_val > 0 else math.inf
        low = cert_val / esup.mean if esup.mean > 0 else math.inf
    return TwoSidedReport(
        gamma_upper_cert=cert_val,
        gamma_exact=exact_val,
        esup=esup,
        ratio_upper=up,
        ratio_lower=low,
        degenerate=degenerate,
        certificate=cert_tree,
    )


def weak_strong_experiment(proc: ProcessSpec, T: IndexSet, p: float,
                           samples: int, stream: RngStream,
                           workers: int = 1) -> dict:
    """Observed constant in the weak/strong moment comparison:
    (E sup|X_t|^p)^(1/p) / (E sup|X_t| + sup_t ||X_t||_p)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    strong_mean, strong_err = estimate_mean(
        proc, T, samples, stream.child(0),
        lambda v: np.abs(v).max(axis=1) ** p, workers=workers)
    weak_sup = estimate_sup(proc, T, samples, stream.child(1), target="sup_abs",
                            workers=workers)
    norms = [increment_norm(proc, t, np.zeros(proc.dimension), p,
                            seed=stream.master_seed).value
             for t in T.points]
    sup_norm = max(norms)
    numerator = strong_mean ** (1.0 / p)
    denominator = weak_sup.mean + sup_norm
    return {
        "p": p,
        "numerator": numerator,
        "numerator_stderr": strong_err / (p * max(strong_mean, 1e-300) ** (1.0 - 1.0 / p)),
        "esup_abs": weak_sup,
        "sup_increment_norm": sup_norm,
        "C_obs": numerator / denominator if denominator > 0 else 0.0,
    }


def comparison_experiment(procX: ProcessSpec, procY: ProcessSpec, T: IndexSet,
                          p_grid: Sequence[float], samples: int, stream: RngStream,
                          quantiles: Sequence[float] = (0.5, 0.75, 0.9, 0.95, 0.99),
                          scale_grid: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
                          workers: int = 1) -> dict:
    """Comparison harness: check increment domination on the grid, then
    report E sup ratios and empirical tail-domination curves."""
    pts = T.points
    slack_pairs = []
    for p in p_grid:
        for i in range(len(T)):
            for j in range(i + 1, len(T)):
                dx = increment_norm(procX, pts[i], pts[j], p, samples=samples,
                                    seed=stream.master_seed)
                dy = increment_norm(procY, pts[i], pts[j], p, samples=samples,
                                    seed=stream.master_seed + 1)
                tol = dx.error_bound + dy.error_bound + 1e-9 * (1.0 + dx.value)
                if dy.value > dx.value + tol:
                    raise ValueError(
                        f"domination precondition fails at (s={i}, t={j}, p={p}): "
                        f"||Y_s-Y_t||_p = {dy.value} > ||X_s-X_t||_p = {dx.value}")
                slack_pairs.append((p, i, j, dx.value, dy.value))

    ex = estimate_sup(procX, T, samples, stream.child(0), workers=workers)
    ey = estimate_sup(procY, T, samples, stream.child(1), workers=workers)

    # empirical sup samples for the tail curves
    def collect(proc, sub):
        rng = sub.generator()
        out = []
        n = 0
        while n < samples:
            chunk = min(65_536, samples - n)
            x = proc.sample_matrix(rng, chunk)
            v = x @ pts.T
            out.append(v.max(axis=1) - v.min(axis=1))
            n += chunk
        return np.concatenate(out)

    sx = collect(procX, stream.child(2))
    sy = collect(procY, stream.child(3))
    curves = []
    for q in quantiles:
        u = float(np.quantile(sx, q))
        py = float(np.mean(sy >= u))
        for c in scale_grid:
            px = float(np.mean(sx >= u / c))
            curves.append({"quantile": q, "u": u, "c": c,
                           "p_supY_ge_u": py, "p_supX_ge_u_over_c": px,
                           "ratio": py / px if px > 0 else math.inf})
    return {
        "domination_checked_pairs": len(slack_pairs),
        "esup_X": ex,
        "esup_Y": ey,
        "esup_ratio": ey.mean / ex.mean if ex.mean > 0 else math.inf,
        "tail_curves": curves,
    }


@dataclass
class HullDecomposition:
    chain_points: list          # records: level, k, vector, step_norm
    R: float
    max_residual: float
    max_norm_cap: float
    skipped_steps: int


def _cumulative_caps(depth: int) -> list:
    # M_n = sum_{j<=n} N_j with N_0 = 1; chain points at level n occupy
    # indices M_{n-1} < k <= M_n
    caps = []
    total = 0
    for n in range(depth):
        total += gamma_mod.level_cap(n)
        caps.append(total)
    return caps


def convex_hull_decomposition(T: IndexSet, tree: PartitionTree,
                              proc: ProcessSpec,
                              samples: int = metric_mod.MC_DEFAULT_SAMPLES,
                              seed: int = 0) -> HullDecomposition:
    """Chain decomposition of T - T into normalized increments.

    Representatives are the lowest-index point of each block.  Steps are
    normalized by their d_{2^(n+1)} length; the telescoping sum must
    reconstruct s - t exactly and every normalized step must satisfy
    ||X_step||_{ln(k+2)} <= 1 under the level bookkeeping.
    """
    tree.validate(len(T))
    pts = T.points
    m = len(T)
    depth = tree.depth
    caps = _cumulative_caps(depth)

    reps = []  # reps[n][i] = representative index of A_n(point i)
    for n in range(depth):
        level_rep = np.zeros(m, dtype=int)
        for block in tree.levels[n]:
            r = min(block)
            for i in block:
                level_rep[i] = r
        reps.append(level_rep)

    dms = {n: distance_matrix(proc, T, float(2 ** (n + 1)), samples=samples, seed=seed)
           for n in range(1, depth)}

    chain_points = []
    step_sums = np.zeros(m)
    skipped = 0
    step_of = {}  # (level, a, b) -> the chain point emitted for that step
    for n in range(1, depth):
        level_count = 0
        for i in range(m):
            a, b = reps[n][i], reps[n - 1][i]
            # a step between equal points has length 0 and adds nothing
            if a == b or dms[n][a, b] == 0.0:
                skipped += 1
                continue
            if (n, a, b) in step_of:
                step_sums[i] += step_of[(n, a, b)]["step_norm"]
                continue
            d = float(dms[n][a, b])
            step_sums[i] += d
            level_count += 1
            k = (caps[n - 1] if n >= 1 else 0) + level_count
            vec = (pts[a] - pts[b]) / d
            p_k = math.log(k + 2)
            cap = increment_norm(proc, vec, np.zeros(proc.dimension),
                                 max(p_k, 1.0), samples=samples, seed=seed).value
            step_of[(n, a, b)] = {"level": n, "k": k, "vector": vec,
                                  "step_norm": d, "norm_cap": cap}
            chain_points.append(step_of[(n, a, b)])
    # telescoping residuals: s - t vs the sum of the emitted steps, each
    # rebuilt as vector * step_norm, so a wrong vector or step norm shows
    recon = np.zeros_like(pts)
    for i in range(m):
        acc = pts[reps[0][i]].copy()
        for n in range(1, depth):
            step = step_of.get((n, reps[n][i], reps[n - 1][i]))
            if step is not None:
                acc = acc + step["vector"] * step["step_norm"]
        recon[i] = acc
    # np.max, unlike Python max, propagates a NaN, so a NaN never passes
    max_resid = float(np.max([np.abs((pts[i] - pts) - (recon[i] - recon)).max()
                              for i in range(m)]))
    max_cap = float(np.max([cp["norm_cap"] for cp in chain_points], initial=0.0))

    R = 2.0 * float(step_sums.max(initial=0.0))
    return HullDecomposition(
        chain_points=chain_points,
        R=R,
        max_residual=max_resid,
        max_norm_cap=max_cap,
        skipped_steps=skipped,
    )
