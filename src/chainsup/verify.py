"""Theorem-level experiment suites.

Each experiment bundles metric computations, chaining certificates and
Monte-Carlo estimates into a report object with the observed constants;
none of them asserts the (unspecified) universal constants of the
underlying results, only desk-scale regression floors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import gamma as gamma_mod
from . import metric as metric_mod
from .gamma import PartitionTree
from .metric import IndexSet, ProcessSpec, increment_norm
from .stochlab import RngStream, SupremumEstimate, estimate_mean, estimate_sup, sup_samples

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

# where comparison_experiment reads its empirical tail-domination curves:
# quantiles u of sup X, and the scales c in P(sup Y >= u) vs P(sup X >= u/c)
_TAIL_QUANTILES = (0.5, 0.75, 0.9, 0.95, 0.99)
_TAIL_SCALES = (1.0, 2.0, 4.0, 8.0)


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
                       workers: int = 1) -> SudakovReport:
    """Minoration harness: verify the separation claim from one pair-norm
    pass, estimate E sup, report the observed minoration constant E sup / u.
    Both draw `samples` samples from the stream's master seed."""
    if len(T) < 2:
        raise ValueError("minoration experiment needs at least two points")
    dm = metric_mod.distance_matrix(proc, T, p, samples, stream.master_seed)
    # argmin over the scaled values: scaling can merge two values into a tie
    vals = dm.values()
    k = int(np.argmin(vals))
    min_sep = float(vals[k])
    # d_p is 1-homogeneous, so the slack scales with u
    tol = (0.05 if dm.method == "monte_carlo" else 1e-9) * u
    separation_ok = min_sep >= u - tol
    worst_pair = None
    if not separation_ok:
        worst_pair = tuple(int(x) for x in metric_mod.pair_of(k, len(T)))
    esup = estimate_sup(proc, T, samples, stream, workers=workers)
    return SudakovReport(
        p=float(p), u=float(u),
        min_observed_separation=min_sep,
        separation_ok=separation_ok,
        worst_pair=worst_pair,
        # |T| >= e^p, in log space: e^p overflows a float from p = 710
        cardinality_ok=math.log(len(T)) >= p,
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
    out[:, 0::2] = np.repeat(pts, m, axis=0)
    out[:, 1::2] = np.tile(pts, (m, 1))
    return IndexSet(out)


@dataclass
class TwoSidedReport:
    gamma_upper_cert: float
    gamma_exact: Optional[float]
    esup: SupremumEstimate
    ratio_upper: float   # esup / gamma  (should stay below the policy constant)
    ratio_lower: float   # gamma / esup  (the reversibility constant)
    degenerate: bool
    certificate: PartitionTree


def two_sided_experiment(proc: ProcessSpec, T: IndexSet, samples: int,
                         stream: RngStream, mode: str = "greedy",
                         workers: int = 1) -> TwoSidedReport:
    """gamma_X certificate (exact when affordable) vs the MC E sup.

    In exact mode an affordable exact search gives both the value and the
    certificate tree."""
    exact_val = None
    affordable = len(T) <= gamma_mod.EXACT_LIMIT and metric_mod.is_exact_metric(proc, T)
    if affordable:
        exact_val, exact_tree = gamma_mod.compute_gamma(T, proc, "gammaX", mode="exact")
    if affordable and mode == "exact":
        cert_val, cert_tree = exact_val, exact_tree
    else:
        cert_val, cert_tree = gamma_mod.compute_gamma(
            T, proc, "gammaX", mode="greedy", samples=samples, seed=stream.master_seed)
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
    (E sup|X_t|^p)^(1/p) / (E sup|X_t| + sup_t ||X_t||_p), with both
    E sup terms from one pass on stream.child(1)."""
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be a finite number >= 1, got {p}")

    def sup_abs_and_power(hi, lo):
        a = np.maximum(hi, -lo)
        return np.stack([a, a ** p])

    child = stream.child(1)
    (weak_mean, strong_mean), (weak_err, strong_err) = estimate_mean(
        proc, T, samples, child, sup_abs_and_power, workers=workers)
    weak_sup = SupremumEstimate(weak_mean, weak_err, samples, child.master_seed,
                                child.stream_id, "sup_abs")
    norms = [increment_norm(proc, t, np.zeros(proc.dimension), p,
                            samples=samples, seed=stream.master_seed).value
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
        "C_obs": numerator / denominator if denominator != 0 else 0.0,
    }


def comparison_experiment(procX: ProcessSpec, procY: ProcessSpec, T: IndexSet,
                          p_grid: Sequence[float], samples: int, stream: RngStream,
                          workers: int = 1) -> dict:
    """Comparison harness: check increment domination on the grid, then
    report E sup ratios and empirical tail-domination curves.

    ||Y_s - Y_t||_p <= ||X_s - X_t||_p + errX + errY + 1e-9 dX, with
    3-sigma error bars, must hold for every pair s < t of T at each p, from
    one pair-norm pass per process and p; the first violating pair in
    (p, s, t) row-major order raises; an empty p_grid, which would check
    nothing, raises too.  At p = 2 both sides are the exact second
    moments, where any two standardized laws tie, so a tie cannot fail by
    Monte-Carlo noise.
    """
    if not len(p_grid):
        raise ValueError("comparison needs a nonempty p_grid")
    for p in p_grid:
        if p == 2:
            # exact for independent mean-zero coordinates, with no error bar:
            # ||sum a_i X_i||_2 is the euclidean norm of (a_i ||X_i||_2)_i
            lengths = (IndexSet(T.points * [model.moment(2) for model in proc.models])
                       .pair_lengths() for proc in (procX, procY))
            mx, my = (metric_mod.PairNorms(d, 1.0, np.broadcast_to(0.0, len(d)),
                                           "closed_form") for d in lengths)
        else:
            mx = metric_mod.distance_matrix(procX, T, p, samples, stream.master_seed)
            my = metric_mod.distance_matrix(procY, T, p, samples, stream.master_seed + 1)
        dx, err_x, dy, err_y = mx.values(), mx.errors, my.values(), my.errors
        # written so that a NaN on either side counts as a violation
        bad = np.flatnonzero(~(dy <= dx + (err_x + err_y + 1e-9 * dx)))
        if bad.size:
            k = bad[0]
            i, j = metric_mod.pair_of(k, len(T))
            raise ValueError(
                f"domination precondition fails at (s={i}, t={j}, p={p}): "
                f"||Y_s-Y_t||_p = {dy[k]} > ||X_s-X_t||_p = {dx[k]}")

    ex = estimate_sup(procX, T, samples, stream.child(0), workers=workers)
    ey = estimate_sup(procY, T, samples, stream.child(1), workers=workers)

    sx = sup_samples(procX, T, samples, stream.child(2))
    sy = sup_samples(procY, T, samples, stream.child(3))
    curves = []
    for q, u in zip(_TAIL_QUANTILES, _quantiles(sx, _TAIL_QUANTILES)):
        py = float(np.mean(sy >= u))
        for c in _TAIL_SCALES:
            px = float(np.mean(sx >= u / c))
            curves.append({"quantile": q, "u": u, "c": c,
                           "p_supY_ge_u": py, "p_supX_ge_u_over_c": px,
                           "ratio": py / px if px > 0 else math.inf})
    return {
        "domination_checked_pairs": len(p_grid) * len(dx),
        "esup_X": ex,
        "esup_Y": ey,
        "esup_ratio": ey.mean / ex.mean if ex.mean > 0 else math.inf,
        "tail_curves": curves,
    }


def _quantiles(x: np.ndarray, qs) -> list:
    """float(np.quantile(x, q)) for each q of `qs` (numpy's default
    "linear" method, x 1-d and nonempty) bit for bit, from one partition at
    every order statistic they read.  np.quantile partitions afresh on each
    call, and its np.unique imports numpy.ma.

    numpy interpolates between the order statistics a = x_(i) and b =
    x_(i + 1) at the virtual index v = (n - 1) q, i = floor(v), with
    weight g = v - i, as a + (b - a) g, or as b - (b - a) (1 - g) when
    g >= 0.5.  At v >= n - 1 both are the largest, i reads -1 and g = v + 1;
    a NaN in x gives NaN.  Only where 0.0 and -0.0 tie may the sign of a
    zero differ: which of them a partition leaves at a position is its
    selection's choice, np.quantile's own included.  The rule is numpy's
    private `_lerp`, checked against numpy 2.4.6; a release that changes
    it fails `test_tail_quantiles_are_numpys_bits`.
    """
    n = len(x)
    v = [(n - 1) * q for q in qs]
    low = [math.floor(u) if u < n - 1 else -1 for u in v]
    part = np.partition(x, sorted({n - 1, *(k for i in low if i >= 0 for k in (i, i + 1))}))
    if math.isnan(part[-1]):
        return [math.nan] * len(qs)
    out = []
    for u, i in zip(v, low):
        a = float(part[i])
        b = float(part[i + 1 if i >= 0 else -1])
        g = u - i
        out.append(b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g)
    return out


@dataclass
class HullDecomposition:
    chain_points: list          # records: level, k, vector, step_norm
    R: float
    max_residual: float
    max_norm_cap: float
    skipped_steps: int


def convex_hull_decomposition(T: IndexSet, tree: PartitionTree,
                              proc: ProcessSpec,
                              samples: int = metric_mod.MC_DEFAULT_SAMPLES,
                              seed: int = 0) -> HullDecomposition:
    """Chain decomposition of T - T into normalized increments.

    Representatives are the lowest-index point of each block.  Each block
    of level n >= 1 steps from its representative to its parent's, one
    chain point per block, normalized by the d_{2^(n+1)} length of the
    step; the telescoping sum must reconstruct s - t exactly and every
    normalized step must satisfy ||X_step||_{ln(k+2)} <= 1 under the level
    bookkeeping; each level reads d only at its steps that move.
    """
    tree.validate(len(T))
    pts = T.points
    m = len(T)
    # M_n = sum_{j<=n} N_j with N_0 = 1; chain points at level n occupy
    # indices M_{n-1} < k <= M_n
    caps = list(itertools.accumulate(gamma_mod.level_cap(n) for n in range(tree.depth)))

    chain_points = []
    step_sums = np.zeros(m)
    skipped = 0
    rep = np.zeros(m, dtype=int)  # representative of each point's block so far
    # s - t is rebuilt as the difference of two chains from the root
    # representative, each step added as vector * step_norm, so a wrong
    # vector or step norm shows in the residuals
    recon = np.repeat(pts[:1], m, axis=0)
    for n in range(1, tree.depth):
        steps = [[blk[0], rep[blk[0]]] for blk in tree.levels[n] if blk[0] != rep[blk[0]]]
        v = metric_mod.distance_matrix(proc, T, float(2 ** (n + 1)), samples, seed, steps)
        k = caps[n - 1]
        for block in tree.levels[n]:
            a = block[0]
            b = rep[a]
            rep[block] = a
            # a step to an equal point, or to itself, has length 0 and adds nothing
            d = v.block([a], b).item()
            if d == 0.0:
                skipped += len(block)
                continue
            k += 1
            vec = (pts[a] - pts[b]) / d
            cap = increment_norm(proc, vec, np.zeros(proc.dimension),
                                 math.log(k + 2), samples=samples,
                                 seed=seed).value
            chain_points.append({"level": n, "k": k, "vector": vec,
                                 "step_norm": d, "norm_cap": cap})
            step_sums[block] += d
            recon[block] += vec * d
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
