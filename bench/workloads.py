"""Workload definitions: fixed lists of `chainsup` experiment configs.

Every index-set and sampling seed is derived from the workload seed, so
the same seed gives the same configs.  The seed selects one of
`VARIANTS` input variants (``seed % VARIANTS``); each variant has its own
committed reference in ``bench/reference/<workload>.json`` (written by
``python3 bench/make_reference.py``).  Each config carries a kind:
``exact`` configs are closed-form, enumeration or quadrature results that
must match their reference to 1e-12; ``mc`` configs carry Monte-Carlo
noise and are checked within their error bars (see refcheck.py).

This module imports nothing from chainsup, so building configs costs the
same at every commit.
"""

from __future__ import annotations

VARIANTS = 16


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _sphere(count: int, n: int, seed: int) -> dict:
    return {"type": "sphere_random", "count": count, "n": n, "seed": seed}


def _mc_certify(base: int) -> list:
    # Monte-Carlo metric path: shared-sample distance matrices dominate.
    sym_exp = {"family": "sym_exponential"}
    return [
        ("gamma-greedy-symexp-32x16", "mc", {
            "experiment": "gamma", "process": sym_exp,
            "index_set": _sphere(32, 16, base + 1),
            "params": {"mode": "greedy", "samples": 100_000, "seed": base + 1}}),
        ("two-sided-threepoint-24x12", "mc", {
            "experiment": "two-sided", "process": {"family": "three_point", "a": 3.0},
            "index_set": _sphere(24, 12, base + 2),
            "params": {"samples": 100_000, "seed": base + 2}}),
        ("sudakov-symexp-packing-2-12", "mc", {
            "experiment": "sudakov", "process": sym_exp,
            "index_set": {"type": "packing", "m": 2, "n": 12},
            "params": {"p": 4.0, "u": 1.56, "samples": 100_000, "seed": base + 3}}),
        # p = 2 is left out: every pair of standardized laws ties there, and
        # compare checks the tie one-sidedly against Monte-Carlo noise, so
        # it fails at random (one of the first nine variants did).
        ("compare-symexp-gaussian-8x6", "mc", {
            "experiment": "compare", "process": sym_exp,
            "process_y": {"family": "gaussian"},
            "index_set": _sphere(8, 6, base + 4),
            "params": {"p_grid": [3.0, 4.0], "samples": 100_000, "seed": base + 4}}),
        ("hull-greedy-symexp-16x8", "mc", {
            "experiment": "hull", "process": sym_exp,
            "index_set": _sphere(16, 8, base + 5),
            "params": {"mode": "greedy", "samples": 100_000, "seed": base + 5}}),
    ]


def _sampling_sup(base: int) -> list:
    # Sampling and projection path: the metric layer does almost no work.
    return [
        ("supremum-rademacher-basis-257", "mc", {
            "experiment": "supremum", "process": {"family": "rademacher"},
            "index_set": {"type": "basis", "n": 257},
            "params": {"samples": 400_000, "seed": base + 1}}),
        ("weak-strong-gaussian-basis-16", "mc", {
            "experiment": "weak-strong", "process": {"family": "gaussian"},
            "index_set": {"type": "basis", "n": 16},
            "params": {"p": 4.0, "samples": 1_000_000, "seed": base + 2}}),
        ("supremum-supabs-weibull-64x32", "mc", {
            "experiment": "supremum", "process": {"family": "sym_weibull", "shape": 1.5},
            "index_set": _sphere(64, 32, base + 3),
            "params": {"target": "sup_abs", "samples": 1_000_000, "seed": base + 3}}),
    ]


def _exact_search(base: int) -> list:
    # Search on exact metrics: partition enumeration and closed-form matrices.
    gauss = {"family": "gaussian"}
    return [
        ("gamma-exact-gammaX-gaussian-10", "exact", {
            "experiment": "gamma", "process": gauss, "index_set": _sphere(10, 6, base + 1),
            "params": {"mode": "exact", "functional": "gammaX"}}),
        ("gamma-exact-gamma2-gaussian-10", "exact", {
            "experiment": "gamma", "process": gauss, "index_set": _sphere(10, 6, base + 2),
            "params": {"mode": "exact", "functional": "gamma2"}}),
        ("gamma-exact-gammaX-rademacher-10", "exact", {
            "experiment": "gamma", "process": {"family": "rademacher"},
            "index_set": _sphere(10, 8, base + 3),
            "params": {"mode": "exact", "functional": "gammaX"}}),
        ("hull-exact-gaussian-10", "exact", {
            "experiment": "hull", "process": gauss, "index_set": _sphere(10, 6, base + 4),
            "params": {"mode": "exact"}}),
        ("gamma-greedy-gaussian-1200x16", "exact", {
            "experiment": "gamma", "process": gauss,
            "index_set": _sphere(1200, 16, base + 5),
            "params": {"mode": "greedy"}}),
        ("tails-weibull-alpha1", "exact", {
            "experiment": "tails", "process": {"family": "sym_weibull", "shape": 1.5},
            "index_set": {"type": "basis", "n": 1}, "params": {"alpha": 1.0}}),
        ("tails-weibull-alpha2", "exact", {
            "experiment": "tails", "process": {"family": "sym_weibull", "shape": 1.5},
            "index_set": {"type": "basis", "n": 1}, "params": {"alpha": 2.0}}),
    ]


_BUILDERS = {
    "mc-certify": _mc_certify,
    "sampling-sup": _sampling_sup,
    "exact-search": _exact_search,
}

WORKLOADS = tuple(_BUILDERS)

# Wrapped functions (span names, see tracer.py) that each workload must
# reach; a traced run in which one of them never fires is not correct,
# so a missed binding cannot silently zero a layer.
EXPECTED_SPANS = {
    "mc-certify": (
        "cli.run", "cli.write_report",
        "verify.sudakov_experiment", "verify.two_sided_experiment",
        "verify.comparison_experiment", "verify.convex_hull_decomposition",
        "gamma.compute_gamma.greedy", "gamma.evaluate_certificate",
        "metric.distance_matrix", "metric.increment_norm",
        "metric.ProcessSpec.sample_matrix", "dist.sample_with",
        "stochlab.estimate_sup"),
    "sampling-sup": (
        "cli.run", "cli.write_report", "verify.weak_strong_experiment",
        "metric.increment_norm", "metric.ProcessSpec.sample_matrix",
        "dist.sample_with", "stochlab.estimate_sup", "stochlab.estimate_mean"),
    "exact-search": (
        "cli.run", "cli.write_report", "verify.convex_hull_decomposition",
        "gamma.compute_gamma.exact", "gamma.compute_gamma.greedy",
        "gamma.evaluate_certificate", "metric.distance_matrix",
        "metric.increment_norm", "tailkit.log_concave_envelope",
        "tailkit.regularity_constants"),
}


def build(workload: str, seed: int) -> list:
    """[(label, kind, config)] for `workload` under workload seed `seed`."""
    return _BUILDERS[workload](1000 * (variant_of(seed) + 1))
