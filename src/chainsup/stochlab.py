"""Sampling-based estimators and probabilistic-inequality harnesses.

Estimates E sup of canonical-process increments, gives exact
order-statistic means, and checks the Paley-Zygmund, contraction and
symmetrization facts.  All estimators draw from an RngStream in fixed
chunk order, so a (master seed, stream id) pair reproduces results bitwise.

Every sup target is a function of the per-row max and min of the
process values over T, so a chunk is reduced straight to those two
vectors and no (chunk x |T|) matrix of process values exists.  A
coordinate selection (every point of T has at most one nonzero
coefficient, as the basis) builds no draw matrix at all: each coordinate
is drawn into one chunk-length buffer and folded into the running max
and min, so memory is O(chunk) whatever the dimension and |T|.  Any other
set draws and projects through `ProcessSpec.projected_tiles`, as the pair
norms do: one (chunk x dimension) draw matrix, projected onto T into one
reused buffer of `metric.TILE_ELEMS` values, so memory stays flat in |T|.
Both paths draw the same bits in the same order (see `_tiled_draw`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import dist, metric
from .dist import DistributionModel
from .metric import TILE_ELEMS, IndexSet, ProcessSpec
from .streams import RngStream

__all__ = [
    "SupremumEstimate",
    "RngStream",
    "estimate_sup",
    "sup_samples",
    "order_stat_means",
    "paley_zygmund_check",
    "contraction_check",
    "symmetrization_check",
]

_CHUNK = 65_536

# per-row sup targets from the row max `hi` and row min `lo` of the
# process values over T
_REDUCERS = {
    "sup_increments": lambda hi, lo: hi - lo,
    "sup_abs": lambda hi, lo: np.maximum(hi, -lo),
    "max_only": lambda hi, lo: hi,
}
TARGETS = tuple(_REDUCERS)


@dataclass(frozen=True)
class SupremumEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int
    stream_id: int
    target: str

    def within(self, value: float, n_sigma: float = 3.0) -> bool:
        return abs(self.mean - value) <= n_sigma * max(self.stderr, 1e-15)


def _accumulate(stream: RngStream, samples: int, draw_chunk, workers: int = 1):
    """Chunked mean/stderr accumulation: (mean, stderr).

    `draw_chunk(rng, rows)` returns one value per row, or a C-ordered
    (k, rows) array for k means of the same draws; sums run along the
    last axis, so each row is summed pairwise, bit for bit like a lone
    vector.  Each chunk draws from its own child stream and partial sums
    are merged in chunk order, so the result is bitwise identical for
    any worker count; workers > 1 only parallelizes the chunk work.
    """
    sizes = [min(_CHUNK, samples - i * _CHUNK)
             for i in range((samples + _CHUNK - 1) // _CHUNK)]

    def work(i: int):
        vals = draw_chunk(stream.child(i + 1).generator(), sizes[i])
        return vals.sum(axis=-1), (vals * vals).sum(axis=-1)

    if workers <= 1:
        parts = [work(i) for i in range(len(sizes))]
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(work, range(len(sizes))))
    total = 0.0
    total_sq = 0.0
    for s, s2 in parts:
        total += s
        total_sq += s2
    mean = total / samples
    var = np.maximum(total_sq / samples - mean * mean, 0.0)
    return mean, np.sqrt(var / samples)


def _selection(pts: np.ndarray):
    """(cols, coef) when row r of pts is coef[r] * e_cols[r], else None.

    Every row must have at most one nonzero entry; an all-zero row gets
    column 0 and coefficient 0.
    """
    nonzero = pts != 0
    if np.any(nonzero.sum(axis=1) > 1):
        return None
    cols = nonzero.argmax(axis=1)
    return cols, pts[np.arange(len(pts)), cols]


def _tiled_draw(proc: ProcessSpec, pts: np.ndarray, reduce):
    """`draw_chunk(rng, rows)` giving reduce(hi, lo) for draws x, where hi
    and lo are the column max and column min of pts @ x.T, bit for bit.

    When pts is a coordinate selection (`_selection`), no draw matrix is
    built: coordinate j is drawn into one (rows,) buffer by the same
    `sample_with` call, in the same order, that `sample_matrix` makes, so
    the bits are the same, and unused coordinates are drawn too.  The
    buffer times the smallest and the largest coefficient on column j is
    folded into hi and lo in place.  Rounded multiplication is monotone
    in the coefficient, so those two products hold the max and the min
    over every point that selects column j.  A final `+ 0.0` turns a -0.0
    extreme (say a zero draw times a negative coefficient) into +0.0, as
    the matmul's +0 accumulator does.

    Any other pts is projected by `ProcessSpec.projected_tiles` in tiles
    of `TILE_ELEMS // |pts|` samples (at least one), each reduced to its
    column max and min before the next overwrites it; the draws do not
    depend on the tile.
    """
    selection = _selection(pts)
    if selection is None:
        tile = max(1, TILE_ELEMS // len(pts))

        def extremes(rng, rows):
            for a, v in proc.projected_tiles(rng, rows, pts, tile):
                if a == 0:  # after the draw matrix: 0.4 MB less peak RSS than before it
                    hi, lo = np.empty(rows), np.empty(rows)
                v.max(axis=0, out=hi[a:a + v.shape[1]])
                v.min(axis=0, out=lo[a:a + v.shape[1]])
            return hi, lo
    else:
        cols, coef = selection
        cmin = np.full(proc.dimension, np.inf)
        cmax = np.full(proc.dimension, -np.inf)
        np.minimum.at(cmin, cols, coef)
        np.maximum.at(cmax, cols, coef)
        # per coordinate, its distinct extreme coefficients; () if unused
        scales = [() if a > b else (a,) if a == b else (a, b)
                  for a, b in zip(cmin.tolist(), cmax.tolist())]

        def extremes(rng, rows):
            hi = np.full(rows, -np.inf)
            lo = np.full(rows, np.inf)
            buf, prod = np.empty(rows), None  # prod is allocated on first use
            for m, cs in zip(proc.models, scales):
                m.sample_with(rng, rows, out=buf)
                for c in cs:
                    if c == 1.0:
                        v = buf
                    else:
                        v = prod = np.multiply(buf, c, out=prod)
                    np.maximum(hi, v, out=hi)
                    np.minimum(lo, v, out=lo)
            hi += 0.0
            lo += 0.0
            return hi, lo

    def draw(rng, rows):
        return reduce(*extremes(rng, rows))

    return draw


def _check_inputs(proc: ProcessSpec, T: IndexSet, samples: int) -> None:
    if len(T) == 0:
        raise ValueError("index set is empty")
    if samples < 100:
        raise ValueError("at least 100 samples required")
    if T.dimension != proc.dimension:
        raise ValueError("index set dimension does not match the process")


def estimate_sup(proc: ProcessSpec, T: IndexSet, samples: int,
                 stream: RngStream, target: str = "sup_increments",
                 workers: int = 1) -> SupremumEstimate:
    """Monte-Carlo estimate of E sup_{s,t in T}(X_s - X_t) (or variants).

    `target` picks sup_{s,t}(X_s - X_t), sup_t |X_t| or sup_t X_t.  Each
    chunk of draws is reduced to the row max and min over T
    (`_tiled_draw`): memory is O(chunk) on a coordinate selection and
    O(chunk * dimension) otherwise, whatever |T|.
    """
    _check_inputs(proc, T, samples)
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if len(T) == 1 and target == "sup_increments":
        return SupremumEstimate(0.0, 0.0, samples, stream.master_seed,
                                stream.stream_id, target)
    draw = _tiled_draw(proc, T.points, _REDUCERS[target])
    mean, stderr = _accumulate(stream, samples, draw, workers=workers)
    return SupremumEstimate(float(mean), float(stderr), samples, stream.master_seed,
                            stream.stream_id, target)


def sup_samples(proc: ProcessSpec, T: IndexSet, samples: int,
                stream: RngStream) -> np.ndarray:
    """The `samples` draws of sup_{s,t in T}(X_s - X_t), one per row, for
    empirical tail curves: chunks of `_CHUNK` rows drawn one after another
    from the one generator of `stream`, each reduced as in `estimate_sup`.
    """
    _check_inputs(proc, T, samples)
    rng = stream.generator()
    draw = _tiled_draw(proc, T.points, _REDUCERS["sup_increments"])
    return np.concatenate([draw(rng, min(_CHUNK, samples - n))
                           for n in range(0, samples, _CHUNK)])


def estimate_mean(proc: ProcessSpec, T: IndexSet, samples: int, stream: RngStream,
                  transform, workers: int = 1) -> tuple[float, float]:
    """Mean and stderr of transform(hi, lo) per sample row.

    `transform` maps the (rows,) vectors of the row max `hi` and row min
    `lo` of the process values over T to one number per row, such as
    np.maximum(hi, -lo) ** p for sup_t |X_t|^p, or to a (k, rows) array
    of k functionals, whose k means and stderrs (two lists) read one set
    of draws, each bit for bit a one-functional call on the same stream.
    """
    _check_inputs(proc, T, samples)
    draw = _tiled_draw(proc, T.points, transform)
    mean, stderr = _accumulate(stream, samples, draw, workers=workers)
    return mean.tolist(), stderr.tolist()


def order_stat_means(model: DistributionModel, n: int, ks: Sequence[int],
                     qs: Sequence[float] = (2.0,)) -> list:
    """Exact means of the k-th largest |X_i| among n i.i.d. draws, with the
    bound values 2 (n/k)^(1/q) ||X||_q for each q, one record per k.

    E|X|_(k) = int_0^support I_{e^-N(t)}(k, n - k + 1) dt, the regularized
    incomplete beta being P(Bin(n, e^-N(t)) >= k) (David and Nagaraja 2003).
    """
    from scipy import integrate, special  # on first use, off the package's import

    ks = [int(k) for k in ks]
    for k in ks:
        if not 1 <= k <= n:
            raise ValueError(f"order statistic k={k} out of range 1..{n}")

    def mean(k: int) -> float:
        return integrate.quad(
            lambda t: special.betainc(k, n - k + 1, np.exp(-model.tail_value(t))),
            0.0, model.support_bound, epsabs=0.0, epsrel=1e-12, limit=200)[0]

    return [{
        "k": k,
        "mean": mean(k),
        "bounds": {q: 2.0 * (n / k) ** (1.0 / q) * model.moment(q) for q in qs},
    } for k in ks]


def paley_zygmund_check(values=None, probs=None, samples=None,
                        lam: float = 0.5) -> dict:
    """P(S >= lam E S) >= (1-lam)^2 (E S)^2 / E S^2 for S >= 0.

    Give either a finite discrete law (values, probs) for an exact check
    or a sample array for an empirical one.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    if values is not None:
        vals = np.asarray(values, dtype=float)
        if np.any(vals < 0):
            raise ValueError("S must be nonnegative")
        if probs is None:
            probs = np.full(len(vals), 1.0 / len(vals))
        probs = np.asarray(probs, dtype=float)
        es = float(np.sum(vals * probs))
        es2 = float(np.sum(vals * vals * probs))
        lhs = float(np.sum(probs[vals >= lam * es - 1e-15]))
        exact = True
    elif samples is not None:
        s = np.asarray(samples, dtype=float)
        if np.any(s < 0):
            raise ValueError("S must be nonnegative")
        es = float(s.mean())
        es2 = float((s * s).mean())
        lhs = float(np.mean(s >= lam * es))
        exact = False
    else:
        raise ValueError("provide a discrete law or samples")
    rhs = (1.0 - lam) ** 2 * es * es / es2 if es2 > 0 else 0.0
    return {"lhs": lhs, "rhs": rhs, "passed": lhs >= rhs - (0.0 if exact else 1e-12),
            "lambda": lam, "exact": exact}


def contraction_check(a, b, p: float, T: Optional[IndexSet] = None,
                      samples: int = metric.MC_DEFAULT_SAMPLES,
                      stream: Optional[RngStream] = None) -> dict:
    """||sum a_i eps_i||_p <= ||sum b_i eps_i||_p for |a_i| <= |b_i|,
    plus the E sup comparison over T when given.  Monte-Carlo norms and
    E sup estimates draw `samples` samples from `stream` (default seed 0).

    Both norms come from one pair-norm pass over {0, a, b}, and both E sup
    estimates from one child stream, so each comparison reads one set of
    draws and its noise is that of a difference, not of two independent
    estimates."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("coefficient vectors must share a shape")
    if np.any(np.abs(a) > np.abs(b) + 1e-12):
        raise ValueError("contraction requires |a_i| <= |b_i| coordinatewise")
    n = len(a)
    proc = ProcessSpec.homogeneous(dist.rademacher(), n)
    if stream is None:
        stream = RngStream(0, 0)
    # pairs (0, a), (0, b), (a, b) in row-major order
    d = metric.distance_matrix(proc, IndexSet(np.stack([np.zeros(n), a, b])), p,
                               samples, stream.master_seed)
    (na, nb, _), (err_a, err_b, _) = d.values(), d.errors
    # within both 3-sigma bars, as `compare` does; exact norms have zero bars
    out = {"norm_a": float(na), "norm_b": float(nb),
           "passed": bool(na <= nb + err_a + err_b + 1e-12)}
    if T is not None:
        child = stream.child(0)
        ea = estimate_sup(proc, IndexSet(T.points * a), samples, child, target="max_only")
        eb = estimate_sup(proc, IndexSet(T.points * b), samples, child, target="max_only")
        slack = 3.0 * (ea.stderr + eb.stderr)
        out["esup_a"] = ea
        out["esup_b"] = eb
        out["passed"] = out["passed"] and ea.mean <= eb.mean + slack
    return out


def symmetrization_check(proc: ProcessSpec, T: IndexSet, p: float,
                         samples: int, stream: RngStream) -> dict:
    """Factor-2 moment bracket and E sup comparisons between X_t and its
    independently sign-randomized version."""
    signs = dist.rademacher()
    # one symmetrized model per distinct base model object, so coordinates
    # that share a model still share one, and a homogeneous process stays so
    sym_of = {}
    for base in proc.models:
        if id(base) in sym_of:
            continue

        def sampler(rng, out, base=base):
            base.sample_with(rng, len(out), out=out)
            out *= signs.sample_with(rng, len(out))

        sym_of[id(base)] = DistributionModel(
            base.family + "_symmetrized", base.params,
            moment_fn=base.moment, tail_fn=base.tail.evaluator,
            sampler=sampler, support_bound=base.support_bound)
    sproc = ProcessSpec(models=tuple(sym_of[id(base)] for base in proc.models))

    # moment bracket at p over all pairs of T with a nonzero increment, one
    # pair-norm pass per process
    mx = metric.distance_matrix(proc, T, p, samples, stream.master_seed)
    ms = metric.distance_matrix(sproc, T, p, samples, stream.master_seed + 1)
    dx, err_x, dxs, err_s = mx.values(), mx.errors, ms.values(), ms.errors
    keep = dx != 0  # a NaN distance stays in, and fails the bracket
    dx, dxs, err = dx[keep], dxs[keep], (err_s + err_x)[keep]
    bracket_ok = bool(np.all((0.5 * dx - err <= dxs) & (dxs <= 2.0 * dx + err)))

    e_x = estimate_sup(proc, T, samples, stream.child(0))
    # sup (X_s - X_t) and sup X_t of the symmetrized process from one pass
    child = stream.child(1)
    means, errs = estimate_mean(sproc, T, samples, child,
                                lambda hi, lo: np.stack([hi - lo, hi]))
    e_sym, e_sym_max = (SupremumEstimate(m, e, samples, child.master_seed,
                                         child.stream_id, target)
                        for m, e, target in zip(means, errs, ("sup_increments", "max_only")))
    slack = 3.0 * (e_x.stderr + e_sym.stderr + e_sym_max.stderr)
    esup_ok = (0.5 * e_x.mean - slack <= e_sym.mean <= 2.0 * e_x.mean + slack)
    identity_ok = abs(e_sym.mean - 2.0 * e_sym_max.mean) <= 3.0 * (
        e_sym.stderr + 2.0 * e_sym_max.stderr)
    return {
        "moment_bracket_ok": bracket_ok,
        "esup_bracket_ok": esup_ok,
        "esup_identity_ok": identity_ok,
        "passed": bracket_ok and esup_ok and identity_ok,
        "esup_base": e_x,
        "esup_sym": e_sym,
        "esup_sym_max": e_sym_max,
    }
