"""Increment metrics of canonical processes.

d_p(s, t) = ||sum_i (s_i - t_i) X_i||_p, computed exactly where the
coordinate laws allow (gaussian closed form, rademacher sign enumeration)
and by chunked Monte Carlo with a CLT error bound otherwise.  The Monte
Carlo kernel shares one stream of draws across all pairs of a point set
and reduces it in place, tile by tile, in one scratch buffer sized from a
fixed element budget; integer p is raised by repeated squaring and
multiplication, so p = 4 or 8 costs two or three multiplies per sample.
Also hosts the product-moment functional |||(a_i X_i)|||_r solved by
bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dist
from .dist import DistributionModel
from .streams import derived_stream

__all__ = [
    "ProcessSpec",
    "IndexSet",
    "IncrementNormResult",
    "increment_norm",
    "distance_matrix",
    "diameter",
    "latala_norm",
]

ENUMERATION_LIMIT = 20        # nonzero rademacher coords per enumerated increment
MC_DEFAULT_SAMPLES = 100_000
MC_MAX_P = 128.0
_MC_CHUNK = 20_000
_MC_TILE_ELEMS = 1 << 18      # elements of the pair-by-sample scratch buffer (2 MiB)


@dataclass(frozen=True)
class ProcessSpec:
    """A canonical process: one standardized model per coordinate."""

    models: tuple

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        if len(self.models) < 1:
            raise ValueError("process needs at least one coordinate")

    @property
    def dimension(self) -> int:
        return len(self.models)

    @classmethod
    def homogeneous(cls, model: DistributionModel, n: int) -> "ProcessSpec":
        return cls(models=tuple([model] * n))

    @property
    def family(self) -> Optional[str]:
        """Common family name if all coordinates share one, else None."""
        fams = {m.family for m in self.models}
        return fams.pop() if len(fams) == 1 else None

    def sample_matrix(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """(count, dimension) matrix of coordinate draws, column order fixed."""
        cols = [m.sample_with(rng, count) for m in self.models]
        return np.column_stack(cols)

    def descriptors(self) -> list:
        return [dist.model_descriptor(m) for m in self.models]


@dataclass(frozen=True)
class IndexSet:
    """Finite set of coefficient vectors in R^n."""

    points: np.ndarray
    labels: Optional[tuple] = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        object.__setattr__(self, "points", pts)
        if self.labels is not None and len(self.labels) != len(pts):
            raise ValueError("labels length must match point count")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @classmethod
    def basis(cls, n: int) -> "IndexSet":
        return cls(np.eye(n))

    @classmethod
    def with_origin(cls, points) -> "IndexSet":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return cls(np.vstack([np.zeros((1, pts.shape[1])), pts]))


@dataclass(frozen=True)
class IncrementNormResult:
    value: float
    error_bound: float
    method: str  # closed_form | enumeration | monte_carlo

    def __float__(self) -> float:
        return self.value


def _enumerate_signed_sums(coeffs: np.ndarray) -> np.ndarray:
    """All 2^k values of sum(c_i * sigma_i) over sign patterns."""
    vals = np.array([0.0])
    for c in coeffs:
        vals = np.concatenate([vals + c, vals - c])
    return vals


def _pair_diffs(pts: np.ndarray) -> np.ndarray:
    """pts[i] - pts[j] over the pairs i < j, row-major."""
    ii, jj = np.triu_indices(len(pts), 1)
    return pts[ii] - pts[jj]


def _method(proc: ProcessSpec, diffs: np.ndarray) -> str:
    """How the d_p norms of the increments `diffs` (one per row) are computed."""
    fam = proc.family
    if fam == "gaussian" or not np.any(diffs):
        return "closed_form"
    if fam == "rademacher" and np.count_nonzero(diffs, axis=1).max() <= ENUMERATION_LIMIT:
        return "enumeration"
    return "monte_carlo"


def _abs_power(d: np.ndarray, p: float, spare: Optional[np.ndarray]) -> np.ndarray:
    """|d| ** p, overwriting `d`; returns `d` or the view of `spare` holding it.

    Integer p >= 1 goes by repeated squaring, multiplying into `spare` the
    squares its binary digits pick (even p needs no abs); any other p by an
    in-place np.power.
    """
    if p != int(p) or p < 1:
        return np.power(np.abs(d, out=d), p, out=d)
    k = int(p)
    if k % 2:
        np.abs(d, out=d)
    acc = None
    while k > 1:
        if k % 2:
            if acc is None:
                acc = spare[:d.size].reshape(d.shape)
                np.copyto(acc, d)
            else:
                np.multiply(acc, d, out=acc)
        np.multiply(d, d, out=d)
        k //= 2
    return d if acc is None else np.multiply(acc, d, out=acc)


def _pair_norms(proc: ProcessSpec, pts: np.ndarray, p: float, samples: int,
                seed: int) -> tuple[np.ndarray, np.ndarray, str]:
    """d_p over the pairs i < j of `pts` in row-major order: values, 3-sigma
    errors and the method.

    Monte Carlo shares one sample pass across all pairs: each chunk of
    `_MC_CHUNK` draws from one derived stream is projected once onto the
    points and reduced one row of pairs at a time, so the sample buffers
    stay O(chunk * |pts|) whatever the pair count.  The reduction runs in
    place in one scratch buffer of (|pts| - 1) x tile, reused for every
    row, tile and chunk; the tile width is the fixed element budget
    `_MC_TILE_ELEMS` divided by |pts| - 1, capped at the chunk, so the
    buffer stays cache-sized and a two-point call makes one tile per chunk.
    |d|^p goes by `_abs_power` (integer p by multiplication) and the sum
    of |d|^(2p) by a row-wise dot product.  The draws do not depend on the
    tile; only the summation order does.
    """
    diffs = _pair_diffs(pts)
    method = _method(proc, diffs)
    if method == "closed_form":
        values = np.linalg.norm(diffs, axis=1) * dist.gaussian().moment(p)
        return values, np.zeros(len(diffs)), method
    if method == "enumeration":
        values = np.array([np.mean(np.abs(_enumerate_signed_sums(d[d != 0.0])) ** p)
                           ** (1.0 / p) for d in diffs])
        return values, np.zeros(len(diffs)), method
    if p > MC_MAX_P:
        raise ValueError(f"Monte-Carlo increment norms limited to p <= {MC_MAX_P}")
    rng = derived_stream(seed, "distance_matrix", diffs.tobytes(), p, samples).generator()
    k = len(pts) - 1
    # pairs (i, j > i) occupy rows[i]:rows[i + 1] of the row-major order
    rows = np.concatenate([[0], np.cumsum(np.arange(k, 0, -1))])
    total = np.zeros(len(diffs))
    total_sq = np.zeros(len(diffs))
    tile = max(1, min(_MC_CHUNK, samples, _MC_TILE_ELEMS // k))
    scratch = np.empty(k * tile)
    # an integer p that is not a power of two keeps a running product
    spare = np.empty_like(scratch) if p == int(p) and int(p) & (int(p) - 1) else None
    n = 0
    while n < samples:
        chunk = min(_MC_CHUNK, samples - n)
        v = pts @ proc.sample_matrix(rng, chunk).T      # (|pts|, chunk)
        for lo in range(0, chunk, tile):
            w = min(tile, chunk - lo)
            for i in range(k):
                d = scratch[:(k - i) * w].reshape(k - i, w)
                np.subtract(v[i + 1:, lo:lo + w], v[i, lo:lo + w], out=d)
                d = _abs_power(d, p, spare)
                total[rows[i]:rows[i + 1]] += d.sum(axis=1)
                total_sq[rows[i]:rows[i + 1]] += np.einsum("ij,ij->i", d, d)
        n += chunk
    mean = total / n
    stderr = np.sqrt(np.maximum(total_sq / n - mean * mean, 0.0) / n)
    # delta method on m -> m^(1/p)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(mean > 0, stderr / (p * mean ** (1.0 - 1.0 / p)), stderr)
    return mean ** (1.0 / p), 3.0 * err, method


def increment_norm(proc: ProcessSpec, s, t, p: float,
                   samples: int = MC_DEFAULT_SAMPLES, seed: int = 0) -> IncrementNormResult:
    """||X_s - X_t||_p; equals distance_matrix over {s, t} at (samples, seed)."""
    if p < 1:
        raise ValueError("increment norm requires p >= 1")
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if s.shape != (proc.dimension,) or t.shape != (proc.dimension,):
        raise ValueError("index vectors must match the process dimension")
    values, errors, method = _pair_norms(proc, np.stack([s, t]), p, samples, seed)
    return IncrementNormResult(float(values[0]), float(errors[0]), method)


def is_exact_metric(proc: ProcessSpec, T: IndexSet) -> bool:
    """Whether the d_p distances over T avoid Monte-Carlo noise."""
    return _method(proc, _pair_diffs(T.points)) != "monte_carlo"


def distance_matrix(proc: ProcessSpec, T: IndexSet, p: float,
                    samples: int = MC_DEFAULT_SAMPLES, seed: int = 0) -> np.ndarray:
    """Symmetric matrix of pairwise d_p distances over T.

    Monte-Carlo processes share one sample pass across all pairs, which
    keeps the matrix symmetric and the run deterministic.
    """
    m = len(T)
    out = np.zeros((m, m))
    ii, jj = np.triu_indices(m, 1)
    out[ii, jj] = out[jj, ii] = _pair_norms(proc, T.points, p, samples, seed)[0]
    return out


def diameter(T: IndexSet, proc: ProcessSpec, p: float,
             samples: int = MC_DEFAULT_SAMPLES, seed: int = 0) -> float:
    """Delta_p(T): maximal pairwise d_p distance; 0 for singletons."""
    if len(T) == 0:
        raise ValueError("diameter of an empty index set is undefined")
    if len(T) == 1:
        return 0.0
    return float(distance_matrix(proc, T, p, samples=samples, seed=seed).max())


def latala_norm(coeffs, proc: ProcessSpec, r: int,
                rel_tol: float = 1e-10) -> float:
    """|||(a_i X_i)|||_r = inf{u > 0 : prod_i E|1 + a_i X_i / u|^r <= e^r}.

    For symmetric coordinates and even r the product expands into even
    moments and is strictly decreasing in u, so the threshold is a unique
    root found by bisection.
    """
    r = int(r)
    if r < 2 or r % 2 != 0:
        raise ValueError("the product-moment functional requires even r >= 2")
    a = np.asarray(coeffs, dtype=float)
    if a.shape != (proc.dimension,):
        raise ValueError("coefficient vector must match the process dimension")
    if not np.any(a):
        return 0.0
    half = r // 2
    binoms = [math.comb(r, 2 * k) for k in range(half + 1)]
    tables = []
    for ai, model in zip(a, proc.models):
        if ai != 0.0:
            tables.append((ai, [model.even_moment(k) for k in range(half + 1)]))

    def log_product(u: float) -> float:
        total = 0.0
        for ai, moms in tables:
            z = (ai / u) ** 2
            # Horner evaluation of sum_{k>=1} binom(r,2k) E X^(2k) z^k
            s = 0.0
            for k in range(half, 0, -1):
                s = s * z + binoms[k] * moms[k]
            total += math.log1p(s * z)
        return total

    target = float(r)
    lo, hi = None, None
    u = 1.0
    for _ in range(200):
        if log_product(u) > target:
            lo = u
            if hi is not None:
                break
            u *= 2.0
        else:
            hi = u
            if lo is not None:
                break
            u /= 2.0
    if lo is None or hi is None:
        raise RuntimeError("failed to bracket the product-moment root")
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if log_product(mid) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
