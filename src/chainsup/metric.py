"""Increment metrics of canonical processes.

d_p(s, t) = ||sum_i (s_i - t_i) X_i||_p, computed exactly where the
coordinate laws allow (gaussian closed form, rademacher sign enumeration
over half the sign patterns of the increment scaled by sum_i |s_i - t_i|,
and for all-`sym_exponential` (Laplace) coordinates at 1 <= p < 4, p != 2,
quadrature of the characteristic function to 1e-13 relative, in `laplace`)
and by chunked Monte Carlo with a CLT error bound otherwise.
The gaussian closed form is ||g||_p |s - t|_2, so every p scales one
vector of Euclidean pair lengths that an IndexSet computes once, row by
row.  Every other pair-norm vector is kept on the IndexSet per (process,
p, samples, seed), and a pass reduces only the pairs its caller asks for;
enumeration and quadrature draw nothing, carry error 0 and read their
differences a tile at a time; Monte Carlo builds them all.  The Monte
Carlo kernel shares one stream of draws across all pairs of a point set,
projects it onto the points one tile of samples at a time and reduces
each tile in place in one scratch buffer sized from a fixed element
budget; integer p is raised by repeated squaring and multiplication, so
p = 4 or 8 costs two or three multiplies per sample.  Every coordinate
law is symmetric and the coordinates independent, so d_p(s, t) depends
only on |s - t|, and only on its sorted entries when every coordinate
holds one model object; the kernel reduces each such increment pattern
once, at its lowest pair, and every pair of the pattern reads that value
and error.
`distance_matrix` is the one entry point to every backend: it returns a
read-only `PairNorms` view of the condensed pair vector, scipy's pdist
layout (pairs i < j, row-major), as a kept base vector times a scale,
with its 3-sigma errors and the method, and `increment_norm` is its
two-point case.  `pair_index` and its inverse `pair_of` map a pair to
its position and back; the view reads blocks of the square, a tile at
a time, and block diameters, so no |T| x |T| square is built.
Also hosts the product-moment functional |||(a_i X_i)|||_r, solved for
a / max|a_i| by bisection between two proved ends and scaled back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import dist
from .dist import DistributionModel
from .streams import derived_stream

__all__ = [
    "ProcessSpec",
    "IndexSet",
    "IncrementNormResult",
    "PairNorms",
    "increment_norm",
    "distance_matrix",
    "latala_norm",
]

ENUMERATION_LIMIT = 20        # nonzero rademacher coords per enumerated increment
MC_DEFAULT_SAMPLES = 100_000
MC_MAX_P = 128.0
_MC_CHUNK = 20_000
# elements of one tile (2 MiB): the pair-by-sample scratch buffer of a
# Monte-Carlo pass, the pair differences an exact pass reads at a time, a
# block of pair norms read through `PairNorms.tiles`, a pair-by-node
# buffer of a quadrature pass, and a tile of projected values in stochlab
TILE_ELEMS = 1 << 18
_PASS_MAX_BYTES = 2 << 30     # estimated bytes one enumerated, quadrature or Monte-Carlo pass may take


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
        """(count, dimension) matrix of coordinate draws, column order fixed.

        Column j is one `sample_with(rng, count)` call of coordinate j, in
        order, drawn in place into a Fortran-ordered buffer, where each
        column is contiguous; a row slice of it is still a BLAS operand.
        """
        out = np.empty((count, self.dimension), order="F")
        for j, m in enumerate(self.models):
            m.sample_with(rng, count, out=out[:, j])
        return out

    def projected_tiles(self, rng: np.random.Generator, count: int, pts: np.ndarray,
                        tile: int):
        """Draw `count` samples x by `sample_matrix`, then yield (lo, v) with
        v = (pts @ x.T)[:, lo:lo + w], the process X_t = <t, x> over the rows
        t of `pts`, for tiles of w <= `tile` samples in order.  Each v is a
        view of one |pts| x tile buffer that the next tile overwrites; the
        draws, and so the generator's final state, do not depend on the tile.
        """
        x = self.sample_matrix(rng, count)
        buf = np.empty((len(pts), min(tile, count)))
        for lo in range(0, count, tile):
            w = min(tile, count - lo)
            yield lo, np.matmul(pts, x[lo:lo + w].T, out=buf[:, :w])

    def descriptors(self) -> list:
        return [dist.model_descriptor(m) for m in self.models]


@dataclass(frozen=True)
class IndexSet:
    """Finite set of coefficient vectors in R^n.

    Holds a read-only copy of the points it is given, so the pair lengths
    and pair norms cached on first use cannot go stale and the caller's
    array stays writable.  A NaN or infinite coordinate raises.
    """

    points: np.ndarray
    _lengths: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                           compare=False)
    # (proc, p, samples, seed) -> (values and errors, NaN where unreduced; their view)
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.atleast_2d(np.array(self.points, dtype=float))
        if not np.isfinite(pts).all():
            raise ValueError("index set points must be finite, not NaN or infinite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    def pair_lengths(self) -> np.ndarray:
        """Read-only |t_i - t_j|_2 over the pairs i < j, row-major.

        Computed once, one row of pairs at a time, so no (pairs x dim)
        array is built; each row's norms are the bytes that
        np.linalg.norm(_pair_diffs(points), axis=1) gives for it.
        """
        if self._lengths is None:
            pts = self.points
            m = len(pts)
            out = np.empty(m * (m - 1) // 2)
            lo = 0
            for i in range(m - 1):
                hi = lo + m - 1 - i
                out[lo:hi] = np.linalg.norm(pts[i] - pts[i + 1:], axis=1)
                lo = hi
            out.flags.writeable = False
            object.__setattr__(self, "_lengths", out)
        return self._lengths

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
    method: str  # closed_form | enumeration | quadrature | monte_carlo


@dataclass(frozen=True)
class PairNorms:
    """d_p over the pairs i < j of an index set, row-major (scipy's pdist
    layout), read as the read-only `base` vector times `scale`, with the
    read-only 3-sigma `errors` and the `method`.

    Blocks of the square, tile by tile, and block diameters are read
    here, through `pair_index`.  The point count follows from the pair
    count, since an index set is never empty.  Gathering and scaling by a
    float commute bit for bit, and rounding is monotone, so every read
    gathers base entries and scales only those, and `max` reads the scaled
    vector without building it.
    An enumerated, quadrature or Monte-Carlo view is NaN at the pairs no
    request has reduced, which `block`, `max` and `values` raise
    LookupError at.
    """

    base: np.ndarray
    scale: float
    errors: np.ndarray
    method: str  # closed_form | enumeration | quadrature | monte_carlo

    def n_points(self) -> int:
        """m, from the m (m - 1) / 2 pairs."""
        return (1 + math.isqrt(1 + 8 * len(self.base))) // 2

    def block(self, rows, cols) -> np.ndarray:
        """squareform(values())[np.ix_(rows, cols)] for a 1-d `rows` and
        an integer or 1-d `cols`, with no square built: the same values in
        the same layout, and +0.0 where a row meets its own column."""
        rows = np.asarray(rows)[:, None]
        k = pair_index(rows, cols, self.n_points())
        self._check(k[rows != cols] if self.method != "closed_form" else [])
        out = self.base[k]
        out *= self.scale
        out[rows == cols] = 0.0
        return out

    def _check(self, k=slice(None)) -> None:
        if self.method != "closed_form" and np.isnan(self.errors[k]).any():
            raise LookupError(f"{self.method} pair norms read at a pair no request reduced")

    def tiles(self, rows, cols):
        """block(rows, cols) as consecutive tiles of rows, each holding at
        most `TILE_ELEMS` entries (at least one row)."""
        rows = np.asarray(rows)
        step = max(1, TILE_ELEMS // len(cols))
        for lo in range(0, len(rows), step):
            yield self.block(rows[lo:lo + step], cols)

    def diameter(self, block) -> float:
        """max over block x block, diagonal included.

        A block of all of T is max() when that is positive, since the
        +0.0 diagonal then decides neither the max nor its sign of zero.
        Any other block is read tile by tile, and each tile holds what the
        m x m matrix would, so the float is bit for bit that matrix's
        block max.
        """
        if len(block) == 1:
            return 0.0
        if len(block) == self.n_points():
            top = float(self.max())
            if top > 0.0:
                return top
        block = np.asarray(block)
        return float(np.max([t.max() for t in self.tiles(block, block)]))

    def max(self) -> float:
        """The max of values(), taken before scaling."""
        self._check()
        return self.base.max() * self.scale

    def values(self) -> np.ndarray:
        """A fresh base * scale, which the caller may write into."""
        self._check()
        return self.base * self.scale


def _enumerate_signed_sums(coeffs: np.ndarray) -> np.ndarray:
    """The 2^(k-1) values of sum(c_i * sigma_i) over the sign patterns with
    sigma_1 = +1, k >= 1: a global sign flip keeps |sum|, so |sum| has the
    same law over these as over all 2^k patterns."""
    vals = coeffs[:1]
    for c in coeffs[1:]:
        vals = np.concatenate([vals + c, vals - c])
    return vals


def _pair_diffs(pts: np.ndarray, k=None) -> np.ndarray:
    """pts[i] - pts[j] over the pairs i < j, row-major, or at positions k."""
    i, j = pair_of(np.arange(len(pts) * (len(pts) - 1) // 2) if k is None else k, len(pts))
    return pts[i] - pts[j]


def _method(proc: ProcessSpec, pts: np.ndarray, p: float) -> str:
    """How the d_p norms of the pair increments of `pts` are computed.

    Reads the increments one row of pairs at a time: the points are all
    equal iff every pts[j] - pts[0] is zero, and rademacher enumerates
    while no increment has more than ENUMERATION_LIMIT nonzeros.  A
    process whose every coordinate is `sym_exponential` takes the
    characteristic-function quadrature at 1 <= p < 4, p != 2; p = 2 and
    p >= 4 stay Monte Carlo.
    """
    fam = proc.family
    if fam == "gaussian" or not np.any(pts[1:] - pts[:1]):
        return "closed_form"
    if fam == "rademacher" and all(
            np.count_nonzero(pts[i] - pts[i + 1:], axis=1).max() <= ENUMERATION_LIMIT
            for i in range(len(pts) - 1)):
        return "enumeration"
    if fam == "sym_exponential" and 1.0 <= p < 4.0 and p != 2.0:
        return "quadrature"
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


def _increment_classes(proc: ProcessSpec, diffs: np.ndarray) -> np.ndarray:
    """Each pair's representative: the position of its increment pattern's
    lowest pair.

    Writes the patterns over `diffs`: |d|, sorted along the row when every
    coordinate holds the same model object (identity, not a descriptor,
    which need not fix a law).  A row whose first entry no other row has
    is a class of its own; the first entries are nonnegative floats, so
    equal values are equal bits, and one float sort finds the shared ones.
    Only the rows that share a first entry are sorted by their whole
    bytes, so equal rows are neighbours, and neighbours that are bit for
    bit equal, as whole rows compared 2^16 at a time, merge: the classes
    are exact.
    """
    np.abs(diffs, out=diffs)
    if all(m is proc.models[0] for m in proc.models):
        diffs.sort(axis=1)
    pairs, dim = diffs.shape
    rep_of = np.arange(pairs)
    first = diffs[:, 0]
    ranked = np.sort(first)
    tied = ranked[1:][ranked[1:] == ranked[:-1]]
    if not tied.size:
        return rep_of
    shared = np.flatnonzero(tied[np.searchsorted(tied, first).clip(max=len(tied) - 1)] == first)
    rows = diffs.view(np.dtype((np.void, 8 * dim))).ravel()
    order = shared[np.argsort(rows[shared])]
    same = np.empty(len(order) - 1, bool)
    for lo in range(0, len(order) - 1, 1 << 16):
        a = order[lo:lo + (1 << 16) + 1]
        same[lo:lo + len(a) - 1] = rows[a[:-1]] == rows[a[1:]]
    # runs of equal rows in byte order; a run's representative is its lowest pair
    starts = np.concatenate([[True], ~same])
    run_rep = np.minimum.reduceat(order, np.flatnonzero(starts))
    rep_of[order] = run_rep[np.cumsum(starts) - 1]
    return rep_of


def _uncached_pair_norms(proc: ProcessSpec, pts: np.ndarray, p: float, samples: int,
                         seed: int, method: str, want: np.ndarray) -> np.ndarray:
    """Values and 3-sigma errors (two rows) of `distance_matrix` by sign
    enumeration, quadrature (`laplace.increment_norms`) or Monte Carlo, as `method`
    says, at least at the pairs the mask `want` marks (none: no draw), and
    NaN at those left unreduced.  Enumeration and quadrature fill exactly
    the wanted pairs, with error 0, a tile of `TILE_ELEMS // dim` pairs at
    a time, and raise ValueError at a difference that is not finite.

    A pass whose estimated allocation (for an exact pass the two per-pair
    outputs, the wanted positions and a few tiles; for Monte Carlo the
    differences, the stream key's copy, the outputs, the pattern classes,
    one chunk's draws, one tile's projection and its scratch buffers)
    exceeds `_PASS_MAX_BYTES` raises before it allocates.

    Monte Carlo shares one sample pass across all pairs: each chunk of
    `_MC_CHUNK` draws from one derived stream is projected onto the points
    one tile of samples at a time (`ProcessSpec.projected_tiles`), and each
    tile is reduced one row of pairs at a time, so the sample buffers stay
    O(chunk * dim + tile * |pts|) whatever the pair count.  Pairs whose
    increments share a law (`_increment_classes`: equal |s - t|, sorted
    when the coordinates are exchangeable) are reduced once, at the
    class's lowest pair, and every pair of the class reads that value and
    error: the same bits for the same law, and no minimum taken over
    noisy copies of one number.  Only the classes holding a wanted pair
    are reduced, but the stream and the classes span every pair, so no
    value depends on what else is wanted.  A row whose pairs are all
    representatives subtracts the contiguous rows after it; any other
    gathers its representatives first.  The stream is keyed on the
    differences before they become patterns, so the classes change no
    draw, and a set whose patterns are all distinct reduces every pair
    by contiguous rows.  The reduction runs in place in one scratch
    buffer of (|pts| - 1) x tile, reused for every row, tile and chunk.
    The tile width is the fixed element budget `TILE_ELEMS` divided by
    |pts| - 1, capped at the chunk, so the buffers stay cache-sized and
    a two-point call makes one tile per chunk.  |d|^p
    goes by `_abs_power` (integer p by multiplication) and the sum of
    |d|^(2p) by `np.vecdot`, alike for a row alone or in a block.  The
    draws do not depend on the tile; only the summation order does.
    """
    m, dim = pts.shape
    pairs = m * (m - 1) // 2
    k = m - 1
    tile = max(1, min(_MC_CHUNK, samples, TILE_ELEMS // k))
    step = max(1, TILE_ELEMS // dim)  # pairs in a tile of an exact pass
    if method == "monte_carlo":
        # the differences and the key's copy of them, the outputs, six
        # pair-length vectors of the pattern classes, one chunk's draws, one
        # tile's projection, the scratch buffer and at most one spare
        need = 8 * (pairs * (2 * dim + 8) + min(_MC_CHUNK, samples) * dim
                    + m * tile + 2 * k * tile)
    else:
        # the outputs, the wanted positions, a tile of differences with its
        # gather's operands and indices, and quadrature's six more tiles
        need = 8 * (3 * pairs + step * (3 * dim + 4)
                    + (6 * TILE_ELEMS if method == "quadrature" else 0))
    if need > _PASS_MAX_BYTES:
        raise ValueError(
            f"{method} pair norms of {m} points in R^{dim} under the "
            f"{proc.family or 'mixed'} process need about {need / 2**20:,.0f} MiB, "
            f"past the {_PASS_MAX_BYTES / 2**20:,.0f} MiB limit of one pass")
    if method != "monte_carlo":
        if method == "quadrature":
            from . import laplace  # on first use, off the package's import
        out = np.full((2, pairs), np.nan)
        rows = np.flatnonzero(want)
        out[:, rows] = 0.0
        for lo in range(0, len(rows), step):
            pos = rows[lo:lo + step]
            diffs = _pair_diffs(pts, pos)
            if not np.isfinite(diffs).all():
                raise ValueError(f"{method} d_p at p = {p:g} of an increment that is not finite")
            if method == "quadrature":
                out[0, pos] = laplace.increment_norms(diffs, p, TILE_ELEMS)
            else:
                # scaled by sum |c|, so no |signed sum| exceeds 1 and no power over- or
                # underflows; first by 2^e > max |c|, exactly, so the sum cannot overflow
                for k, d in zip(pos, diffs):
                    if (c := d[d != 0.0]).size:
                        e = np.frexp(np.abs(c).max())[1]
                        c = np.ldexp(c, -e)
                        t = np.abs(c).sum()
                        out[0, k] = np.ldexp(
                            t * np.mean(np.abs(_enumerate_signed_sums(c / t)) ** p) ** (1.0 / p), e)
        return out
    if p > MC_MAX_P:
        raise ValueError(f"Monte-Carlo increment norms limited to p <= {MC_MAX_P}")
    diffs = _pair_diffs(pts)
    rng = derived_stream(seed, "distance_matrix", diffs.tobytes(), p, samples).generator()
    rep_of = _increment_classes(proc, diffs)
    del diffs
    hit = np.bincount(rep_of[want], minlength=pairs)
    reps = np.flatnonzero(hit)
    # the representatives of row i's pairs (i, j > i) are reps[at[i]:at[i + 1]]
    ri, rj = pair_of(reps, m)
    at = np.searchsorted(ri, np.arange(m))
    # (row, first, end, the points j to gather or None for all j > row)
    work = [(i, a, b, None if b - a == k - i else rj[a:b])
            for i, (a, b) in enumerate(zip(at[:-1], at[1:])) if b > a]
    total = np.zeros(len(reps))
    total_sq = np.zeros(len(reps))
    scratch = np.empty(k * tile)
    # an integer p that is not a power of two keeps a running product
    spare = np.empty_like(scratch) if p == int(p) and int(p) & (int(p) - 1) else None
    n = 0
    # at large p the sums of |d|^p and |d|^(2p) can overflow; a value or
    # error that is then not finite raises below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while n < samples and work:
            chunk = min(_MC_CHUNK, samples - n)
            for _, v in proc.projected_tiles(rng, chunk, pts, tile):
                w = v.shape[1]
                for i, a, b, js in work:
                    d = scratch[:(b - a) * w].reshape(b - a, w)
                    if js is None:
                        np.subtract(v[i + 1:], v[i], out=d)
                    else:
                        np.subtract(np.take(v, js, axis=0, out=d, mode="clip"), v[i], out=d)
                    d = _abs_power(d, p, spare)
                    total[a:b] += d.sum(axis=1)
                    total_sq[a:b] += np.vecdot(d, d)
            n += chunk
        mean = total / n
        stderr = np.sqrt(np.maximum(total_sq / n - mean * mean, 0.0) / n)
        # delta method on m -> m^(1/p)
        err = 3.0 * np.where(mean > 0, stderr / (p * mean ** (1.0 - 1.0 / p)), stderr)
        values = mean ** (1.0 / p)
    out = np.full((2, pairs), np.nan)
    out[:, reps] = values, err
    out = out[:, rep_of]
    bad = np.count_nonzero((hit[rep_of] > 0) & ~np.isfinite(out).all(axis=0))
    if bad:
        raise ValueError(
            f"Monte-Carlo d_p at p = {p:g} overflows a float on {bad} of {pairs} "
            f"pairs of the {proc.family or 'mixed'} process (a value or its 3-sigma "
            f"error is not finite); use a smaller p")
    return out


def increment_norm(proc: ProcessSpec, s, t, p: float,
                   samples: int = MC_DEFAULT_SAMPLES, seed: int = 0) -> IncrementNormResult:
    """||X_s - X_t||_p: distance_matrix over the two-point set {s, t}."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if s.shape != (proc.dimension,) or t.shape != (proc.dimension,):
        raise ValueError("index vectors must match the process dimension")
    d = distance_matrix(proc, IndexSet(np.stack([s, t])), p, samples, seed)
    return IncrementNormResult(float(d.values()[0]), float(d.errors[0]), d.method)


def is_exact_metric(proc: ProcessSpec, T: IndexSet) -> bool:
    """Whether the d_p distances over T avoid Monte-Carlo noise at every
    p >= 1; the quadrature leaves out p = 2, so p = 2 decides."""
    return _method(proc, T.points, 2.0) != "monte_carlo"


def distance_matrix(proc: ProcessSpec, T: IndexSet, p: float,
                    samples: int = MC_DEFAULT_SAMPLES, seed: int = 0,
                    blocks=None) -> PairNorms:
    """d_p over the pairs i < j of T, row-major (scipy's pdist layout), as a
    read-only `PairNorms` view: base vector, scale, 3-sigma errors and the
    method.

    p is taken as a float, so p = 4 and p = 4.0 draw the same samples.  The
    gaussian closed form is T's cached pair lengths with scale ||g||_p, so
    no scaled copy is built; its errors are one read-only zero broadcast,
    and it ignores `blocks`.  Any other d_p is kept on T per (proc, p,
    samples, seed) behind one read-only view with scale 1.  `blocks`, a
    list of index lists, asks only for the pairs inside them (None: all):
    one pass on the same stream reduces those not yet known, bit for bit
    as a full pass would, and the view raises LookupError at the others.
    """
    if len(T) == 0:
        raise ValueError("distance matrix of an empty index set is undefined")
    if T.dimension != proc.dimension:
        raise ValueError(f"index set dimension {T.dimension} does not match the "
                         f"process dimension {proc.dimension}")
    p = float(p)
    if p < 1:
        raise ValueError("increment norm requires p >= 1")
    method = _method(proc, T.points, p)
    if method == "closed_form":
        lengths = T.pair_lengths()
        return PairNorms(lengths, dist.gaussian().moment(p),
                         np.broadcast_to(0.0, len(lengths)), method)
    key = (proc, p, samples, seed)
    kept = T._norms.get(key)
    want = np.isnan(kept[0][1]) if kept else np.ones(len(T) * (len(T) - 1) // 2, bool)
    if blocks is not None:
        inside = np.zeros_like(want)
        for b in blocks:
            inside[pair_index(*np.take(b, np.triu_indices(len(b), 1)), len(T))] = True
        want &= inside
    if not kept or want.any():
        new = _uncached_pair_norms(proc, T.points, p, samples, seed, method, want)
        if not kept:
            ro = np.lib.stride_tricks.as_strided(new, writeable=False)
            kept = T._norms[key] = new, PairNorms(ro[0], 1.0, ro[1], method)
        else:
            np.copyto(kept[0], new, where=~np.isnan(new[1]))
    return kept[1]


def pair_of(k, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The pair (i, j), i < j, at position k of an m-point set's condensed
    vector, broadcasting over k; the inverse of `pair_index`.  Row i starts
    at i (2m - i - 1) / 2, so i is the last row start at or below k."""
    r = np.arange(m - 1)
    i = np.searchsorted(r * (2 * m - r - 1) // 2, k, side="right") - 1
    return i, k - i * (2 * m - i - 1) // 2 + i + 1


def pair_index(i, j, m: int) -> np.ndarray:
    """Position of the pair (i, j), i != j, in the condensed vector of an
    m-point set, symmetric in i and j and broadcasting like any ufunc; the
    inverse of `pair_of`.

    Row r of the pairs starts at r (2m - r - 1) / 2, so (i, j) with i < j
    sits at off(i) + j with off(r) = r (2m - r - 3) / 2 - 1.  off is
    nondecreasing on 0..m-1, so off(min(i, j)) = min(off(i), off(j)), and
    only that min and max(i, j) are taken at the broadcast shape.  For
    i == j the position lies inside the vector (m >= 2) but belongs to
    another pair, so a caller that reads a diagonal overwrites it.
    """
    i, j = np.asarray(i), np.asarray(j)

    def off(r):
        return r * (2 * m - 3 - r) // 2 - 1

    k = np.maximum(i, j)
    k += np.minimum(off(i), off(j))
    return k


def latala_norm(coeffs, proc: ProcessSpec, r: int) -> float:
    """|||(a_i X_i)|||_r = inf{u > 0 : prod_i E|1 + a_i X_i / u|^r <= e^r}.

    For symmetric coordinates and even r the product expands into even
    moments and is strictly decreasing in u.  The functional is
    1-homogeneous in a, so it is solved for b = a / max|a_i| and scaled
    back: the root of F(u) = sum_i log E(1 + b_i X_i / u)^r = r is
    bisected to 1e-10 relative between two ends, F(lo) >= r >= F(hi):
    lo = ||X_j||_r exp(-1 - log1p(-e^-r) / r), |b_j| = 1: E X_j^r / lo^r = e^r - 1.
    hi = sum_i |b_i| ||X_i||_r: Minkowski, then log1p(x) <= x.
    A NaN or infinite coefficient raises ValueError.
    """
    r = int(r)
    if r < 2 or r % 2 != 0:
        raise ValueError("the product-moment functional requires even r >= 2")
    a = np.asarray(coeffs, dtype=float)
    if a.shape != (proc.dimension,):
        raise ValueError("coefficient vector must match the process dimension")
    bad = np.flatnonzero(~np.isfinite(a))
    if bad.size:
        raise ValueError(f"coefficient {a[bad[0]]} at position {bad[0]} is not finite")
    top = int(np.abs(a).argmax())
    scale = abs(float(a[top]))
    if scale == 0.0:
        return 0.0
    # per model object: ||X||_r and C(r, 2k) E X^(2k) for k = r/2, ..., 1 (Horner order)
    tables = {}
    terms = []
    for bi, model in zip((a / scale).tolist(), proc.models):
        if bi != 0.0:
            if model not in tables:
                tables[model] = model.moment(r), [
                    math.comb(r, 2 * k) * model.moment(2 * k) ** (2 * k)
                    for k in range(r // 2, 0, -1)]
            terms.append((bi, *tables[model]))

    def log_product(u: float) -> float:
        total = 0.0
        for bi, _, coefs in terms:
            z = (bi / u) ** 2
            s = 0.0
            for c in coefs:
                s = s * z + c
            total += math.log1p(s * z)
        return total

    lo = tables[proc.models[top]][0] * math.exp(-1.0 - math.log1p(-math.exp(-r)) / r)
    hi = sum(abs(bi) * norm for bi, norm, _ in terms)
    while (hi - lo) > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if log_product(mid) > r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * scale
