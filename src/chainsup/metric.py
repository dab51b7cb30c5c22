"""Increment metrics of canonical processes.

d_p(s, t) = ||sum_i (s_i - t_i) X_i||_p, computed exactly where the
coordinate laws allow (gaussian closed form; even moments at even
p <= MC_MAX_P, p >= 4 on any mix of the named laws of `dist.FAMILIES`
and every even p on rademacher, from one table of E X^(2l) / (2l)! per
model; one enumeration engine at the other p but 2 when every
coordinate law has finitely many atoms (rademacher, three_point and
their mixes) and no increment's law more than ATOM_LIMIT atoms, which
sums E|S|^p over the atoms of two half laws met in the middle; and for
all-`sym_exponential` (Laplace) coordinates at 1 <= p < 4, p != 2,
quadrature of the characteristic function to 1e-13 relative, in
`laplace`) and by chunked Monte Carlo with a CLT error bound otherwise.
The gaussian closed form is ||g||_p |s - t|_2, so every p scales one
vector of Euclidean pair lengths that an IndexSet computes once, row by
row.  Every other pair-norm vector is kept on the IndexSet per (process,
p, samples, seed), and a pass reduces only the pairs its caller asks for;
the even moments, enumeration and quadrature draw nothing, carry error 0
and read their differences a tile at a time; Monte Carlo builds them
all.  d_p is 1-homogeneous, so every exact engine is f(models, c, p) ->
d_p of the rows of c, nonzero |s - t| scaled by 2^-e to a largest entry
in [1/2, 1): the tile loop alone drops zero rows, scales each norm back
by 2^e and refuses one that is 0 or not finite.  The Monte Carlo kernel
shares one stream of draws across all pairs of a point set, projects it
onto the points one tile of samples at a time and reduces each tile in
place in one scratch buffer sized from a fixed element budget; at p = 2
three Gram products per tile give the sums of every pair but the close
ones.  Every coordinate law is symmetric and the coordinates
independent, so d_p(s, t) depends only on |s - t|, and only on its
sorted entries when every coordinate holds one model object; the kernel
reduces each such increment pattern once, at its lowest pair, and every
pair of the pattern reads that value and error.
`distance_matrix` is the one entry point to every backend: it returns a
read-only `PairNorms` view of the condensed pair vector, scipy's pdist
layout (pairs i < j, row-major), as a kept base vector times a scale,
with its 3-sigma errors and the method, and `increment_norm` is its
two-point case.  `pair_index` and its inverse `pair_of` map a pair to
its position and back; the view reads blocks of the square, a tile at
a time, and block diameters, so no |T| x |T| square is built.
Also hosts the product-moment functional |||(a_i X_i)|||_r, solved for
a / max|a_i| by bisection between two proved ends and scaled back, on
the same even-moment table in log space.
"""

from __future__ import annotations

import importlib
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

ATOM_LIMIT = 1 << 20          # atoms of the law of one enumerated increment
MC_DEFAULT_SAMPLES = 100_000
MC_MAX_P = 128.0              # top p of Monte Carlo, the even moments and atoms' expansion
_MC_CHUNK = 20_000
# elements of one tile (2 MiB): the pair-by-sample scratch buffer of a
# Monte-Carlo pass, the pair differences an exact pass reads at a time, a
# block of pair norms read through `PairNorms.tiles`, a pair-by-node
# buffer of a quadrature pass, and a tile of projected values in stochlab
TILE_ELEMS = 1 << 18
_PASS_MAX_BYTES = 2 << 30     # estimated bytes one enumerated, quadrature or Monte-Carlo pass may take
# each exact method's engine, by module and name; `atoms` and `laplace` are
# imported on first use, off the package's import
_ENGINES = {"even_moments": (".metric", "_even_moment_norms"),
            "enumeration": (".atoms", "increment_norms"),
            "quadrature": (".laplace", "increment_norms")}
# At p = 2 a Monte-Carlo pass reads sum d^2 and sum d^4, d = v_j - v_i,
# from Gram sums of v, v^2 and v^3 (`_uncached_pair_norms`).  Each Gram sum
# rounds by some gamma relative to the sum of the |terms| it adds, and by
# AM-GM the |terms| of the two expansions add up to at most
# 2 (G11_ii + G11_jj) and 8 (G22_ii + G22_jj).  So sum d^2 errs by at most
# 2 gamma A relative, A = (G11_ii + G11_jj) / sum d^2, and the centred
# c4 = sum d^4 - (sum d^2)^2 / n that the 3-sigma bar reads by 8 gamma B,
# B = (G22_ii + G22_jj) / c4.  A pair whose A or B exceeds _GRAM_GAIN is
# reduced again by the row kernel, on a replay of the pass's stream.
# Measured on three_point, sym_exponential and sym_weibull draws at 100 to
# 40,000 samples, the rounding of the value stayed under 21 u A and that
# of the bar under 210 u B (u = 2^-53); A, B <= 2^5 keep both within about
# 7e-13 of a direct reduction.
_GRAM_GAIN = 2.0 ** 5
# Every coordinate is standardized, so E v^2 = |t|^2 and A is about
# (a + b) / delta, a = |t_i|^2, b = |t_j|^2, delta = |t_i - t_j|^2, while B
# grows like 1 / r^2, r = delta / (a + b) (B r^2 is 0.8-0.9 over the pairs
# of the mc-certify benchmark).  So a pair with r <= _CLOSE takes the row
# kernel from the start, by a rule known before drawing: near-duplicate
# points, where the expansion is all rounding (a bar measured at r =
# 1.5e-11 was off 800-fold), never cost a replay, and at r > 2^-2 A is
# about 4 or less and B about 15 or less, so a replay is rare.
_CLOSE = 2.0 ** -2


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
    # closed_form | even_moments | enumeration (of finite atoms) | quadrature | monte_carlo
    method: str


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
    Any view but the closed form's is NaN at the pairs no
    request has reduced, which `block`, `max` and `values` raise
    LookupError at.
    """

    base: np.ndarray
    scale: float
    errors: np.ndarray
    # closed_form | even_moments | enumeration (of finite atoms) | quadrature | monte_carlo
    method: str

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


def _pair_diffs(pts: np.ndarray, k=None) -> np.ndarray:
    """pts[i] - pts[j] over the pairs i < j, row-major, or at positions k."""
    i, j = pair_of(np.arange(len(pts) * (len(pts) - 1) // 2) if k is None else k, len(pts))
    return pts[i] - pts[j]


def _method(proc: ProcessSpec, pts: np.ndarray, p: float) -> str:
    """How the d_p norms of the pair increments of `pts` are computed.

    The points are all equal iff every pts[j] - pts[0] is zero.  Even
    p <= MC_MAX_P takes the even moments when every coordinate is
    rademacher, or when p >= 4 and every coordinate's law is named in
    `dist.FAMILIES` (mixes included), all of which have closed-form
    moments.  Otherwise, at p != 2, a process whose every coordinate law
    has finitely many atoms (`DistributionModel.atoms`) is enumerated
    while no increment's law has more than ATOM_LIMIT atoms, counted as
    sum_i log2(atoms of X_i) over its nonzeros, read one row of pairs at a
    time so no product of counts overflows; and a process whose every
    coordinate is `sym_exponential` takes the characteristic-function
    quadrature at 1 <= p < 4, p != 2.  p = 2 on the other laws (three_point
    among them), the other non-even p, and any process with a coordinate
    of an unnamed law (`log_concave_from_tail`) stay Monte Carlo.
    """
    fam = proc.family
    if fam == "gaussian" or not np.any(pts[1:] - pts[:1]):
        return "closed_form"
    if p % 2 == 0 and p <= MC_MAX_P and (fam == "rademacher" or p >= 4 and all(
            m.family in dist.FAMILIES for m in proc.models)):
        return "even_moments"
    if p != 2.0 and all(m.atoms is not None for m in proc.models):
        bits = np.array([math.log2(len(m.atoms[0])) for m in proc.models])
        if all((((pts[i] - pts[i + 1:]) != 0.0) @ bits).max() <= math.log2(ATOM_LIMIT)
               for i in range(len(pts) - 1)):
            return "enumeration"
    if fam == "sym_exponential" and 1.0 <= p < 4.0 and p != 2.0:
        return "quadrature"
    return "monte_carlo"


def _log_even_moments(model: DistributionModel, k: int) -> np.ndarray:
    """log w_l = log(E X^(2l) / (2l)!) = 2l log ||X||_(2l) - lgamma(2l + 1)
    for l = 0..k: neither the moment nor the factorial is formed, so
    neither overflows."""
    return np.array([0.0] + [2 * l * math.log(model.moment(2 * l)) - math.lgamma(2 * l + 1.0)
                             for l in range(1, k + 1)])


def _even_moment_norms(models: tuple, c: np.ndarray, p: float) -> np.ndarray:
    """d_p, p = 2k, of the rows of `c` (overwritten), from E S^(2k) =
    (2k)! [z^k] prod_i sum_(l <= k) c_i^(2l) w_l z^l, w_l from each
    coordinate's `_log_even_moments` (Latala 1997): every term is >= 0, so
    nothing cancels.

    Each row is sorted when every coordinate holds one model object and
    divided by its largest c_i; with sigma_i = ||X_i||_(2k) and
    sigma_t = max_i c_i sigma_i, the row's scale, coordinate i has weight
    e_i = c_i sigma_i / sigma_t <= 1, and z = y / ((2k)!^(1/k) sigma_t^2)
    turns its factor into sum_l e_i^(2l) v_l y^l with v_l =
    w_l (2k)!^(l/k) / sigma_i^(2l), v_k = 1 exactly.  So the top weight
    alone gives [y^k] >= 1, d_(2k) = max c_i sigma_t [y^k]^(1/(2k)) forms
    no power of a factorial, and a single coordinate gives c_i sigma_i
    to the bit.  The coordinates multiply into a (rows x (k + 1))
    accumulator one at a time, at most `TILE_ELEMS` entries, rescaled by
    powers of two so that no sum overflows; columns that are zero across
    a block are skipped.  An odd p or p > MC_MAX_P raises ValueError.
    """
    if p % 2 or p > MC_MAX_P:
        raise ValueError(f"even-moment d_p needs an even p <= {MC_MAX_P:g}, not p = {p:g}")
    k = int(p) // 2
    if all(m is models[0] for m in models):
        c.sort(axis=1)
    ls = np.arange(1, k + 1)
    tables = {}
    for m in models:
        if m not in tables:
            s = m.moment(2 * k)
            v = np.exp(_log_even_moments(m, k)[1:] + ls / k * math.lgamma(2 * k + 1.0)
                       - 2 * ls * math.log(s))
            v[-1] = 1.0
            tables[m] = s, v
    sigma = np.array([tables[m][0] for m in models])
    v = np.array([tables[m][1] for m in models])
    scale = sigma.max()
    weight = sigma / scale
    out = np.empty(len(c))
    top = c.max(axis=1)
    rows = max(1, TILE_ELEMS // (k + 1))
    for lo in range(0, len(c), rows):
        at = slice(lo, lo + rows)
        e = c[at] / top[at, None]
        e *= weight
        most = e.max(axis=1)
        e /= most[:, None]
        acc = np.zeros((len(e), k + 1))
        acc[:, 0] = 1.0
        lift = np.zeros(len(e))  # acc is 2^-lift times the product's coefficients
        for j in np.flatnonzero(e.any(axis=0)):
            a = np.power(np.square(e[:, j])[:, None], ls)
            a *= v[j]
            # [y^n] gains sum_(l >= 1) acc[n - l] a_l, highest n first so
            # that every acc read is the previous coordinate's
            for n in range(k, 0, -1):
                acc[:, n] += np.vecdot(acc[:, :n], a[:, n - 1::-1])
            # a row past 2^512 (p near MC_MAX_P on a thousand or more dense
            # coordinates) is scaled down by 2^512, exactly, so no sum overflows
            big = acc.max(axis=1) > 2.0 ** 512
            if big.any():
                acc[big] *= 2.0 ** -512
                lift[big] += 512.0
        out[at] = top[at] * (scale * most * acc[:, k] ** (0.5 / k) * np.exp2(lift / (2 * k)))
    return out


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
    """Values and 3-sigma errors (two rows) of `distance_matrix` by the
    exact engine of `method` (`_ENGINES`) or by Monte Carlo, at least at
    the pairs the mask `want` marks (none: no draw), and NaN at those left
    unreduced.  An exact method fills exactly the wanted pairs, with error
    0, a tile of `TILE_ELEMS // dim` pairs at a time, and raises
    ValueError at a difference that is not finite.  A zero row keeps 0.0;
    any other is scaled in place by 2^-e, e = frexp(max|d_i|), for the
    engine, its norm scaled back by 2^e, and one that is 0 or not finite
    raises ValueError, alike for every method.

    A pass whose estimated allocation (for an exact pass the two per-pair
    outputs, the wanted positions and a few tiles; for Monte Carlo the
    differences, the stream key's copy, the outputs, the pattern classes,
    one chunk's draws, one tile's projection, its scratch buffer and the
    three |pts| x |pts| Gram sums with their product) exceeds
    `_PASS_MAX_BYTES` raises before it allocates.

    Monte Carlo shares one sample pass across all pairs: each chunk of
    `_MC_CHUNK` draws from one derived stream is projected onto the points
    one tile of samples at a time (`ProcessSpec.projected_tiles`), so the
    sample buffers stay O(chunk * dim + tile * |pts|) whatever the pair
    count.  Pairs whose increments share a law (`_increment_classes`:
    equal |s - t|, sorted when the coordinates are exchangeable) are
    reduced once, at the class's lowest pair, and every pair of the class
    reads that value and error: the same bits for the same law, and no
    minimum taken over noisy copies of one number.  Only the classes
    holding a wanted pair are reduced, but the stream and the classes span
    every pair, so no value depends on what else is wanted.  The stream is
    keyed on the differences before they become patterns, so the classes
    change no draw.

    At p = 2 each tile v (|pts| x w) is reduced by three matrix products
    over every point, wanted or not: with q = v * v in the scratch buffer,
    G11 += v v^T and G22 += q q^T, then q *= v and G31 += q v^T.  After the
    pass sum d^2 = G11_ii + G11_jj - 2 G11_ij and sum d^4 = G22_ii + G22_jj
    - 4 (G31_ij + G31_ji) + 6 G22_ij at each representative, clamped at 0.
    That expansion cancels when t_i is close to t_j, so a representative
    with |t_i - t_j|^2 <= _CLOSE (|t_i|^2 + |t_j|^2) takes the row kernel on
    the same tiles, as every representative does at the other p, and one
    whose sums the rounding may still have moved (`_GRAM_GAIN`, read off
    the Gram sums) is reduced again by the row kernel on a replay of the
    stream, the same draws.  The row kernel reduces a tile one row of
    pairs at a time: a row whose pairs all take it subtracts the
    contiguous rows after it, and any other gathers its pairs first, so at
    p != 2 a set whose patterns are all distinct reduces every pair by
    contiguous rows.
    It runs in place in one scratch buffer of |pts| x tile, reused for
    every row, tile and chunk.  The tile width is the fixed element budget
    `TILE_ELEMS` divided by |pts| - 1, capped at the chunk, so the buffers
    stay cache-sized and a two-point call makes one tile per chunk.  |d|^p
    is d * d at p = 2, |d| at p = 1 and one in-place `np.power` otherwise,
    and the sum of |d|^(2p) goes by `np.vecdot`, alike for a row alone or
    in a block.
    The draws do not depend on the tile; only the summation order does.
    """
    m, dim = pts.shape
    pairs = m * (m - 1) // 2
    k = m - 1
    tile = max(1, min(_MC_CHUNK, samples, TILE_ELEMS // k))
    step = max(1, TILE_ELEMS // dim)  # pairs in a tile of an exact pass
    if method == "monte_carlo":
        # the differences and the key's copy of them, the outputs, six
        # pair-length vectors of the pattern classes, one chunk's draws, one
        # tile's projection, the scratch buffer, and the three Gram sums of
        # p = 2 with their product, counted at every p
        need = 8 * (pairs * (2 * dim + 8) + min(_MC_CHUNK, samples) * dim
                    + 2 * m * tile + 4 * m * m)
    else:
        # the outputs, the wanted positions, a tile of differences with its
        # gather's operands and indices, and quadrature's six more tiles, the
        # even moments' scaled copy of the differences and two tiles, or the
        # enumeration's nonzero entries (at most log2 ATOM_LIMIT a pair: every
        # law has two atoms or more), their layouts per model, and its half
        # tables and product or sort in one tile
        kinds = len(dict.fromkeys(proc.models))
        need = 8 * (3 * pairs + step * (3 * dim + 4)
                    + {"quadrature": 6 * TILE_ELEMS,
                       "even_moments": step * dim + 2 * TILE_ELEMS,
                       "enumeration": step * (6 * min(dim, ATOM_LIMIT.bit_length() - 1)
                                              + 4 * kinds + 4) + TILE_ELEMS,
                       }.get(method, 0))
    if need > _PASS_MAX_BYTES:
        raise ValueError(
            f"{method} pair norms of {m} points in R^{dim} under the "
            f"{proc.family or 'mixed'} process need about {need / 2**20:,.0f} MiB, "
            f"past the {_PASS_MAX_BYTES / 2**20:,.0f} MiB limit of one pass")
    if method != "monte_carlo":
        module, name = _ENGINES[method]
        engine = getattr(importlib.import_module(module, __package__), name)
        out = np.full((2, pairs), np.nan)
        rows = np.flatnonzero(want)
        out[:, rows] = 0.0
        for lo in range(0, len(rows), step):
            pos = rows[lo:lo + step]
            c = _pair_diffs(pts, pos)
            if not np.isfinite(c).all():
                raise ValueError(f"{method} d_p at p = {p:g} of an increment that is not finite")
            top = np.abs(c, out=c).max(axis=1)
            live = top > 0.0
            if not live.all():  # a zero increment keeps its 0.0
                c, top, pos = c[live], top[live], pos[live]
            e = np.frexp(top)[1]
            np.ldexp(c, -e[:, None], out=c)
            with np.errstate(over="ignore"):
                d = np.ldexp(engine(proc.models, c, p), e)
            if not (np.isfinite(d) & (d > 0.0)).all():
                raise ValueError(f"{method} d_p at p = {p:g} of a nonzero increment is 0 "
                                 f"or not finite")
            out[0, pos] = d
        return out
    if p > MC_MAX_P:
        raise ValueError(f"Monte-Carlo increment norms limited to p <= {MC_MAX_P}")
    diffs = _pair_diffs(pts)
    stream = derived_stream(seed, "distance_matrix", diffs.tobytes(), p, samples)
    rep_of = _increment_classes(proc, diffs)
    hit = np.bincount(rep_of[want], minlength=pairs)
    reps = np.flatnonzero(hit)
    ri, rj = pair_of(reps, m)
    # at p = 2 the representatives that are not close take the Gram sums
    far = np.zeros(len(reps), bool)
    if p == 2.0:
        sq = np.vecdot(pts, pts)
        far = np.vecdot(diffs, diffs)[reps] > _CLOSE * (sq[ri] + sq[rj])
    del diffs
    scratch = np.empty(m * tile)

    def sweep(row, gram):
        """The sums of |d|^p and |d|^(2p) at the representatives `row` by
        the row kernel, and the Gram sums G11, G22, G31 if `gram`, over the
        draws of a fresh generator on the pass's stream."""
        # the representatives of row i's pairs (i, j > i) are row[at[i]:at[i + 1]]
        at = np.searchsorted(ri[row], np.arange(m))
        # (row, first, end, the points j to gather or None for all j > row)
        work = [(i, a, b, None if b - a == k - i else rj[row[a:b]])
                for i, (a, b) in enumerate(zip(at[:-1], at[1:])) if b > a]
        sums = np.zeros((2, len(row)))
        g = np.zeros((4, m, m)) if gram else None  # G11, G22, G31 and a product
        rng = stream.generator()
        for lo in range(0, samples, _MC_CHUNK):
            for _, v in proc.projected_tiles(rng, min(_MC_CHUNK, samples - lo), pts, tile):
                w = v.shape[1]
                if gram:
                    q = scratch[:m * w].reshape(m, w)
                    g[0] += np.matmul(v, v.T, out=g[3])
                    np.multiply(v, v, out=q)
                    g[1] += np.matmul(q, q.T, out=g[3])
                    q *= v
                    g[2] += np.matmul(q, v.T, out=g[3])
                for i, a, b, js in work:
                    d = scratch[:(b - a) * w].reshape(b - a, w)
                    if js is None:
                        np.subtract(v[i + 1:], v[i], out=d)
                    else:
                        np.subtract(np.take(v, js, axis=0, out=d, mode="clip"), v[i], out=d)
                    if p == 2.0:
                        np.multiply(d, d, out=d)
                    else:
                        np.abs(d, out=d)
                        if p != 1.0:
                            np.power(d, p, out=d)
                    sums[0, a:b] += d.sum(axis=1)
                    sums[1, a:b] += np.vecdot(d, d)
            # the last tile's view keeps its buffer; the next chunk draws without it
            del v
        return sums, g

    total, total_sq = sums = np.zeros((2, len(reps)))
    # at large p the sums of |d|^p and |d|^(2p) can overflow; a value or
    # error that is then not finite raises below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if len(reps):
            row = np.flatnonzero(~far)
            sums[:, row], g = sweep(row, far.any())
        if far.any():
            i, j = ri[far], rj[far]
            g11, g22, g31 = g[:3]
            total[far] = s2 = np.maximum(g11[i, i] + g11[j, j] - 2.0 * g11[i, j], 0.0)
            total_sq[far] = s4 = np.maximum(g22[i, i] + g22[j, j] - 4.0 * (g31[i, j] + g31[j, i])
                                            + 6.0 * g22[i, j], 0.0)
            # replay the stream for the pairs whose sums the rounding may have
            # moved (see _GRAM_GAIN): the same draws, by the row kernel
            fine = ((g11[i, i] + g11[j, j] <= _GRAM_GAIN * s2)
                    & (g22[i, i] + g22[j, j] <= _GRAM_GAIN * (s4 - s2 * s2 / samples)))
            redo = np.flatnonzero(far)[~fine]
            if redo.size:
                sums[:, redo] = sweep(redo, False)[0]
        mean = total / samples
        stderr = np.sqrt(np.maximum(total_sq / samples - mean * mean, 0.0) / samples)
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
    p >= 1: the quadrature and the enumeration leave out p = 2, where only
    rademacher has even moments, and the even moments p = 1, where the
    enumeration stops past ATOM_LIMIT atoms, so p = 1 and p = 2 decide."""
    return all(_method(proc, T.points, p) != "monte_carlo" for p in (1.0, 2.0))


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
    samples, seed) behind one read-only view with scale 1, whose method
    serves later calls: `_method` runs only on a new key.  `blocks`, a
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
    key = (proc, p, samples, seed)
    kept = T._norms.get(key)
    method = kept[1].method if kept else _method(proc, T.points, p)
    if method == "closed_form":
        lengths = T.pair_lengths()
        return PairNorms(lengths, dist.gaussian().moment(p),
                         np.broadcast_to(0.0, len(lengths)), method)
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
    The terms C(r, 2k) E X^(2k) (b_i / u)^(2k), k = 1..r/2, are taken in
    log space from the even-moment table `_log_even_moments`, so no
    moment, binomial or power overflows.  A NaN or infinite coefficient
    raises ValueError.
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
    b = a / scale
    live = np.flatnonzero(b)
    ks = np.arange(1, r // 2 + 1)
    # per model object: log C(r, 2k) E X^(2k) = log(r! / (r - 2k)!) + log w_k, k = 1..r/2
    falling = math.lgamma(r + 1.0) - np.array([math.lgamma(r - 2.0 * k + 1.0) for k in ks])
    tables = {}
    for i in live:
        model = proc.models[i]
        if model not in tables:
            tables[model] = falling + _log_even_moments(model, r // 2)[1:]
    log_coef = np.array([tables[proc.models[i]] for i in live])
    log_b = np.log(np.abs(b[live]))

    def log_product(u: float) -> float:
        # sum_i log(1 + sum_k exp(t_ik)), factored by max(0, max_k t_ik)
        t = log_coef + np.multiply.outer(2.0 * (log_b - math.log(u)), ks)
        big = np.maximum(t.max(axis=1), 0.0)
        return float(np.sum(big + np.log1p(np.expm1(-big)
                                           + np.exp(t - big[:, None]).sum(axis=1))))

    lo = proc.models[top].moment(r) * math.exp(-1.0 - math.log1p(-math.exp(-r)) / r)
    hi = sum(abs(float(b[i])) * proc.models[i].moment(r) for i in live)
    while (hi - lo) > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if log_product(mid) > r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * scale
