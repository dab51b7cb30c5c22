"""Standardized symmetric distribution models.

Each model describes a symmetric, mean-zero, variance-one random variable
through three coordinated views: L^p moments (closed form where possible,
quadrature otherwise), the tail exponent N(t) = -ln P(|X| > t), and a
sampler.  Membership tests for the moment-growth classes (alpha-regular
growth, speed-beta growth) operate on a finite p-grid and record the grid
in the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .streams import RngStream

__all__ = [
    "DistributionModel",
    "TailFunction",
    "RegularityWitness",
    "DEFAULT_P_GRID",
    "FAMILIES",
    "gaussian",
    "rademacher",
    "sym_exponential",
    "sym_weibull",
    "three_point",
    "log_concave_from_tail",
    "check_alpha_regular",
    "check_speed_beta",
    "model_from_descriptor",
    "model_descriptor",
]

# Log-spaced grid covering the dyadic moment levels used by the chaining
# functionals.  Configurable in every class check; recorded in verdicts.
DEFAULT_P_GRID = (2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0, 128.0)

_LN2 = math.log(2.0)

# Smallest sym_weibull shape: below about 0.0117 the moment of order 128,
# the top of DEFAULT_P_GRID, overflows a float.
_WEIBULL_MIN_SHAPE = 0.012

# Top of the inverse-tail grid: exp(-746) underflows to 0, so no
# exponential draw -ln(U) reaches it.
_TAIL_GRID_TOP = 746.0


def _gaussian_lp(p: float) -> float:
    # ||g||_p = sqrt(2) * (Gamma((p+1)/2)/sqrt(pi))^(1/p)
    return math.exp(0.5 * _LN2 + (math.lgamma((p + 1.0) / 2.0) - 0.5 * math.log(math.pi)) / p)


def _pcg64(rng: np.random.Generator) -> np.random.PCG64:
    bg = rng.bit_generator
    if not isinstance(bg, np.random.PCG64):
        raise TypeError(f"samplers need a PCG64 generator, got {type(bg).__name__}")
    return bg


def _signs(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Sign the magnitudes (all >= +0) in `out` in place with len(out) fair signs.

    The signs are those of rng.integers(0, 2, size=len(out)) * 2.0 - 1.0,
    bit for bit, and the generator ends in the state that call leaves.
    Two facts make it so:
    - numpy draws integers(0, 2) by Lemire's method, which at range 2
      never rejects and returns the top bit of the next 32-bit output;
    - PCG64 hands out its 32-bit outputs as the low, then the high half of
      one 64-bit word, and keeps an unused high half in
      state["has_uint32"] and state["uinteger"].
    So a waiting half goes first, the other m signs come from ceil(m/2)
    raw words read as int32 (a set top bit is +1), and for odd m the last
    high half is left waiting, as numpy leaves it.  numpy keeps that last
    high half in state["uinteger"] even once it is used, and so does this.
    """
    bg = _pcg64(rng)
    n = len(out)
    state = bg.state
    k = 1 if n and state["has_uint32"] else 0
    m = n - k
    # w >= 0 exactly where the top bit is set, so copysign(|x|, w) = x * s
    w = np.empty(n, np.int32)
    if k:
        w[0] = 0 if state["uinteger"] >> 31 else -1
    raw = np.asarray(bg.random_raw((m + 1) // 2), "<u8").view("<i4")
    np.invert(raw[:m], out=w[k:])
    if n:
        uinteger = int(raw[-1]) & 0xFFFFFFFF if m else state["uinteger"]
        state = bg.state
        state["has_uint32"], state["uinteger"] = m % 2, uinteger
        bg.state = state
    return np.copysign(out, w, out=out)


# Row b holds the signs of the 8 bits of byte b, most significant first
# (np.unpackbits's order): a set bit is +1.0.
_BYTE_SIGNS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1) * 2.0 - 1.0


@dataclass(frozen=True)
class RegularityWitness:
    """Outcome of a grid-certified moment-growth class check.

    The verdict only speaks for the grid it was computed on; `grid` is
    carried so a "pass" never silently claims the continuum statement.
    """

    passed: bool
    kind: str                      # "alpha" or "beta"
    level: float                   # the alpha or beta that was tested
    witness_pair: tuple            # (q, p) of the extremal / violating pair
    ratio: float                   # ||X||_p / ||X||_q at the witness pair
    threshold: float               # the bound the ratio was compared against
    grid: tuple

    def __bool__(self) -> bool:
        return self.passed


@dataclass
class TailFunction:
    """Nondecreasing map t -> N(t) in [0, inf], +inf beyond support_bound.

    `start` is where the inverse grid begins: N is flat up to it, so
    `quantile` returns `start` for every e <= N(start).
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    support_bound: float = math.inf
    start: float = 0.0
    _inverse_grid: tuple = field(default=None, init=False, repr=False, compare=False)

    def __call__(self, t):
        """N(t) as a float for a scalar t, else as a float array."""
        arr = np.asarray(t, dtype=float)
        out = np.where(arr >= self.support_bound, np.inf, self.evaluator(arr))
        out = np.asarray(out, dtype=float)
        return out.item() if np.isscalar(t) or np.ndim(t) == 0 else out

    def quantile(self, e):
        """inf{t : N(t) >= e}, so quantile(-ln U) has the tail exponent N.

        Interpolates one (N, t) grid, built on first use and reaching
        N = 746, past every exponential draw.  The grid is geometric from
        hi * 1e-12 to hi in 8,192 points, and on down to hi * 1e-18 at about
        the same ratio where that lies above `start`, so only below
        N(hi * 1e-18) does it follow a chord of N from `start`.
        """
        if self._inverse_grid is None:
            hi = self.support_bound
            if not math.isfinite(hi):
                hi = 1.0
                while self(hi) < _TAIL_GRID_TOP:
                    hi *= 2.0
            low = np.geomspace(hi * 1e-18, hi * 1e-12, 4096, endpoint=False)
            ts = np.concatenate([[self.start], low[low > self.start],
                                 np.geomspace(max(self.start, hi * 1e-12), hi, 8192)])
            ns = np.maximum.accumulate(self(ts))  # guard roundoff dips
            finite = np.isfinite(ns)
            self._inverse_grid = (ns[finite], ts[finite])
        ns, ts = self._inverse_grid
        return np.interp(e, ns, ts)


class DistributionModel:
    """A standardized symmetric law: moments ||X||_p (`moment`, uncached,
    so E X^(2k) is `moment(2k) ** (2k)`), tail exponent, sampler.

    `sampler(rng, out)` fills the contiguous float64 vector `out` with
    i.i.d. draws.
    """

    def __init__(self, family: str, params: dict,
                 moment_fn: Callable[[float], float],
                 tail_fn: Callable[[np.ndarray], np.ndarray],
                 sampler: Callable[[np.random.Generator, np.ndarray], object],
                 support_bound: float = math.inf):
        self.family = family
        self.params = dict(params)
        self._moment_fn = moment_fn
        self._sampler = sampler
        self.support_bound = float(support_bound)
        self.tail = TailFunction(tail_fn, self.support_bound)

    def __repr__(self):
        ps = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        return f"DistributionModel({self.family}{', ' + ps if ps else ''})"

    # -- moments ------------------------------------------------------

    def moment(self, p: float) -> float:
        """L^p norm ||X||_p, p >= 1."""
        if p < 1:
            raise ValueError(f"moment order must be >= 1, got {p}")
        return float(self._moment_fn(float(p)))

    # -- tails --------------------------------------------------------

    def tail_value(self, t):
        """N(t) = -ln P(|X| > t) as an extended real, t >= 0."""
        if np.any(np.asarray(t, dtype=float) < 0):
            raise ValueError("tail_value requires t >= 0")
        return self.tail(t)

    # -- sampling -----------------------------------------------------

    def sample_with(self, rng: np.random.Generator, count: int,
                    out: np.ndarray | None = None) -> np.ndarray:
        """`count` i.i.d. draws written into `out`, a new vector if None.

        `out` must be a contiguous, writable float64 vector of length
        `count`, such as a column of a Fortran-ordered matrix; it is checked
        before anything is drawn.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        if out is None:
            out = np.empty(int(count))
        elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
                  and out.shape == (count,) and out.flags.c_contiguous
                  and out.flags.writeable):
            raise ValueError(f"out must be a contiguous writable float64 vector of "
                             f"length {count}")
        self._sampler(rng, out)
        return out

    def sample(self, stream: RngStream, count: int) -> np.ndarray:
        """i.i.d. draws, deterministic given (master seed, stream id)."""
        return self.sample_with(stream.generator(), count)


# ----------------------------------------------------------------------
# families
# ----------------------------------------------------------------------

def gaussian() -> DistributionModel:
    def tail(t):
        # P(|g| > t) = 2*sf(t) = 1 - erf(t/sqrt2).  log_ndtr(-t) = log sf(t)
        # is stable far out, but ln 2 + log_ndtr(-t) cancels near t = 0;
        # below t = 1 the log1p form keeps full relative accuracy.  scipy is
        # imported here, on first use, to keep it off the package's import.
        from scipy import special as sp

        near = -np.log1p(-sp.erf(np.minimum(t, 1.0) / math.sqrt(2.0)))
        return np.where(t < 1.0, near, -(_LN2 + sp.log_ndtr(-t)))

    return DistributionModel(
        "gaussian", {},
        moment_fn=_gaussian_lp,
        tail_fn=tail,
        sampler=lambda rng, out: rng.standard_normal(out=out),
    )


def rademacher() -> DistributionModel:
    def tail(t):
        return np.where(t < 1.0, 0.0, np.inf)

    def sampler(rng, out):
        # One raw bit per sign: the signs are np.unpackbits(words.view(
        # np.uint8), count=n) * 2.0 - 1.0 for the ceil(n/64) next raw words,
        # read as little-endian so no host byte order shows.  The generator
        # advances by those words and a buffered 32-bit half stays waiting.
        # Only PCG64 fills all 64 bits of a raw word (MT19937 fills 32).
        n = len(out)
        b = np.asarray(_pcg64(rng).random_raw(-(-n // 64)), "<u8").view(np.uint8)
        full, rest = divmod(n, 8)
        # mode="clip" skips the bounds check, which no uint8 index can fail
        np.take(_BYTE_SIGNS, b[:full], axis=0, out=out[:8 * full].reshape(-1, 8),
                mode="clip")
        if rest:
            out[8 * full:] = _BYTE_SIGNS[b[full], :rest]

    return DistributionModel(
        "rademacher", {},
        moment_fn=lambda p: 1.0,
        tail_fn=tail,
        sampler=sampler,
        support_bound=1.0,
    )


def sym_exponential() -> DistributionModel:
    # |X| ~ Exp(rate sqrt(2)) gives E X^2 = 1; N(t) = sqrt(2) t
    rt2 = math.sqrt(2.0)

    def sampler(rng, out):
        rng.standard_exponential(out=out)
        out *= 1.0 / rt2  # the bits of rng.exponential(scale=1.0 / rt2)
        _signs(rng, out)

    return DistributionModel(
        "sym_exponential", {},
        moment_fn=lambda p: math.exp(math.lgamma(p + 1.0) / p) / rt2,
        tail_fn=lambda t: rt2 * t,
        sampler=sampler,
    )


def sym_weibull(shape: float) -> DistributionModel:
    """P(|X| > t) = exp(-(t/s)^shape) with s set so that Var = 1."""
    if not shape >= _WEIBULL_MIN_SHAPE:
        raise ValueError(f"sym_weibull shape {shape} is out of range: it must be at least "
                         f"{_WEIBULL_MIN_SHAPE}, below which the moments up to "
                         f"p = {DEFAULT_P_GRID[-1]:g} overflow a float")
    w = float(shape)
    s = math.exp(-0.5 * math.lgamma(1.0 + 2.0 / w))  # Gamma(1+2/w)^(-1/2)

    def sampler(rng, out):
        # rng.weibull(w) is standard_exponential() ** (1/w), one draw each;
        # the vectorised power may differ from numpy's scalar pow by 1 ulp
        rng.standard_exponential(out=out)
        np.power(out, 1.0 / w, out=out)
        out *= s
        _signs(rng, out)

    return DistributionModel(
        "sym_weibull", {"shape": w},
        moment_fn=lambda p: s * math.exp(math.lgamma(1.0 + p / w) / p),
        tail_fn=lambda t: (t / s) ** w,
        sampler=sampler,
    )


def three_point(a: float) -> DistributionModel:
    """P(X = +-a) = 1/(2a^2), P(X = 0) = 1 - 1/a^2; a > 1.

    Deliberately outside the regular classes for moderate alpha; exists to
    exercise the failure paths of the class checks.
    """
    if not a > 1:
        raise ValueError(f"three_point requires atom a > 1, got {a}")
    a = float(a)
    p_atom = 1.0 / (a * a)
    atoms = np.array([0.0, -a, a])

    def tail(t):
        return np.where(t < a, 2.0 * math.log(a), np.inf)

    def sampler(rng, out):
        u = rng.random(out=out)
        idx = (u < p_atom).view(np.uint8)  # 0: zero, 1: -a, 2: +a
        idx += u < p_atom / 2.0
        np.take(atoms, idx, out=out, mode="clip")

    return DistributionModel(
        "three_point", {"a": a},
        moment_fn=lambda p: a ** (1.0 - 2.0 / p),
        tail_fn=tail,
        sampler=sampler,
        support_bound=a,
    )


def _tail_quad_raw_moment(tail_fn, support_bound: float, p: float) -> float:
    """E|X|^p = int_0^inf p t^(p-1) exp(-N(t)) dt by adaptive quadrature.

    The upper limit doubles until the last interval contributes less than
    1e-12 of the running total.  scipy is imported here, on first use, to
    keep it off the package's import.
    """
    from scipy import integrate

    def integrand(t):
        n = np.asarray(tail_fn(np.asarray(t, dtype=float)), dtype=float)
        with np.errstate(over="ignore"):
            return p * np.asarray(t) ** (p - 1.0) * np.exp(-np.minimum(n, 745.0))

    if math.isfinite(support_bound):
        val, _ = integrate.quad(integrand, 0.0, support_bound, limit=300, epsrel=1e-10)
        return val
    total = 0.0
    lo, hi = 0.0, 1.0
    while True:
        piece, _ = integrate.quad(integrand, lo, hi, limit=300, epsrel=1e-10)
        total += piece
        if hi > 1.0 and abs(piece) < 1e-12 * max(total, 1e-300):
            return total
        lo, hi = hi, hi * 2.0


def log_concave_from_tail(tail) -> DistributionModel:
    """Model defined by a tail exponent t -> N(t), rescaled to variance 1.

    `tail` is any object with an `evaluator` callable and a
    `support_bound` attribute (see TailFunction), or a bare
    callable with unbounded support.
    """
    raw_fn = getattr(tail, "evaluator", tail)
    raw_support = float(getattr(tail, "support_bound", math.inf))

    raw_var = _tail_quad_raw_moment(raw_fn, raw_support, 2.0)
    if not (raw_var > 0 and math.isfinite(raw_var)):
        raise ValueError("tail function does not define a nondegenerate variance")
    sigma = math.sqrt(raw_var)
    support = raw_support / sigma

    def tail_fn(t):
        return np.asarray(raw_fn(np.asarray(t, dtype=float) * sigma), dtype=float)

    def moment_fn(p):
        return _tail_quad_raw_moment(tail_fn, support, p) ** (1.0 / p)

    def sampler(rng, out):
        out[:] = model.tail.quantile(rng.standard_exponential(out=out))
        _signs(rng, out)

    model = DistributionModel(
        "log_concave_from_tail", {"sigma": sigma},
        moment_fn=moment_fn,
        tail_fn=tail_fn,
        sampler=sampler,
        support_bound=support,
    )
    return model


def moment_quadrature(model: DistributionModel, p: float) -> float:
    """Quadrature cross-check of ||X||_p against the tail exponent."""
    return _tail_quad_raw_moment(model.tail_value, model.support_bound, p) ** (1.0 / p)


def _validate_grid(p_grid) -> tuple:
    grid = tuple(sorted(float(p) for p in p_grid))
    if not grid:
        raise ValueError("p_grid must be nonempty")
    if grid[0] < 2.0:
        raise ValueError(f"p_grid must lie in [2, inf), got {grid[0]}")
    return grid


def check_alpha_regular(model: DistributionModel, alpha: float,
                        p_grid: Sequence[float] = DEFAULT_P_GRID) -> RegularityWitness:
    """Grid check of ||X||_p <= alpha*(p/q)*||X||_q for grid pairs p > q.

    Fails when the normalized ratio ||X||_p*q/(p*||X||_q) reaches alpha
    (equality counts as a violation; the defining inequality is required
    to hold with a strict margin on the grid).
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    grid = _validate_grid(p_grid)
    moments = {p: model.moment(p) for p in grid}
    best = None  # (normalized ratio, q, p)
    for i, q in enumerate(grid):
        for p in grid[i + 1:]:
            norm_ratio = moments[p] * q / (p * moments[q])
            if best is None or norm_ratio > best[0]:
                best = (norm_ratio, q, p)
    if best is None:  # single-point grid: nothing to compare
        p0 = grid[0]
        return RegularityWitness(True, "alpha", alpha, (p0, p0), 1.0, alpha, grid)
    norm_ratio, q, p = best
    return RegularityWitness(
        passed=norm_ratio < alpha,
        kind="alpha", level=alpha,
        witness_pair=(q, p),
        ratio=moments[p] / moments[q],
        threshold=alpha * p / q,
        grid=grid,
    )


def check_speed_beta(model: DistributionModel, beta: float,
                     p_grid: Sequence[float] = DEFAULT_P_GRID) -> RegularityWitness:
    """Grid check of ||X||_{beta*p} >= 2*||X||_p for all grid p."""
    if beta <= 1:
        raise ValueError("beta must be > 1")
    grid = _validate_grid(p_grid)
    worst = None  # (ratio, p)
    for p in grid:
        ratio = model.moment(beta * p) / model.moment(p)
        if worst is None or ratio < worst[0]:
            worst = (ratio, p)
    ratio, p = worst
    return RegularityWitness(
        passed=ratio >= 2.0,
        kind="beta", level=beta,
        witness_pair=(p, beta * p),
        ratio=ratio,
        threshold=2.0,
        grid=grid,
    )


# ----------------------------------------------------------------------
# descriptors (the serialized form used by configs and reports)
# ----------------------------------------------------------------------

# family -> (factory, the descriptor fields it takes, in order)
FAMILIES = {
    "gaussian": (gaussian, ()),
    "rademacher": (rademacher, ()),
    "sym_exponential": (sym_exponential, ()),
    "sym_weibull": (sym_weibull, ("shape",)),
    "three_point": (three_point, ("a",)),
}


def model_from_descriptor(desc: dict) -> DistributionModel:
    """Build a model from a {family, ...fields} record."""
    family = desc.get("family")
    if family not in FAMILIES:
        raise ValueError(f"unknown distribution family: {family!r}")
    make, fields = FAMILIES[family]
    return make(*(desc[k] for k in fields))


def model_descriptor(model: DistributionModel) -> dict:
    return {"family": model.family, **model.params}
