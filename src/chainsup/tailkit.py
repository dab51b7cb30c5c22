"""Tail-function transforms.

Turns the tail exponent N(t) = -ln P(|X| > t) of a regular variable into
a convex minorant and a log-concave envelope with explicit constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dist
from .dist import DistributionModel, TailFunction

__all__ = [
    "TailFunction",
    "RegularityConstants",
    "SublinearityError",
    "convex_minorant",
    "regularity_constants",
    "log_concave_envelope",
]

_E = math.e

# grid density for the running-sup integration (points per decade)
_PTS_PER_DECADE = 4096


class SublinearityError(ValueError):
    """The input tail failed f(c*lambda*t) >= lambda*f(t) on the check grid."""

    def __init__(self, lam, t, lhs, rhs):
        self.witness = (lam, t)
        super().__init__(
            f"sublinearity precondition failed at (lambda={lam}, t={t}): "
            f"f(c*lambda*t)={lhs} < lambda*f(t)={rhs}"
        )


class _RunningSupIntegral:
    """g(t) = int_start^t sup_{start <= y <= x} f(y/c)/y dx on a lazy log grid.

    The integrand is a running maximum, hence nondecreasing, so trapezoid
    integration on a monotone grid is both stable and measurable against
    doubled resolution.
    """

    def __init__(self, f, c: float, start: float, support_bound: float = math.inf):
        self.f = f
        self.c = c
        self.start = start
        self.support = support_bound  # of f itself (g blows up at c*support)
        anchor = start if start > 0 else 1e-8
        self.ts = np.array([start], dtype=float)
        self.h = np.array([self._integrand_limit(anchor)], dtype=float)
        self.G = np.array([0.0])
        self._extend(max(10.0 * anchor, 1.0))

    def _integrand(self, ys: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.f(ys / self.c), dtype=float)
        return vals / ys

    def _integrand_limit(self, y: float) -> float:
        return float(self._integrand(np.asarray([y]))[0])

    def _extend(self, hi: float) -> None:
        lo = self.ts[-1]
        if hi <= lo:
            return
        lo_pos = lo if lo > 0 else hi * 1e-9
        decades = math.log10(hi / lo_pos)
        npts = max(16, int(decades * _PTS_PER_DECADE))
        new_ts = np.geomspace(lo_pos, hi, npts + 1)[1:]
        new_h = self._integrand(new_ts)
        new_h = np.maximum.accumulate(np.concatenate([[self.h[-1]], new_h]))[1:]
        steps = np.diff(np.concatenate([[lo], new_ts]))
        heights = 0.5 * (np.concatenate([[self.h[-1]], new_h[:-1]]) + new_h)
        new_G = self.G[-1] + np.cumsum(steps * heights)
        self.ts = np.concatenate([self.ts, new_ts])
        self.h = np.concatenate([self.h, new_h])
        self.G = np.concatenate([self.G, new_G])

    def __call__(self, t):
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros_like(arr)
        finite_sup = self.c * self.support
        live = arr > self.start
        if np.any(live):
            hi = float(arr[live].max())
            if hi > self.ts[-1]:
                self._extend(min(hi, finite_sup) if math.isfinite(finite_sup) else hi)
            idx = np.searchsorted(self.ts, arr[live], side="right") - 1
            idx = np.clip(idx, 0, len(self.ts) - 1)
            base_t = self.ts[idx]
            base_h = self.h[idx]
            with np.errstate(invalid="ignore", divide="ignore"):
                h_t = np.maximum(base_h, self._integrand(arr[live]))
            vals = self.G[idx] + 0.5 * (base_h + h_t) * (arr[live] - base_t)
            out[live] = vals
        return out


def _check_sublinear(f, c: float, t0: float, slack: float = 1e-9) -> None:
    t_lo = max(t0, 1e-6)
    ts = np.geomspace(t_lo, t_lo * 1e4, 200)
    if t0 == 0.0:
        ts = np.concatenate([np.geomspace(1e-9, t_lo, 50), ts])
    for lam in (1.0, 2.0, 4.0, 8.0):
        lhs = np.asarray(f(c * lam * ts), dtype=float)
        rhs = lam * np.asarray(f(ts), dtype=float)
        finite = np.isfinite(rhs)
        bad = finite & (lhs < rhs * (1.0 - slack) - slack)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise SublinearityError(lam, float(ts[i]), float(lhs[i]), float(rhs[i]))


def convex_minorant(f, c: float, t0: float = 0.0) -> TailFunction:
    """Convex g with g(c*t0) = 0 and g(t) <= f(t) <= g(c^2 t) for t >= c*t0.

    Requires the sublinear growth f(c*lambda*t) >= lambda*f(t) for
    lambda >= 1, t >= t0 (verified on a lambda x t grid).
    """
    if c < 2:
        raise ValueError("convex minorant requires c >= 2")
    if t0 < 0:
        raise ValueError("t0 must be >= 0")
    support = float(getattr(f, "support_bound", math.inf))
    _check_sublinear(f, c, t0)
    integral = _RunningSupIntegral(f, c, start=c * t0, support_bound=support)
    return TailFunction(integral, c * support, start=c * t0)


@dataclass(frozen=True)
class RegularityConstants:
    """Closed-form constants attached to the alpha-regular tail envelope."""

    alpha: float
    kappa_alpha: float
    b_alpha: float
    T_alpha: float
    L_alpha: float
    t0: float = 1.0 - 1.0 / _E


def regularity_constants(alpha: float) -> RegularityConstants:
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    kappa = 4.0 * _E * _E / (_E - 1.0) * alpha ** 3
    return RegularityConstants(
        alpha=float(alpha),
        kappa_alpha=kappa,
        b_alpha=math.log(_E * (2.0 * alpha) ** 2),
        T_alpha=4.0 * _E * alpha ** 3,
        L_alpha=kappa * kappa,
    )


def log_concave_envelope(model: DistributionModel, alpha: float,
                         p_grid=dist.DEFAULT_P_GRID) -> TailFunction:
    """Convex nondecreasing M with M(T_alpha) = 0 and M <= N <= M(L_alpha *)
    for t >= T_alpha, built from the model's tail exponent.
    """
    witness = dist.check_alpha_regular(model, alpha, p_grid)
    if not witness.passed:
        raise ValueError(
            f"model {model.family} is not alpha-regular at alpha={alpha}: "
            f"witness {witness.witness_pair}, ratio {witness.ratio}"
        )
    consts = regularity_constants(alpha)
    g = convex_minorant(model.tail, c=consts.kappa_alpha, t0=consts.t0)

    def evaluator(t):
        return np.where(t <= consts.T_alpha, 0.0, g(np.maximum(t, consts.T_alpha)))

    return TailFunction(evaluator, g.support_bound, start=consts.T_alpha)
