"""d_p of increments of a process whose coordinates are all standardized
Laplace (`dist.sym_exponential`), 1 <= p < 4, p != 2, by quadrature of
the characteristic function: Gauss-Legendre in t with u = exp((pi/2)
sinh t) over a fixed window, both tails in closed form, and node counts
doubled until two rules agree to 1e-13 relative.  numpy's arithmetic and
`math` only: no scipy, no LAPACK.  `metric` dispatches to it and
imports it on first use.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["increment_norms"]

# u is integrated over this window of a unit-length increment numerically
# and over its two tails in closed form; past the window the neglected
# terms are below 1e-16 relative
_WINDOW = (1e-8, 1e6)
_FIRST_NODES = 48  # the node count doubles from here until two rules agree
_MAX_NODES = 1 << 12
_RTOL = 1e-13


@functools.cache
def _quadrature_rule(n: int) -> tuple[np.ndarray, tuple, tuple]:
    """u^2, ln u and the weights at the n Gauss-Legendre nodes in t of the
    window u = exp((pi/2) sinh t) in `_WINDOW`, such that
    sum_k weight_k g(u_k) approximates the integral of g(u) du / u there.

    The Legendre roots come from Newton's method on the three-term
    recurrence, started at cos(pi (k - 1/4) / (n + 1/2)).  Cached per n,
    with u^2 read-only.
    """
    x = np.array([math.cos(math.pi * (k - 0.25) / (n + 0.5)) for k in range(1, n + 1)])
    for _ in range(100):
        prev, cur = np.ones(n), x.copy()
        for j in range(2, n + 1):
            prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
        slope = n * (x * cur - prev) / (x * x - 1.0)
        step = cur / slope
        x -= step
        if np.abs(step).max() <= 1e-15:
            break
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    lo, hi = (math.asinh(math.log(u) / (math.pi / 2)) for u in _WINDOW)
    ts = [0.5 * (hi + lo) + 0.5 * (hi - lo) * xk for xk in x.tolist()]
    ln_u = tuple(math.pi / 2 * math.sinh(t) for t in ts)
    weight = tuple(0.5 * (hi - lo) * wk * math.pi / 2 * math.cosh(t)
                   for wk, t in zip(w.tolist(), ts))
    u2 = np.array([math.exp(2.0 * v) for v in ln_u])
    u2.flags.writeable = False
    return u2, ln_u, weight


def _window_integrals(a: np.ndarray, p: float, n: int, tile: int) -> np.ndarray:
    """The n-node rule for the window part of `increment_norms`'s
    integral, per row of a (rows of a_i >= 0), in buffers of at most
    `tile` entries.

    q = 1 - phi_S and, for p > 2, gap = u^2 sum_i a_i - q are built one
    coordinate at a time as q <- (q + w) / (1 + w) and gap <- gap + w q
    with w = a_i u^2: every term is >= 0, so neither cancels at small u,
    and q <= 1 and gap <= u^2 / 2 cannot overflow at large u.  Columns of
    a tile that are all zero add nothing and are skipped.
    """
    u2, ln_u, weight = _quadrature_rule(n)
    jac = np.array([wk * math.exp(-p * v) for wk, v in zip(weight, ln_u)])
    rows = max(1, min(len(a), tile // n))
    q, w, t = (np.empty((rows, n)) for _ in range(3))
    gap = np.empty((rows, n)) if p > 2.0 else None
    out = np.empty(len(a))
    for lo in range(0, len(a), rows):
        blk = a[lo:lo + rows]
        r = len(blk)
        qr, wr, tr = q[:r], w[:r], t[:r]
        qr.fill(0.0)
        if gap is not None:
            gap[:r].fill(0.0)
        for col in blk.T[blk.any(axis=0)]:
            np.multiply(col[:, None], u2, out=wr)
            qr += wr
            np.add(wr, 1.0, out=tr)
            qr /= tr
            if gap is not None:
                wr *= qr
                gap[:r] += wr
        out[lo:lo + r] = np.vecdot(qr if gap is None else gap[:r], jac)
    return out


def increment_norms(diffs: np.ndarray, p: float, tile: int) -> np.ndarray:
    """d_p of the finite increments `diffs` (rows, overwritten) of a
    process whose coordinates are all standardized Laplace
    (`dist.sym_exponential`), 1 <= p < 4, p != 2, by quadrature of the
    characteristic function.

    With a_i = d_i^2 / 2, phi_S(u) = prod_i 1 / (1 + a_i u^2) and (von Bahr
    and Esseen 1965)
        E|S|^p = (2/pi) Gamma(p + 1) |sin(pi p / 2)|
                 * int_0^inf |1 - phi_S(u) - [p > 2] u^2 sum_i a_i| u^(-1-p) du.
    Each row is sorted, divided by its largest |d_i| and then by its
    euclidean length, so sum_i a_i = 1/2 and no square under- or
    overflows; the norm is scaled back and a zero increment has norm 0.
    The integral is Gauss-Legendre in t over `_WINDOW` plus its
    tails in closed form from the expansions of q at small and large u.
    A row's node count doubles from `_FIRST_NODES` until two rules
    agree to `_RTOL` relative; a row still short of that at
    `_MAX_NODES` nodes, or a value that is not finite, raises
    ValueError.  The pair-by-node buffers hold at most `tile` entries.
    """
    d = np.abs(diffs, out=diffs)
    d.sort(axis=1)
    out = np.zeros(len(d))
    top = d[:, -1]
    live = np.flatnonzero(top)
    a = d[live]
    a /= top[live, None]
    length = np.sqrt(np.vecdot(a, a))
    a /= length[:, None]
    a *= a
    a *= 0.5
    s1, s2 = a.sum(axis=1), np.vecdot(a, a)
    lo, hi = _WINDOW
    # q = s1 u^2 - (s1^2 + s2) u^4 / 2 + O(u^6) below the window; above it
    # q = 1 - O(u^-2), and phi_S's part of each tail is below 1e-16
    if p < 2.0:
        est = (s1 * lo ** (2.0 - p) / (2.0 - p)
               - 0.5 * (s1 * s1 + s2) * lo ** (4.0 - p) / (4.0 - p) + hi ** -p / p)
    else:
        est = (0.5 * (s1 * s1 + s2) * lo ** (4.0 - p) / (4.0 - p)
               + s1 * hi ** (2.0 - p) / (p - 2.0) - hi ** -p / p)
    tails = est.copy()
    n = _FIRST_NODES
    est += _window_integrals(a, p, n, tile)
    todo = np.arange(len(a))
    while todo.size:
        n *= 2
        if n > _MAX_NODES:
            raise ValueError(f"quadrature d_p at p = {p:g} did not converge on {todo.size} "
                             f"increments within {n // 2} nodes")
        new = tails[todo] + _window_integrals(a[todo], p, n, tile)
        done = np.abs(new - est[todo]) <= _RTOL * new
        est[todo] = new
        todo = todo[~done]
    # |sin(pi p / 2)| from the exact distance r = |p - 2| to the nearest
    # zero, so that it keeps its relative precision near p = 2 and p = 4
    r = abs(p - 2.0)
    c = 2.0 / math.pi * math.gamma(p + 1.0) * math.sin(math.pi / 2 * min(r, 2.0 - r))
    out[live] = top[live] * length * (c * est) ** (1.0 / p)
    if not np.isfinite(out).all():
        raise ValueError(f"quadrature d_p at p = {p:g} overflows a float")
    return out
