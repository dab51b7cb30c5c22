"""d_p of increments of a process whose coordinate laws all have finitely
many atoms (`DistributionModel.atoms`: rademacher, three_point and their
mixes), summed exactly over the atoms of the increment's law, met in the
middle: each increment's law is the sum of two half laws of about the
square root of its atom count, and one sort of both (at integer p) or
their product (at other p) gives E|S|^p.  numpy only.  Like every exact
engine, it reads rows of nonzero |increments| scaled by 2^-e to a
largest entry in [1/2, 1), and `metric` keeps zeroes, scales back and
refuses; `metric` dispatches to it below its atom limit, at every p but
2, and imports it on first use.
"""

from __future__ import annotations

import math

import numpy as np

from .metric import MC_MAX_P, TILE_ELEMS

__all__ = ["increment_norms"]

# work arrays in chunks of 1/32 tile keep the engine's dozen in cache: the
# fastest chunk on the benchmark's 24-point, 12-coordinate three_point
# pass, 1.5 times as fast as a whole tile
_CHUNK = TILE_ELEMS // 32


def _half_law(c: np.ndarray, laws: list) -> tuple[np.ndarray, np.ndarray]:
    """The law of |sum_j c_j X_j| over the columns of `c` (rows x h, one
    coefficient row per increment), X_j of law laws[j] = (values,
    probabilities), the first folded to |X_1|: atoms (rows x N, built by
    repeated concatenation) and their probabilities (N, shared by the
    rows).  X_1's sign is a global sign flip of a symmetric sum, so
    folding it keeps the law of |sum| and takes fewer atoms."""
    v = np.zeros((len(c), 1))
    w = np.ones(1)
    for j, (x, px) in enumerate(laws):
        v = (v[:, :, None] + c[:, j, None, None] * x).reshape(len(c), -1)
        w = (w[:, None] * px).ravel()
    return np.abs(v, out=v), w


def _prefix_sums(x: np.ndarray) -> np.ndarray:
    """np.cumsum(x, axis=1) with the rounding error of each addition, which
    Knuth's TwoSum recovers exactly, summed and added back: a prefix sum of
    n terms to about two roundings, not n (measured at p = 1 against exact
    rational sums, 10 ulps became 2)."""
    s = np.cumsum(x, axis=1)
    err = np.zeros_like(s)
    err[:, 1:] = s[:, :-1]  # the sum before each addition
    took = s - err  # the part of x the addition took
    np.subtract(err, s - took, out=err)  # the part of the sum before it lost
    err += np.subtract(x, took, out=took)  # and the part of x it lost
    s += np.cumsum(err, axis=1, out=err)
    return s


def _expanded_norm(a, wa, b, wb, p) -> np.ndarray:
    """||A + B||_p per row at integer p from the binomial expansion over the
    atoms a of |A| and b of |B| (rows x N_A and rows x N_B), one sort."""
    k = int(p)
    nb = b.shape[1]
    # each atom and its probability as one complex number, + for B and - for
    # A: one sort by atom carries the probabilities along, with no argsort
    # (whose numpy code pages cost the workloads 0.13-0.26 MB of peak RSS)
    key = np.empty((len(a), nb + a.shape[1]), complex)
    key.real[:, :nb], key.imag[:, :nb] = b, wb
    key.real[:, nb:], key.imag[:, nb:] = a, -wa
    key.sort(axis=1)
    s = key.real.copy()
    pw = np.maximum(key.imag, 0.0)  # w_b b^j at the atoms of B, 0 at those of A
    w = np.maximum(-key.imag, 0.0)  # and w_a the other way
    del key
    acc = np.zeros_like(s)
    for j in range(k + 1):
        if j:
            pw *= s
            acc *= s
        if k % 2:  # b <= a at even j, b > a at odd j
            m = _prefix_sums(pw) if j % 2 == 0 else _prefix_sums(pw[:, ::-1])[:, ::-1]
            m *= math.comb(k, j)
            acc += m
        elif j % 2 == 0:  # every b at even j
            acc += math.comb(k, j) * pw.sum(axis=1, keepdims=True)
    return np.vecdot(acc, w) ** (1.0 / p)


def _product_norm(a, wa, b, wb, p) -> np.ndarray:
    """||A + B||_p per row over the N_A x N_B product of the atoms a of |A|
    and b of |B| (both overwritten), in blocks of atoms of A that keep each
    product within `_CHUNK` entries (one row at least).  Each row's largest
    a + b is factored out of the powers, so the sum keeps a term of that
    pair's weight and does not underflow to 0 at large p (at p = 1001 every
    power of the scaled sums of twelve three_point(1e6) coordinates did)."""
    top = a.max(axis=1) + b.max(axis=1)
    a /= top[:, None]
    b /= top[:, None]
    step = max(1, _CHUNK // (len(a) * b.shape[1]))
    out = np.zeros(len(a))
    for lo in range(0, a.shape[1], step):
        x = a[:, lo:lo + step, None]
        y = b[:, None, :]
        hi, gap = x + y, x - y
        np.abs(gap, out=gap)
        np.power(hi, p, out=hi)
        np.power(gap, p, out=gap)
        hi += gap
        out += np.vecdot(hi @ wb, wa[lo:lo + step])
    return top * (0.5 * out) ** (1.0 / p)


def increment_norms(models: tuple, c: np.ndarray, p: float) -> np.ndarray:
    """d_p of the rows of `c` (read only) under coordinate laws `models`
    that all have finitely many atoms (`DistributionModel.atoms`): E|S|^p
    summed over the atoms of S, met in the middle (Horowitz and Sahni 1974).

    Each row's nonzero coordinates, ordered by model object, are split
    into two halves A and B of about equal atom counts, and the law of |A|
    and |B| is built per half (`_half_law`); rows whose nonzeros hold the
    same model objects as often share one such layout and are reduced
    together, at most about `_CHUNK` atoms at a time.  Each row is scaled
    by 2^-f, 2^f > sum_i c_i max|X_i|, exactly, so no |S| exceeds 1 and
    no sum or power overflows.  Given |A| = a and |B| = b, B's symmetric
    sign makes |A + B|^p = ((a + b)^p + |a - b|^p) / 2 in the mean:
    - at integer p <= MC_MAX_P, binomially, E_B|a + B|^p =
      sum_j C(p, j) a^(p-j) m_j(a), C(p, j) < 2^127, with m_j the sum of
      w_b b^j over b <= a at even j plus the sum over b > a at even p - j:
      one sort of the atoms of both halves and prefix sums of w_b b^j give
      every m_j, and every term is >= 0, so nothing cancels;
    - at any other p over the N_A x N_B product, a block at a time.
    """
    kinds = {}
    kind = np.array([kinds.setdefault(m, len(kinds)) for m in models])
    full = [m.atoms for m in kinds]
    folded = []  # the law of |X|: a symmetric law's atoms x >= 0, x > 0 twice as likely
    for x, px in full:
        keep = x >= 0.0
        folded.append((x[keep], px[keep] * (1.0 + (x[keep] > 0.0))))
    top = np.array([np.abs(x).max() for x, _ in full])
    bits = np.array([math.log2(len(x)) for x, _ in full])
    rows, cols = np.nonzero(c)
    key = rows * len(kinds) + kind[cols]
    if len(kinds) > 1:  # each row's nonzeros ordered by model object
        order = np.argsort(key, kind="stable")
        rows, cols, key = rows[order], cols[order], key[order]
    coeffs = c[rows, cols]
    hist = np.bincount(key, minlength=len(c) * len(kinds)).reshape(len(c), len(kinds))
    count = hist.sum(axis=1)
    start = np.cumsum(count) - count
    patterns, group = np.unique(hist, axis=0, return_inverse=True)
    norm_of = _expanded_norm if p <= MC_MAX_P and p == int(p) else _product_norm
    out = np.empty(len(c))
    for g, pattern in enumerate(patterns):
        seq = np.repeat(np.arange(len(kinds)), pattern)
        at = np.flatnonzero(group.reshape(-1) == g)
        x = coeffs[start[at, None] + np.arange(len(seq))]
        f = np.frexp((x * top[seq]).sum(axis=1))[1]
        x = np.ldexp(x, -f[:, None])
        cum = np.cumsum(bits[seq])
        h = int(np.searchsorted(cum, cum[-1] / 2.0)) + 1
        laws = [folded[q] if j in (0, h) else full[q] for j, q in enumerate(seq)]
        laws = laws[:h], laws[h:]
        na, nb = (math.prod(len(v) for v, _ in half) for half in laws)
        step = max(1, _CHUNK // (na + nb if norm_of is _expanded_norm else na * nb))
        norm = np.empty(len(at))
        for lo in range(0, len(at), step):
            a, wa = _half_law(x[lo:lo + step, :h], laws[0])
            b, wb = _half_law(x[lo:lo + step, h:], laws[1])
            norm[lo:lo + step] = norm_of(a, wa, b, wb, p)
        out[at] = np.ldexp(norm, f)
    return out
