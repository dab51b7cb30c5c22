"""Admissible partition sequences and the chaining functionals.

A PartitionTree is a certificate: evaluating it gives a valid upper bound
on gamma_2 or gamma_X.  Exact minimization runs at desk scale
(|T| <= EXACT_LIMIT) as a depth-first branch-and-bound over the level-1
partitions in restricted-growth order, which returns the first minimiser
in that order; beyond that a deterministic farthest-point greedy produces
certificates under the level-cardinality caps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import metric as metric_mod
from .metric import IndexSet, ProcessSpec

__all__ = [
    "PartitionTree",
    "TreeValidationError",
    "level_cap",
    "evaluate_certificate",
    "compute_gamma",
    "uniform_space_gamma",
]

EXACT_LIMIT = 10
GREEDY_LIMIT = 10_000
_DIAMETER_TILE_ELEMS = 1 << 18  # entries gathered per tile of a block diameter


class TreeValidationError(ValueError):
    pass


def level_cap(n: int) -> int:
    """Maximal block count at level n: 1 at the root, 2^(2^n) beyond."""
    if n == 0:
        return 1
    if n >= 6:
        return 1 << 63  # beyond any desk-scale |T|
    return 2 ** (2 ** n)


@dataclass
class PartitionTree:
    """Nested partitions of {0..m-1}: level 0 is {all}, last level singletons."""

    levels: list  # list of partitions; each partition is a list of index lists

    def __post_init__(self):
        self.levels = [
            sorted((sorted(block) for block in level), key=lambda b: b[0])
            for level in self.levels
        ]

    @property
    def depth(self) -> int:
        return len(self.levels)

    def n_points(self) -> int:
        return sum(len(b) for b in self.levels[0])

    def validate(self, n_points: Optional[int] = None) -> None:
        if not self.levels:
            raise TreeValidationError("tree has no levels")
        m = self.n_points()
        if n_points is not None and m != n_points:
            raise TreeValidationError(
                f"tree covers {m} points, index set has {n_points}")
        universe = set(range(m))
        if len(self.levels[0]) != 1 or set(self.levels[0][0]) != universe:
            raise TreeValidationError("level 0 must be the single block {T}")
        for n, level in enumerate(self.levels):
            seen = [i for b in level for i in b]
            if sorted(seen) != sorted(universe):
                raise TreeValidationError(f"level {n} is not a partition of T")
            if len(level) > level_cap(n):
                raise TreeValidationError(
                    f"level {n} has {len(level)} blocks, cap is {level_cap(n)}")
            if n > 0:
                parent = {i: k for k, par in enumerate(self.levels[n - 1]) for i in par}
                for block in level:
                    if len({parent[i] for i in block}) > 1:
                        raise TreeValidationError(
                            f"level {n} block {block} does not refine level {n - 1}")
        if any(len(b) != 1 for b in self.levels[-1]):
            raise TreeValidationError("final level must be all singletons")

    def block_of(self, n: int, i: int) -> list:
        """A_n(t): the level-n block containing point i (singleton past depth)."""
        if n >= self.depth:
            return [i]
        for block in self.levels[n]:
            if i in block:
                return block
        raise KeyError(i)

    def to_json(self) -> str:
        return json.dumps({"levels": self.levels}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PartitionTree":
        return cls(levels=json.loads(text)["levels"])

    @classmethod
    def trivial(cls, m: int) -> "PartitionTree":
        """Root plus singletons; the only admissible shape for m <= 4."""
        if m == 1:
            return cls(levels=[[[0]]])
        return cls(levels=[[list(range(m))], [[i] for i in range(m)]])


def _level_p(functional: str, n: int) -> float:
    return 2.0 if functional == "gamma2" else float(2 ** n)


def _level_weight(functional: str, n: int) -> float:
    return 2.0 ** (n / 2.0) if functional == "gamma2" else 1.0


def _submatrix(v: np.ndarray, rows, cols, m: int) -> np.ndarray:
    """squareform(v)[np.ix_(rows, cols)] for the condensed distances `v` of
    an m-point set, copied from `v` with no square built: the same values
    in the same layout, and +0.0 where a row meets its own column."""
    rows = np.asarray(rows)[:, None]
    out = v[metric_mod.pair_index(rows, cols, m)]
    out[rows == cols] = 0.0
    return out


def _block_diameter(v: np.ndarray, block: list, m: int) -> float:
    """max of the condensed distances `v` of an m-point set over
    block x block, diagonal included.

    A block of all of T is v.max() when that is positive, since the +0.0
    diagonal then decides neither the max nor its sign of zero.  Any other
    block is gathered a tile of rows at a time; a tile, its index array and
    its diagonal mask each hold at most `_DIAMETER_TILE_ELEMS` entries (at
    least one row), and each tile holds what the m x m matrix would, so
    the float is bit for bit that matrix's block max.
    """
    if len(block) == 1:
        return 0.0
    if len(block) == m:
        top = float(v.max())
        if top > 0.0:
            return top
    idx = np.asarray(block)
    rows = max(1, _DIAMETER_TILE_ELEMS // len(idx))
    return float(np.max([_submatrix(v, idx[lo:lo + rows], idx, m).max()
                         for lo in range(0, len(idx), rows)]))


def evaluate_certificate(tree: PartitionTree, T: IndexSet, proc: ProcessSpec,
                         functional: str = "gammaX",
                         samples: int = metric_mod.MC_DEFAULT_SAMPLES,
                         seed: int = 0) -> float:
    """sup_t sum_n of the weighted level-n block diameters; an upper bound
    on the corresponding functional."""
    if functional not in ("gamma2", "gammaX"):
        raise ValueError(f"unknown functional {functional!r}")
    tree.validate(len(T))
    m = len(T)
    totals = np.zeros(m)
    for n, level in enumerate(tree.levels):
        if all(len(b) == 1 for b in level):
            break
        p = _level_p(functional, n)
        w = _level_weight(functional, n)
        v = metric_mod.distance_matrix(proc, T, p, samples=samples, seed=seed)[0]
        for block in level:
            if len(block) > 1:
                totals[block] += w * _block_diameter(v, block, m)
        del v  # one condensed vector alive at a time
    return float(totals.max())


# ----------------------------------------------------------------------
# exact mode
# ----------------------------------------------------------------------

def _exact_gamma(T: IndexSet, proc: ProcessSpec,
                 functional: str) -> tuple[float, PartitionTree]:
    m = len(T)
    if m == 1:
        return 0.0, PartitionTree.trivial(1)
    p0 = _level_p(functional, 0)
    p1 = _level_p(functional, 1)
    w0 = _level_weight(functional, 0)
    w1 = _level_weight(functional, 1)
    base = w0 * _block_diameter(metric_mod.distance_matrix(proc, T, p0)[0], range(m), m)
    v1 = metric_mod.distance_matrix(proc, T, p1)[0]
    # dm1[i, :i], the distances from point i to the points placed before it
    dm1 = [v1[metric_mod.pair_index(i, np.arange(i), m)] for i in range(m)]

    # Splitting to singletons as early as the caps allow dominates any
    # slower schedule, so only the level-1 partition needs a search
    # (level 2 holds up to 16 >= |T| singletons).  Depth-first in
    # restricted-growth order (point i joins each open block, then opens
    # one), each block carrying its weighted diameter: max and scaling by
    # w1 > 0 are exact and monotone, so `worst` equals a full rescore bit
    # for bit and never falls along a branch.  Cutting a branch once
    # base + worst >= best_val keeps the first strict minimiser.
    k = level_cap(1)
    blocks, diams = [], []
    best_val = math.inf
    best_part = None

    def search(i: int, worst: float) -> None:
        nonlocal best_val, best_part
        if base + worst >= best_val:
            return
        if i == m:
            best_val = base + worst
            best_part = [list(b) for b in blocks]
            return
        for b, block in enumerate(blocks):
            old = diams[b]
            diams[b] = max(old, w1 * float(dm1[i][block].max()))
            block.append(i)
            search(i + 1, max(worst, diams[b]))
            block.pop()
            diams[b] = old
        if len(blocks) < k:
            blocks.append([i])
            diams.append(0.0)
            search(i + 1, worst)
            blocks.pop()
            diams.pop()

    search(0, 0.0)
    levels = [[list(range(m))], best_part]
    if any(len(b) > 1 for b in best_part):
        levels.append([[i] for i in range(m)])
    return best_val, PartitionTree(levels=levels)


# ----------------------------------------------------------------------
# greedy mode
# ----------------------------------------------------------------------

def _farthest_point_split(block: list, k: int, v: np.ndarray, m: int) -> list:
    """Split the sorted `block` into at most k pieces by farthest-point
    seeding (Gonzalez 1985), reading the condensed distances `v` of an
    m-point set.

    Seeds start from the lowest index; each new seed maximizes the
    distance to the existing seeds (ties to the lowest index), and points
    join their nearest seed (ties to the earliest seed), found a tile of
    at most `_DIAMETER_TILE_ELEMS` entries at a time.
    """
    if k <= 1 or len(block) == 1:
        return [list(block)]
    k = min(k, len(block))
    idx = np.array(block)
    seeds = [0]  # positions in block
    # distance to the nearest seed; -inf marks a seed, which no scan picks
    near = _submatrix(v, idx, block[0], m)[:, 0]
    near[0] = -math.inf
    while len(seeds) < k:
        best, best_d = None, -math.inf
        for pos, d in enumerate(near.tolist()):
            if d > best_d + 1e-15:
                best, best_d = pos, d
        seeds.append(best)
        near = np.minimum(near, _submatrix(v, idx, block[best], m)[:, 0])
        near[best] = -math.inf
    rows = max(1, _DIAMETER_TILE_ELEMS // k)
    owner = np.concatenate([np.argmin(_submatrix(v, idx[lo:lo + rows], idx[seeds], m),
                                      axis=1)
                            for lo in range(0, len(idx), rows)])
    owner[seeds] = np.arange(k)  # a seed keeps itself, even against an equal seed
    return [idx[owner == j].tolist() for j in range(k)]


def _greedy_gamma(T: IndexSet, proc: ProcessSpec, functional: str,
                  samples: int, seed: int) -> tuple[float, PartitionTree]:
    m = len(T)
    levels = [[list(range(m))]]
    n = 0
    while any(len(b) > 1 for b in levels[-1]):
        n += 1
        cap = min(level_cap(n), m)
        current = levels[-1]
        p_split = _level_p(functional, n)
        v = metric_mod.distance_matrix(proc, T, p_split, samples=samples, seed=seed)[0]
        diams = [_block_diameter(v, block, m) for block in current]
        # every block keeps one child; spare capacity goes to the block
        # with the largest diameter per child, ties to the lowest index,
        # and blocks of repeated points (diameter 0) still take what is
        # left, or they would never reach singletons
        alloc = [1] * len(current)
        spare = cap - len(current)
        if cap >= m:  # the blocks partition T: every block splits into singletons
            alloc, spare = [len(b) for b in current], 0
        while spare > 0:
            best = None
            for bi, block in enumerate(current):
                if alloc[bi] >= len(block):
                    continue
                score = diams[bi] / alloc[bi]
                if best is None or score > best[0] + 1e-15:
                    best = (score, bi)
            if best is None:
                break
            alloc[best[1]] += 1
            spare -= 1
        nxt = []
        for block, k in zip(current, alloc):
            nxt.extend(_farthest_point_split(block, k, v, m))
        levels.append(nxt)
        del v  # one condensed vector alive at a time, evaluation included
    tree = PartitionTree(levels=levels)
    value = evaluate_certificate(tree, T, proc, functional, samples=samples, seed=seed)
    return value, tree


def compute_gamma(T: IndexSet, proc: ProcessSpec, functional: str = "gammaX",
                  mode: str = "exact", samples: int = metric_mod.MC_DEFAULT_SAMPLES,
                  seed: int = 0) -> tuple[float, PartitionTree]:
    """Minimize (exactly) or certify (greedily) the chaining functional."""
    if functional not in ("gamma2", "gammaX"):
        raise ValueError(f"unknown functional {functional!r}")
    m = len(T)
    if m == 0:
        raise ValueError("index set is empty")
    if mode == "exact":
        if m > EXACT_LIMIT:
            raise ValueError(
                f"exact mode caps |T| at {EXACT_LIMIT} (got {m}); use greedy mode")
        if not metric_mod.is_exact_metric(proc, T):
            raise ValueError(
                "exact mode requires closed-form or enumeration metrics; "
                "this process would inject Monte-Carlo noise")
        return _exact_gamma(T, proc, functional)
    if mode == "greedy":
        if m > GREEDY_LIMIT:
            raise ValueError(f"greedy mode caps |T| at {GREEDY_LIMIT}")
        return _greedy_gamma(T, proc, functional, samples, seed)
    raise ValueError(f"unknown mode {mode!r}")


def uniform_space_gamma(m: int, pair_distance: Callable[[float], float]) -> float:
    """Exact gamma_X for an m-point space with all pairs equidistant.

    With every pairwise distance equal to pair_distance(p) at level
    metric p, the optimum splits as fast as the caps allow and the value
    telescopes to sum_{n < n*} pair_distance(2^n), where n* is the first
    level whose cap reaches m.
    """
    if m < 2:
        raise ValueError("uniform-space oracle needs m >= 2")
    n_star = 1
    while level_cap(n_star) < m:
        n_star += 1
    return float(sum(pair_distance(float(2 ** n)) for n in range(n_star)))
