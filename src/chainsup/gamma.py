"""Admissible partition sequences and the chaining functionals.

A PartitionTree is a certificate: evaluating it gives a valid upper bound
on gamma_2 or gamma_X.  Exact minimization runs at desk scale
(|T| <= EXACT_LIMIT) as a depth-first branch-and-bound over the level-1
partitions in restricted-growth order, which returns the first minimiser
in that order; beyond that a deterministic farthest-point greedy produces
certificates under the level-cardinality caps.
"""

from __future__ import annotations

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
    "greedy_tree",
    "compute_gamma",
    "uniform_space_gamma",
]

EXACT_LIMIT = 10
GREEDY_LIMIT = 10_000


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


def evaluate_certificate(tree: PartitionTree, T: IndexSet, proc: ProcessSpec,
                         functional: str = "gammaX",
                         samples: int = metric_mod.MC_DEFAULT_SAMPLES,
                         seed: int = 0) -> float:
    """sup_t sum_n of the weighted level-n block diameters, read inside the
    blocks of each level n >= 1 only; an upper bound on the functional."""
    if functional not in ("gamma2", "gammaX"):
        raise ValueError(f"unknown functional {functional!r}")
    tree.validate(len(T))
    totals = np.zeros(len(T))
    for n, level in enumerate(tree.levels):
        if all(len(b) == 1 for b in level):
            break
        p = _level_p(functional, n)
        w = _level_weight(functional, n)
        v = metric_mod.distance_matrix(proc, T, p, samples, seed, level if n else None)
        for block in level:
            if len(block) > 1:
                totals[block] += w * v.diameter(block)
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
    idx = np.arange(m)
    base = w0 * metric_mod.distance_matrix(proc, T, p0).diameter(idx)
    # the m x m square of the level-1 distances; the search reads row i at
    # the points placed before point i
    dm1 = metric_mod.distance_matrix(proc, T, p1).block(idx, idx)

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
            diams[b] = max(old, w1 * float(dm1[i, block].max()))
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

def _farthest_point_split(block: list, k: int, v: metric_mod.PairNorms) -> list:
    """Split the sorted `block` into at most k pieces by farthest-point
    seeding (Gonzalez 1985), reading the pair norms `v`.

    Seeds start from the lowest index; each new seed maximizes the
    distance to the existing seeds (ties to the lowest index), and points
    join their nearest seed (ties to the earliest seed), found one tile
    of `v.tiles` at a time.
    """
    if k <= 1 or len(block) == 1:
        return [list(block)]
    k = min(k, len(block))
    idx = np.array(block)
    seeds = [0]  # positions in block
    # distance to the nearest seed; -inf marks a seed, which no scan picks
    near = v.block(idx, block[0])[:, 0]
    near[0] = -math.inf
    while len(seeds) < k:
        best, best_d = None, -math.inf
        for pos, d in enumerate(near.tolist()):
            if d > best_d + 1e-15:
                best, best_d = pos, d
        seeds.append(best)
        near = np.minimum(near, v.block(idx, block[best])[:, 0])
        near[best] = -math.inf
    owner = np.concatenate([np.argmin(t, axis=1) for t in v.tiles(idx, idx[seeds])])
    owner[seeds] = np.arange(k)  # a seed keeps itself, even against an equal seed
    return [idx[owner == j].tolist() for j in range(k)]


def greedy_tree(T: IndexSet, proc: ProcessSpec, functional: str = "gammaX",
                samples: int = metric_mod.MC_DEFAULT_SAMPLES,
                seed: int = 0) -> PartitionTree:
    """The greedy certificate's tree: farthest-point levels, each reading
    d_p only inside the blocks it splits.  Its value is
    `evaluate_certificate`'s, which `compute_gamma` adds; a caller that
    needs only the tree reads no level-0 d_p."""
    if functional not in ("gamma2", "gammaX"):
        raise ValueError(f"unknown functional {functional!r}")
    m = len(T)
    if m > GREEDY_LIMIT:
        raise ValueError(f"greedy mode caps |T| at {GREEDY_LIMIT}")
    levels = [[list(range(m))]]
    n = 0
    while any(len(b) > 1 for b in levels[-1]):
        n += 1
        cap = level_cap(n)
        current = levels[-1]
        if cap >= m:  # every block splits into singletons, whatever its diameter
            levels.append([[i] for i in range(m)])
            break
        p_split = _level_p(functional, n)
        v = metric_mod.distance_matrix(proc, T, p_split, samples=samples, seed=seed,
                                       blocks=current if n > 1 else None)
        diams = [v.diameter(block) for block in current]
        # every block keeps one child; spare capacity goes to the block
        # with the largest diameter per child, ties to the lowest index,
        # and blocks of repeated points (diameter 0) still take what is
        # left, or they would never reach singletons
        alloc = [1] * len(current)
        spare = cap - len(current)
        # while spare > 0, sum(alloc) < cap < m, so some block has room
        while spare > 0:
            best = None
            for bi, block in enumerate(current):
                if alloc[bi] >= len(block):
                    continue
                score = diams[bi] / alloc[bi]
                if best is None or score > best[0] + 1e-15:
                    best = (score, bi)
            alloc[best[1]] += 1
            spare -= 1
        nxt = []
        for block, k in zip(current, alloc):
            nxt.extend(_farthest_point_split(block, k, v))
        levels.append(nxt)
    return PartitionTree(levels=levels)


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
                "exact mode requires d_1 and d_2 without Monte Carlo; "
                "this process would inject Monte-Carlo noise")
        return _exact_gamma(T, proc, functional)
    if mode == "greedy":
        tree = greedy_tree(T, proc, functional, samples, seed)
        return evaluate_certificate(tree, T, proc, functional, samples, seed), tree
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
