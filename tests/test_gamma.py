import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import squareform

from chainsup import dist, gamma, metric
from chainsup.gamma import PartitionTree, TreeValidationError
from chainsup.metric import IndexSet, ProcessSpec


def gauss_proc(n):
    return ProcessSpec.homogeneous(dist.gaussian(), n)


def rad_proc(n):
    return ProcessSpec.homogeneous(dist.rademacher(), n)


class TestLevelCap:
    def test_values(self):
        assert gamma.level_cap(0) == 1
        assert gamma.level_cap(1) == 4
        assert gamma.level_cap(2) == 16
        assert gamma.level_cap(3) == 256
        assert gamma.level_cap(4) == 65536
        assert gamma.level_cap(6) >= 2 ** 62


class TestPartitionTree:
    def test_trivial(self):
        t = PartitionTree.trivial(3)
        t.validate(3)
        assert t.levels == [[[0, 1, 2]], [[0], [1], [2]]]

    def test_canonical_order(self):
        t = PartitionTree(levels=[[[2, 0, 1]], [[1], [2, 0]]])
        assert t.levels[1] == [[0, 2], [1]]

    def test_block_of(self):
        t = PartitionTree(levels=[[[0, 1, 2]], [[0, 1], [2]], [[0], [1], [2]]])
        assert t.block_of(1, 0) == [0, 1]
        assert t.block_of(1, 2) == [2]
        assert t.block_of(9, 1) == [1]  # past depth: singleton

    def test_json_round_trip(self):
        t = PartitionTree(levels=[[[0, 1, 2, 3]], [[0, 1], [2, 3]],
                                  [[0], [1], [2], [3]]])
        t2 = PartitionTree.from_json(t.to_json())
        assert t2.levels == t.levels

    def test_validate_missing_root(self):
        with pytest.raises(TreeValidationError):
            PartitionTree(levels=[[[0], [1]]]).validate(2)

    def test_validate_cap_violation(self):
        levels = [[list(range(5))], [[i] for i in range(5)]]  # 5 > cap 4
        with pytest.raises(TreeValidationError):
            PartitionTree(levels=levels).validate(5)

    def test_validate_non_refinement(self):
        levels = [[[0, 1, 2, 3]], [[0, 1], [2, 3]], [[0, 2], [1], [3]]]
        with pytest.raises(TreeValidationError):
            PartitionTree(levels=levels).validate(4)

    def test_validate_not_partition(self):
        levels = [[[0, 1, 2]], [[0], [1]]]
        with pytest.raises(TreeValidationError):
            PartitionTree(levels=levels).validate(3)

    def test_validate_no_singleton_floor(self):
        levels = [[[0, 1, 2]], [[0, 1], [2]]]
        with pytest.raises(TreeValidationError):
            PartitionTree(levels=levels).validate(3)

    def test_validate_size_mismatch(self):
        with pytest.raises(TreeValidationError):
            PartitionTree.trivial(3).validate(4)


class TestEvaluateCertificate:
    def test_two_point_identities(self):
        # origin and one basis vector: single increment of norm ||X_1||_p
        T = IndexSet.with_origin(np.eye(1))
        g2 = gamma.evaluate_certificate(PartitionTree.trivial(2), T,
                                        gauss_proc(1), "gamma2")
        assert g2 == pytest.approx(1.0, abs=1e-12)
        gx = gamma.evaluate_certificate(PartitionTree.trivial(2), T,
                                        gauss_proc(1), "gammaX")
        assert gx == pytest.approx(dist.gaussian().moment(1), rel=1e-12)
        assert gx == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)

    def test_level_diameter_monotone_in_n(self):
        # Delta_{2^n} on a fixed block is nondecreasing in n
        T = IndexSet(np.random.default_rng(0).standard_normal((6, 4)))
        proc = gauss_proc(4)
        diams = [metric.distance_matrix(proc, T, float(2 ** n))[0].max() for n in range(4)]
        assert all(hi >= lo - 1e-12 for lo, hi in zip(diams, diams[1:]))

    def test_certificate_value_vs_manual(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
        T = IndexSet(pts)
        proc = gauss_proc(2)
        tree = PartitionTree(levels=[[[0, 1, 2]], [[0, 1], [2]],
                                     [[0], [1], [2]]])
        m1, m2 = dist.gaussian().moment(1), dist.gaussian().moment(2)
        # gammaX: level 0 uses p=1 on the whole set, level 1 uses p=2 on {0,1}
        expect = math.sqrt(10.0) * m1 + 1.0 * m2
        got = gamma.evaluate_certificate(tree, T, proc, "gammaX")
        assert got == pytest.approx(expect, rel=1e-12)

    def test_invalid_functional(self):
        T = IndexSet.basis(2)
        with pytest.raises(ValueError):
            gamma.evaluate_certificate(PartitionTree.trivial(2), T,
                                       gauss_proc(2), "gamma7")

    def test_certificate_upper_bounds_exact(self):
        T = IndexSet(np.random.default_rng(1).standard_normal((6, 3)))
        proc = gauss_proc(3)
        exact, _ = gamma.compute_gamma(T, proc, "gammaX", mode="exact")
        sloppy = PartitionTree(levels=[[list(range(6))],
                                       [[0, 1, 2], [3, 4, 5]],
                                       [[i] for i in range(6)]])
        assert gamma.evaluate_certificate(sloppy, T, proc, "gammaX") >= exact - 1e-12


class TestComputeGamma:
    def test_singleton(self):
        v, tree = gamma.compute_gamma(IndexSet(np.zeros((1, 2))), gauss_proc(2))
        assert v == 0.0
        tree.validate(1)

    def test_two_point_gaussian(self):
        T = IndexSet.with_origin(np.eye(1))
        v2, _ = gamma.compute_gamma(T, gauss_proc(1), "gamma2")
        vx, _ = gamma.compute_gamma(T, gauss_proc(1), "gammaX")
        assert v2 == pytest.approx(1.0, abs=1e-12)
        assert vx == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-9)

    def test_exact_tree_is_admissible_and_tight(self):
        T = IndexSet(np.random.default_rng(2).standard_normal((7, 3)))
        proc = gauss_proc(3)
        v, tree = gamma.compute_gamma(T, proc, "gammaX", mode="exact")
        tree.validate(7)
        assert gamma.evaluate_certificate(tree, T, proc, "gammaX") == pytest.approx(
            v, rel=1e-12)

    def test_greedy_upper_bounds_exact(self):
        for seed in (3, 4, 5):
            T = IndexSet(np.random.default_rng(seed).standard_normal((8, 3)))
            proc = gauss_proc(3)
            exact, _ = gamma.compute_gamma(T, proc, "gammaX", mode="exact")
            greedy, tree = gamma.compute_gamma(T, proc, "gammaX", mode="greedy")
            tree.validate(8)
            assert greedy >= exact - 1e-12

    def test_exact_monotone_under_point_removal(self):
        proc = gauss_proc(3)
        pts = np.random.default_rng(6).standard_normal((8, 3))
        full, _ = gamma.compute_gamma(IndexSet(pts), proc, "gammaX", mode="exact")
        for drop in range(8):
            sub = np.delete(pts, drop, axis=0)
            v, _ = gamma.compute_gamma(IndexSet(sub), proc, "gammaX", mode="exact")
            assert v <= full + 1e-12

    def test_exact_limit(self):
        T = IndexSet(np.random.default_rng(0).standard_normal((11, 2)))
        with pytest.raises(ValueError):
            gamma.compute_gamma(T, gauss_proc(2), mode="exact")

    def test_exact_requires_exact_metric(self):
        proc = ProcessSpec.homogeneous(dist.sym_exponential(), 2)
        with pytest.raises(ValueError):
            gamma.compute_gamma(IndexSet.basis(2), proc, mode="exact")

    def test_exact_rademacher_basis_beyond_enumeration_dimension(self):
        # every pair differs in 2 of 22 coordinates, so the metric is enumerated
        T = IndexSet(np.eye(22)[:6])
        v, tree = gamma.compute_gamma(T, rad_proc(22), "gammaX", mode="exact")
        tree.validate(6)
        assert v == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-12)

    def test_greedy_rademacher_basis(self):
        # equidistant basis: greedy must hit the uniform-space optimum
        n = 17
        T = IndexSet.basis(n)
        v, tree = gamma.compute_gamma(T, rad_proc(n), "gammaX", mode="greedy")
        tree.validate(n)
        oracle = gamma.uniform_space_gamma(n, lambda p: 2.0 * 2.0 ** (-1.0 / p))
        assert v == pytest.approx(oracle, rel=1e-12)

    def test_greedy_splits_repeated_points(self):
        # a block of identical points has diameter 0 but must still split
        T = IndexSet(np.array([[0.0]] * 5 + [[1.0]]))
        v, tree = gamma.compute_gamma(T, gauss_proc(1), "gammaX", mode="greedy")
        tree.validate(6)
        assert tree.depth == 3
        assert v == gamma.compute_gamma(T, gauss_proc(1), "gammaX", mode="exact")[0]

    def test_gamma2_vs_gammaX_gaussian_comparable(self):
        # for gaussians the two functionals agree within universal factors
        T = IndexSet(np.random.default_rng(8).standard_normal((8, 4)))
        proc = gauss_proc(4)
        g2, _ = gamma.compute_gamma(T, proc, "gamma2", mode="exact")
        gx, _ = gamma.compute_gamma(T, proc, "gammaX", mode="exact")
        assert 0.1 * g2 <= gx <= 10.0 * g2


def _partitions_into_at_most(items: list, k: int):
    """All partitions of `items` into at most k nonempty blocks,
    in canonical (restricted-growth) order."""
    def rec(i, blocks):
        if i == len(items):
            yield [list(b) for b in blocks]
            return
        x = items[i]
        for b in blocks:
            b.append(x)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([x])
            yield from rec(i + 1, blocks)
            blocks.pop()
    yield from rec(0, [])


def brute_force_exact_gamma(T, proc, functional):
    """Oracle: score every level-1 partition, keep the first strict minimiser."""
    m = len(T)
    dm0 = squareform(metric.distance_matrix(proc, T, gamma._level_p(functional, 0))[0])
    dm1 = squareform(metric.distance_matrix(proc, T, gamma._level_p(functional, 1))[0])
    base = gamma._level_weight(functional, 0) * float(dm0.max())
    w1 = gamma._level_weight(functional, 1)
    best_val, best_part = math.inf, None
    for part in _partitions_into_at_most(list(range(m)), gamma.level_cap(1)):
        worst = 0.0
        for block in part:
            if len(block) > 1:
                idx = np.array(block)
                worst = max(worst, w1 * float(dm1[np.ix_(idx, idx)].max()))
        if base + worst < best_val:
            best_val, best_part = base + worst, part
    levels = [[list(range(m))], best_part]
    if any(len(b) > 1 for b in best_part):
        levels.append([[i] for i in range(m)])
    return best_val, PartitionTree(levels=levels)


@st.composite
def exact_cases(draw):
    """(T, proc, functional): random, integer-lattice (heavily tied) or
    basis sets of 2..8 points under a gaussian or rademacher process."""
    m = draw(st.integers(min_value=2, max_value=8))
    kind = draw(st.sampled_from(["random", "lattice", "basis"]))
    if kind == "basis":
        dim = draw(st.integers(min_value=m, max_value=m + 2))
        pts = np.eye(dim)[:m]
    else:
        dim = draw(st.integers(min_value=1, max_value=5))
        if kind == "lattice":
            pts = np.array(draw(st.lists(
                st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
                min_size=m, max_size=m)), dtype=float)
        else:
            seed = draw(st.integers(min_value=0, max_value=2 ** 32 - 1))
            pts = np.random.default_rng(seed).standard_normal((m, dim))
    make_proc = draw(st.sampled_from([gauss_proc, rad_proc]))
    functional = draw(st.sampled_from(["gammaX", "gamma2"]))
    return IndexSet(pts), make_proc(dim), functional


@given(case=exact_cases())
@settings(max_examples=120, deadline=None)
def test_exact_search_matches_brute_force(case):
    T, proc, functional = case
    value, tree = gamma.compute_gamma(T, proc, functional, mode="exact")
    oracle_value, oracle_tree = brute_force_exact_gamma(T, proc, functional)
    assert value == oracle_value
    assert tree.to_json() == oracle_tree.to_json()


@given(case=exact_cases())
@settings(max_examples=60, deadline=None)
def test_greedy_certificate_bounds_exact(case):
    T, proc, functional = case
    exact, _ = gamma.compute_gamma(T, proc, functional, mode="exact")
    greedy, tree = gamma.compute_gamma(T, proc, functional, mode="greedy")
    tree.validate(len(T))
    assert greedy >= exact


def reference_farthest_point_split(block: list, k: int, dm: np.ndarray) -> list:
    """Oracle: the list-based farthest-point split, which recomputes each
    candidate's distance to every seed on each round."""
    if k <= 1 or len(block) == 1:
        return [list(block)]
    k = min(k, len(block))
    seeds = [block[0]]
    rest = block[1:]
    while len(seeds) < k:
        best = None
        for i in rest:
            if i in seeds:
                continue
            dmin = min(dm[i, s] for s in seeds)
            if best is None or dmin > best[0] + 1e-15:
                best = (dmin, i)
        seeds.append(best[1])
        rest = [i for i in rest if i != best[1]]
    children = {s: [s] for s in seeds}
    for i in block:
        if i in seeds:
            continue
        nearest = min(seeds, key=lambda s: (dm[i, s], seeds.index(s)))
        children[nearest].append(i)
    return [sorted(children[s]) for s in seeds]


def list_based_split(block: list, k: int, v: np.ndarray, m: int) -> list:
    """The list-based oracle on the square of the condensed distances."""
    return reference_farthest_point_split(block, k, squareform(v))


@st.composite
def split_cases(draw):
    """(T, proc, v, block, k): random, small-lattice (repeated points,
    exact ties) or ulp-jittered lattice (near ties) sets under a gaussian
    or Monte-Carlo sym_exponential metric, a sorted sub-block and a piece
    count up to past its size."""
    m = draw(st.integers(min_value=2, max_value=14))
    dim = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "lattice", "jittered"]))
    if kind == "random":
        pts = rng.standard_normal((m, dim))
    else:
        pts = rng.integers(-1, 2, size=(m, dim)).astype(float)
    if kind == "jittered":  # distances a few ulps apart, inside the 1e-15 slack
        pts += rng.integers(-2, 3, size=(m, dim)) * 2.0 ** -52
    family = draw(st.sampled_from([dist.gaussian, dist.sym_exponential]))
    proc = ProcessSpec.homogeneous(family(), dim)
    T = IndexSet(pts)
    v = metric.distance_matrix(proc, T, float(2 ** draw(st.integers(0, 3))),
                               samples=2_000, seed=draw(st.integers(0, 9)))[0]
    block = sorted(draw(st.sets(st.integers(0, m - 1), min_size=1)))
    k = draw(st.integers(min_value=1, max_value=len(block) + 2))
    return T, proc, v, block, k


@given(case=split_cases())
@settings(max_examples=150, deadline=None)
def test_split_matches_the_list_based_oracle(case):
    T, proc, v, block, k = case
    assert gamma._farthest_point_split(block, k, v, len(T)) == \
        list_based_split(block, k, v, len(T))
    value, tree = gamma.compute_gamma(T, proc, mode="greedy", samples=2_000)
    with mock.patch.object(gamma, "_farthest_point_split", list_based_split):
        oracle_value, oracle_tree = gamma.compute_gamma(T, proc, mode="greedy",
                                                        samples=2_000)
    assert value == oracle_value
    assert tree.to_json() == oracle_tree.to_json()


def scan_allocation(diams, sizes, cap):
    """A copy of the spare-capacity scan in _greedy_gamma: each spare slot
    to the first open block whose diameter per child beats the running
    best by more than 1e-15."""
    alloc = [1] * len(sizes)
    spare = cap - len(sizes)
    while spare > 0:
        best = None
        for bi, size in enumerate(sizes):
            if alloc[bi] >= size:
                continue
            score = diams[bi] / alloc[bi]
            if best is None or score > best[0] + 1e-15:
                best = (score, bi)
        if best is None:
            break
        alloc[best[1]] += 1
        spare -= 1
    return alloc


@st.composite
def saturated_allocation_cases(draw):
    # diameters from a few bases plus offsets of a few ulps, so scores tie
    # and near-tie inside and just outside the 1e-15 slack; zeros are
    # repeated points, and size-1 blocks are full from the start
    n = draw(st.integers(1, 40))
    base = st.sampled_from([0.0, 1e-15, 0.5, 1.0, 1.0 / 3.0, 2.0, 3.0])
    offset = st.integers(-8, 8).map(lambda k: k * 2.0 ** -52)
    diams = draw(st.lists(st.tuples(base, offset).map(lambda t: max(0.0, t[0] + t[1])),
                          min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    cap = draw(st.integers(sum(sizes), sum(sizes) + 3))
    return diams, sizes, cap


@given(case=saturated_allocation_cases())
@example(case=([0.0, 0.0, 2.0], [5, 3, 2], 10))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_scan_at_a_cap_of_every_point_splits_every_block_into_singletons(case):
    # _greedy_gamma skips the scan when cap >= |T|, the blocks' total size,
    # and takes this final state directly
    diams, sizes, cap = case
    assert scan_allocation(diams, sizes, cap) == sizes


def test_greedy_4000_gaussian_points_match_the_per_level_oracle():
    # The oracle builds a full matrix, row i = |pts[i] - pts|_2, with no
    # cached pair lengths, and hands every level its strict upper triangle,
    # row-major, scaled by ||g||_p.
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((4_000, 16))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    proc = gauss_proc(16)
    start = time.perf_counter()
    value, tree = gamma.compute_gamma(IndexSet(pts), proc, mode="greedy")
    elapsed = time.perf_counter() - start
    euclid = np.empty((len(pts), len(pts)))
    for i, row in enumerate(pts):
        euclid[i] = np.linalg.norm(row - pts, axis=1)
    upper = euclid[np.triu_indices(len(pts), 1)]
    del euclid

    def per_level(proc, T, p, samples=0, seed=0):
        return (upper * dist.gaussian().moment(p), np.broadcast_to(0.0, len(upper)),
                "closed_form")

    with mock.patch.object(metric, "distance_matrix", per_level):
        oracle_value, oracle_tree = gamma.compute_gamma(IndexSet(pts), proc, mode="greedy")
    assert value == oracle_value
    assert tree.to_json() == oracle_tree.to_json()
    # about 2.3 s on a 2-vCPU VM; the (pairs x dim) array path took 18 s and 2.5 GB
    assert elapsed < 15.0


def test_greedy_4000_gaussian_points_peak_memory():
    # A level's distances are the cached pair lengths (61 MiB) and their
    # scaled copy (61 MiB), read in tiles of at most 2^18 entries: a
    # 128 MiB peak.  A |T| x |T| square would add 122 MiB.
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((4_000, 16))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    T = IndexSet(pts)
    tracemalloc.start()
    try:
        gamma.compute_gamma(T, gauss_proc(16), mode="greedy")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 140 * 2 ** 20


def test_greedy_at_the_greedy_limit_in_bounded_time_and_memory():
    # GREEDY_LIMIT = 10,000 unit-sphere points in R^16: two 381 MiB
    # condensed vectors (the cached lengths and a level's scaled copy) plus
    # tiles, a 771 MiB peak in 10.6 s under tracemalloc on a 2-vCPU VM.
    # A |T| x |T| square would add 763 MiB.
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((gamma.GREEDY_LIMIT, 16))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    T = IndexSet(pts)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        value, tree = gamma.compute_gamma(T, gauss_proc(16), mode="greedy")
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tree.validate(len(T))
    assert value > 0.0
    assert peak < 800 * 2 ** 20
    assert elapsed < 60.0


@pytest.mark.parametrize("tile", [1, 5, 7, 64, 1 << 18])
def test_block_diameter_equals_the_full_block_max(tile, monkeypatch):
    monkeypatch.setattr(gamma, "_DIAMETER_TILE_ELEMS", tile)
    T = IndexSet(np.random.default_rng(12).standard_normal((23, 3)))
    v = metric.distance_matrix(gauss_proc(3), T, 2.0)[0]
    dm = squareform(v)
    blocks = [list(range(23)), [4], [0, 22], [3, 1, 17, 8, 9, 10, 2]]
    for block in blocks:
        idx = np.array(block)
        assert gamma._block_diameter(v, block, 23) == float(dm[np.ix_(idx, idx)].max())


def square_block_diameter(dm: np.ndarray, block: list, tile: int) -> float:
    """Oracle: the block max read from the square, a tile of rows at a time."""
    idx = np.asarray(block)
    rows = max(1, tile // len(idx))
    return float(np.max([dm[np.ix_(idx[lo:lo + rows], idx)].max()
                         for lo in range(0, len(idx), rows)]))


@st.composite
def condensed_cases(draw):
    """(v, m, block, seeds): a condensed vector of m points with exact ties
    and zeros (repeated points) or random values, some entries -0.0, a
    sorted block (a singleton, all of T, or a subset that may hold 0 and
    m - 1) and up to 12 sorted seed positions in it."""
    m = draw(st.one_of(st.integers(1, 300), st.sampled_from([127, 128, 129])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    npairs = m * (m - 1) // 2
    if draw(st.booleans()):
        v = rng.integers(0, 3, size=npairs) * 0.5
    else:
        v = np.abs(rng.standard_normal(npairs))
    v[rng.random(npairs) < draw(st.sampled_from([0.0, 0.1, 1.0]))] = -0.0
    kind = draw(st.sampled_from(["single", "all", "subset"]))
    if kind == "single":
        block = [draw(st.integers(0, m - 1))]
    elif kind == "all":
        block = list(range(m))
    else:
        picked = rng.random(m) < draw(st.floats(0.0, 1.0))
        picked[[0, m - 1]] |= draw(st.booleans())
        block = np.flatnonzero(picked).tolist() or [m - 1]
    k = draw(st.integers(1, min(len(block), 12)))
    return v, m, block, np.sort(rng.choice(len(block), k, replace=False))


@given(case=condensed_cases(), tile=st.sampled_from([1, 5, 7, 64, 1 << 18]))
@example(case=(np.full(3, -0.0), 3, [0, 1, 2], np.array([0, 2])), tile=1)
@example(case=(np.zeros(0), 1, [0], np.array([0])), tile=64)
@settings(max_examples=200, deadline=None)
def test_condensed_gathers_equal_the_square_gathers(case, tile):
    v, m, block, seeds = case
    dm = squareform(v)
    idx = np.asarray(block)
    if m > 1:  # every pair of the block against every other point
        ii, jj = np.meshgrid(idx, np.arange(m), indexing="ij")
        off = ii != jj
        pos = metric.pair_index(ii, jj, m)
        assert np.array_equal(pos, metric.pair_index(jj, ii, m))
        assert v[pos[off]].tobytes() == dm[ii[off], jj[off]].tobytes()
    with mock.patch.object(gamma, "_DIAMETER_TILE_ELEMS", tile):
        assert np.float64(gamma._block_diameter(v, block, m)).tobytes() == \
            np.float64(square_block_diameter(dm, block, tile)).tobytes()
        if len(block) > 1:  # seed columns and the owner gather
            for s in idx[seeds]:
                assert gamma._submatrix(v, idx, s, m)[:, 0].tobytes() == \
                    dm[idx, s].tobytes()
            assert gamma._submatrix(v, idx, idx[seeds], m).tobytes() == \
                dm[np.ix_(idx, idx[seeds])].tobytes()
        assert gamma._farthest_point_split(block, len(seeds), v, m) == \
            reference_farthest_point_split(block, len(seeds), dm)


class TestUniformSpaceGamma:
    def test_two_points(self):
        assert gamma.uniform_space_gamma(2, lambda p: 1.0) == pytest.approx(1.0)

    def test_rademacher_basis_257(self):
        # n* = 4 levels contribute before the cap 2^(2^4) = 65536 >= 257
        val = gamma.uniform_space_gamma(257, lambda p: 2.0 * 2.0 ** (-1.0 / p))
        expect = sum(2.0 * 2.0 ** (-1.0 / 2 ** n) for n in range(4))
        assert val == pytest.approx(expect, rel=1e-15)
        assert val == pytest.approx(5.930014479289866, rel=1e-12)

    def test_65537(self):
        val = gamma.uniform_space_gamma(65537, lambda p: 2.0 * 2.0 ** (-1.0 / p))
        expect = sum(2.0 * 2.0 ** (-1.0 / 2 ** n) for n in range(5))
        assert val == pytest.approx(expect, rel=1e-15)

    def test_monotone_in_m(self):
        vals = [gamma.uniform_space_gamma(m, lambda p: 1.0)
                for m in (2, 5, 17, 257, 70000)]
        assert all(hi >= lo for lo, hi in zip(vals, vals[1:]))

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            gamma.uniform_space_gamma(1, lambda p: 1.0)
