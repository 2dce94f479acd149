import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from furstlab import dyadic as dy
from furstlab.dyadic import (
    AtomicMeasure,
    DiscretePointSet,
    SquareFamily,
)
from furstlab.family import DomainError
from oracles import greedy_separated, reevaluate_report


def grid_1d(k):
    """The (2^k + 1)-point delta-grid of [0, 1]."""
    return DiscretePointSet(np.arange(2 ** k + 1) / 2.0 ** k, k)


# -- cells and covers ----------------------------------------------------------

def test_square_geometry_exact():
    assert dy.side_of(3) == 2.0 ** -3
    assert dy.centers_of(np.array([5, -2]), 3).tolist() == [11 * 2.0 ** -4, -3 * 2.0 ** -4]


def test_dyadic_cover_two_points():
    ps = DiscretePointSet(np.array([[0.1, 0.1], [0.6, 0.6]]), 4)
    assert len(dy.dyadic_cover(ps, 1)) == 2


def test_dyadic_cover_boundary_point_half_open():
    ps = DiscretePointSet(np.array([[0.25, 0.25]]), 4)
    assert dy.dyadic_cover(ps, 2).tolist() == [[1, 1]]


def test_dyadic_cover_17_point_grid():
    cover = dy.dyadic_cover(grid_1d(4), 4)
    assert cover.shape == (17, 1)
    assert cover.dtype == np.int64


def test_dyadic_cover_idempotent():
    rng = np.random.default_rng(0)
    ps = DiscretePointSet(rng.uniform(0, 1, (40, 2)), 5)
    cells = dy.dyadic_cover(ps, 3)
    centers = dy.centers_of(cells, 3)
    again = dy.dyadic_cover(DiscretePointSet(centers, 5), 3)
    assert np.array_equal(again, cells)


def test_dyadic_cover_any_level():
    # at a negative level the cells are wider than 1; the cover and the cell
    # count are the distinct index rows all the same
    rng = np.random.default_rng(3)
    pts = rng.uniform(-16, 16, (200, 2))
    for k in (-3, -1, 0, 2):
        want = np.unique(dy.cell_indices(pts, k), axis=0)
        assert np.array_equal(dy.dyadic_cover(pts, k), want)
        assert len(dy.dyadic_cover(pts, k)) == len(want)
    assert dy.dyadic_cover(pts, -3).tolist() == [[i, j] for i in range(-2, 2) for j in range(-2, 2)]
    assert len(dy.dyadic_cover(np.zeros((0, 2)), 4)) == 0


def test_square_family_is_sorted_and_distinct():
    rng = np.random.default_rng(4)
    ix = rng.integers(-5, 5, 300)
    iy = rng.integers(-5, 5, 300)
    fam = SquareFamily(4, ix, iy)
    want = np.unique(np.stack([ix, iy], axis=1), axis=0)
    assert len(want) < 300  # the draw has repeats
    assert np.array_equal(np.stack([fam.ix, fam.iy], axis=1), want)
    assert fam.ix.dtype == fam.iy.dtype == np.int64
    grid = SquareFamily.grid(3)
    perm = rng.permutation(len(grid))
    rebuilt = SquareFamily(3, np.r_[grid.ix[perm], grid.ix[:5]], np.r_[grid.iy[perm], grid.iy[:5]])
    assert np.array_equal(grid.ix, rebuilt.ix) and np.array_equal(grid.iy, rebuilt.iy)
    # ranges whose one-integer key would pass 2^63 are sorted by both columns
    wide_ix = np.r_[ix, ix[:40]] << 40
    wide_iy = np.r_[iy, iy[:40]] << 40
    wide = SquareFamily(4, wide_ix, wide_iy)
    assert np.array_equal(np.stack([wide.ix, wide.iy], axis=1), want << 40)
    assert len(SquareFamily(2, [], [])) == 0
    unit = SquareFamily.grid(5)  # every square of [0, 1)^2
    assert len(unit) == 4 ** 5
    assert set(unit.ix.tolist()) == set(unit.iy.tolist()) == set(range(2 ** 5))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), table=st.booleans())
def test_distinct_square_keys_equal_numpy_unique_rows(data, table):
    # squares in a cols x rows box anywhere in int64 (negative iy included),
    # corners drawn so the key range is exactly cols * rows, then repeats: a
    # range of at most 8 times the square count is marked in a table, a wider
    # one sorted
    n = data.draw(st.integers(2, 60))
    repeats = data.draw(st.lists(st.integers(0, n - 1), max_size=20))
    total = n + len(repeats)
    cols = data.draw(st.integers(1, 8 * total))
    if table:
        rows = data.draw(st.integers(1, 8 * total // cols))
    else:
        rows = data.draw(st.integers(8 * total // cols + 1, 8 * total // cols + 2 ** 40))
    ix0 = data.draw(st.integers(-2 ** 63, 2 ** 63 - cols))
    iy0 = data.draw(st.integers(-2 ** 63, 2 ** 63 - rows))
    dx = data.draw(st.lists(st.integers(0, cols - 1), min_size=n - 2, max_size=n - 2))
    dy_ = data.draw(st.lists(st.integers(0, rows - 1), min_size=n - 2, max_size=n - 2))
    ix = np.array([ix0, ix0 + cols - 1] + [ix0 + d for d in dx], dtype=np.int64)
    iy = np.array([iy0 + rows - 1, iy0] + [iy0 + d for d in dy_], dtype=np.int64)
    ix, iy = np.r_[ix, ix[repeats]], np.r_[iy, iy[repeats]]
    assert (cols * rows <= 8 * len(ix)) == table
    keys, split = dy._distinct_square_keys(ix, iy)
    got = np.stack(split(keys), axis=1)
    assert np.array_equal(got, np.unique(np.stack([ix, iy], axis=1), axis=0))
    assert got.dtype == np.int64


def test_distinct_square_keys_mark_a_table_smaller_than_the_keys():
    # 2^20 squares in a 256 x 512 box, a key range of 2^17: the 128 KiB
    # table, one block of keys and the 1 MiB of distinct keys, where a sort
    # would allocate 8 MiB of keys
    rng = np.random.default_rng(5)
    ix, iy = rng.integers(0, 256, 1 << 20), rng.integers(-256, 256, 1 << 20)
    tracemalloc.start()
    try:
        keys, split = dy._distinct_square_keys(ix, iy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(np.stack(split(keys), axis=1), np.unique(np.stack([ix, iy], axis=1), axis=0))
    assert peak < 3 << 20


def test_unique_cells_equals_numpy_unique_rows():
    # the one-key sort, and the lexsort where a key would pass 2^63, give
    # np.unique's sorted rows and inverse
    rng = np.random.default_rng(6)
    cells = rng.integers(-5, 5, (300, 2))
    for rows in (cells, cells << 40, cells[:1], cells[:0]):
        got, inverse = dy.unique_cells(rows)
        want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert np.array_equal(got, want) and np.array_equal(inverse, want_inverse.ravel())
        assert got.shape == (len(want), 2) and inverse.shape == (len(rows),)


@settings(max_examples=80, deadline=None)
@given(x=st.floats(-4, 4), k=st.integers(0, 20))
def test_cell_indices_match_floor_oracle(x, k):
    idx = dy.cell_indices(np.array([x]), k)[0]
    assert idx == math.floor(x * 2 ** k)
    # the point lies in the half-open cell [idx 2^-k, (idx+1) 2^-k)
    assert math.ldexp(idx, -k) <= x < math.ldexp(idx + 1, -k)


# -- covering numbers -------------------------------------------------------------

def euclidean_matrix(pts):
    return np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))


def test_covering_grid_quarter_radius():
    assert dy.covering_number(euclidean_matrix(grid_1d(4).points), 0.25) == 2


def test_covering_single_point():
    assert dy.covering_number(euclidean_matrix(np.array([[0.3]])), 0.7) == 1


def test_covering_bracket_random_300():
    rng = np.random.default_rng(0)
    dmat = euclidean_matrix(rng.uniform(0, 1, (300, 2)))
    greedy = len(greedy_separated(dmat, 1 / 8))
    exact_r = dy.covering_number(dmat, 1 / 8)
    exact_half = dy.covering_number(dmat, 1 / 16)
    assert exact_r <= greedy <= exact_half


def test_covering_bracket_many_small_instances():
    for seed in range(12):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(5, 80))
        dmat = euclidean_matrix(rng.uniform(0, 1, (n, 2)))
        r = float(rng.uniform(0.05, 0.4))
        greedy = len(greedy_separated(dmat, r))
        assert dy.covering_number(dmat, r) <= greedy
        assert greedy <= dy.covering_number(dmat, r / 2)


def test_covering_empty_set_error():
    with pytest.raises(DomainError):
        dy.covering_number(euclidean_matrix(np.zeros((0, 2))), 0.5)


def test_exact_mode_size_cap():
    rng = np.random.default_rng(1)
    dmat = euclidean_matrix(rng.uniform(0, 1, (600, 2)))
    with pytest.raises(DomainError, match=f"<= {dy.EXACT_COVER_LIMIT}, got 600"):
        dy.covering_number(dmat, 0.25)


def test_covering_bracket_on_distance_matrix():
    for seed in range(8):
        rng = np.random.default_rng(950 + seed)
        dmat = euclidean_matrix(rng.uniform(0, 1, (int(rng.integers(5, 80)), 2)))
        r = float(rng.uniform(0.05, 0.4))
        greedy = len(greedy_separated(dist=dmat, r=r))
        assert dy.covering_number(dist=dmat, r=r) <= greedy
        assert greedy <= dy.covering_number(dist=dmat, r=r / 2)


def test_distance_matrix_checks():
    dmat = euclidean_matrix(np.random.default_rng(2).uniform(0, 1, (600, 2)))
    for r in (0.0, -0.5, math.nan):
        with pytest.raises(DomainError):
            dy.covering_number(dist=dmat[:10, :10], r=r)
    with pytest.raises(DomainError):
        dy.covering_number(dist=dmat, r=0.25)
    with pytest.raises(DomainError):
        dy.covering_number(dist=np.zeros((0, 0)), r=0.5)
    with pytest.raises(DomainError, match="square matrix"):
        dy.covering_number(dmat[:3], r=0.5)


@pytest.mark.parametrize("dist", [
    [[math.nan, 0.1], [0.1, 0.0]],
    [[0.0, math.inf], [math.inf, 0.0]],
    [[0.0, -1.0], [-1.0, 0.0]],
    [[0.5, 0.1], [0.1, 0.5]],
    [[0.0, 0.1], [0.1, 0.0]] + np.diag([0.0, 1e-300]),
    [[0.0, 0.1], [np.nextafter(0.1, 1.0), 0.0]],
], ids=["nan", "inf", "negative", "diagonal", "tiny-diagonal", "asymmetric"])
def test_covering_refuses_a_matrix_that_is_not_a_distance_matrix(dist):
    # a nan or a diagonal of 0.5 made the MILP infeasible; the rest were counted
    with pytest.raises(DomainError, match="dist must"):
        dy.covering_number(dist, 0.05)


# -- set-class checkers ---------------------------------------------------------

def test_delta_set_full_grid():
    rep = dy.delta_set_constant(grid_1d(4), 1.0)
    assert 1.0 <= rep.best_constant <= 4.0
    # frozen brute-force value: 3 points in B(x, delta) over delta * 17
    assert rep.best_constant == pytest.approx(48.0 / 17.0, rel=1e-12)


def test_delta_set_single_point_s0():
    rep = dy.delta_set_constant(DiscretePointSet(np.array([0.3]), 4), 0.0)
    assert rep.best_constant == 1.0


def test_delta_set_antipodal_pair():
    # brute force: count 1 at r=delta gives 1/(2^-4 * 2) = 8
    rep = dy.delta_set_constant(DiscretePointSet(np.array([0.0, 1.0]), 4), 1.0)
    assert rep.best_constant == pytest.approx(8.0, rel=1e-12)


def test_katz_tao_grid():
    rep = dy.katz_tao_constant(grid_1d(4), 1.0)
    assert 1.0 <= rep.best_constant <= 4.0


def test_katz_tao_singleton():
    rep = dy.katz_tao_constant(DiscretePointSet(np.array([0.5]), 4), 0.7)
    assert rep.best_constant == 1.0


def test_katz_tao_sqrt_spaced():
    k = 8
    pts = np.arange(2 ** (k // 2)) / 2.0 ** (k // 2)
    rep = dy.katz_tao_constant(DiscretePointSet(pts, k), 0.5)
    assert rep.best_constant <= 4.0


@pytest.mark.parametrize("max_centers", [0, -3, 2.5, np.inf, "3"])
@pytest.mark.parametrize("checker", [dy.delta_set_constant, dy.katz_tao_constant])
def test_checkers_refuse_max_centers_below_one(checker, max_centers):
    with pytest.raises(DomainError, match="max_centers must be at least 1"):
        checker(grid_1d(4), 0.5, max_centers=max_centers)


def test_reports_reproducible_at_witness():
    rng = np.random.default_rng(3)
    ps = DiscretePointSet(rng.uniform(0, 1, (120, 2)), 6)
    for fn, s in [
        (dy.delta_set_constant, 1.3),
        (dy.katz_tao_constant, 0.8),
    ]:
        rep = fn(ps, s)
        assert reevaluate_report(ps, rep, s) == pytest.approx(rep.best_constant, abs=1e-9)


def _delta_set_oracle(ps, s):
    """Independent slow path: plain loops over centers and dyadic radii."""
    seen = set()
    reps = []
    for p in ps.points:
        cell = tuple(math.floor(v * 2 ** ps.delta_exp) for v in p)
        if cell not in seen:
            seen.add(cell)
            reps.append(p)
    best = 0.0
    for x in reps:
        for l in range(ps.delta_exp + 1):
            r = math.ldexp(1.0, -l)
            count = sum(1 for y in reps if math.dist(x, y) <= r)
            best = max(best, count / (r ** s * len(reps)))
    return best


def test_delta_set_constant_matches_slow_oracle():
    for seed in range(6):
        rng = np.random.default_rng(800 + seed)
        n = int(rng.integers(5, 60))
        ps = DiscretePointSet(rng.uniform(0, 1, (n, 2)), 5)
        s = float(rng.uniform(0.2, 1.8))
        fast = dy.delta_set_constant(ps, s).best_constant
        assert fast == pytest.approx(_delta_set_oracle(ps, s), rel=1e-12)


def _katz_tao_oracle(ps, s):
    seen = {}
    for p in ps.points:
        cell = tuple(math.floor(v * 2 ** ps.delta_exp) for v in p)
        seen.setdefault(cell, p)
    reps = list(seen.values())
    best = 0.0
    for x in reps:
        for l in range(ps.delta_exp + 1):
            r = math.ldexp(1.0, -l)
            count = sum(1 for y in reps if math.dist(x, y) <= r)
            best = max(best, count / (r / ps.delta) ** s)
    return best


def test_katz_tao_constant_matches_slow_oracle():
    for seed in range(6):
        rng = np.random.default_rng(900 + seed)
        n = int(rng.integers(5, 50))
        ps = DiscretePointSet(rng.uniform(0, 1, (n, 2)), 5)
        s = float(rng.uniform(0.2, 1.8))
        fast = dy.katz_tao_constant(ps, s).best_constant
        assert fast == pytest.approx(_katz_tao_oracle(ps, s), rel=1e-12)


def test_delta_set_monotone_in_s():
    rng = np.random.default_rng(4)
    ps = DiscretePointSet(rng.uniform(0, 1, (80, 2)), 6)
    c1 = dy.delta_set_constant(ps, 0.6).best_constant
    c2 = dy.delta_set_constant(ps, 1.4).best_constant
    assert c2 >= c1


def test_empty_set_errors():
    with pytest.raises(DomainError):
        DiscretePointSet(np.zeros((2, 2)), 4)  # duplicate points
    ps = DiscretePointSet(np.array([0.5]), 4)
    with pytest.raises(DomainError):
        dy.delta_set_constant(ps, 1.5)  # s above dim


# -- generator --------------------------------------------------------------------

def test_generate_full_grid():
    p = dy.generate_delta_set(4, 1.0, 1, seed=0, dim=1)
    assert len(p) == 16


def test_generate_half_dim():
    p = dy.generate_delta_set(8, 0.5, 2, seed=0)
    assert len(p) == 2 ** 4


def test_generate_s_zero():
    assert len(dy.generate_delta_set(8, 0.0, 2, seed=0)) == 1


def test_generate_wrong_period():
    with pytest.raises(DomainError):
        dy.generate_delta_set(9, 0.5, 2, seed=0)


def test_generate_uniform_branching_exact():
    p = dy.generate_delta_set(9, 0.5, 3, seed=7)
    K = round(2 ** (0.5 * 3))
    for j in (1, 2):
        parents = dy.cell_indices(p.points, j * 3)
        children = dy.cell_indices(p.points, (j + 1) * 3) if j < 2 else None
        # each level-j cell splits into exactly K level-(j+1) cells
        groups = {}
        fine = dy.cell_indices(p.points, (j + 1) * 3)
        for par, chi in zip(map(tuple, parents), map(tuple, fine)):
            groups.setdefault(par, set()).add(chi)
        assert {len(v) for v in groups.values()} == {K}


@pytest.mark.parametrize("dim,delta_exp,T,s", [
    (1, 8, 2, 0.5), (1, 9, 3, 1.0), (2, 8, 2, 1.5), (2, 9, 3, 2.0), (2, 6, 3, 0.9),
])
def test_generate_passes_delta_set_checker(dim, delta_exp, T, s):
    p = dy.generate_delta_set(delta_exp, s, T, seed=1, dim=dim)
    rep = dy.delta_set_constant(p, s, max_centers=128)
    assert rep.best_constant <= 64.0


def test_generate_rejects_oversized_tree_before_building(monkeypatch):
    # 4^20 = 2^40 cells; checked first, so where the limit is missing this
    # fails here instead of building the tree
    assert dy.MAX_TREE_CELLS < 4 ** 20

    def must_not_allocate(*args, **kwargs):
        raise AssertionError("the tree was built")

    rng = np.random.default_rng(0)
    monkeypatch.setattr(dy.np, "zeros", must_not_allocate)
    with pytest.raises(DomainError):
        dy.generate_delta_set_indices(40, 1.0, 2, rng)
    with pytest.raises(DomainError):
        dy.generate_delta_set_indices(10 ** 9, 1.0, 1, rng)


class NoPermute:
    """A random generator that draws integers but fails if asked to permute."""

    def __init__(self, rng):
        self.integers = rng.integers

    def permuted(self, *args, **kwargs):
        raise AssertionError("a tree level was permuted")


def test_generate_refuses_an_oversized_permutation_before_it_starts():
    # 4,096 trees of 8^4 cells at 2^-48 are 1.7e7 leaves, under MAX_TREE_CELLS,
    # but permute 4,096 x 4,096 x (1 + 8 + 64 + 512) = 9.8e9 child offsets
    with pytest.raises(DomainError, match="permute 9814671360 child offsets"):
        dy.generate_delta_set_indices(48, 0.25, 12, NoPermute(np.random.default_rng(0)), batch=4096)


@pytest.mark.parametrize("limit, accepted", [(5 * 4 * (1 + 4), True), (5 * 4 * (1 + 4) - 1, False)])
def test_generate_permutation_limit_counts_every_level(monkeypatch, limit, accepted):
    # 5 trees of 4^2 cells (delta 2^-4, s = 1, T = 2) permute a row of 4
    # offsets at the root and at each of its 4 children
    monkeypatch.setattr(dy, "MAX_PERMUTE_ENTRIES", limit)
    rng = np.random.default_rng(0)
    if accepted:
        assert dy.generate_delta_set_indices(4, 1.0, 2, rng, batch=5).shape == (5, 16, 1)
    else:
        with pytest.raises(DomainError):
            dy.generate_delta_set_indices(4, 1.0, 2, rng, batch=5)


class NoDraw:
    """A random generator that fails if asked to draw."""

    def integers(self, *args, **kwargs):
        raise AssertionError("a child offset was drawn")


def test_generate_refuses_an_oversized_sample_before_it_starts():
    # 4,096 column trees of 91^2 cells at 2^-26 (T = 13: 8,192 children per
    # cell, so offsets are drawn one at a time) are 3.4e7 leaves, under
    # MAX_TREE_CELLS, but draw 4,096 x 92 x 91.5 = 3.4e7 offsets, about 24 s
    start = time.perf_counter()
    with pytest.raises(DomainError, match="draw about 3.45e"):
        dy.generate_delta_set_indices(26, 0.5, 13, NoDraw(), batch=4096)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("limit, accepted", [(85, True), (84, False)])
def test_generate_sample_limit_counts_every_level(monkeypatch, limit, accepted):
    # 2 trees of 6^2 cells (delta 2^-26, s = 0.2, T = 13) draw 6 of 8,192
    # offsets at the root and at each of its 6 children: 14 cells of
    # 8192 ln(8192 / 8186) = 6.002 expected draws, 84.03 in all
    monkeypatch.setattr(dy, "MAX_SAMPLED_DRAWS", limit)
    rng = np.random.default_rng(0)
    if accepted:
        assert dy.generate_delta_set_indices(26, 0.2, 13, rng, batch=2).shape == (2, 36, 1)
    else:
        with pytest.raises(DomainError):
            dy.generate_delta_set_indices(26, 0.2, 13, NoDraw(), batch=2)


@pytest.mark.parametrize("limit, accepted", [(5 * 4 ** 3, True), (5 * 4 ** 3 - 1, False)])
def test_generate_tree_limit_counts_every_cell(monkeypatch, limit, accepted):
    # 5 trees of 4^3 cells (delta 2^-6, s = 1, T = 2)
    monkeypatch.setattr(dy, "MAX_TREE_CELLS", limit)
    rng = np.random.default_rng(0)
    if accepted:
        assert dy.generate_delta_set_indices(6, 1.0, 2, rng, batch=5).shape == (5, 64, 1)
    else:
        with pytest.raises(DomainError):
            dy.generate_delta_set_indices(6, 1.0, 2, rng, batch=5)


def test_generate_deterministic():
    p1 = dy.generate_delta_set(8, 0.7, 2, seed=9, dim=2)
    p2 = dy.generate_delta_set(8, 0.7, 2, seed=9, dim=2)
    np.testing.assert_array_equal(p1.points, p2.points)


#: (delta_exp, s, T, dim, batch, seed, shape, sha256 prefix of the bytes) of
#: generate_delta_set_indices(delta_exp, s, T, default_rng(seed), dim, batch):
#: the furstenberg sweep's 1-D and 2-D trees at T = 3, batches, 2-D at T = 2,
#: and the _sample_distinct branch (2^13 children per cell)
PINNED_TREES = [
    (12, 0.9, 3, 1, 1, 0, (1, 1296, 1), "496ea49c5ba3af7f"),
    (12, 1.0, 3, 2, 1, 0, (1, 4096, 2), "25bc250a2549ff3c"),
    (9, 0.5, 3, 1, 6, 3, (6, 27, 1), "f271f969f9837141"),
    (8, 1.5, 2, 2, 1, 5, (1, 4096, 2), "63cc662e25b74dae"),
    (8, 1.0, 2, 2, 3, 2, (3, 256, 2), "f6f04127ce6a5701"),
    (13, 0.2, 13, 1, 1, 0, (1, 6, 1), "4a6ac18ea4b03599"),
    (26, 0.3, 13, 1, 2, 1, (2, 225, 1), "87fc93461709a068"),
]


@pytest.mark.parametrize("delta_exp, s, T, dim, batch, seed, shape, digest", PINNED_TREES)
def test_generate_indices_are_pinned(delta_exp, s, T, dim, batch, seed, shape, digest):
    idx = dy.generate_delta_set_indices(delta_exp, s, T, np.random.default_rng(seed), dim=dim, batch=batch)
    assert idx.shape == shape and idx.dtype == np.int64
    assert hashlib.sha256(idx.tobytes()).hexdigest()[:16] == digest


@pytest.mark.parametrize("delta_exp, s, T, dim", [(24, 0.25, 12, 1), (12, 0.5, 6, 2)])
def test_generate_indices_permute_within_their_budget(monkeypatch, delta_exp, s, T, dim):
    # 32 trees of 8 cells permute 256 rows of 4096 children at their second
    # level, 8 MiB at once; a budget of one or three rows and a bit draws the
    # same stream, holding a small part of that
    def draw():
        rng = np.random.default_rng(11)
        tracemalloc.start()
        try:
            idx = dy.generate_delta_set_indices(delta_exp, s, T, rng, dim=dim, batch=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return idx, peak, rng.integers(0, 1 << 62, 4)

    whole, whole_peak, whole_next = draw()
    assert whole.shape == (32, 64, dim) and whole_peak > 256 * 4096 * 8
    for budget in (1 << 12, 3 * 4096 + 5):
        monkeypatch.setattr(dy, "PERMUTE_BUDGET", budget)
        idx, peak, after = draw()
        assert np.array_equal(idx, whole) and np.array_equal(after, whole_next)
        assert peak < 1 << 20


def test_generate_indices_release_a_level_buffer_before_the_next():
    # 256 trees of 8 cells among 2^12 children per cell: the first level
    # permutes 256 rows (8.4 MB), the second a block of PERMUTE_BUDGET
    # entries (33.5 MB); the first is gone before the second is made
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        idx = dy.generate_delta_set_indices(24, 0.25, 12, rng, dim=1, batch=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 8 * dy.PERMUTE_BUDGET
    assert block < peak < block + (1 << 20)
    assert idx.shape == (256, 64, 1)
    assert hashlib.sha256(idx.tobytes()).hexdigest()[:16] == "6b324bcc5dbccdad"
    assert rng.integers(0, 1 << 62, 2).tolist() == [4606662522747153546, 3231983834862797417]


# -- measures and serialization ------------------------------------------------------

def test_atomic_measure_mass_cap():
    with pytest.raises(DomainError):
        AtomicMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.7, 0.7]))


def test_atomic_measure_negative_weight():
    with pytest.raises(DomainError):
        AtomicMeasure(np.array([[0.0, 0.0]]), np.array([-0.1]))


def test_point_sets_and_measures_refuse_rows_of_three():
    rows = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    with pytest.raises(DomainError, match="points must be"):
        DiscretePointSet(rows, 4)
    with pytest.raises(DomainError, match="atoms must be"):
        AtomicMeasure(rows, np.array([0.5, 0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_and_weights_rejected(bad):
    with pytest.raises(DomainError):
        DiscretePointSet(np.array([0.25, bad]), 4)
    with pytest.raises(DomainError):
        AtomicMeasure(np.array([[0.0, 0.0], [bad, 0.5]]), np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        AtomicMeasure(np.array([[0.0, 0.0], [0.5, 0.5]]), np.array([0.5, bad]))


@pytest.mark.parametrize("row", ["abc", "nan", "inf", ""])
def test_point_csv_bad_cell_names_file_and_line(tmp_path, row):
    path = tmp_path / "pts.csv"
    path.write_text(f"x,y\n0.25,0.5\n0.5,{row}\n")
    with pytest.raises(DomainError, match="pts.csv:3: "):
        DiscretePointSet.from_csv(path, 4)


def test_point_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    ps = DiscretePointSet(rng.uniform(0, 1, (13, 2)), 5)
    path = tmp_path / "pts.csv"
    dy.write_csv(path, "x,y", ps.points, "provenance")
    header = path.read_text().splitlines()[0]
    assert header == "x,y"
    back = DiscretePointSet.from_csv(path, 5)
    np.testing.assert_array_equal(back.points, ps.points)
