import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from furstlab import dyadic as dy
from furstlab.dyadic import (
    AtomicMeasure,
    DiscretePointSet,
    DyadicInterval,
    DyadicSquare,
    ParameterError,
)
from furstlab.family import DomainError


def grid_1d(k):
    """The (2^k + 1)-point delta-grid of [0, 1]."""
    return DiscretePointSet(np.arange(2 ** k + 1) / 2.0 ** k, k)


# -- cells and covers ----------------------------------------------------------

def test_square_geometry_exact():
    sq = DyadicSquare(3, 5, -2)
    assert sq.side == 2.0 ** -3
    assert sq.center == (11 * 2.0 ** -4, -3 * 2.0 ** -4)


def test_dyadic_cover_two_points():
    ps = DiscretePointSet(np.array([[0.1, 0.1], [0.6, 0.6]]), 4)
    assert len(dy.dyadic_cover(ps, 1)) == 2


def test_dyadic_cover_boundary_point_half_open():
    ps = DiscretePointSet(np.array([[0.25, 0.25]]), 4)
    assert dy.dyadic_cover(ps, 2) == [DyadicSquare(2, 1, 1)]


def test_dyadic_cover_17_point_grid():
    cover = dy.dyadic_cover(grid_1d(4), 4)
    assert len(cover) == 17
    assert all(isinstance(c, DyadicInterval) for c in cover)


def test_dyadic_cover_idempotent():
    rng = np.random.default_rng(0)
    ps = DiscretePointSet(rng.uniform(0, 1, (40, 2)), 5)
    cells = dy.dyadic_cover(ps, 3)
    centers = np.array([c.center for c in cells])
    again = dy.dyadic_cover(DiscretePointSet(centers, 5), 3)
    assert again == cells


@settings(max_examples=80, deadline=None)
@given(x=st.floats(-4, 4), k=st.integers(0, 20))
def test_cell_indices_match_floor_oracle(x, k):
    idx = dy.cell_indices(np.array([x]), k)[0]
    assert idx == math.floor(x * 2 ** k)
    # the point lies in the half-open cell [idx 2^-k, (idx+1) 2^-k)
    assert math.ldexp(idx, -k) <= x < math.ldexp(idx + 1, -k)


# -- covering numbers -------------------------------------------------------------

def test_covering_grid_quarter_radius():
    assert dy.covering_number(grid_1d(4), 0.25) == 2


def test_covering_single_point():
    ps = DiscretePointSet(np.array([0.3]), 4)
    assert dy.covering_number(ps, 0.7) == 1


def test_covering_bracket_random_300():
    rng = np.random.default_rng(0)
    ps = DiscretePointSet(rng.uniform(0, 1, (300, 2)), 8)
    greedy = dy.covering_number(ps, 1 / 8, mode="greedy")
    exact_r = dy.covering_number(ps, 1 / 8, mode="exact")
    exact_half = dy.covering_number(ps, 1 / 16, mode="exact")
    assert exact_r <= greedy <= exact_half


def test_covering_bracket_many_small_instances():
    for seed in range(12):
        rng = np.random.default_rng(700 + seed)
        n = int(rng.integers(5, 80))
        pts = rng.uniform(0, 1, (n, 2))
        ps = DiscretePointSet(pts, 7)
        r = float(rng.uniform(0.05, 0.4))
        greedy = dy.covering_number(ps, r, mode="greedy")
        assert dy.covering_number(ps, r, mode="exact") <= greedy
        assert greedy <= dy.covering_number(ps, r / 2, mode="exact")


def test_covering_empty_set_error():
    with pytest.raises(DomainError):
        dy.covering_number(np.zeros((0, 2)), 0.5)


def test_exact_mode_size_cap():
    rng = np.random.default_rng(1)
    ps = DiscretePointSet(rng.uniform(0, 1, (600, 2)), 8)
    with pytest.raises(ParameterError):
        dy.covering_number(ps, 0.25, mode="exact")
    assert dy.covering_number(ps, 0.25, mode="auto") >= 1  # falls back to greedy


def euclidean_matrix(pts):
    return np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))


def test_points_and_their_distance_matrix_agree():
    # random points and radii: no distance falls on r, so sqrt cannot flip a comparison
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        pts = rng.uniform(0, 1, (int(rng.integers(5, 120)), 2))
        dmat = euclidean_matrix(pts)
        r = float(rng.uniform(0.05, 0.4))
        for inclusive in (False, True):
            np.testing.assert_array_equal(dy.greedy_separated(pts, r, inclusive),
                                          dy.greedy_separated(dist=dmat, r=r, inclusive=inclusive))
        for mode in ("exact", "greedy"):
            assert dy.covering_number(pts, r, mode) == dy.covering_number(dist=dmat, r=r, mode=mode)


def test_covering_bracket_on_distance_matrix():
    for seed in range(8):
        rng = np.random.default_rng(950 + seed)
        dmat = euclidean_matrix(rng.uniform(0, 1, (int(rng.integers(5, 80)), 2)))
        r = float(rng.uniform(0.05, 0.4))
        greedy = dy.covering_number(dist=dmat, r=r, mode="greedy")
        assert dy.covering_number(dist=dmat, r=r, mode="exact") <= greedy
        assert greedy <= dy.covering_number(dist=dmat, r=r / 2, mode="exact")


def test_distance_matrix_checks():
    dmat = euclidean_matrix(np.random.default_rng(2).uniform(0, 1, (600, 2)))
    for r in (0.0, -0.5, math.nan):
        with pytest.raises(DomainError):
            dy.covering_number(dist=dmat[:10, :10], r=r)
    with pytest.raises(ParameterError):
        dy.covering_number(dist=dmat, r=0.25, mode="exact")
    with pytest.raises(DomainError):
        dy.covering_number(dist=np.zeros((0, 0)), r=0.5)
    with pytest.raises(DomainError):
        dy.covering_number(dmat[:3], dist=dmat[:3, :3], r=0.5)


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


def test_upper_regular_grid():
    rep = dy.upper_regular_constant(grid_1d(4), 1.0)
    assert rep.best_constant <= 4.0


def test_upper_regular_singleton():
    rep = dy.upper_regular_constant(DiscretePointSet(np.array([0.5]), 4), 1.0)
    assert rep.best_constant == 1.0


def test_upper_regular_restriction_invariance():
    full = dy.upper_regular_constant(grid_1d(4), 1.0)
    half = DiscretePointSet(np.arange(9) / 16.0, 4)
    restricted = dy.upper_regular_constant(half, 1.0)
    assert restricted.best_constant == pytest.approx(full.best_constant, rel=1e-12)


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


def test_frostman_uniform_grid():
    k = 5
    mu = AtomicMeasure(np.arange(2 ** k) / 2.0 ** k, np.full(2 ** k, 2.0 ** -k))
    rep = dy.frostman_constant(mu, 1.0, k)
    assert rep.best_constant <= 3.0


def test_frostman_single_atom():
    mu = AtomicMeasure(np.array([0.5]), np.array([1.0]))
    assert dy.frostman_constant(mu, 0.0, 4).best_constant == 1.0


def test_frostman_overshoot_reported_not_raised():
    k = 5
    mu = AtomicMeasure(np.arange(2 ** k) / 2.0 ** k, np.full(2 ** k, 2.0 ** -k))
    rep = dy.frostman_constant(mu, 2.0, k)
    assert rep.best_constant > 2.0 ** (k - 2)  # delta^-1-scale blowup, reported


def test_reports_reproducible_at_witness():
    rng = np.random.default_rng(3)
    ps = DiscretePointSet(rng.uniform(0, 1, (120, 2)), 6)
    for fn, s in [
        (dy.delta_set_constant, 1.3),
        (dy.katz_tao_constant, 0.8),
        (dy.upper_regular_constant, 1.1),
    ]:
        rep = fn(ps, s)
        assert dy.reevaluate_report(ps, rep, s) == pytest.approx(rep.best_constant, abs=1e-9)
    mu = AtomicMeasure(ps.points, np.full(len(ps), 1.0 / len(ps)))
    rep = dy.frostman_constant(mu, 1.2, 6)
    assert dy.reevaluate_report(mu, rep, 1.2) == pytest.approx(rep.best_constant, abs=1e-9)


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


def test_frostman_constant_matches_slow_oracle():
    rng = np.random.default_rng(42)
    n = 40
    pts = rng.uniform(0, 1, (n, 2))
    w = rng.uniform(0, 1.0 / n, n)
    mu = AtomicMeasure(pts, w)
    t, k = 1.1, 5
    best = 0.0
    for x in pts:
        for l in range(k + 1):
            r = math.ldexp(1.0, -l)
            mass = sum(wi for y, wi in zip(pts, w) if math.dist(x, y) <= r)
            best = max(best, mass / r ** t)
    fast = dy.frostman_constant(mu, t, k).best_constant
    assert fast == pytest.approx(best, rel=1e-9)


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
    with pytest.raises(ParameterError):
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
    with pytest.raises(ParameterError):
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
    with pytest.raises(ParameterError):
        dy.generate_delta_set_indices(40, 1.0, 2, rng)
    with pytest.raises(ParameterError):
        dy.generate_delta_set_indices(10 ** 9, 1.0, 1, rng)


@pytest.mark.parametrize("limit, accepted", [(5 * 4 ** 3, True), (5 * 4 ** 3 - 1, False)])
def test_generate_tree_limit_counts_every_cell(monkeypatch, limit, accepted):
    # 5 trees of 4^3 cells (delta 2^-6, s = 1, T = 2)
    monkeypatch.setattr(dy, "MAX_TREE_CELLS", limit)
    rng = np.random.default_rng(0)
    if accepted:
        assert dy.generate_delta_set_indices(6, 1.0, 2, rng, batch=5).shape == (5, 64, 1)
    else:
        with pytest.raises(ParameterError):
            dy.generate_delta_set_indices(6, 1.0, 2, rng, batch=5)


def test_generate_deterministic():
    p1 = dy.generate_delta_set(8, 0.7, 2, seed=9, dim=2)
    p2 = dy.generate_delta_set(8, 0.7, 2, seed=9, dim=2)
    np.testing.assert_array_equal(p1.points, p2.points)


# -- measures and serialization ------------------------------------------------------

def test_atomic_measure_mass_cap():
    with pytest.raises(DomainError):
        AtomicMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.7, 0.7]))


def test_atomic_measure_negative_weight():
    with pytest.raises(DomainError):
        AtomicMeasure(np.array([[0.0, 0.0]]), np.array([-0.1]))


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
    ps.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "x,y"
    back = DiscretePointSet.from_csv(path, 5)
    np.testing.assert_array_equal(back.points, ps.points)


def test_measure_csv_has_weight_column(tmp_path):
    mu = AtomicMeasure(np.array([[0.25, 0.5]]), np.array([0.5]))
    path = tmp_path / "mu.csv"
    mu.to_csv(path)
    assert path.read_text().splitlines()[0] == "x,y,w"
