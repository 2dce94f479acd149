import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import furstlab as fl
from furstlab.family import (
    DUPLICATE_TOL,
    DomainError,
    EvaluationError,
    IdenticalCurvesError,
    TransversalFamily,
    c2_dist,
)
from oracles import transversality_defect


def parabola(a, b, interval=(-2.0, 2.0)):
    return fl.quadratic_translate_curve(a, b, interval, lead=0.5)


# -- C2 norm: the distance to the zero curve -----------------------------------

def c2_norm(f):
    return c2_dist(f, fl.affine_curve(0.0, 0.0, f.interval))


def test_c2_norm_identity_line():
    assert c2_norm(fl.affine_curve(1.0, 0.0, (0.0, 1.0))) == 2.0


def test_c2_norm_square():
    f = fl.CurveFunction(
        -1.0, 1.0,
        lambda x: np.asarray(x, dtype=float) ** 2,
        lambda x: 2.0 * np.asarray(x, dtype=float),
        lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float)),
    )
    assert c2_norm(f) == 5.0


def test_c2_norm_zero():
    assert c2_norm(fl.affine_curve(0.0, 0.0, (0.0, 1.0))) == 0.0


def test_c2_norm_rejects_nonfinite():
    bad = fl.CurveFunction(
        0.0, 1.0,
        lambda x: np.where(np.asarray(x) > 0.5, np.nan, 0.0),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    with pytest.raises(EvaluationError, match="x="):
        c2_norm(bad)


# -- transversality defect ---------------------------------------------------

def test_defect_constant_difference():
    f = fl.affine_curve(0.0, 0.0, (0.0, 1.0))
    g = fl.affine_curve(0.0, 1.0, (0.0, 1.0))
    assert transversality_defect(f, g) == 1.0


def test_defect_line_vs_constant():
    # min of |x-1/2|+1 is 1 at x=1/2, norm is 3/2
    f = fl.affine_curve(1.0, 0.0, (0.0, 1.0))
    g = fl.affine_curve(0.0, 0.5, (0.0, 1.0))
    assert transversality_defect(f, g) == pytest.approx(2.0 / 3.0, abs=1e-12)
    # dense-grid oracle
    assert transversality_defect(f, g, grid_n=40001) == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_defect_vertical_parabola_translates():
    f = parabola(0.3, 0.0)
    g = parabola(0.3, 0.7)
    assert transversality_defect(f, g) == pytest.approx(1.0, abs=1e-12)


def test_defect_identical_curves_error():
    f = parabola(0.3, 0.1)
    with pytest.raises(IdenticalCurvesError):
        transversality_defect(f, parabola(0.3, 0.1))


def test_fast_path_matches_generic_grid():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a1, a2 = rng.uniform(0, 1, 2)
        b1, b2 = rng.uniform(-1, 1, 2)
        fam_fast = TransversalFamily("parabola", [a1, a2], [b1, b2], (-2.0, 2.0), lead=0.5)
        assert fam_fast.affine_difference_coeffs() is not None  # the affine shortcut runs
        # the same members as translates of the seed 0.5*x^2: the grid path
        fam_slow = TransversalFamily(
            "convex", [a1, a2], [b1, b2], (-2.0, 2.0), seed=fl.quadratic_seed(0.5)
        )
        assert fam_slow.affine_difference_coeffs() is None
        assert fam_fast.t_const == pytest.approx(fam_slow.t_const, rel=1e-9)
        assert fam_fast.min_pair_distance() == pytest.approx(
            fam_slow.min_pair_distance(), rel=1e-9
        )


# -- family-level estimate ---------------------------------------------------

def _nine_lines():
    a, b = np.meshgrid([0.0, 1.0, -1.0], [0.0, 0.5, -0.5], indexing="ij")
    return TransversalFamily("affine", a, b, (0.0, 1.0))


def test_estimate_affine_family_below_four():
    fam = _nine_lines()
    t = fl.estimate_transversality_constant(fam)
    assert t <= 4.0
    # frozen from the exhaustive pair/grid oracle: worst pair is slope gap 1,
    # offset gap -1 with defect 1/2
    assert t == pytest.approx(2.0, abs=1e-12)


def test_estimate_affine_family_oracle():
    fam = _nine_lines()
    curves = fam.curves
    worst = math.inf
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            worst = min(worst, transversality_defect(curves[i], curves[j]))
    assert fl.estimate_transversality_constant(fam) == pytest.approx(1.0 / worst, rel=1e-12)


def test_estimate_single_slope_family():
    fam = TransversalFamily("affine", np.ones(16), np.arange(0, 1, 1 / 16), (0.0, 1.0))
    assert fl.estimate_transversality_constant(fam) == 1.0


def test_estimate_duplicate_pair_error():
    fam = TransversalFamily("affine", [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], (0.0, 1.0))
    with pytest.raises(IdenticalCurvesError, match="indices"):
        fl.estimate_transversality_constant(fam)


def test_two_parabola_translates_constant_translation_invariant():
    # 1/T depends only on the seed shape; translating both centers together
    # must not move the estimate
    seed = fl.quadratic_seed()
    a, b = np.array([0.0, 0.4]), np.array([0.0, 0.3])
    fam0 = TransversalFamily("convex", a, b, (-5.0, 5.0), seed=seed)
    fam1 = TransversalFamily("convex", a + 0.5, b - 2.0, (-4.5, 5.5), seed=seed)
    assert fam0.t_const == pytest.approx(fam1.t_const, rel=1e-9)


def test_affine_pair_certified_floor():
    # certified bound: affine-difference defect >= 1/5 on [-2, 2]
    rng = np.random.default_rng(11)
    for _ in range(50):
        a1, a2 = rng.uniform(-1, 1, 2)
        b1, b2 = rng.uniform(-1, 1, 2)
        if abs(a1 - a2) < 1e-9 and abs(b1 - b2) < 1e-9:
            continue
        d = transversality_defect(
            fl.affine_curve(a1, b1), fl.affine_curve(a2, b2)
        )
        assert d >= 1.0 / 5.0 - 1e-12


# -- convex translates: the convex kind of TransversalFamily -------------------

def test_convex_translates_vertical_pair():
    fam = TransversalFamily("convex", [0.0, 0.0], [0.0, 1.0], (-5.0, 5.0),
                            seed=fl.quadratic_seed())
    assert transversality_defect(fam.curves[0], fam.curves[1]) == 1.0


def test_convex_translates_form28_comparability():
    # for g(x) = x^2 on [-5, 5], g_z1 - g_z2 = 2 (a2 - a1) x + a1^2 - a2^2 + b1 - b2,
    # so ||g_z1 - g_z2||_C2 = 12 |a1 - a2| + |a1^2 - a2^2 + b1 - b2|, which lies
    # between |z1 - z2| and 15 |z1 - z2| for centers in [-1, 1]^2
    rng = np.random.default_rng(3)
    z = rng.uniform(-1, 1, (16, 2))
    fam = TransversalFamily("convex", z[:, 0], z[:, 1], (-5.0, 5.0),
                            seed=fl.quadratic_seed())
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            (a1, b1), (a2, b2) = z[i], z[j]
            dist = c2_dist(fam.curves[i], fam.curves[j])
            assert dist == pytest.approx(12 * abs(a1 - a2) + abs(a1 ** 2 - a2 ** 2 + b1 - b2), rel=1e-12)
            assert math.dist(z[i], z[j]) <= dist <= 15 * math.dist(z[i], z[j])


def test_convex_translates_exp_translation_invariance():
    seed = fl.exp_seed()
    rng = np.random.default_rng(2)
    a, b = rng.uniform(-1, 1, 64), rng.uniform(-1, 1, 64)
    fam0 = TransversalFamily("convex", a, b, (-5.0, 5.0), seed=seed)
    fam10 = TransversalFamily("convex", a + 10.0, b, (5.0, 15.0), seed=seed)
    assert fam10.t_const == pytest.approx(fam0.t_const, rel=0.05)


# -- intersection components ----------------------------------------------------

def test_components_disjoint_constants():
    f = fl.affine_curve(0.0, 0.0, (0.0, 1.0))
    g = fl.affine_curve(0.0, 1.0, (0.0, 1.0))
    rep = fl.intersection_components(f, g, 0.1)
    assert len(rep) == 0


def test_components_crossing_parabolas():
    f = fl.CurveFunction(
        -1.0, 1.0,
        lambda x: np.asarray(x, dtype=float) ** 2,
        lambda x: 2 * np.asarray(x, dtype=float),
        lambda x: 2 * np.ones_like(np.asarray(x, dtype=float)),
    )
    g = fl.CurveFunction(
        -1.0, 1.0,
        lambda x: (np.asarray(x, dtype=float) - 1.0) ** 2,
        lambda x: 2 * (np.asarray(x, dtype=float) - 1.0),
        lambda x: 2 * np.ones_like(np.asarray(x, dtype=float)),
    )
    rep = fl.intersection_components(f, g, 0.01)
    assert len(rep) == 1
    (lo, hi), = rep.intervals
    h = 2.0 / 2048
    assert lo == pytest.approx(0.49, abs=2 * h)
    assert hi == pytest.approx(0.51, abs=2 * h)
    assert rep.lengths[0] == pytest.approx(0.02, abs=4 * h)


def test_components_full_interior():
    f = fl.affine_curve(0.0, 0.0, (0.0, 1.0))
    g = fl.affine_curve(0.0, 0.01, (0.0, 1.0))
    rep = fl.intersection_components(f, g, 0.01)
    assert len(rep) == 1
    (lo, hi), = rep.intervals
    assert lo < 0.001 and hi > 0.999


def test_components_under_resolution_flag():
    f = fl.affine_curve(1.0, 0.0, (0.0, 1.0))
    g = fl.affine_curve(0.0, 0.5, (0.0, 1.0))
    rep = fl.intersection_components(f, g, 1e-7, grid_n=101)
    assert rep.under_resolved or len(rep) == 0


# -- family invariants -------------------------------------------------------------

def _random_parabola_family(seed, n=12):
    rng = np.random.default_rng(seed)
    return TransversalFamily("parabola", rng.uniform(0, 1, n), rng.uniform(-1, 0, n), (-2.0, 2.0),
                             lead=0.5)


def test_min_defect_times_t_is_at_least_one():
    fam = _random_parabola_family(7)
    t = fam.t_const
    worst = min(
        transversality_defect(fam.curves[i], fam.curves[j])
        for i in range(len(fam))
        for j in range(i + 1, len(fam))
    )
    assert worst * t >= 1.0 - 1e-12


def _assert_refused_by_t_const(args, pair):
    # the family constructs; t_const refuses it and names the pair
    fam = TransversalFamily(*args)
    assert fam.min_pair_distance() == _all_pairs_min(fam) <= DUPLICATE_TOL
    with pytest.raises(IdenticalCurvesError, match=pair):
        fam.t_const


def test_near_duplicate_rejected_at_construction():
    # members 0 and 2 are 4e-13 apart in C2 with member 1 between them in
    # (slope, intercept) order
    _assert_refused_by_t_const(
        ("affine", [0.0, 0.0, 1e-13], [0.0, 5.0, 1e-13], (-2.0, 2.0)), "indices 0 and 2")
    # parabola translates carry alpha = -2a: member 1 sorts after member 2
    _assert_refused_by_t_const(
        ("parabola", [0.5, 0.5 - 5e-14, 0.5], [0.0, 3e-13, 1.0], (-2.0, 2.0)), "indices 0 and 1")
    # exactly DUPLICATE_TOL apart is a duplicate
    _assert_refused_by_t_const(("affine", [0.0, 0.0], [0.0, 1e-12], (-2.0, 2.0)), "indices 0 and 1")
    # the same rows a tolerance apart are distinct
    fam = TransversalFamily("affine", [0.0, 0.0, 2e-12], [0.0, 5.0, 0.0], (-2.0, 2.0))
    assert fam.min_pair_distance() == _all_pairs_min(fam) > DUPLICATE_TOL
    fam = TransversalFamily("affine", [0.0, 0.0], [0.0, 2e-12], (-2.0, 2.0))
    assert fam.min_pair_distance() == _all_pairs_min(fam) > DUPLICATE_TOL
    assert fam.t_const == 1.0


def test_near_duplicate_rejected_away_from_zero():
    # on [5, 6] the members differ by -2e-13 x + 1.1e-12, 3e-13 in C2,
    # though their intercepts are 1.1e-12 apart
    _assert_refused_by_t_const(("affine", [0.0, -2e-13], [0.0, 1.1e-12], (5.0, 6.0)), "indices 0 and 1")


def test_nonfinite_parameters_rejected():
    for a, b in (([0.0, np.nan], [0.0, 1.0]), ([0.0, 1.0], [np.inf, 1.0])):
        with pytest.raises(DomainError, match="finite"):
            TransversalFamily("affine", a, b, (-2.0, 2.0))


def test_subfamily_takes_a_mask_as_its_selected_members():
    fam = TransversalFamily("affine", [0.0, 1.0, 2.0], [3.0, 4.0, 5.0], (-2.0, 2.0))
    for mask in (np.array([False, False, True]), np.array([True, False, True])):
        sub, by_index = fam.subfamily(mask), fam.subfamily(np.flatnonzero(mask))
        assert np.array_equal(sub.a, by_index.a) and np.array_equal(sub.b, by_index.b)
    assert fam.subfamily(np.array([False, False, True])).a.tolist() == [2.0]


def test_embedding_point_is_the_interval_midpoint_at_any_grid_n():
    # the 2048-point grid of (-2, 2) has no element at 0; its middle one is -9.77e-4
    for grid_n in (2048, 2049):
        fam = TransversalFamily("affine", [1.0, -0.5], [0.25, 0.75], (-2.0, 2.0), grid_n=grid_n)
        assert fam.embedding_images().tolist() == [[0.25, 1.0], [0.75, -0.5]]


# -- the sorted window against the all-pairs pass ----------------------------

def _all_pairs_min(fam):
    return min(float(dist.min()) for _, _, _, dist in fam.pairwise_defect_and_dist())


@pytest.mark.parametrize("kind", ["affine", "parabola"])
def test_window_min_equals_all_pairs_on_nice_configurations(kind):
    for k in range(6, 11):
        fam = fl.build_nice_configuration(kind, k, 0.5, 1.0, 1, k).family
        assert fam.min_pair_distance() == _all_pairs_min(fam)


def test_window_min_with_tied_slopes():
    rng = np.random.default_rng(3)
    a = rng.choice([-0.5, 0.0, 0.25], 200)
    fam = TransversalFamily("affine", a, rng.uniform(-1, 1, 200), (-2.0, 2.0))
    assert fam.min_pair_distance() == _all_pairs_min(fam)
    # parallel parabola translates: one alpha for every member
    fam = TransversalFamily("parabola", np.full(50, 0.5), rng.uniform(0, 1, 50),
                            (-2.0, 2.0), lead=0.5)
    assert fam.min_pair_distance() == _all_pairs_min(fam)


def test_window_searches_each_tied_slope_block():
    # 1,500 parabola translates over 12 values of a: blocks of tied alpha
    # whose beta_c spans far more than the window, so a strip scan would make
    # most of its pairs only to drop them
    rng = np.random.default_rng(6)
    a = rng.choice(np.arange(12) / 64, 1500)
    fam = TransversalFamily("parabola", a, rng.uniform(-1, 1, 1500), (-2.0, 2.0), lead=0.5)
    assert fam.min_pair_distance() == _all_pairs_min(fam)
    # the window's pairs are those within w in alpha and in beta_c, no more
    order, alpha, beta_c, scale = window = fam._window_order()
    for w in (0.004, 1 / 32, 0.1):
        i, j = (np.concatenate(side) for side in zip(*fl.family._window_pairs(window, w, 1000)))
        got = set(zip(i.tolist(), j.tolist()))
        assert len(got) == len(i) and (i < j).all()
        p, q = np.triu_indices(len(fam), 1)
        near = (np.abs(alpha[p] - alpha[q]) <= w) & (np.abs(beta_c[p] - beta_c[q]) <= w)
        ii, jj = order[p[near]], order[q[near]]
        assert got == set(zip(np.minimum(ii, jj).tolist(), np.maximum(ii, jj).tolist()))


def test_window_min_when_the_closest_pair_is_far_apart_in_sort_order():
    # members (0, 1), ..., (0, 100) sort between (0, 0) and (1e-3, 0), the
    # closest pair, which is 101 rows apart
    a = np.r_[0.0, np.zeros(100), 1e-3]
    b = np.r_[0.0, np.arange(1.0, 101.0), 0.0]
    fam = TransversalFamily("affine", a, b, (-2.0, 2.0))
    order = np.lexsort((b, a))
    assert abs(int(np.flatnonzero(order == 0)[0]) - int(np.flatnonzero(order == 101)[0])) == 101
    assert fam.min_pair_distance() == _all_pairs_min(fam) == fam.subfamily([0, 101]).min_pair_distance()
    # members 0 and 2 (3e-3 + 1 apart) are the closest pair; member 1 sorts
    # between them, and the adjacent pairs' least distance 1.5015 is less
    # than twice the closest pair's offset gap 1, so a window of half the
    # width would miss it
    fam = TransversalFamily("affine", [0.0, 5e-4, 1e-3], [0.0, -1.5, 1.0], (-2.0, 2.0))
    assert fam.min_pair_distance() == _all_pairs_min(fam) == fam.subfamily([0, 2]).min_pair_distance()
    # the same with the slope gap: on [0, 0.5] members 0 and 2 are 1.25
    # apart with slopes 1 apart, the adjacent pairs 1.75
    fam = TransversalFamily("affine", [0.0, 0.5, 1.0], [0.0, 1.0, -0.25], (0.0, 0.5))
    assert fam.min_pair_distance() == _all_pairs_min(fam) == fam.subfamily([0, 2]).min_pair_distance()


@pytest.mark.parametrize("interval", [(5.0, 6.0), (-7.0, -3.0), (0.5, 4.0)])
def test_window_min_on_intervals_without_zero(interval):
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(2, 120))
        a = np.round(rng.uniform(-1, 1, n), int(rng.integers(1, 4)))
        kind = ("affine", "parabola")[trial % 2]
        fam = TransversalFamily(kind, a, rng.uniform(-1, 1, n), interval, lead=0.5)
        assert fam.min_pair_distance() == _all_pairs_min(fam)


def test_window_min_of_two_members():
    for kind in ("affine", "parabola"):
        fam = TransversalFamily(kind, [0.3, -0.2], [0.1, 0.4], (1.0, 3.0))
        assert fam.min_pair_distance() == _all_pairs_min(fam)
    assert TransversalFamily("affine", [0.3], [0.1], (1.0, 3.0)).min_pair_distance() == math.inf


# -- chunking of the grid path -----------------------------------------------

def _convex_family(n, seed=0):
    rng = np.random.default_rng(seed)
    return TransversalFamily(
        "convex", rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), (-2.0, 2.0),
        seed=fl.quadratic_seed(0.5), grid_n=9,
    )


def test_grid_path_chunks_list_the_pairs_in_triu_order(monkeypatch):
    monkeypatch.setattr(TransversalFamily, "CHUNK_FLOATS", 50)  # 5 pairs a chunk
    fam = _convex_family(37)
    chunks = [(ii, jj) for ii, jj, _, _ in fam.pairwise_defect_and_dist()]
    assert len(chunks) > 1 and max(len(ii) for ii, _ in chunks) == 5
    ii, jj = (np.concatenate(c) for c in zip(*chunks))
    ti, tj = np.triu_indices(37, 1)
    assert np.array_equal(ii, ti) and np.array_equal(jj, tj)


def test_grid_path_names_the_first_duplicate_pair(monkeypatch):
    monkeypatch.setattr(TransversalFamily, "CHUNK_FLOATS", 50)
    rng = np.random.default_rng(2)
    a, b = rng.uniform(-1, 1, 12), rng.uniform(-1, 1, 12)
    a[9], b[9] = a[5], b[5]
    a[7], b[7] = a[3], b[3]
    fam = TransversalFamily("convex", a, b, (-2.0, 2.0), seed=fl.quadratic_seed(0.5), grid_n=9)
    with pytest.raises(IdenticalCurvesError, match="indices 3 and 7"):
        fam.t_const


def test_grid_pass_memory_is_bounded_by_the_chunk(monkeypatch):
    # all pairs' (i, j) at once would take 8 n (n - 1) bytes
    monkeypatch.setattr(TransversalFamily, "CHUNK_FLOATS", 1 << 14)

    def peak(n):
        fam = _convex_family(n)
        tracemalloc.start()
        try:
            fl.estimate_transversality_constant(fam)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    chunk = (1 << 14) // 9
    one_chunk = peak(int((1 + math.sqrt(1 + 8 * chunk)) / 2))  # about one chunk of pairs
    n = 1000
    assert 8 * n * (n - 1) >= 4 * one_chunk
    assert peak(n) < 8 * n * (n - 1)


def test_mismatched_intervals_rejected():
    f, g = fl.affine_curve(0.0, 0.0, (0.0, 1.0)), fl.affine_curve(1.0, 0.0, (0.0, 2.0))
    for pair_oracle in (c2_dist, transversality_defect):
        with pytest.raises(DomainError, match="interval"):
            pair_oracle(f, g)


@settings(max_examples=60, deadline=None)
@given(
    a1=st.floats(-1, 1), b1=st.floats(-1, 1),
    a2=st.floats(-1, 1), b2=st.floats(-1, 1),
)
def test_embedding_inequality_affine(a1, b1, a2, b2):
    # |A(f)-A(g)| <= ||f-g||_C2 always (definition of the norm)
    f = fl.affine_curve(a1, b1)
    g = fl.affine_curve(a2, b2)
    if c2_dist(f, g) < 1e-9:
        return
    fam = TransversalFamily("affine", [a1, a2], [b1, b2], (-2.0, 2.0))
    img = fam.embedding_images()
    gap = math.hypot(img[0, 0] - img[1, 0], img[0, 1] - img[1, 1])
    assert gap <= c2_dist(f, g) * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    a1=st.floats(-1, 1), b1=st.floats(-1, 1),
    a2=st.floats(-1, 1), b2=st.floats(-1, 1),
)
def test_defect_is_at_most_one(a1, b1, a2, b2):
    f = fl.affine_curve(a1, b1)
    g = fl.affine_curve(a2, b2)
    if c2_dist(f, g) < 1e-9:
        return
    assert transversality_defect(f, g) <= 1.0 + 1e-12
