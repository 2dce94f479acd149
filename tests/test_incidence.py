import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import furstlab as fl
from furstlab import config as cf
from furstlab import dyadic as dy
from furstlab import incidence as inc
from furstlab.family import DomainError, EvaluationError


def zero_line():
    return fl.TransversalFamily([fl.affine_curve(0.0, 0.0, (0.0, 1.0))])


def random_line_family(seed, n=32, interval=(0.0, 1.0)):
    rng = np.random.default_rng(seed)
    return fl.TransversalFamily(
        [fl.affine_curve(a, b, interval) for a, b in zip(rng.uniform(0, 1, n), rng.uniform(0, 1, n))],
        declared_t_const=5.0,
        check_duplicates=False,
    )


# -- counting ---------------------------------------------------------------------

def test_bottom_row():
    row = dy.SquareFamily(3, np.arange(8), np.zeros(8, dtype=int))
    assert inc.incidences(zero_line(), row, 2.0).count == 8


def test_second_row_and_strict_boundary():
    row = dy.SquareFamily(3, np.arange(8), np.ones(8, dtype=int))
    assert inc.incidences(zero_line(), row, 2.0).count == 8
    # lambda*delta = 3/16 equals the center offset exactly: strict < gives 0
    assert inc.incidences(zero_line(), row, 1.5).count == 0


def test_lambda_delta_cap():
    row = dy.SquareFamily(1, np.arange(2), np.zeros(2, dtype=int))
    with pytest.raises(DomainError):
        inc.incidences(zero_line(), row, 2.0)  # 2 * 1/2 > 1/2


def test_fast_equals_bruteforce_on_random_instances():
    rng = np.random.default_rng(42)
    for trial in range(25):
        k = int(rng.integers(4, 8))
        n = int(rng.integers(2, 40))
        fam = random_line_family(1000 + trial, n)
        n_sq = int(rng.integers(10, 600))
        ix = rng.integers(0, 2 ** k, n_sq)
        iy = rng.integers(0, 2 ** k, n_sq)
        P = dy.SquareFamily(k, ix, iy)
        lam = float(rng.uniform(1.0, 4.0))
        fast = inc.incidences(fam, P, lam)
        brute = inc.incidences_bruteforce(fam, P, lam)
        assert fast.count == brute.count
        assert np.array_equal(fast.pairs, brute.pairs)


def test_fast_equals_bruteforce_on_exact_boundaries():
    # dyadic slopes and intercepts make many |y_p - f(x_p)| hit lambda*delta
    # exactly; the strict inequality must resolve identically on both paths
    k = 4
    dl = 2.0 ** -k
    curves = [fl.affine_curve(a, b, (0.0, 1.0))
              for a in (0.0, 0.5, 1.0) for b in (0.0, dl, 1.5 * dl, 2.0 * dl)]
    fam = fl.TransversalFamily(curves, declared_t_const=5.0, check_duplicates=False)
    P = dy.SquareFamily.grid(k)
    for lam in (1.0, 1.5, 2.0, 3.0):
        fast = inc.incidences(fam, P, lam)
        brute = inc.incidences_bruteforce(fam, P, lam)
        assert fast.count == brute.count
        assert np.array_equal(fast.pairs, brute.pairs)


def test_nan_threshold_raises_at_once():
    fam = random_line_family(3, n=4)
    P = dy.SquareFamily.grid(4)
    with pytest.raises(DomainError):
        inc._count_against_threshold(fam, P, math.nan, collect=False)
    for lam in (math.nan, -1.0, 16.0):  # 16 * 2^-4 = 1 > 1/2
        with pytest.raises(DomainError):
            cf.MainlemEvaluator(fam, 4, 2, 0.5, lam)


def test_monotone_in_lambda():
    fam = random_line_family(3, 24)
    P = dy.SquareFamily.grid(5)
    c1 = inc.incidences(fam, P, 1.5, collect=False).count
    c2 = inc.incidences(fam, P, 3.0, collect=False).count
    assert c1 <= c2


def test_pairs_csv(tmp_path):
    fam = zero_line()
    row = dy.SquareFamily(3, np.arange(8), np.zeros(8, dtype=int))
    res = inc.incidences(fam, row, 2.0)
    path = tmp_path / "pairs.csv"
    curve, square = res.pairs.T
    dy.write_csv(path, "curve_id,square_ix,square_iy", zip(curve, row.ix[square], row.iy[square]))
    lines = path.read_text().splitlines()
    assert lines[0] == "curve_id,square_ix,square_iy"
    assert len(lines) == 9


# -- weighted ----------------------------------------------------------------------

def test_weighted_unit_weights_match_count():
    fam = random_line_family(4, 16)
    P = dy.SquareFamily.grid(5)
    plain = inc.incidences(fam, P, 2.0).count
    w = inc.weighted_incidences(fam, P, np.ones(len(fam)), np.ones(len(P)), 2.0)
    assert w == plain


def test_weighted_doubling():
    fam = random_line_family(5, 16)
    P = dy.SquareFamily.grid(5)
    base = inc.weighted_incidences(fam, P, np.ones(len(fam)), np.ones(len(P)), 2.0)
    doubled = inc.weighted_incidences(fam, P, 2 * np.ones(len(fam)), np.ones(len(P)), 2.0)
    assert doubled == pytest.approx(2 * base, rel=1e-12)


def test_weighted_random_vs_bruteforce():
    rng = np.random.default_rng(6)
    fam = random_line_family(6, 20)
    P = dy.SquareFamily.grid(5)
    wF = rng.uniform(2.0 ** -8, 2.0 ** 8, len(fam))
    wP = rng.uniform(2.0 ** -8, 2.0 ** 8, len(P))
    res = inc.incidences_bruteforce(fam, P, 2.0)
    oracle = sum(wF[fi] * wP[si] for fi, si in res.pairs)
    fast = inc.weighted_incidences(fam, P, wF, wP, 2.0)
    assert fast == pytest.approx(oracle, rel=1e-9)


# -- high-low -----------------------------------------------------------------------

def test_high_low_single_curve_sane():
    fam = zero_line()
    P = dy.SquareFamily.grid(5)
    rep = inc.high_low_report(fam, P, 2.0, 8.0)
    assert rep.lhs <= len(P)
    assert rep.fitted_C >= 0.0
    assert math.isfinite(rep.fitted_C)


def test_high_low_range_validation():
    fam = random_line_family(7, 8)
    P = dy.SquareFamily.grid(5)
    with pytest.raises(DomainError, match="S="):
        inc.high_low_report(fam, P, 2.0, 2.0)    # S < 2 lambda
    with pytest.raises(DomainError, match="S="):
        inc.high_low_report(fam, P, 2.0, 100.0)  # S > delta^-1


def test_high_low_separation_check():
    close = fl.TransversalFamily(
        [fl.affine_curve(0.0, 0.0, (0.0, 1.0)), fl.affine_curve(0.0, 1e-6, (0.0, 1.0))],
        check_duplicates=False,
    )
    P = dy.SquareFamily.grid(5)
    with pytest.raises(DomainError, match="separated"):
        inc.high_low_report(close, P, 2.0, 8.0)


def test_high_low_identity_decomposition():
    # lhs and coarse count agree with independent brute-force counts
    fam = random_line_family(8, 24)
    P = dy.SquareFamily.grid(6)
    rep = inc.high_low_report(fam, P, 2.0, 8.0)
    assert rep.lhs == inc.incidences_bruteforce(fam, P, 2.0).count
    coarse = inc.incidences_bruteforce(fam, P, 2.0, threshold=2 * 8.0 * P.delta).count
    assert rep.coarse_count == coarse
    assert rep.low_term == pytest.approx(coarse / 8.0, rel=1e-12)


# -- multiplicity and friends ----------------------------------------------------------

def translate_family(bs, interval=(0.0, 1.0)):
    return fl.TransversalFamily(
        [fl.affine_curve(0.0, float(b), interval) for b in bs],
        declared_t_const=1.0,
        check_duplicates=False,
    )


def test_multiplicity_three_near_translates():
    d = 2.0 ** -6
    fam = translate_family([-d, 0.0, d, 0.5])
    assert inc.multiplicity(fam, 0.3, 1, d, 1.0) == 3


def test_multiplicity_singleton():
    fam = translate_family([0.2])
    assert inc.multiplicity(fam, 0.5, 0, 0.1, 0.5) == 1


def test_multiplicity_reduces_to_plain_count_when_filters_vacuous():
    fam = translate_family([0.0, 0.25, 0.5, 0.75])
    from furstlab.incidence import _scale_count
    diam = 0.75
    got = inc.multiplicity(fam, 0.5, 0, diam, diam)
    expect = _scale_count(fam.embedding_images(), diam)
    assert got == expect


def test_high_multiplicity_set_extremes():
    d = 2.0 ** -6
    fam = translate_family([-d, 0.0, d, 0.5])
    assert list(inc.high_multiplicity_set(fam, 0.3, 1, d, 1.0)) == [0, 1, 2, 3]
    assert len(inc.high_multiplicity_set(fam, 0.3, 99, d, 1.0)) == 0


def test_high_multiplicity_cluster_of_five():
    # five concurrent lines agree exactly at theta but are r-separated in
    # slope, so the cluster carries multiplicity 5; the two translates far
    # from the common value have multiplicity 1
    theta, r = 0.4, 0.05
    cluster = [fl.affine_curve(0.06 * k, 0.3 - 0.06 * k * theta, (0.0, 1.0)) for k in range(5)]
    far = [fl.affine_curve(0.0, 0.9, (0.0, 1.0)), fl.affine_curve(0.0, 0.05, (0.0, 1.0))]
    fam = fl.TransversalFamily(cluster + far, check_duplicates=False)
    got = sorted(inc.high_multiplicity_set(fam, theta, 4, r, 1.0))
    assert got == [0, 1, 2, 3, 4]


def test_high_multiplicity_rescaling_commutation():
    d = 2.0 ** -6
    fam = translate_family([-d, 0.0, d, 0.25, 0.5])
    r, R = d, 0.5
    before = list(inc.high_multiplicity_set(fam, 0.3, 2, r, R))
    r0 = 0.25  # dyadic, so the rescaled floats are exact
    rescaled = fl.rescale_ball(fam, fam.curves[1], r0, check=False)
    rescaled.declared_t_const = 1.0
    after = list(inc.high_multiplicity_set(rescaled, 0.3, 2, r / r0, R / r0))
    assert before == after


def test_slice_cover_translate_grid():
    k = 6
    bs = np.arange(2 ** k + 1) / 2.0 ** k
    fam = translate_family(bs)
    count = inc.slice_cover(fam, range(len(bs)), 0.5, k)
    assert 2 ** k / 2 <= count <= 2 ** k + 1


def test_slice_cover_common_point_and_empty():
    fam = fl.TransversalFamily(
        [fl.affine_curve(a, -0.5 * a, (0.0, 1.0)) for a in (0.0, 0.25, 0.5, 0.75)]
    )  # all pass through (1/2, 0)
    assert inc.slice_cover(fam, range(4), 0.5, 6) == 1
    assert inc.slice_cover(fam, [], 0.5, 6) == 0


def test_bundle_extremes():
    fam = translate_family(np.arange(9) / 8.0)
    assert len(inc.bundle(fam, 0.3, (-10.0, 10.0))) == 9
    assert len(inc.bundle(fam, 0.3, (2.0, 3.0))) == 0
    got = inc.bundle(fam, 0.3, (0.0, 0.25))
    assert list(got) == [0, 1, 2]


# -- N_{Delta,b} ------------------------------------------------------------------------

def test_n_delta_b_single_curve():
    fam = fl.TransversalFamily([fl.affine_curve(0.0, 0.5, (0.0, 1.0))])
    k = 5
    iy = int(math.floor(0.5 * 2 ** k))
    p = dy.DyadicSquare(k, 3, iy)
    assert inc.n_delta_b(p, fam, 2, 1) == 1
    assert inc.n_delta_b(p, fam, 2, 2) == 0


def test_n_delta_b_matches_bruteforce():
    rng = np.random.default_rng(9)
    fam = random_line_family(9, 48)
    k, Delta_exp, lam = 6, 2, 2.0
    from furstlab.famspace import family_cell_indices
    cells = family_cell_indices(fam, Delta_exp)
    for _ in range(20):
        p = dy.DyadicSquare(k, int(rng.integers(0, 2 ** k)), int(rng.integers(0, 2 ** k)))
        xc, yc = p.center
        got = inc.n_delta_b(p, fam, Delta_exp, 2, lam)
        # oracle: group curves by cell, count incident members per cell
        per_cell = {}
        for i, c in enumerate(fam.curves):
            fx = float(np.asarray(c.eval0(np.array([xc])))[0])
            hit = abs(yc - fx) < lam * p.side
            key = (cells[i, 0], cells[i, 1])
            per_cell[key] = per_cell.get(key, 0) + (1 if hit else 0)
        expect = sum(1 for v in per_cell.values() if v >= 2)
        assert got == expect


def test_n_delta_b_monotone_in_b():
    fam = random_line_family(10, 48)
    p = dy.DyadicSquare(6, 10, 20)
    vals = [inc.n_delta_b(p, fam, 2, b) for b in (1, 2, 4, 8)]
    assert all(x >= y for x, y in zip(vals, vals[1:]))


# -- almost-injection factor --------------------------------------------------------------

def test_squares_near_one_graph_bounded_by_columns():
    # squares meeting graphs of curves within r of a fixed 1-Lipschitz curve:
    # at most 4 per column
    rng = np.random.default_rng(11)
    n = 24
    fam = fl.TransversalFamily(
        [fl.quadratic_translate_curve(a, b - 1.0, (-2.0, 2.0), lead=0.5)
         for a, b in zip(rng.uniform(0, 1, n), rng.uniform(0, 1, n))],
        check_duplicates=False,
    )
    k = 5
    r = 2.0 ** -k
    dists = fam.distance_row(0)
    near = [i for i in range(n) if dists[i] <= r]
    sf = inc.squares_on_graphs(fam, near, k, (0.0, 1.0))
    n_columns = len(np.unique(sf.ix))
    assert len(sf) <= 4 * n_columns


# -- array-backed families against their closures ------------------------------------------

@pytest.mark.parametrize("kind", ["affine", "parabola", "convex"])
def test_array_family_matches_closures(kind):
    rng = np.random.default_rng(17)
    n, k = 40, 7
    a, b = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    if kind == "convex":
        fam = fl.convex_translate_family(fl.exp_seed(), list(zip(a, b - 3.0)), x0=0.5)
    else:
        fam = fl.TransversalFamily.parametric(kind, a, b - 1.0, (-2.0, 2.0), lead=0.5)
    closures = fl.TransversalFamily(list(fam.curves))
    assert closures.kind == "custom" and fam.kind == kind
    shared = np.linspace(0.0, 1.0, 33)
    per_curve = rng.uniform(0.0, 1.0, (n, 5))
    for order in range(3):
        for x in (shared[None], per_curve):
            rows = np.broadcast_to(x, (n,) + x.shape[1:])
            want = np.stack([
                np.broadcast_to((c.eval0, c.eval1, c.eval2)[order](rows[i]), x.shape[1:])
                for i, c in enumerate(fam.curves)
            ])
            assert np.array_equal(fam.evaluate(x, order), want)
            assert np.array_equal(closures.evaluate(x, order), want)
    P = dy.SquareFamily(k, rng.integers(0, 2 ** k, 3000), rng.integers(-(2 ** k), 2 ** (k + 1), 3000))
    for lam in (2.0, 16.0):
        fast = inc.incidences(fam, P, lam)
        assert fast.count > 0
        assert np.array_equal(fast.pairs, inc.incidences(closures, P, lam).pairs)
        assert np.array_equal(fast.pairs, inc.incidences_bruteforce(fam, P, lam).pairs)
    assert np.array_equal(fam.embedding_images(), closures.embedding_images())
    # the affine-difference pairwise path agrees with the grid path
    assert fam.t_const == pytest.approx(closures.t_const, rel=1e-9)
    assert fam.min_pair_distance() == pytest.approx(closures.min_pair_distance(), rel=1e-9)


def test_non_finite_curve_value_is_rejected():
    nan_at_half = fl.CurveFunction(
        0.0, 1.0,
        lambda x: np.where(np.asarray(x) > 0.5, np.nan, 0.25),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    fam = fl.TransversalFamily([fl.affine_curve(0.0, 0.5, (0.0, 1.0)), nan_at_half],
                               check_duplicates=False)
    P = dy.SquareFamily.grid(4)
    with pytest.raises(EvaluationError, match="x="):
        inc.incidences(fam, P, 2.0)
    with pytest.raises(EvaluationError, match="x="):
        inc.incidences_bruteforce(fam, P, 2.0)


# -- the kernel against the oracle at every threshold ------------------------------

def _dyadic_or_float(k):
    # dyadic parameters put square centers exactly on the threshold boundary
    return st.one_of(
        st.integers(-(2 ** (k + 2)), 2 ** (k + 2)).map(lambda i: math.ldexp(i, -(k + 2))),
        st.floats(-1.0, 1.0),
    )


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["affine", "parabola", "closures"]), k=st.integers(2, 7), data=st.data())
def test_kernel_matches_oracle_at_any_threshold(kind, k, data):
    n = data.draw(st.integers(1, 10))
    a = np.array(data.draw(st.lists(_dyadic_or_float(k), min_size=n, max_size=n)))
    b = np.array(data.draw(st.lists(_dyadic_or_float(k), min_size=n, max_size=n)))
    if kind == "closures":
        fam = fl.TransversalFamily(
            [(fl.affine_curve(ai, bi) if i % 2 else fl.quadratic_translate_curve(ai, bi, lead=0.5))
             for i, (ai, bi) in enumerate(zip(a, b))],
            check_duplicates=False,
        )
    else:
        fam = fl.TransversalFamily.parametric(kind, a, b, (-2.0, 2.0), lead=0.5, check_duplicates=False)
    # columns across the interval; rows well beyond the curves' range
    m = data.draw(st.integers(1, 300))
    ix = data.draw(st.lists(st.integers(-(2 ** (k + 1)), 2 ** (k + 1) - 1), min_size=m, max_size=m))
    iy = data.draw(st.lists(st.integers(-(2 ** (k + 3)), 2 ** (k + 3)), min_size=m, max_size=m))
    P = dy.SquareFamily(k, np.array(ix), np.array(iy))
    # in units of delta: below 1/2 (empty runs), on half-integers (exact
    # boundaries), anywhere, and the coarse 2S with S up to delta^-1
    rows = data.draw(st.one_of(
        st.floats(0.0, 0.5),
        st.integers(1, 2 ** (k + 2)).map(lambda i: i / 2),
        st.floats(0.5, 2.0 ** (k + 1)),
        st.integers(0, k).map(lambda j: 2.0 ** (j + 1)),
    ))
    thr = rows * P.delta
    brute = inc.incidences_bruteforce(fam, P, 1.0, threshold=thr)
    fast = inc._count_against_threshold(fam, P, thr, collect=True)
    assert fast.count == brute.count == len(fast.pairs)
    assert np.array_equal(fast.pairs[np.lexsort((fast.pairs[:, 1], fast.pairs[:, 0]))], brute.pairs)
    assert inc._count_against_threshold(fam, P, thr, collect=False).count == brute.count


def test_run_end_trimming_walks_any_distance():
    # an estimate far outside the run still settles on its exact end
    k = 6
    fx = np.array([[0.3, 0.3001, -0.7, 5.0]])
    thr = 3.25 * 2.0 ** -k

    def hits(iy, f):
        return np.abs(dy.centers_of(iy, k) - f) < thr

    nearest = np.floor(fx * 2 ** k).astype(np.int64)
    rows = np.arange(-2 ** (k + 4), 2 ** (k + 4))
    for step in (1, -1):
        end = inc._trim_to_run(hits, fx, nearest, nearest + step * 20)
        want = [max(rows[hits(rows, f)] * step) * step for f in fx[0]]
        assert end[0].tolist() == want
    # with no row in reach the end stops at the nearest row
    assert inc._trim_to_run(lambda iy, f: iy != iy, fx, nearest, nearest + 5).tolist() == nearest.tolist()
