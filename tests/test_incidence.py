import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import furstlab as fl
from furstlab import config as cf
from furstlab import dyadic as dy
from furstlab import incidence as inc
from furstlab.family import DomainError, EvaluationError
from furstlab.famspace import family_cell_indices
from oracles import transversality_defect


def zero_line():
    return fl.TransversalFamily("affine", [0.0], [0.0], (0.0, 1.0))


def random_line_family(seed, n=32, interval=(0.0, 1.0)):
    rng = np.random.default_rng(seed)
    return fl.TransversalFamily("affine", rng.uniform(0, 1, n), rng.uniform(0, 1, n), interval)


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
    a, b = np.meshgrid([0.0, 0.5, 1.0], [0.0, dl, 1.5 * dl, 2.0 * dl], indexing="ij")
    fam = fl.TransversalFamily("affine", a, b, (0.0, 1.0))
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
        inc._counts_at_thresholds(fam, P, (math.nan,))
    with pytest.raises(DomainError):
        inc.incidences(fam, P, math.nan)
    with pytest.raises(DomainError, match="nan"):
        inc.cube_incidence_counts(fam, P, 2, math.nan)
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


# -- high-low -----------------------------------------------------------------------

def test_high_low_single_curve_sane():
    fam = zero_line()
    P = dy.SquareFamily.grid(5)
    (rep,) = inc.high_low_reports(fam, P, 2.0, (8.0,))
    assert rep.lhs <= len(P)
    assert rep.fitted_C >= 0.0
    assert math.isfinite(rep.fitted_C)


def test_high_low_range_validation(monkeypatch):
    def must_not_count(*args, **kwargs):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(inc, "_counts_at_thresholds", must_not_count)
    fam = random_line_family(7, 8)
    P = dy.SquareFamily.grid(5)
    for lam in (math.nan, -1.0, 32.0):  # 32 * 2^-5 = 1 > 1/2
        with pytest.raises(DomainError, match="lambda"):
            inc.high_low_reports(fam, P, lam, (64.0,))
    with pytest.raises(DomainError, match="S="):
        inc.high_low_reports(fam, P, 2.0, (8.0, 2.0))    # S < 2 lambda
    with pytest.raises(DomainError, match="S="):
        inc.high_low_reports(fam, P, 2.0, (100.0, 8.0))  # S > delta^-1


def test_high_low_separation_check():
    close = fl.TransversalFamily("affine", [0.0, 0.0], [0.0, 1e-6], (0.0, 1.0))
    P = dy.SquareFamily.grid(5)
    with pytest.raises(DomainError, match="separated"):
        inc.high_low_reports(close, P, 2.0, (8.0,))


def test_high_low_identity_decomposition():
    # lhs and every coarse count agree with independent brute-force counts
    fam = random_line_family(8, 24)
    P = dy.SquareFamily.grid(6)
    S_values = (4.0, 8.0, 16.0)
    reps = inc.high_low_reports(fam, P, 2.0, S_values)
    lhs = inc.incidences_bruteforce(fam, P, 2.0).count
    assert [rep.S for rep in reps] == list(S_values)
    for rep, S in zip(reps, S_values):
        assert rep.lhs == lhs
        coarse = inc.incidences_bruteforce(fam, P, 2 * S).count
        assert rep.coarse_count == coarse
        assert rep.low_term == pytest.approx(coarse / S, rel=1e-12)


# -- N_{Delta,b} ------------------------------------------------------------------------

def test_n_delta_b_single_curve():
    fam = fl.TransversalFamily("affine", [0.0], [0.5], (0.0, 1.0))
    k = 5
    iy = int(math.floor(0.5 * 2 ** k))
    p = dy.SquareFamily(k, [3], [iy])
    counts, cube_ids = inc.cube_incidence_counts(fam, p, 2)
    assert counts.tolist() == [[1]]  # N_{Delta,1} = 1, N_{Delta,2} = 0
    assert cube_ids.tolist() == [[2, 0]]  # A(f) = (0.5, 0) at level 2


def test_n_delta_b_matches_bruteforce():
    # cube_incidence_counts, mainlem's kernel, against a per-cell recount:
    # the whole (square, cube) table, and N_{Delta,2} taken from it
    rng = np.random.default_rng(9)
    fam = random_line_family(9, 48)
    k, Delta_exp, lam = 6, 2, 2.0
    from furstlab.famspace import family_cell_indices
    cells = family_cell_indices(fam, Delta_exp)
    drawn = [(int(rng.integers(0, 2 ** k)), int(rng.integers(0, 2 ** k))) for _ in range(20)]
    P = dy.SquareFamily(k, *zip(*drawn))
    counts, cube_ids = inc.cube_incidence_counts(fam, P, Delta_exp, lam)
    assert counts.shape == (len(P), len(cube_ids))
    n_big = np.sum(counts >= 2, axis=1)
    assert n_big.any()
    for p, (xc, yc) in enumerate(zip(dy.centers_of(P.ix, k), dy.centers_of(P.iy, k))):
        # oracle: group curves by cell, count incident members per cell
        per_cell = {tuple(c): 0 for c in cube_ids.tolist()}
        for i, c in enumerate(fam.curves):
            fx = float(np.asarray(c.eval0(np.array([xc])))[0])
            hit = abs(yc - fx) < lam * P.delta
            key = (cells[i, 0], cells[i, 1])
            per_cell[key] += 1 if hit else 0
        assert counts[p].tolist() == list(per_cell.values())
        assert n_big[p] == sum(1 for v in per_cell.values() if v >= 2)


def test_n_delta_b_monotone_in_b():
    fam = random_line_family(10, 48)
    p = dy.SquareFamily(6, [10], [20])
    counts, _ = inc.cube_incidence_counts(fam, p, 2)
    vals = [int(np.sum(counts[0] >= b)) for b in (1, 2, 4, 8)]
    assert all(x >= y for x, y in zip(vals, vals[1:]))


# -- array-backed families against their closures ------------------------------------------

@pytest.mark.parametrize("kind", ["affine", "parabola", "convex"])
def test_array_family_matches_closures(kind):
    rng = np.random.default_rng(17)
    n, k = 40, 7
    a, b = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    if kind == "convex":
        fam = fl.TransversalFamily("convex", a, b - 3.0, (-4.5, 5.5), seed=fl.exp_seed())
    else:
        fam = fl.TransversalFamily(kind, a, b - 1.0, (-2.0, 2.0), lead=0.5)
    curves = fam.curves
    shared = np.linspace(0.0, 1.0, 33)
    per_curve = rng.uniform(0.0, 1.0, (n, 5))
    for order in range(3):
        for x in (shared[None], per_curve):
            rows = np.broadcast_to(x, (n,) + x.shape[1:])
            want = np.stack([
                np.broadcast_to((c.eval0, c.eval1, c.eval2)[order](rows[i]), x.shape[1:])
                for i, c in enumerate(curves)
            ])
            assert np.array_equal(fam.evaluate(x, order), want)
    P = dy.SquareFamily(k, rng.integers(0, 2 ** k, 3000), rng.integers(-(2 ** k), 2 ** (k + 1), 3000))
    for lam in (2.0, 16.0):
        fast = inc.incidences(fam, P, lam)
        assert fast.count > 0
        assert np.array_equal(fast.pairs, inc.incidences_bruteforce(fam, P, lam).pairs)
    x0 = 0.5 * (fam.x_lo + fam.x_hi)
    want = [[float(c.eval0(x0)), float(c.eval1(x0))] for c in curves]
    assert np.array_equal(fam.embedding_images(), want)
    # the pairwise pass (the affine shortcut for lines and parabola
    # translates) agrees with the per-pair oracles on every pair
    pairs = [(curves[i], curves[j]) for i in range(n) for j in range(i + 1, n)]
    worst = min(transversality_defect(f, g) for f, g in pairs)
    assert fam.t_const == pytest.approx(max(1.0, 1.0 / worst), rel=1e-9)
    assert fam.min_pair_distance() == pytest.approx(min(fl.c2_dist(f, g) for f, g in pairs), rel=1e-9)


def test_non_finite_curve_value_is_rejected():
    def zero(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    nan_at_half = fl.ConvexSeed(
        g0=lambda x: np.where(np.asarray(x) > 0.5, np.nan, 0.25),
        g1=zero, g2=zero, g3=zero, frak_G=1.0, frak_g=1.0, name="nan above 1/2",
    )
    fam = fl.TransversalFamily("convex", [0.0, 0.0], [0.25, 0.0], (0.0, 1.0), seed=nan_at_half)
    P = dy.SquareFamily.grid(4)
    with pytest.raises(EvaluationError, match="x="):
        inc.incidences(fam, P, 2.0)
    with pytest.raises(EvaluationError, match="x="):
        inc.incidences(fam, P, 2.0, collect=False)
    with pytest.raises(EvaluationError, match="x="):
        inc.incidences_bruteforce(fam, P, 2.0)


# -- the kernel against the oracle at every threshold ------------------------------

def _dyadic_or_float(k):
    # dyadic parameters put square centers exactly on the threshold boundary
    return st.one_of(
        st.integers(-(2 ** (k + 2)), 2 ** (k + 2)).map(lambda i: math.ldexp(i, -(k + 2))),
        st.floats(-1.0, 1.0),
    )


class _Draws:
    """Stands in for ``st.data()`` in an ``@example``: each draw returns the next value."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


# convex members keep every column, so a step whose values all miss the rows
# runs in full: every square far above the curves, and every square far
# below them at a threshold under half a row; a line so steep that f(x)/delta
# overflows shares a step with one through the squares
@example(kind="affine", k=7, data=_Draws(
    2, [0.5, 3e306], [0.25, 0.0], 4, [250, 251, 254, 255], [157, 157, 159, 160], 2.0))
@example(kind="convex", k=4, data=_Draws(
    2, [0.5, -1.0], [-1.0, 0.25], 5, [-32, -7, 0, 12, 31], [128] * 5, 2.0))
@example(kind="convex", k=4, data=_Draws(
    3, [0.0, 0.75, -0.5], [1.0, 0.0, -1.0], 6, [-20, -3, 0, 1, 8, 30], [-128] * 6, 0.25))
@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["affine", "parabola", "convex"]), k=st.integers(2, 7), data=st.data())
def test_kernel_matches_oracle_at_any_threshold(kind, k, data):
    n = data.draw(st.integers(1, 10))
    a = np.array(data.draw(st.lists(_dyadic_or_float(k), min_size=n, max_size=n)))
    b = np.array(data.draw(st.lists(_dyadic_or_float(k), min_size=n, max_size=n)))
    # convex: the parabola kind's members, evaluated through the seed 0.5*x^2
    fam = fl.TransversalFamily(kind, a, b, (-2.0, 2.0), lead=0.5, seed=fl.quadratic_seed(0.5))
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
    _assert_kernel_matches_oracle(fam, P, rows)


def _assert_kernel_matches_oracle(fam, P, rows):
    """At the threshold of ``rows`` rows, the kernel's three readings equal
    the oracle's: its pairs, its per-square counts and its count; returns the
    count.  (``_pairs`` is what ``incidences`` returns, without its lambda
    rule, which refuses thresholds above half the box.)"""
    brute = inc.incidences_bruteforce(fam, P, rows)
    thr = rows * P.delta
    assert np.array_equal(inc._pairs(fam, P, thr), brute.pairs)
    np.testing.assert_array_equal(inc._square_counts(fam, P, thr),
                                  np.bincount(brute.pairs[:, 1], minlength=len(P)))
    assert inc._counts_at_thresholds(fam, P, (thr,)) == [brute.count]
    return brute.count


def _rows_with_zero_and_negative(k):
    """A threshold in rows as ``test_kernel_matches_oracle_at_any_threshold``
    draws one, or 0, or a negative value, at which no row hits."""
    return st.one_of(
        st.floats(0.0, 0.5),
        st.integers(1, 2 ** (k + 2)).map(lambda i: i / 2),
        st.floats(0.5, 2.0 ** (k + 1)),
        st.integers(0, k).map(lambda j: 2.0 ** (j + 1)),
        st.just(0.0),
        st.floats(-(2.0 ** (k + 1)), -(2.0 ** -10)),
    )


# two lines with equal values at the center of column 3, among squares at
# exactly y - t and y + t of them (1.75 and 1.25 rows) and at +inf; one
# curve; no square at all
@example(kind="affine", k=4, data=_Draws(
    2, [0.5, -0.5], [0.0, 0.21875], 5, [3, 3, 3, 3, 9], [0, 1, 3, 7, 2],
    [1.75, 1.25, math.inf, 0.25], False, [1.75, 1.25, math.inf, 0.25], 2))
@example(kind="parabola", k=5, data=_Draws(
    1, [0.25], [-0.5], 6, [0, 7, 7, 20, 31, -40], [-10, -9, 3, 0, 5, -60], [2.0, 0.5], True, 2.0,
    [2.0, 2.0, 0.5], 3))
@example(kind="convex", k=3, data=_Draws(3, [0.0, 0.5, -1.0], [0.25, 0.0, 1.0], 0, [], [],
                                         [2.0, 16.0], False, [16.0, 2.0], 1))
@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["affine", "parabola", "convex"]), k=st.integers(2, 7), data=st.data())
def test_kernel_counts_each_of_several_thresholds_as_the_oracle(kind, k, data):
    n = data.draw(st.integers(1, 10))
    a = np.array(data.draw(st.lists(_dyadic_or_float(k), min_size=n, max_size=n)))
    b = np.array(data.draw(st.lists(_dyadic_or_float(k), min_size=n, max_size=n)))
    fam = fl.TransversalFamily(kind, a, b, (-2.0, 2.0), lead=0.5, seed=fl.quadratic_seed(0.5))
    # rows within the lines' range of values, so that most squares are near a curve
    m = data.draw(st.integers(1, 300))
    ix = data.draw(st.lists(st.integers(-(2 ** (k + 1)), 2 ** (k + 1) - 1), min_size=m, max_size=m))
    iy = data.draw(st.lists(st.integers(-(2 ** (k + 1)), 2 ** (k + 1)), min_size=m, max_size=m))
    P = dy.SquareFamily(k, np.array(ix), np.array(iy))
    # 1 to 5 thresholds in any order, one of them repeated when drawn so
    rows = data.draw(st.lists(_rows_with_zero_and_negative(k), min_size=1, max_size=4))
    if data.draw(st.booleans()):
        rows.append(data.draw(st.sampled_from(rows)))
    rows = data.draw(st.permutations(rows))
    counts = inc._counts_at_thresholds(fam, P, tuple(r * P.delta for r in rows))
    assert counts == [inc.incidences_bruteforce(fam, P, r).count for r in rows]
    # a nan anywhere is refused before any curve is evaluated
    at = data.draw(st.integers(0, len(rows)))
    with_nan = [r * P.delta for r in rows[:at]] + [math.nan] + [r * P.delta for r in rows[at:]]
    with mock.patch.object(fl.TransversalFamily, "evaluate",
                           side_effect=AssertionError("a curve was evaluated")):
        with pytest.raises(DomainError, match="nan"):
            inc._counts_at_thresholds(fam, P, tuple(with_nan))


def test_kernel_matches_oracle_for_curves_between_two_row_centers():
    # below half a row a curve between two centers hits neither: its run is
    # empty although f(x) lies among the rows
    k = 6
    P = dy.SquareFamily.grid(k)
    fam = random_line_family(4, 40, interval=(0.0, 1.0))
    fx = fam.evaluate(dy.centers_of(np.arange(2 ** k), k)[None])
    inside = int(np.sum((fx >= 0) & (fx < 1)))
    for rows in (0.1, 0.25, 0.45):
        count = _assert_kernel_matches_oracle(fam, P, rows)
        assert 0 < count < inside


def test_kernel_matches_oracle_for_curves_above_or_below_every_row():
    k = 5
    P = dy.SquareFamily(k, np.arange(2 ** k).repeat(4), np.tile([0, 1, 9, 2 ** k - 1], 2 ** k))
    above = fl.TransversalFamily("affine", [0.0, 0.5, -0.5], [2.0, 1.75, 2.5], (0.0, 1.0))
    below = fl.TransversalFamily("affine", [0.0, 0.5, -0.5], [-1.0, -1.75, -0.6], (0.0, 1.0))
    for fam in (above, below):
        for rows in (0.25, 2.0, 16.0):
            assert _assert_kernel_matches_oracle(fam, P, rows) == 0
    # a curve through the rows among them still counts, and only it
    row_9 = float(dy.centers_of(9, k))
    mixed = fl.TransversalFamily("affine", [0.0, 0.0, 0.0], [2.0, row_9, -1.0], (0.0, 1.0))
    assert _assert_kernel_matches_oracle(mixed, P, 2.0) == 2 ** k


def test_kernel_matches_oracle_on_sparse_rows_with_gaps():
    # a few rows per column with wide gaps: runs that span a gap, end in one
    # or hold no square at all
    rng = np.random.default_rng(11)
    k = 7
    gaps = np.array([-40, -3, 0, 1, 9, 30, 31, 77, 200])
    ix = rng.integers(-(2 ** k), 2 ** k, 600)
    P = dy.SquareFamily(k, ix, rng.choice(gaps, 600))
    fam = random_line_family(12, 30, interval=(-1.0, 1.0))
    for rows in (0.3, 2.0, 5.5, 16.0, 60.0):
        assert _assert_kernel_matches_oracle(fam, P, rows) > 0


def test_kernel_matches_oracle_with_one_square_set_reused(monkeypatch):
    # the layout and search keys kept on P serve every family and threshold,
    # and chunks of 5 or 1 columns after they were kept
    fam_p, P = _spread_squares_and_lines(3)
    fams = [fam_p, random_line_family(5, 12, interval=(-1.0, 1.0)),
            fl.TransversalFamily("parabola", [0.2, -0.4], [-0.5, 0.1], (-1.0, 1.0), lead=0.5)]
    want = {}
    for cols_per_chunk in (None, 5, 1):
        for i, fam in enumerate(fams):
            if cols_per_chunk is not None:
                monkeypatch.setattr(inc, "STEP_BUDGET", cols_per_chunk * len(fam))
            for rows in (0.3, 2.0, 16.0):
                count = _assert_kernel_matches_oracle(fam, P, rows)
                assert want.setdefault((i, rows), count) == count
    assert "column_y" in vars(P)  # kept from the first pass
    fresh = dy.SquareFamily(P.k, P.ix, P.iy)
    assert np.array_equal(fresh.column_y, P.column_y)


# -- the prefix ends at the edges of the squares ---------------------------------------

def _spread_squares_and_lines(seed, k=6):
    """Sparse squares over [-1, 1]^2 with empty columns between occupied ones,
    and lines whose runs reach the bottom row, the top row and the last square."""
    rng = np.random.default_rng(seed)
    ix = rng.integers(-(2 ** k), 2 ** k, 300) // 3 * 3  # two columns in three stay empty
    iy = rng.integers(-(2 ** k), 2 ** k, 300)
    top = int(iy.max())
    ix = np.append(ix, [ix.min(), 2 ** k - 1, 2 ** k - 1])  # the last square tops the last column
    iy = np.append(iy, [iy.min(), top - 1, top])
    P = dy.SquareFamily(k, ix, iy)
    assert (P.ix[-1], P.iy[-1]) == (2 ** k - 1, top)
    rows = dy.centers_of(np.array([P.iy.min(), top, top - 1]), k)
    a = np.concatenate([rng.uniform(-2.0, 2.0, 24), np.zeros(3)])
    b = np.concatenate([rng.uniform(-1.0, 1.0, 24), rows])
    fam = fl.TransversalFamily("affine", a, b, (-1.0, 1.0))
    return fam, P


@pytest.mark.parametrize("cols_per_chunk", [None, 7, 1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prefix_count_lookup_matches_oracle_at_the_edges(monkeypatch, seed, cols_per_chunk):
    # every column in one chunk, or chunks of 7 or 1 columns
    fam, P = _spread_squares_and_lines(seed)
    n_cols = len(np.unique(P.ix))
    if cols_per_chunk is None:
        assert n_cols * len(fam) <= inc.STEP_BUDGET
    else:
        monkeypatch.setattr(inc, "STEP_BUDGET", cols_per_chunk * len(fam))
        assert -(-n_cols // cols_per_chunk) >= 3
    for lam in (2.0, 16.0):
        brute = inc.incidences_bruteforce(fam, P, lam)
        fast = inc.incidences(fam, P, lam)
        assert fast.count == brute.count > 0
        assert np.array_equal(fast.pairs, brute.pairs)
        counts, cube_ids = inc.cube_incidence_counts(fam, P, 2, lam)
        _, cube_of = np.unique(family_cell_indices(fam, 2), axis=0, return_inverse=True)
        want = np.zeros((len(P), len(cube_ids)), dtype=np.int64)
        np.add.at(want, (brute.pairs[:, 1], cube_of[brute.pairs[:, 0]]), 1)
        assert np.array_equal(counts, want)
    # up to past half the box, where every window reaches the bottom and top rows
    for rows in (0.25, 2.0, 3.5, 2.0 ** 7):
        assert _assert_kernel_matches_oracle(fam, P, rows) > 0
    assert inc._square_counts(fam, P, 2.0 ** 7 * P.delta)[-1] > 0  # the last square counts


# -- curve values far off the rows -------------------------------------------------

def _kept_share(fam, P, rows, curves_per_step):
    """Per block of ``curves_per_step`` curves, the share of its (curve,
    column) values from which a row of P lies within the threshold of ``rows``
    rows, give or take half a row."""
    iy_min, iy_max = int(P.iy.min()), int(P.iy.max())
    thr = rows * P.delta
    fx = fam.evaluate(dy.centers_of(np.unique(P.ix), P.k)[None])
    kept = (fx > iy_min * P.delta - thr) & (fx < (iy_max + 1) * P.delta + thr)
    return [kept[r0:r0 + curves_per_step].mean() for r0 in range(0, len(fam), curves_per_step)]


def test_kernel_matches_oracle_where_most_values_miss_the_rows(monkeypatch):
    # shallow lines inside the grid, steep lines that cross it in a few
    # columns, and lines above and below it, in blocks of four: values that
    # mostly reach the rows, that reach them in a few columns and that reach
    # none; in chunks of 10 columns, then in one chunk
    k = 6
    P = dy.SquareFamily.grid(k)
    rng = np.random.default_rng(8)
    slopes = np.r_[rng.uniform(-0.3, 0.3, 8), rng.choice([-1, 1], 8) * rng.uniform(15, 40, 8), np.zeros(8)]
    offsets = np.r_[rng.uniform(0.3, 0.7, 8), rng.uniform(0.1, 0.9, 8), [-3.0, 2.5] * 4]
    fam = fl.TransversalFamily("affine", slopes, offsets - slopes * rng.uniform(0, 1, 24), (0.0, 1.0))
    monkeypatch.setattr(inc, "STEP_BUDGET", 4 * 2 ** k)
    for rows in (0.3, 2.0, 16.0):
        share = _kept_share(fam, P, rows, 4)
        assert min(share[:2]) >= 0.5 and all(0 < s < 0.5 for s in share[2:4]) and max(share[4:]) == 0
        assert _assert_kernel_matches_oracle(fam, P, rows) > 0
    # over all 24 curves, most values reach no row
    monkeypatch.undo()
    for rows in (0.3, 2.0, 16.0):
        assert _kept_share(fam, P, rows, len(fam))[0] < 0.5
        assert _assert_kernel_matches_oracle(fam, P, rows) > 0


@pytest.mark.parametrize("rows", [0.25, 1 / 3, 2.0, 3.5])
def test_kernel_matches_oracle_at_the_filter_edges(rows):
    # horizontal lines where the bottom or the top row starts to hit, so that
    # a window bound fl(v -+ t) falls on its center, and half a row further
    # out, and one float to either side of each; alone and among lines far
    # off the rows
    k = 6
    rng = np.random.default_rng(2)
    P = dy.SquareFamily(k, rng.integers(0, 2 ** k, 200), rng.choice([-5, 0, 3, 20], 200))
    iy_min, iy_max = int(P.iy.min()), int(P.iy.max())
    thr = rows * P.delta
    edges = [iy_min * P.delta - thr, (iy_max + 1) * P.delta + thr,
             (iy_min + 0.5) * P.delta - thr, (iy_max + 0.5) * P.delta + thr]
    levels = [np.nextafter(v, side) for v in edges for side in (-np.inf, np.inf)] + edges
    for far in (0, 40):
        b = np.r_[levels, np.full(far, -7.0)]
        fam = fl.TransversalFamily("affine", np.zeros(len(b)), b, (0.0, 1.0))
        assert (_kept_share(fam, P, rows, len(fam))[0] >= 0.5) == (far == 0)
        assert _assert_kernel_matches_oracle(fam, P, rows) > 0
    # each line alone, whose own value bounds every column's window: at a
    # third of a row, fl(v - t) rounds up onto the top row's center, which hits
    for level in levels:
        _assert_kernel_matches_oracle(fl.TransversalFamily("affine", [0.0], [level], (0.0, 1.0)), P, rows)


@pytest.mark.parametrize("rows", [0.0, -0.5, -3.0, -math.inf, 2.0 ** 51, math.inf])
def test_kernel_matches_oracle_at_thresholds_beyond_the_filter(rows):
    # at or below 0 no pair hits; at 2^51 rows, and at an infinite threshold,
    # whose windows are whole columns, every pair hits
    fam, P = _spread_squares_and_lines(4)
    count = _assert_kernel_matches_oracle(fam, P, rows)
    assert count == (0 if rows <= 0 else len(fam) * len(P))


def test_cube_counts_of_a_family_off_the_grid_are_the_zero_table():
    fam = fl.TransversalFamily("affine", [0.0, 0.5, 0.0], [3.0, 2.0, -2.0], (0.0, 1.0))
    P = dy.SquareFamily.grid(5)
    counts, cube_ids = inc.cube_incidence_counts(fam, P, 2)
    assert counts.shape == (len(P), len(cube_ids)) == (len(P), 3)
    assert counts.dtype == np.int64 and not counts.any()


# -- the count pass -------------------------------------------------------------------

@pytest.mark.parametrize("extra, accepted", [(0, True), (1, False)])
def test_count_pass_refuses_too_many_values_before_evaluating(monkeypatch, extra, accepted):
    # 2^16 lines over MAX_COUNT_VALUES / 2^16 occupied columns is the limit
    n = 2 ** 16
    assert inc.MAX_COUNT_VALUES % n == 0
    cols = inc.MAX_COUNT_VALUES // n + extra
    monkeypatch.setattr(fl.TransversalFamily, "evaluate",
                        mock.Mock(side_effect=AssertionError("a curve was evaluated")))
    fam = fl.TransversalFamily("affine", np.zeros(n), np.arange(n) / n, (0.0, 1.0))
    P = dy.SquareFamily(dy.MAX_DELTA_EXP, np.arange(cols), np.zeros(cols, dtype=int))
    for collect in (False, True):
        if accepted:
            with pytest.raises(AssertionError, match="evaluated"):
                inc.incidences(fam, P, 2.0, collect)
        else:
            with pytest.raises(DomainError, match="over the limit"):
                inc.incidences(fam, P, 2.0, collect)


@pytest.mark.parametrize("kind", ["parabola", "affine"])
def test_square_counts_equal_the_oracle_on_a_sample_at_the_useful_regime(kind):
    # brute force over every square is too slow at 2^-12: the per-square
    # counts at lambda*delta and at each coarse 2S*delta of the high-low
    # split are recounted by the oracle on a seeded sample of 4,096 squares
    conf = cf.build_nice_configuration(kind, 12, 0.5, 1.0, 12, 0)
    P = conf.union_squares()
    sample = np.sort(np.random.default_rng(0).choice(len(P), 4096, replace=False))
    Q = dy.SquareFamily(P.k, P.ix[sample], P.iy[sample])
    hits = []
    for rows in (2.0, 8.0, 16.0, 32.0):
        counts = inc._square_counts(conf.family, P, rows * P.delta)
        pairs = inc.incidences_bruteforce(conf.family, Q, rows).pairs
        np.testing.assert_array_equal(counts[sample], np.bincount(pairs[:, 1], minlength=len(Q)))
        hits.append(len(pairs))
    assert 0 < hits[0] < hits[-1]


def test_count_pass_settles_values_tied_at_a_boundary(monkeypatch):
    # 4,096 lines through one point share their value at its column: where
    # the point is a square center and squares sit exactly t above and below
    # it, the estimates already hold the prefix ends and the settle, which
    # steps one value at a time, moves none; where y - t rounds up to the
    # point, the tied values fail A's test and the settle steps over each
    moved = []
    settle = inc._settle_prefixes

    def recording(pos, *args):
        before = pos.copy()
        after = settle(pos, *args)
        moved.append(int(np.abs(after - before).sum()))
        return after

    monkeypatch.setattr(inc, "_settle_prefixes", recording)
    k, n = 10, 2 ** 12
    x0, y0 = dy.centers_of(np.array([511, 600]), k)
    a = np.arange(-n // 2, n // 2) / n
    P = dy.SquareFamily(k, np.full(64, 511), np.arange(568, 632))
    q = y0 - 0.3 * P.delta
    assert y0 - q < 0.3 * P.delta
    for point, rows in ((y0, (1.0, 2.0, 32.0)), (q, (0.3,))):
        fam = fl.TransversalFamily("affine", a, point - a * x0, (0.0, 1.0))
        assert np.all(fam.evaluate(np.array([[x0]])) == point)
        assert inc._counts_at_thresholds(fam, P, tuple(r * P.delta for r in rows)) == [
            inc.incidences_bruteforce(fam, P, r).count for r in rows]
    assert moved[0] == 0 and moved[1] >= n
