import math
import tracemalloc
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
        inc._runs_at_threshold(fam, P, math.nan)
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


def _assert_runs_match_oracle(fam, P, rows):
    """At the threshold of ``rows`` rows, the run pass's runs equal the
    oracle's pairs; returns the count."""
    brute = inc.incidences_bruteforce(fam, P, rows)
    pairs = inc._expand_runs(inc._runs_at_threshold(fam, P, rows * P.delta))
    assert brute.count == len(pairs)
    assert np.array_equal(pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))], brute.pairs)
    return brute.count


def _assert_kernel_matches_oracle(fam, P, rows):
    """At the threshold of ``rows`` rows, the run pass's runs equal the
    oracle's pairs, and the count pass counts them; returns the count."""
    count = _assert_runs_match_oracle(fam, P, rows)
    assert inc._counts_at_thresholds(fam, P, (rows * P.delta,)) == [count]
    return count


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


def test_kernel_matches_oracle_where_runs_are_empty_mid_column():
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
    # the layout and table kept on P serve every family and threshold, and a
    # budget that splits P into chunks after its table was kept reads chunks
    fam_p, P = _spread_squares_and_lines(3)
    fams = [fam_p, random_line_family(5, 12, interval=(-1.0, 1.0)),
            fl.TransversalFamily("parabola", [0.2, -0.4], [-0.5, 0.1], (-1.0, 1.0), lead=0.5)]
    span = int(P.iy.max() - P.iy.min()) + 1
    want = {}
    for cols_per_table in (None, 5, 1):
        if cols_per_table is not None:
            monkeypatch.setattr(inc, "TABLE_BUDGET", cols_per_table * (span + 1))
        for i, fam in enumerate(fams):
            for rows in (0.3, 2.0, 16.0):
                count = _assert_kernel_matches_oracle(fam, P, rows)
                assert want.setdefault((i, rows), count) == count
    assert "prefix_table" in vars(P)  # kept from the first, unsplit pass
    fresh = dy.SquareFamily(P.k, P.ix, P.iy)
    assert np.array_equal(fresh.prefix_table, P.prefix_table)


# -- the prefix-count lookup at its edges ---------------------------------------------

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


@pytest.mark.parametrize("cols_per_table", [None, 7, 1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prefix_count_lookup_matches_oracle_at_the_edges(monkeypatch, seed, cols_per_table):
    fam, P = _spread_squares_and_lines(seed)
    n_cols, span = len(np.unique(P.ix)), int(P.iy.max() - P.iy.min()) + 1
    if cols_per_table is None:
        assert n_cols * (span + 1) <= inc.TABLE_BUDGET  # one table, as built
    else:
        monkeypatch.setattr(inc, "TABLE_BUDGET", cols_per_table * (span + 1))
        assert -(-n_cols // cols_per_table) >= 3
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
    # past half the box, every run is clipped at both the bottom and the top row
    for rows in (0.25, 2.0, 3.5, 2.0 ** 7):
        thr = rows * P.delta
        brute = inc.incidences_bruteforce(fam, P, rows)
        runs = inc._runs_at_threshold(fam, P, thr)
        pairs = inc._expand_runs(runs)
        assert brute.count == len(pairs)
        assert np.array_equal(pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))], brute.pairs)
        assert (runs[:, 1] + runs[:, 2]).max() <= len(P)
    assert (runs[:, 1] + runs[:, 2]).max() == len(P)  # a run ends at the last square


def test_prefix_count_table_stays_within_its_budget():
    # 2^12 columns by 2^13 rows of [-1, 1]^2 would need a 128 MB table at
    # once; the kernel builds at most TABLE_BUDGET entries at a time
    rng = np.random.default_rng(5)
    k, n_sq = 12, 20000
    P = dy.SquareFamily(k, rng.integers(-(2 ** k), 2 ** k, n_sq) // 2 * 2,
                        rng.integers(-(2 ** k), 2 ** k, n_sq))
    fam = fl.TransversalFamily(
        "affine", rng.uniform(-1.0, 1.0, 16), rng.uniform(-1.0, 1.0, 16), (-1.0, 1.0)
    )
    cells = len(np.unique(P.ix)) * (int(P.iy.max() - P.iy.min()) + 2)
    assert cells > 6 * inc.TABLE_BUDGET and cells > 1000 * len(P)
    thr = 8 * P.delta
    tracemalloc.start()
    try:
        count = int(inc._runs_at_threshold(fam, P, thr)[:, 2].sum())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == inc.incidences_bruteforce(fam, P, 8).count > 0
    assert peak <= 4 * inc.TABLE_BUDGET + 64 * len(P) + 64 * inc.STEP_BUDGET


@pytest.mark.parametrize("rows, accepted", [(2 ** 20 - 1, True), (2 ** 20, False)])
def test_kernel_refuses_an_oversized_table_before_building_it(monkeypatch, rows, accepted):
    # two squares per column, in 2^10 columns, span 2^20 or 2^20 + 1 rows:
    # a table of 2^30 entries is the limit
    def must_not_build(*args, **kwargs):
        raise AssertionError("the prefix-count table was built")

    monkeypatch.setattr(dy.SquareFamily, "prefix_counts", must_not_build)
    cols = np.arange(2 ** 10)
    P = dy.SquareFamily(24, np.r_[cols, cols], np.r_[0 * cols, 0 * cols + rows])
    fam = fl.TransversalFamily("affine", [0.0], [0.5], (0.0, 1.0))
    if accepted:
        with pytest.raises(AssertionError, match="table was built"):
            inc.incidences(fam, P, 2.0)
    else:
        with pytest.raises(DomainError, match="has 1073742848 entries"):
            inc.incidences(fam, P, 2.0)


def test_run_end_trimming_walks_any_distance():
    # end estimates 20 rows outside the run still settle on its exact ends
    k = 6
    dl = 2.0 ** -k
    fx = np.array([[0.3, 0.3001, -0.7, 5.0]])
    thr = 3.25 * dl
    rows = np.arange(-2 ** (k + 4), 2 ** (k + 4))
    hit = [rows[np.abs(dy.centers_of(rows, k) - f) < thr] for f in fx[0]]
    nearest = np.floor(fx * 2 ** k)
    lo, hi, scratch = nearest - 20, nearest + 20, np.empty_like(fx)
    inc._settle(lo, hi, fx, dl, thr, 1, scratch)
    inc._settle(hi, lo, fx, dl, thr, -1, scratch)
    assert lo[0].tolist() == [r.min() for r in hit]
    assert hi[0].tolist() == [r.max() for r in hit]
    # with no row in reach the run settles empty: its lower end one above its upper
    lo, hi = nearest - 5, nearest + 5
    inc._settle(lo, hi, fx, dl, 0.0, 1, scratch)
    inc._settle(hi, lo, fx, dl, 0.0, -1, scratch)
    assert (lo == hi + 1).all() and (hi == nearest + 5).all()


# -- the kernel's filter on the values a row can hit -------------------------------

def _kept_share(fam, P, rows, curves_per_step):
    """Per kernel step of ``curves_per_step`` curves, the share of its (curve,
    column) values inside the filter interval at the threshold of ``rows`` rows."""
    iy_min, iy_max = P.row_range
    thr = rows * P.delta
    fx = fam.evaluate(dy.centers_of(np.unique(P.ix), P.k)[None])
    kept = (fx > iy_min * P.delta - thr) & (fx < (iy_max + 1) * P.delta + thr)
    return [kept[r0:r0 + curves_per_step].mean() for r0 in range(0, len(fam), curves_per_step)]


def test_kernel_matches_oracle_where_most_values_miss_the_rows(monkeypatch):
    # shallow lines inside the grid, steep lines that cross it in a few
    # columns, and lines above and below it, four curves per step: steps with
    # every value kept, with a few kept and with none
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
    # in one step the few kept values of all 24 curves run with the rest
    monkeypatch.undo()
    for rows in (0.3, 2.0, 16.0):
        assert _kept_share(fam, P, rows, len(fam))[0] < 0.5
        assert _assert_kernel_matches_oracle(fam, P, rows) > 0


@pytest.mark.parametrize("rows", [0.25, 1 / 3, 2.0, 3.5])
def test_kernel_matches_oracle_at_the_filter_edges(rows):
    # horizontal lines at each filter edge, at the value where the nearest
    # row starts to hit, and one float to either side of both; alone (every
    # value kept) and among lines far off the rows (few kept)
    k = 6
    rng = np.random.default_rng(2)
    P = dy.SquareFamily(k, rng.integers(0, 2 ** k, 200), rng.choice([-5, 0, 3, 20], 200))
    iy_min, iy_max = P.row_range
    thr = rows * P.delta
    edges = [iy_min * P.delta - thr, (iy_max + 1) * P.delta + thr,
             (iy_min + 0.5) * P.delta - thr, (iy_max + 0.5) * P.delta + thr]
    levels = [np.nextafter(v, side) for v in edges for side in (-np.inf, np.inf)] + edges
    for far in (0, 40):
        b = np.r_[levels, np.full(far, -7.0)]
        fam = fl.TransversalFamily("affine", np.zeros(len(b)), b, (0.0, 1.0))
        assert (_kept_share(fam, P, rows, len(fam))[0] >= 0.5) == (far == 0)
        assert _assert_kernel_matches_oracle(fam, P, rows) > 0


@pytest.mark.parametrize("rows", [0.0, -0.5, -3.0, -math.inf, 2.0 ** 51, math.inf])
def test_kernel_matches_oracle_at_thresholds_beyond_the_filter(rows):
    # at or below 0 no row hits, and no value is kept; from 2^51 rows on every
    # value is kept, and every pair hits
    fam, P = _spread_squares_and_lines(4)
    count = _assert_kernel_matches_oracle(fam, P, rows)
    assert count == (0 if rows <= 0 else len(fam) * len(P))


def test_cube_counts_of_a_family_with_no_run_are_the_zero_table():
    fam = fl.TransversalFamily("affine", [0.0, 0.5, 0.0], [3.0, 2.0, -2.0], (0.0, 1.0))
    P = dy.SquareFamily.grid(5)
    counts, cube_ids = inc.cube_incidence_counts(fam, P, 2)
    assert counts.shape == (len(P), len(cube_ids)) == (len(P), 3)
    assert counts.dtype == np.int64 and not counts.any()


# -- candidate column ranges ---------------------------------------------------------

#: curve parameters: moderate ones, subnormal and tiny ones, and any finite float
_PARAMS = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(-1e-300, 1e-300),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, dy.MAX_DELTA_EXP), data=st.data())
def test_candidate_columns_hold_every_kept_column(k, data):
    # columns anywhere, or a run of neighbours; rows, and a threshold in rows
    lim = 2 ** (k + 1)
    ix = np.unique(data.draw(st.one_of(
        st.lists(st.integers(-lim, lim - 1), min_size=1, max_size=60),
        st.tuples(st.integers(-lim, lim - 1), st.integers(1, 60)).map(
            lambda c: list(range(c[0], min(c[0] + c[1], lim)))),
    )))
    iy = sorted(data.draw(st.lists(st.integers(-lim, lim), min_size=2, max_size=2)))
    P = dy.SquareFamily(k, np.r_[ix, ix[0]], np.r_[np.full(len(ix), iy[0]), iy[1]])
    rows = data.draw(st.one_of(
        st.floats(0.0, 4.0), st.floats(0.0, 2.0 ** 60),
        st.sampled_from([2.0 ** 51 - 1, 2.0 ** 51, 2.0 ** 53]),
    ))
    lo_edge, hi_edge = inc._filter_edges(P, rows * P.delta)
    xs = dy.centers_of(ix, k)
    n = data.draw(st.integers(1, 8))
    a = np.array(data.draw(st.lists(_PARAMS, min_size=n, max_size=n)))
    b = np.array(data.draw(st.lists(_PARAMS, min_size=n, max_size=n)))
    # some lines cross an edge at a column, where rounding decides
    on_edge = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    at = xs[np.array(data.draw(st.lists(st.integers(0, len(xs) - 1), min_size=n, max_size=n)))]
    edge = np.where(np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))), lo_edge, hi_edge)
    with np.errstate(all="ignore"):
        crossing = edge - a * at
    b = np.where(on_edge & np.isfinite(crossing), crossing, b)
    fam = fl.TransversalFamily("affine", a, b, (-2.0, 2.0))
    # translates of every other kind keep every column
    for other in (fl.TransversalFamily("parabola", a, b, (-2.0, 2.0), lead=0.5),
                  fl.TransversalFamily("convex", a, b, (-2.0, 2.0), seed=fl.quadratic_seed(0.5))):
        assert inc._candidate_columns(other, xs, lo_edge, hi_edge) is None
    ranges = inc._candidate_columns(fam, xs, lo_edge, hi_edge)
    if ranges is None:  # every column is a candidate
        assert rows >= 2.0 ** 51
        return
    start, stop = ranges
    with np.errstate(all="ignore"):  # huge parameters overflow
        fx = a[:, None] * xs[None] + b[:, None]
    kept = (fx > lo_edge) & (fx < hi_edge)
    cols = np.arange(len(xs))
    assert not np.any(kept & ((cols < start[:, None]) | (cols >= stop[:, None])))
    # a line with a non-finite value keeps every column, so evaluate still refuses it
    bad = ~np.isfinite(fx).all(axis=1)
    assert np.all(start[bad] == 0) and np.all(stop[bad] == len(xs))


def _counting_evaluate(monkeypatch):
    """Patch ``TransversalFamily.evaluate`` to log each call's value count."""
    calls = []
    real = fl.TransversalFamily.evaluate

    def evaluate(self, x, order=0):
        out = real(self, x, order)
        calls.append(out.size)
        return out

    monkeypatch.setattr(fl.TransversalFamily, "evaluate", evaluate)
    return calls


def test_a_block_whose_ranges_are_empty_makes_no_evaluate_call(monkeypatch):
    # four curves per block: lines through the grid, lines above it and
    # lines below it; parabola translates far off it keep every column, so
    # they are evaluated, and still match the oracle
    k = 5
    P = dy.SquareFamily.grid(k)
    through = fl.TransversalFamily("affine", [0.0, 0.5, -0.5, 2.0], [0.5, 0.2, 0.9, -0.5], (0.0, 1.0))
    off = [fl.TransversalFamily("affine", [0.0, 0.5, -0.5, 1.0], [3.0, 2.0, 4.0, 1.5], (0.0, 1.0)),
           fl.TransversalFamily("affine", [0.0, 0.5, -0.5, 1.0], [-3.0, -2.0, -0.6, -2.5], (0.0, 1.0))]
    far = fl.TransversalFamily("parabola", [0.5, 0.2, 0.9, 0.0], [1.5, 2.0, -9.0, -3.0], (0.0, 1.0), lead=0.5)
    monkeypatch.setattr(inc, "STEP_BUDGET", 4 * 2 ** k)
    calls = _counting_evaluate(monkeypatch)
    for rows in (0.3, 2.0, 16.0):
        for fam in off:
            assert _assert_runs_match_oracle(fam, P, rows) == 0
        assert calls == []
        both = fl.TransversalFamily("affine", np.r_[off[0].a, through.a], np.r_[off[0].b, through.b], (0.0, 1.0))
        assert _assert_runs_match_oracle(both, P, rows) > 0
        assert len(calls) == 1 and max(calls) <= 4 * 2 ** k  # the second block
        assert _assert_runs_match_oracle(far, P, rows) == 0
        calls.clear()


def test_blocks_evaluate_only_the_columns_their_curves_can_reach(monkeypatch):
    # the uniform line family's lines leave the 2^-7 grid through its top or
    # enter it late, so its blocks of 512 curves evaluate 54% of its
    # (curve, column) values, where every value would be evaluated unranged
    k = 7
    fam = cf.build_uniform_line_family(k, 4, 0)
    P = dy.SquareFamily.grid(k)
    calls = _counting_evaluate(monkeypatch)
    count = _assert_runs_match_oracle(fam, P, 2.0)
    assert count > 0
    assert sum(calls) <= 0.6 * len(fam) * 2 ** k


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
    if accepted:
        with pytest.raises(AssertionError, match="evaluated"):
            inc.incidences(fam, P, 2.0, collect=False)
    else:
        with pytest.raises(DomainError, match="over the limit"):
            inc.incidences(fam, P, 2.0, collect=False)


@pytest.mark.parametrize("kind", ["parabola", "affine"])
def test_count_pass_equals_the_run_pass_at_the_useful_regime(kind):
    # brute force is too slow at 2^-12: the run pass is the second oracle,
    # at lambda*delta and at each coarse 2S*delta of the high-low split
    conf = cf.build_nice_configuration(kind, 12, 0.5, 1.0, 12, 0)
    P = conf.union_squares()
    thresholds = tuple(r * P.delta for r in (2.0, 8.0, 16.0, 32.0))
    counts = inc._counts_at_thresholds(conf.family, P, thresholds)
    assert counts == [int(inc._runs_at_threshold(conf.family, P, thr)[:, 2].sum()) for thr in thresholds]
    assert 0 < counts[0] < counts[-1]


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
