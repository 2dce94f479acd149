"""Incidence counting between curve families and dyadic squares.

An incidence is a pair (f, p) whose square center z_p lies in the vertical
lambda*delta-neighbourhood of the curve: |y_p - f(x_p)| < lambda*delta,
strictly (centers are exact dyadic rationals, so boundary cases are
deterministic).  Every count agrees *exactly* with the brute-force oracle,
which evaluates every (curve, square) pair directly, one curve closure at a
time, and tests fl(y - f(x)) against the threshold.  Counts go by squares
and runs go by curves: a call that only counts (``incidences(...,
collect=False)``, ``high_low_reports``) takes the count pass, at any number
of thresholds at once, and a call that needs the pairs (``incidences``,
``cube_incidence_counts``) takes the run pass, at one threshold.

The count pass evaluates every curve once per occupied column, a chunk of
columns at a time, and sorts each column's values v.  For a square's center
y and a threshold t > 0 it counts B - A, where A is the number of values
with fl(y - v) >= t and B the number with fl(y - v) > -t.  Rounding is
monotone and y - v decreases in v, so fl(y - v) is non-increasing along the
sorted values, and each of the two sets is a prefix of them; A's lies in
B's, as t > 0 > -t, and the values in B's prefix but not in A's are exactly
those with -t < fl(y - v) < t, the oracle's |y - v| < t.  As fl(y - v) is a
float, "> -t" is ">= the float above -t", so both prefix ends are found by
one rule: estimated by a binary search, for the values <= y - t and those
< y + t, then settled by stepping up while the value at the end passes the
float test and down while the value below it fails, which ends on the
prefix's end from any estimate.  Where y - t and y + t are exact, as with
dyadic thresholds, the estimate is already exact, so values tied at a
boundary (curves through one point) are not stepped over one at a time.  At a threshold <= 0 no pair hits, and a nan threshold is refused
before any curve is evaluated.  The pass keeps no table: its work is the
(curve, column) values, and a call over ``MAX_COUNT_VALUES`` of them is
refused before any evaluation, as a run-pass call whose prefix-count table
would pass ``MAX_TABLE_ENTRIES`` entries is.

The run pass takes the squares in the (column, row) order every
SquareFamily keeps, evaluates each curve once per occupied column it can
reach, and uses that the rows a curve hits in one column form a single
run: the exact center-to-curve distance grows away from the row containing
f(x), and float rounding keeps that order.  Each run end is estimated in
row units, as floor(u + t - 1/2) above and ceil(u - t - 1/2) below, with
u = f(x)/delta and t = threshold/delta (both exact).  The estimate never
falls inside the run: row n hits above f(x) only if n + 1/2 < u + t
exactly, and n + 1/2 is a float, so the rounded u + t is at least n + 1/2
too (likewise below).  The ends stay floats.  They are clamped to the rows
the squares span, the lower end to [iy_min, iy_max + 1] and the upper to
[iy_min - 1, iy_max], which keeps lower <= upper + 1 as the estimates are.
Each end is then settled by stepping inwards while its row misses and the
run still holds it, so a run with no hitting row ends as lower = upper + 1
and counts 0.  A row misses by the oracle's own predicate and strict
inequality, |(row + 1/2) * delta - f(x)| < threshold: for an integer row
below 2^52 in size, row + 1/2 and its product with the power of two delta
are exact, the same float as the oracle's ``centers_of``.

A value no row can reach needs no step of its own: its estimates clamp to
an empty run, as do those of a u that overflows to +-inf.  The edges
lo_edge = iy_min * delta - threshold and hi_edge = (iy_max + 1) * delta +
threshold, half a row wider on each side than the rows' centers need,
instead bound the columns a curve is evaluated at: a value at or outside
them hits no row, so a column where every value of a block lies outside
is dropped exactly.  The lower edge rounds from
iy_min * delta - threshold (the product is exact) by at most half an ulp,
and that is at most delta/2 while |iy_min| < 2^52 and t < 2^51, as the
edge is then below 2^53 * delta in size; so for f(x) at or below the edge
and any row n >= iy_min, (n + 1/2) * delta - f(x) >= threshold exactly,
and rounding, which is monotone, keeps the oracle's difference >= the
float threshold: the row misses.  The upper edge is the mirror image, and
at a threshold <= 0 no row hits at all.  From t = 2^51 on, the edges are
infinite and every column is kept.

Most values need not be computed at all.  Per chunk of columns, each line
gets the columns [start, stop) outside which none of its computed values
lies in (lo_edge, hi_edge), and a step evaluates its block of curves only on
the columns from their least start to their last stop; a block with none is
skipped before any evaluation.  A line's computed a*x + b is monotone in x,
as the rounded product and sum each are, so one edge test holds on a prefix
of its columns and the other on a suffix, and its kept columns form one
interval.  The interval's ends are estimated in closed form, by inverting
the line at the two edges and a binary search over the column centers, then
settled outwards: a start steps down while the column below it passes the
edge test that holds on a suffix, and a stop steps up while its own column
passes the other.  Whatever the estimate, every column beyond a settled end
then fails a test, by monotonicity, so the range holds every kept column;
rounding, or an overflow of the inversion at a subnormal slope, only moves
the estimate, and with it the settle's length.  Before any estimate, the
same monotonicity bounds each line's values by those at the chunk's two end
columns: a line whose bounds lie inside the interval keeps every column,
one whose bounds lie on one side of it keeps none, and only the rest are
estimated and settled.  A line with a non-finite value at an end column
keeps every column, so that ``evaluate`` refuses it as it would without
ranges (finite values at both ends bound every value between).  Parabola
and convex translates, and infinite edges, keep every column.

A prefix-count table over the sorted squares' keys then gives the run's
first square and length by two direct lookups, with the ends cast to int64
only for them.  The table and the column layout depend only on the
squares, so a SquareFamily builds them once and keeps them (a table larger
than ``TABLE_BUDGET`` is built a chunk of columns at a time, each call,
into one buffer).

A run's squares are contiguous in the sorted squares, so the run pass
collects each run as one row (curve, first square, length) rather than as
its pairs.  ``incidences`` expands the runs into the sorted pair list;
``cube_incidence_counts`` never expands them: it adds +1 at each run's
first square and -1 one past its last in a difference array per cube, and
a cumulative sum over the square axis turns that into the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import SquareFamily, centers_of, side_of, unique_cells
from .family import DomainError, TransversalFamily, _eval_checked
from .famspace import family_cell_indices


# --------------------------------------------------------------------------
# Core counting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IncidenceResult:
    count: int
    pairs: np.ndarray | None  # (m, 2) int64 rows (curve_index, square_index)


#: (curve, column) pairs per kernel step, small enough for a step's
#: temporaries to stay in cache: steps of 2^14 to 2^18 pairs ran within
#: 10% of each other on the high-low and mainlem workloads, 2^12 ran 1.3x
#: to 1.5x slower
STEP_BUDGET = 1 << 16

#: int32 entries of one prefix-count table: a square set whose table fits
#: keeps it for every call; a larger one is built over as many columns at a
#: time as fit (at least one), where the high-low squares at 2^-12, 4,096
#: columns by about 6,050 rows, would need 24.8M entries
TABLE_BUDGET = 1 << 22

#: most prefix-count entries one kernel call may build (a table over every
#: occupied column), refused beyond: about 3.6 s of table at 3.4 ns per entry
#: (2^24-row columns, one core of a shared 2-core x86-64 host), 43x the
#: high-low squares at 2^-12; 4,096 sparse squares at 2^-24 over 1.97e7 rows
#: would need 8.1e10
MAX_TABLE_ENTRIES = 1 << 30

#: most (curve, column) values one count-pass call may evaluate and sort,
#: refused beyond: about 73 s at 17 ns per value (the high-low split's four
#: thresholds on the parabola configurations at 2^-12 to 2^-14, one core of
#: a shared 2-core x86-64 host), 16x the 2^28 values at 2^-14
MAX_COUNT_VALUES = 1 << 32


def _settle(end, other, fx, dl, threshold, step, scratch):
    """Step each run end in ``end`` by ``step`` rows (+1 for lower ends, -1
    for upper ones) while its row misses and its run, bounded by ``other``,
    still holds that row.

    An end estimate never falls inside its run (see the module docstring),
    so this settles the exact end; a run with no hitting row settles empty,
    the lower end one above the upper.  A row misses by the oracle's own
    predicate, on the oracle's center (row + 1/2) * delta; fx is finite and
    the threshold not nan, so ">=" is "not <".  ``scratch`` has end's shape.
    """
    lower, upper = (end, other) if step > 0 else (other, end)
    np.add(end, 0.5, out=scratch)
    scratch *= dl
    scratch -= fx
    todo = np.flatnonzero((np.abs(scratch, out=scratch) >= threshold) & (lower <= upper))
    flat, lower, upper, fx = end.reshape(-1), lower.reshape(-1), upper.reshape(-1), fx.reshape(-1)
    while len(todo):
        flat[todo] += step
        todo = todo[(lower[todo] <= upper[todo])
                    & (np.abs((flat[todo] + 0.5) * dl - fx[todo]) >= threshold)]
    return end


def _filter_edges(squares: SquareFamily, threshold: float) -> tuple[float, float]:
    """(lo_edge, hi_edge): a value at or outside this open interval hits no
    row of the squares at ``threshold``, so a column where every value lies
    outside may be dropped (see the module docstring, whose bound on the
    edges' rounding needs a threshold below 2^51 rows); from 2^51 rows on,
    the edges are infinite and every column is kept."""
    iy_min, iy_max = squares.row_range
    dl = squares.delta
    if max(threshold, 0.0) / dl >= 2.0 ** 51:
        return -math.inf, math.inf
    return iy_min * dl - threshold, (iy_max + 1) * dl + threshold


def _candidate_columns(family: TransversalFamily, xs: np.ndarray, lo_edge: float, hi_edge: float):
    """Per line, the columns [start, stop) of the sorted centers ``xs``
    outside which no computed a*x + b lies in (lo_edge, hi_edge), as two int
    arrays; None where every column is a candidate (every kind but lines, or
    an infinite edge).  See the module docstring for the rule and its proof."""
    if family.kind != "affine" or not (math.isfinite(lo_edge) and math.isfinite(hi_edge)):
        return None
    a, b, m = family.a, family.b, len(xs)
    # huge parameters overflow, and so does inverting a line of subnormal
    # slope: an estimate is only where the settle starts
    with np.errstate(all="ignore"):
        # every value lies between those at the end columns
        e0, e1 = a * xs[0] + b, a * xs[-1] + b
        low, high = np.minimum(e0, e1), np.maximum(e0, e1)
        # a line keeps every column where every value is kept, or where one
        # is not finite, so that ``evaluate`` refuses it as without ranges;
        # no column where none is kept; the rest cross an edge
        every = ((lo_edge < low) & (high < hi_edge)) | ~(np.isfinite(e0) & np.isfinite(e1))
        start, stop = np.where(every, 0, m), np.where(every, m, 0)
        cross = np.flatnonzero(~every & (high > lo_edge) & (low < hi_edge))
        ac, bc = a[cross], b[cross]

        def widen(end, bound, step, use_lo):
            """Step each crossing line's end by ``step`` columns (-1 for a
            start, +1 for a stop) towards ``bound`` while the column just
            outside it passes one edge test: a*x + b > lo_edge where
            ``use_lo``, a*x + b < hi_edge elsewhere."""
            outside = (step - 1) // 2  # a start probes the column below it, a stop its own
            left = np.flatnonzero(end != bound)
            while len(left):
                f = ac[left] * xs[end[left] + outside] + bc[left]
                left = left[np.where(use_lo[left], f > lo_edge, f < hi_edge)]
                end[left] += step
                left = left[end[left] != bound]

        x1, x2 = (lo_edge - bc) / ac, (hi_edge - bc) / ac
        s = np.searchsorted(xs, np.fmin(x1, x2), side="right")
        e = np.searchsorted(xs, np.fmax(x1, x2), side="left")
        widen(s, 0, -1, ac >= 0)  # a rising line passes the lower edge on a suffix
        widen(e, m, 1, ac < 0)
    # an empty interval is [m, 0), which widens no block's columns
    some = s < e
    start[cross], stop[cross] = np.where(some, s, m), np.where(some, e, 0)
    return start, stop


def _settle_prefixes(pos, v, base, y, lim):
    """Step each estimate in ``pos`` to the exact length of its sorted row's
    prefix of values with fl(y - v) >= lim (see the module docstring).

    pos is (len(y), len(lim)): one row per square, of center y and whose
    column's sorted values start at ``base`` in the flat ``v`` (rows of n
    values), and one column per limit.  A value's test is the oracle's own
    difference; a position steps up over each value that passes and down over
    each that fails, so it stops at the prefix's end whatever it started at.
    """
    n = v.shape[1]
    flat, pos_flat = v.reshape(-1), pos.reshape(-1)
    for step in (1, -1):
        # the value a position steps over: its own going up, the one below going down
        below = (step - 1) // 2
        at = pos + below
        inside = (at >= 0) & (at < n)
        np.clip(at, 0, n - 1, out=at)
        at += base[:, None]
        passes = y[:, None] - flat[at] >= lim
        todo = np.flatnonzero(inside & (passes if step > 0 else ~passes))
        while len(todo):
            pos_flat[todo] += step
            at = pos_flat[todo] + below
            todo = todo[(at >= 0) & (at < n)]
            square, limit = np.divmod(todo, len(lim))
            passes = y[square] - flat[base[square] + pos_flat[todo] + below] >= lim[limit]
            todo = todo[passes if step > 0 else ~passes]
    return pos


def _counts_at_thresholds(
    family: TransversalFamily,
    squares: SquareFamily,
    thresholds: tuple[float, ...],
) -> list[int]:
    """Exact counts of pairs with |y_p - f(x_p)| < threshold, one for each of
    ``thresholds`` in their order, by squares: the count pass.

    Per chunk of occupied columns, every curve is evaluated once and each
    column's values are sorted; each square then counts, at each threshold,
    the values between two prefix ends of its column's row.
    """
    if any(math.isnan(threshold) for threshold in thresholds):
        raise DomainError(f"an incidence threshold is nan: {tuple(thresholds)}")
    col_start = squares.column_starts
    n_cols, n = len(col_start) - 1, len(family)
    if n * n_cols > MAX_COUNT_VALUES:
        raise DomainError(
            f"counting {n} curves over {n_cols} columns at delta=2^-{squares.k} takes "
            f"{n * n_cols} values, over the limit of {MAX_COUNT_VALUES}"
        )
    counts = [0] * len(thresholds)
    # at a threshold <= 0 no pair hits
    live = [i for i, threshold in enumerate(thresholds) if threshold > 0]
    if not live or not n_cols:
        return counts
    # per threshold t, the limits of A (fl(y - v) >= t) and of B (fl(y - v) > -t,
    # that is >= the float above -t): a square counts B - A
    lim = np.array([[thresholds[i], np.nextafter(-thresholds[i], math.inf)] for i in live]).ravel()
    xc = centers_of(squares.ix[col_start[:-1]], squares.k)
    yc = centers_of(squares.iy, squares.k)
    cols = max(1, min(n_cols, STEP_BUDGET // n))
    for c0 in range(0, n_cols, cols):
        c1 = min(c0 + cols, n_cols)
        # one contiguous row of sorted values per column (np.sort of the
        # transposed view would sort an F-ordered copy, three times slower)
        v = np.ascontiguousarray(family.evaluate(xc[None, c0:c1]).T)
        v.sort(axis=1)
        bounds = col_start[c0:c1 + 1] - col_start[c0]
        y = yc[col_start[c0]:col_start[c1]]
        # estimates, one row per square: the values <= y - t (those < the
        # float above it) for A, and those < y + t for B
        want = y[:, None] - lim
        want[:, ::2] = np.nextafter(want[:, ::2], math.inf)
        pos = np.empty(want.shape, dtype=np.int64)
        for j in range(c1 - c0):
            pos[bounds[j]:bounds[j + 1]] = v[j].searchsorted(want[bounds[j]:bounds[j + 1]])
        base = np.repeat(np.arange(c1 - c0) * n, np.diff(bounds))
        ends = _settle_prefixes(pos, v, base, y, lim).sum(axis=0).reshape(len(live), 2)
        for i, (a, b) in zip(live, ends.tolist()):
            counts[i] += b - a
    return counts


def _runs_at_threshold(
    family: TransversalFamily,
    squares: SquareFamily,
    threshold: float,
) -> np.ndarray:
    """The pairs with |y_p - f(x_p)| < threshold as row runs, by curves: the
    run pass.

    Returns an (r, 3) int64 array of (curve, first square, length) rows, one
    per nonempty run, in no particular order.
    """
    if math.isnan(threshold):
        raise DomainError("the incidence threshold is nan")
    k = squares.k
    dl = side_of(k)
    # a SquareFamily is sorted by (ix, iy): each column is one block of squares
    col_start = squares.column_starts
    xc = centers_of(squares.ix[col_start[:-1]], k)
    iy_min, iy_max = squares.row_range
    span = iy_max - iy_min + 1
    if len(xc) * span > MAX_TABLE_ENTRIES:
        raise DomainError(
            f"a prefix-count table over {len(xc)} columns and {span} rows at delta=2^-{k} "
            f"has {len(xc) * span} entries, over the limit of {MAX_TABLE_ENTRIES}"
        )

    run_chunks: list[np.ndarray] = []
    # the threshold in rows; below 0 no row hits, and t = 0 keeps lo <= hi + 1
    t = max(threshold, 0.0) / dl
    lo_edge, hi_edge = _filter_edges(squares, threshold)
    fit = min(STEP_BUDGET, TABLE_BUDGET // (span + 1))  # columns per table
    col_chunk = max(1, min(len(xc), fit))
    rows = max(1, min(len(family), STEP_BUDGET // col_chunk))
    # a table that fits the budget is the square set's kept one; chunks of a
    # larger one are built in turn into one buffer
    buffer = None if len(xc) <= fit else np.empty(col_chunk * span + 1, dtype=np.int32)
    # a step's u, run ends and scratch, in buffers that every step reuses;
    # the scratch row, read as int64, then holds the table keys
    work = np.empty((4, rows * col_chunk))
    for c0 in range(0, len(xc), col_chunk):
        c1 = min(c0 + col_chunk, len(xc))
        xs = xc[c0:c1]
        # built before the blocks, whichever of them are then skipped
        first = squares.prefix_table if buffer is None else squares.prefix_counts(c0, c1, buffer)
        base = int(col_start[c0])
        # a row's table key, less the row: float, as the run ends are, and exact
        col_keys = np.arange(c1 - c0, dtype=float) * span - iy_min
        ranges = _candidate_columns(family, xs, lo_edge, hi_edge)
        for r0 in range(0, len(family), rows):
            r1 = min(r0 + rows, len(family))
            # the block's columns: from its curves' least start to their last stop
            j0, j1 = (0, c1 - c0) if ranges is None else (
                int(ranges[0][r0:r1].min()), int(ranges[1][r0:r1].max()))
            if j0 >= j1:
                continue
            width = j1 - j0
            fx = family.subfamily(slice(r0, r1)).evaluate(xs[None, j0:j1])
            keys = col_keys[j0:j1]
            u, lo, hi, scratch = (w[:fx.size].reshape(fx.shape) for w in work)
            # a u that overflows to +-inf is clamped to an empty run
            with np.errstate(over="ignore"):
                np.multiply(fx, 1.0 / dl, out=u)  # u = f(x)/delta, exact
            # run-end estimates in rows, clamped to the rows the table holds:
            # lo in [iy_min, iy_max + 1], hi in [iy_min - 1, iy_max], lo <= hi + 1
            np.subtract(u, t, out=lo)
            np.add(u, t, out=hi)
            lo -= 0.5
            hi -= 0.5
            np.clip(np.ceil(lo, out=lo), iy_min, iy_max + 1, out=lo)
            np.clip(np.floor(hi, out=hi), iy_min - 1, iy_max, out=hi)
            _settle(lo, hi, fx, dl, threshold, 1, scratch)
            _settle(hi, lo, fx, dl, threshold, -1, scratch)
            # an empty run is lo = hi + 1, whose two reads agree
            key = scratch.view(np.int64)
            lo += keys
            np.copyto(key, lo, casting="unsafe")
            pos_lo = first[key]
            hi += keys
            hi += 1
            np.copyto(key, hi, casting="unsafe")
            n = first[key]
            n -= pos_lo
            run = np.flatnonzero(n)
            if len(run):
                # column-major, so that each column is written contiguously
                chunk = np.empty((len(run), 3), dtype=np.int64, order="F")
                np.floor_divide(run, width, out=chunk[:, 0])
                chunk[:, 0] += r0
                chunk[:, 1] = pos_lo.ravel()[run]
                chunk[:, 1] += base
                chunk[:, 2] = n.ravel()[run]
                run_chunks.append(chunk)
    return np.concatenate(run_chunks) if run_chunks else np.zeros((0, 3), dtype=np.int64)


def _expand_runs(runs: np.ndarray) -> np.ndarray:
    """The (curve, square) pairs of (curve, first square, length) runs, in run order."""
    curve, first, length = runs.T
    square = np.repeat(first - (np.cumsum(length) - length), length) + np.arange(length.sum())
    return np.stack([np.repeat(curve, length), square], axis=1)


def check_lambda_delta(lam: float, delta: float) -> None:
    """The rule on I^lambda's neighbourhood: lambda > 0 and lambda*delta <= 1/2."""
    if not (lam > 0):
        raise DomainError(f"lambda must be positive, got {lam}")
    if lam * delta > 0.5 + 1e-15:
        raise DomainError(f"lambda*delta = {lam * delta} exceeds 1/2")


def check_high_low_S(lam: float, S: float, delta: float) -> None:
    """The rule on the high-low estimate's S: 2 lambda <= S <= delta^-1."""
    if not (2 * lam <= S <= 1.0 / delta + 1e-9):
        raise DomainError(f"S={S} outside [2 lambda, delta^-1] = [{2 * lam}, {1.0 / delta}]")


def incidences(
    family: TransversalFamily,
    squares: SquareFamily,
    lam: float,
    collect: bool = True,
) -> IncidenceResult:
    """I^lambda(F, P): exact count (and pair list) of incidences.

    The pairs are sorted by (curve, square), as the oracle's are.
    Requires lambda*delta <= 1/2; lambda below 2 is allowed computationally
    (useful for probing the strict boundary) though the estimates assume
    lambda >= 2.
    """
    check_lambda_delta(lam, squares.delta)
    if not collect:
        (count,) = _counts_at_thresholds(family, squares, (lam * squares.delta,))
        return IncidenceResult(count, None)
    runs = _runs_at_threshold(family, squares, lam * squares.delta)
    # one curve's runs are disjoint, so runs sorted by (curve, first) expand to sorted pairs
    runs = runs[np.lexsort((runs[:, 1], runs[:, 0]))]
    return IncidenceResult(int(runs[:, 2].sum()), _expand_runs(runs))


def incidences_bruteforce(
    family: TransversalFamily,
    squares: SquareFamily,
    lam: float,
) -> IncidenceResult:
    """Direct double-loop oracle: evaluates every curve at every square center."""
    xc = centers_of(squares.ix, squares.k)
    yc = centers_of(squares.iy, squares.k)
    thr = lam * squares.delta
    chunks = []
    count = 0
    for fi, curve in enumerate(family.curves):
        fx = _eval_checked(curve.eval0, xc, "f")
        mask = np.abs(yc - fx) < thr
        hits = int(np.sum(mask))
        count += hits
        if hits:
            sq = np.flatnonzero(mask)
            chunks.append(np.stack([np.full(hits, fi, dtype=np.int64), sq], axis=1))
    pairs = np.concatenate(chunks) if chunks else np.zeros((0, 2), dtype=np.int64)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return IncidenceResult(count=count, pairs=pairs)


# --------------------------------------------------------------------------
# High-low decomposition
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HighLowReport:
    """One evaluation of the high-low incidence split.

    lhs = I^lambda(F, P); high_term = (S^3 delta^-1 |F| |P|)^(1/2);
    low_term = S^-1 * I^2(F, P^{S delta}), where the latter counts pairs
    with |y_p - f(x_p)| < 2 S delta.  fitted_C is the smallest C >= 0 with
    lhs <= C log2(1/delta) high_term + low_term.
    """

    delta_exp: int
    lam: float
    S: float
    lhs: int
    high_term: float
    low_term: float
    coarse_count: int

    @property
    def fitted_C(self) -> float:
        log_factor = self.delta_exp  # log2(1/delta)
        if self.high_term <= 0 or log_factor <= 0:
            return 0.0
        return max(0.0, (self.lhs - self.low_term) / (log_factor * self.high_term))

    def satisfies(self, C0: float) -> bool:
        return self.lhs <= C0 * self.delta_exp * self.high_term + self.low_term + 1e-9


def high_low_reports(
    family: TransversalFamily,
    squares: SquareFamily,
    lam: float,
    S_values: tuple[float, ...],
) -> list[HighLowReport]:
    """Evaluate both sides of the high-low estimate for lambda and each S of
    ``S_values``, in their order.

    One count pass counts lhs = I^lambda(F, P) at lambda*delta and each
    coarse count at 2S*delta.  As S >= 2 lambda, the thresholds nest, and
    lhs is at most every coarse count.
    """
    dl = side_of(squares.k)
    check_lambda_delta(lam, dl)
    for S in S_values:
        check_high_low_S(lam, S, dl)
    sep = family.min_pair_distance()
    if sep < dl:
        raise DomainError(
            f"family is not delta-separated: min pair distance {sep} < delta {dl}"
        )
    thresholds = (lam * dl, *(2.0 * S * dl for S in S_values))
    lhs, *coarse = _counts_at_thresholds(family, squares, thresholds)
    return [high_low_report(family, squares, lam, S, lhs, count)
            for S, count in zip(S_values, coarse)]


def high_low_report(
    family: TransversalFamily,
    squares: SquareFamily,
    lam: float,
    S: float,
    lhs: int,
    coarse: int,
) -> HighLowReport:
    """Both sides of the high-low estimate at one S, from the counts that
    ``high_low_reports`` takes: lhs at lambda*delta, coarse at 2S*delta.
    The benchmark's layer spans read each report's coarse count here."""
    dl = side_of(squares.k)
    return HighLowReport(
        delta_exp=squares.k,
        lam=lam,
        S=S,
        lhs=lhs,
        high_term=math.sqrt(S ** 3 * (1.0 / dl) * len(family) * len(squares)),
        low_term=coarse / S,
        coarse_count=coarse,
    )


# --------------------------------------------------------------------------
# N_{Delta,b} counts
# --------------------------------------------------------------------------

def cube_incidence_counts(
    family: TransversalFamily,
    squares: SquareFamily,
    Delta_exp: int,
    lam: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """counts[p, F] = #curves of family-cube F incident to square p.

    Incidence means z_p in the vertical lam*delta-neighbourhood, delta the
    square side.  Returns (counts, cube_ids) with cube_ids the sorted
    distinct planar cell indices of the family at level Delta_exp.  The
    kernel's runs are counted without expanding them: each run adds 1 at
    (first square, cube) and -1 at (first + length, cube) of a difference
    array with |P| + 1 rows (a run may end at the last square), and a
    cumulative sum down the square axis gives the table.  Where the kernel
    finds no run, the zero table is returned as it is.
    """
    cube_ids, inverse = unique_cells(family_cell_indices(family, Delta_exp))
    runs = _runs_at_threshold(family, squares, lam * squares.delta)
    n_cubes = len(cube_ids)
    if not len(runs):
        return np.zeros((len(squares), n_cubes), dtype=np.int64), cube_ids
    curve, first, length = runs.T
    start = first * n_cubes + inverse[curve]
    size = (len(squares) + 1) * n_cubes
    diff = np.bincount(start, minlength=size)
    diff -= np.bincount(start + length * n_cubes, minlength=size)
    return np.cumsum(diff.reshape(len(squares) + 1, n_cubes)[:-1], axis=0), cube_ids
