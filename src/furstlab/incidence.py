"""Incidence counting between curve families and dyadic squares.

An incidence is a pair (f, p) whose square center z_p lies in the vertical
lambda*delta-neighbourhood of the curve: |y_p - f(x_p)| < lambda*delta,
strictly (centers are exact dyadic rationals, so boundary cases are
deterministic).  Every count agrees *exactly* with the brute-force oracle,
which evaluates every (curve, square) pair directly, one curve closure at a
time, and tests fl(y - f(x)) against the threshold.

One pass counts them, by squares.  It evaluates every curve once per
occupied column, a chunk of columns at a time, and sorts each column's
values v.  For a square's center y and a threshold t > 0 it counts B - A,
where A is the number of values with fl(y - v) >= t and B the number with
fl(y - v) > -t.  Rounding is monotone and y - v decreases in v, so
fl(y - v) is non-increasing along the sorted values, and each of the two
sets is a prefix of them; A's lies in B's, as t > 0 > -t, and the values in
B's prefix but not in A's are exactly those with -t < fl(y - v) < t, the
oracle's |y - v| < t.  As fl(y - v) is a float, "> -t" is ">= the float
above -t", so both prefix ends are found by one rule: estimated by a binary
search, for the values <= y - t and those < y + t, then settled by stepping
up while the value at the end passes the float test and down while the
value below it fails, which ends on the prefix's end from any estimate.
Where y - t and y + t are exact, as with dyadic thresholds, the estimate is
already exact, so values tied at a boundary (curves through one point) are
not stepped over one at a time.

Only the squares in a window of each column are settled: those with
fl(v_min - t) <= y <= fl(v_max + t), v_min and v_max the column's least and
greatest value and t the widest threshold of the call.  Every other square
of the column counts 0, at t and at every smaller threshold.  For a float y
below fl(v_min - t), y <= v_min - t holds exactly, since rounding is
monotone and y rounds to itself; then y - v <= -t for every value, so
fl(y - v) <= -t, and no value lies in B's prefix.  For y above
fl(v_max + t), likewise y - v >= t for every value, so fl(y - v) >= t, and
every value lies in A's prefix: B - A = 0 again.  Both hold where v - t or
v + t overflows, and at an infinite t, whose window is the whole column.
The squares of a column are sorted by y, so its window is one block of
them, found by a binary search over the key c + i*y of each square
(``SquareFamily.column_y``, c its column's index), which numpy orders by c,
then y: two ``searchsorted`` calls per chunk find every column's block.
An int64 (column, row) key would pass 2^63 where 2^13 sparse columns span
2^52 rows; the complex key holds the exact centers that are compared and
needs no rounding of the window to rows.  A SquareFamily builds its column
layout and keys once and keeps them.

The pass's prefix ends are read three ways:

- summed per threshold, for the calls that only count (``high_low_reports``,
  which counts lambda*delta and every 2S*delta at once, and ``incidences(...,
  collect=False)``);
- as B - A per square at one threshold, for ``cube_incidence_counts``, once
  per family cube;
- as pairs, for ``incidences``: each column is ordered by a stable argsort
  rather than sorted in place, so the positions [A, B) of a square's prefix
  ends name its curves, and the pairs are then sorted by (curve, square), as
  the oracle's are.

At a threshold <= 0 no pair hits, and a nan threshold is refused before any
curve is evaluated.  The pass keeps no table: its work is the (curve,
column) values, and a call over ``MAX_COUNT_VALUES`` of them is refused
before any evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import SquareFamily, centers_of, side_of
from .family import DomainError, TransversalFamily, _eval_checked
from .famspace import family_cubes


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

#: most (curve, column) values one kernel call may evaluate and sort,
#: refused beyond: about 73 s at 17 ns per value (the high-low split's four
#: thresholds on the parabola configurations at 2^-12 to 2^-14, one core of
#: a shared 2-core x86-64 host), 16x the 2^28 values at 2^-14
MAX_COUNT_VALUES = 1 << 32


def _settle_prefixes(pos, v, base, y, lim):
    """Step each estimate in ``pos`` to the exact length of its sorted row's
    prefix of values with fl(y - v) >= lim (see the module docstring).

    pos is (len(lim), len(y)): one row per limit, and one column per square,
    of center y and whose column's sorted values start at ``base`` in the
    flat ``v`` (rows of n values).  A value's test is the oracle's own
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
        at += base
        passes = y - flat[at] >= lim[:, None]
        todo = np.flatnonzero(inside & (passes if step > 0 else ~passes))
        while len(todo):
            pos_flat[todo] += step
            at = pos_flat[todo] + below
            todo = todo[(at >= 0) & (at < n)]
            limit, square = np.divmod(todo, len(y))
            passes = y[square] - flat[base[square] + pos_flat[todo] + below] >= lim[limit]
            todo = todo[passes if step > 0 else ~passes]
    return pos


def _prefix_ends(family: TransversalFamily, squares: SquareFamily, thresholds, order: bool = False):
    """The kernel pass: per chunk of occupied columns, yields (sq, ends,
    curves) for the squares ``sq`` of its columns' windows.

    ends has one column per square of sq and two rows per threshold > 0 of
    ``thresholds``, in their order: the prefix ends A and B, as positions in
    the chunk's flat sorted values (see the module docstring), so a square
    counts B - A.  With ``order``, curves gives the curve at each of those
    positions; it is None otherwise.  A nan threshold, and a call over
    MAX_COUNT_VALUES values, are refused before any curve is evaluated.
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
    # at a threshold <= 0 no pair hits
    live = [threshold for threshold in thresholds if threshold > 0]
    if not live or not n_cols or not n:
        return
    # per threshold t, the limits of A (fl(y - v) >= t) and of B (fl(y - v) > -t,
    # that is >= the float above -t): a square counts B - A
    lim = np.array([[t, np.nextafter(-t, math.inf)] for t in live]).ravel()
    widest = max(live)
    xc = centers_of(squares.ix[col_start[:-1]], squares.k)
    keys = squares.column_y
    cols = max(1, min(n_cols, STEP_BUDGET // n))
    for c0 in range(0, n_cols, cols):
        c1 = min(c0 + cols, n_cols)
        # one contiguous row of sorted values per column (np.sort of the
        # transposed view would sort an F-ordered copy, three times slower)
        v = np.ascontiguousarray(family.evaluate(xc[None, c0:c1]).T)
        if order:
            curves = np.argsort(v, axis=1, kind="stable")
            v = np.take_along_axis(v, curves, axis=1)
        else:
            v.sort(axis=1)
        # each column's window: its squares with fl(v_min - t) <= y <= fl(v_max + t)
        window = np.empty((2, c1 - c0), dtype=complex)
        window.real = np.arange(c0, c1)
        with np.errstate(over="ignore"):
            np.subtract(v[:, 0], widest, out=window.imag[0])
            np.add(v[:, -1], widest, out=window.imag[1])
        start = keys.searchsorted(window[0], side="left")
        size = keys.searchsorted(window[1], side="right") - start
        bounds = np.concatenate(([0], np.cumsum(size)))
        if not bounds[-1]:
            continue
        sq = np.repeat(start - bounds[:-1], size) + np.arange(bounds[-1])
        y = keys.imag[sq]
        # estimates, one row per limit, so that a column's searches are for
        # ascending values: the values <= y - t (those < the float above it)
        # for A, and those < y + t for B
        want = y - lim[:, None]
        want[::2] = np.nextafter(want[::2], math.inf)
        pos = np.empty(want.shape, dtype=np.int64)
        bounds = bounds.tolist()
        for j in np.flatnonzero(size).tolist():
            pos[:, bounds[j]:bounds[j + 1]] = v[j].searchsorted(want[:, bounds[j]:bounds[j + 1]])
        base = np.repeat(np.arange(c1 - c0) * n, size)
        ends = _settle_prefixes(pos, v, base, y, lim)
        ends += base
        yield sq, ends, curves.ravel() if order else None


def _counts_at_thresholds(
    family: TransversalFamily,
    squares: SquareFamily,
    thresholds: tuple[float, ...],
) -> list[int]:
    """Exact counts of pairs with |y_p - f(x_p)| < threshold, one for each of
    ``thresholds`` in their order: the kernel's prefix ends, summed."""
    live = [i for i, threshold in enumerate(thresholds) if threshold > 0]
    counts = [0] * len(thresholds)
    for _, ends, _ in _prefix_ends(family, squares, thresholds):
        for i, (a, b) in zip(live, ends.sum(axis=1).reshape(-1, 2).tolist()):
            counts[i] += b - a
    return counts


def _square_counts(family: TransversalFamily, squares: SquareFamily, threshold: float) -> np.ndarray:
    """Per square, the int64 count of curves with |y_p - f(x_p)| < threshold."""
    counts = np.zeros(len(squares), dtype=np.int64)
    for sq, ends, _ in _prefix_ends(family, squares, (threshold,)):
        counts[sq] = ends[1] - ends[0]
    return counts


def _pairs(family: TransversalFamily, squares: SquareFamily, threshold: float) -> np.ndarray:
    """The (m, 2) int64 (curve, square) pairs with |y_p - f(x_p)| < threshold,
    sorted by (curve, square): the curves at each square's positions [A, B)."""
    chunks = [np.zeros((0, 2), dtype=np.int64)]
    for sq, ends, curves in _prefix_ends(family, squares, (threshold,), order=True):
        first, length = ends[0], ends[1] - ends[0]
        at = np.repeat(first - (np.cumsum(length) - length), length) + np.arange(length.sum())
        chunks.append(np.stack([curves[at], np.repeat(sq, length)], axis=1))
    pairs = np.concatenate(chunks)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


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
    pairs = _pairs(family, squares, lam * squares.delta)
    return IncidenceResult(len(pairs), pairs)


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
    distinct planar cell indices of the family at level Delta_exp.  Each
    cube's column is the kernel's per-square counts of that cube's curves
    alone; a family of one cube gets that column as a (|P|, 1) view.
    """
    cube_ids, members = family_cubes(family, Delta_exp)
    threshold = lam * squares.delta
    if len(cube_ids) == 1:
        return _square_counts(family, squares, threshold)[:, None], cube_ids
    counts = np.empty((len(squares), len(cube_ids)), dtype=np.int64)
    for i, curves in enumerate(members):
        counts[:, i] = _square_counts(family.subfamily(curves), squares, threshold)
    return counts, cube_ids
