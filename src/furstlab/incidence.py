"""Incidence counting between curve families and dyadic squares.

An incidence is a pair (f, p) whose square center z_p lies in the vertical
lambda*delta-neighbourhood of the curve: |y_p - f(x_p)| < lambda*delta,
strictly (centers are exact dyadic rationals, so boundary cases are
deterministic).  The fast counter sorts the squares by (column, row),
evaluates each curve once per occupied column, and uses that the rows a
curve hits in one column form a single run: the exact center-to-curve
distance grows away from the row containing f(x), and float rounding
keeps that order.  Each run end is estimated in row units, as
floor(u + t - 1/2) above and ceil(u - t - 1/2) below, with u = f(x)/delta
and t = threshold/delta (both exact).  The estimate never falls inside the
run: row n hits above f(x) only if n + 1/2 < u + t exactly, and n + 1/2 is
a float, so the rounded u + t is at least n + 1/2 too (likewise below).
Each end is then settled by stepping inwards while its row misses, under
the oracle's own expression and strict inequality, and two binary
searches in the sorted squares count the run.  The cost does not depend
on the threshold, and the counter agrees *exactly* with the brute-force
oracle, which evaluates every (curve, square) pair directly, one curve
closure at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import SquareFamily, centers_of, greedy_separated, side_of
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


def _trim_to_run(hits, fx, nearest, end):
    """Step each run-end estimate in ``end`` towards ``nearest`` while its row misses.

    An estimate never falls inside its run (see the module docstring), so
    this settles the exact end; where no row hits, it stops at ``nearest``.
    """
    flat, fx, nearest = end.reshape(-1), fx.reshape(-1), nearest.reshape(-1)
    todo = np.flatnonzero((flat != nearest) & ~hits(flat, fx))
    while len(todo):
        flat[todo] += np.sign(nearest[todo] - flat[todo])
        todo = todo[flat[todo] != nearest[todo]]
        todo = todo[~hits(flat[todo], fx[todo])]
    return end


def _count_against_threshold(
    family: TransversalFamily,
    squares: SquareFamily,
    threshold: float,
    collect: bool,
) -> IncidenceResult:
    """Exact count of pairs with |y_p - f(x_p)| < threshold, one row run per (curve, column).

    Pairs come in no particular order.
    """
    if math.isnan(threshold):
        raise DomainError("the incidence threshold is nan")
    k = squares.k
    dl = side_of(k)
    order = np.lexsort((squares.iy, squares.ix))
    iy_s = squares.iy[order]
    cols, col_of_sorted = np.unique(squares.ix[order], return_inverse=True)
    xc = centers_of(cols, k)
    iy_min = int(iy_s.min()) if len(iy_s) else 0
    iy_max = int(iy_s.max()) if len(iy_s) else 0
    span = iy_max - iy_min + 1
    # squares sorted by (ix, iy) <=> sorted keys col*span + (iy-iy_min)
    keys = col_of_sorted * span + (iy_s - iy_min)

    def hits(iy, fx):  # the oracle's predicate, on the oracle's center expression
        return np.abs(centers_of(iy, k) - fx) < threshold

    count = 0
    pair_chunks: list[np.ndarray] = []
    t = threshold / dl  # the threshold in rows
    col_chunk = max(1, min(len(cols), STEP_BUDGET))
    rows = max(1, STEP_BUDGET // col_chunk)
    for start in range(0, len(cols), col_chunk):
        xs = xc[start:start + col_chunk]
        col_keys = (np.arange(start, start + len(xs)) * span - iy_min)[None]
        for r0 in range(0, len(family), rows):
            fx = family.subfamily(range(r0, min(r0 + rows, len(family)))).evaluate(xs[None])
            # the row in [iy_min, iy_max] nearest to f(x): hits lie in one run through it
            u = fx / dl
            nearest = np.floor(np.clip(u, iy_min, iy_max)).astype(np.int64)
            lo = np.ceil(np.clip(u - t - 0.5, iy_min, nearest)).astype(np.int64)
            hi = np.floor(np.clip(u + t - 0.5, nearest, iy_max)).astype(np.int64)
            lo = _trim_to_run(hits, fx, nearest, lo)
            hi = _trim_to_run(hits, fx, nearest, hi)
            pos_lo = np.searchsorted(keys, col_keys + lo, "left")
            n = np.searchsorted(keys, col_keys + hi, "right") - pos_lo
            n[~hits(nearest, fx)] = 0
            found = int(n.sum())
            count += found
            if collect and found:
                run = np.flatnonzero(n)
                n, pos_lo = n.ravel()[run], pos_lo.ravel()[run]
                first = np.repeat(pos_lo - (np.cumsum(n) - n), n)
                curve = np.repeat(run // fx.shape[1] + r0, n)
                pair_chunks.append(np.stack([curve, order[first + np.arange(found)]], axis=1))
    pairs = None
    if collect:
        pairs = (
            np.concatenate(pair_chunks)
            if pair_chunks
            else np.zeros((0, 2), dtype=np.int64)
        )
    return IncidenceResult(count=count, pairs=pairs)


def check_lambda_delta(lam: float, delta: float) -> None:
    """The rule on I^lambda's neighbourhood: lambda > 0 and lambda*delta <= 1/2."""
    if not (lam > 0):
        raise DomainError(f"lambda must be positive, got {lam}")
    if lam * delta > 0.5 + 1e-15:
        raise DomainError(f"lambda*delta = {lam * delta} exceeds 1/2")


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
    res = _count_against_threshold(family, squares, lam * squares.delta, collect)
    if collect:
        res = IncidenceResult(res.count, res.pairs[np.lexsort((res.pairs[:, 1], res.pairs[:, 0]))])
    return res


def incidences_bruteforce(
    family: TransversalFamily,
    squares: SquareFamily,
    lam: float,
    threshold: float | None = None,
) -> IncidenceResult:
    """Direct double-loop oracle: evaluates every curve at every square center."""
    xc = centers_of(squares.ix, squares.k)
    yc = centers_of(squares.iy, squares.k)
    thr = lam * squares.delta if threshold is None else threshold
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


def weighted_incidences(
    family: TransversalFamily,
    squares: SquareFamily,
    w_curves: np.ndarray,
    w_squares: np.ndarray,
    lam: float,
) -> float:
    """sum over incident pairs of w_F(f) * w_P(p)."""
    w_curves = np.asarray(w_curves, dtype=float)
    w_squares = np.asarray(w_squares, dtype=float)
    if len(w_curves) != len(family) or len(w_squares) != len(squares):
        raise DomainError("weight vectors must match family and square counts")
    res = incidences(family, squares, lam, collect=True)
    if res.pairs is None or len(res.pairs) == 0:
        return 0.0
    return float(np.sum(w_curves[res.pairs[:, 0]] * w_squares[res.pairs[:, 1]]))


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


def high_low_report(
    family: TransversalFamily,
    squares: SquareFamily,
    lam: float,
    S: float,
) -> HighLowReport:
    """Evaluate both sides of the high-low estimate for one (lambda, S)."""
    delta_exp = squares.k
    dl = side_of(delta_exp)
    if not (2 * lam <= S <= 1.0 / dl + 1e-9):
        raise DomainError(f"S={S} outside [2 lambda, delta^-1] = [{2 * lam}, {1.0 / dl}]")
    sep = family.min_pair_distance()
    if sep < dl:
        raise DomainError(
            f"family is not delta-separated: min pair distance {sep} < delta {dl}"
        )
    lhs = incidences(family, squares, lam, collect=False).count
    coarse = _count_against_threshold(family, squares, 2.0 * S * dl, collect=False).count
    high = math.sqrt(S ** 3 * (1.0 / dl) * len(family) * len(squares))
    return HighLowReport(
        delta_exp=delta_exp,
        lam=lam,
        S=S,
        lhs=lhs,
        high_term=high,
        low_term=coarse / S,
        coarse_count=coarse,
    )


# --------------------------------------------------------------------------
# Multiplicity, bundles, slices
# --------------------------------------------------------------------------

def _scale_count(points: np.ndarray, r: float) -> int:
    """Number of r-separated representatives (inclusive greedy packing).

    Deterministic: points are scanned in lexicographic order, so the count
    commutes exactly with affine rescalings of the point cloud.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    order = np.lexsort(pts.T[::-1])
    return len(greedy_separated(pts[order], r, inclusive=True))


def multiplicity(
    family: TransversalFamily,
    theta: float,
    f_index: int,
    r: float,
    R: float,
) -> int:
    """Scale-r count of curves near f that agree with f at theta up to r.

    Filters K to the closed C2 ball B(f, R) and to |f(theta) - g(theta)|
    <= r, then counts r-separated representatives of the filtered curves'
    embedding images.
    """
    if not (0 < r <= R):
        raise DomainError(f"need 0 < r <= R, got r={r}, R={R}")
    if not (family.x_lo <= theta <= family.x_hi):
        raise DomainError(f"theta={theta} outside the family interval {family.interval}")
    vals = family.evaluate([theta])
    dists = family.distance_row(f_index)
    mask = (dists <= R) & (np.abs(vals - vals[f_index]) <= r)
    images = family.embedding_images()[mask]
    return _scale_count(images, r)


def high_multiplicity_set(
    family: TransversalFamily,
    theta: float,
    M: float,
    r: float,
    R: float,
) -> np.ndarray:
    """Indices of curves whose multiplicity at theta is at least M."""
    out = [
        i
        for i in range(len(family))
        if multiplicity(family, theta, i, r, R) >= M
    ]
    return np.asarray(out, dtype=np.int64)


def slice_cover(
    family: TransversalFamily,
    indices,
    theta: float,
    delta_exp: int,
) -> int:
    """delta-scale count of the value slice {f(theta) : f in F'}."""
    idx = np.asarray(list(indices), dtype=np.int64)
    if len(idx) == 0:
        return 0
    vals = family.evaluate([theta])[idx]
    return _scale_count(vals[:, None], side_of(delta_exp))


def bundle(family: TransversalFamily, theta: float, J: tuple[float, float]) -> np.ndarray:
    """Indices of the bundle {f : f(theta) in J} (J closed)."""
    lo, hi = float(J[0]), float(J[1])
    vals = family.evaluate([theta])
    return np.flatnonzero((vals >= lo) & (vals <= hi)).astype(np.int64)


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
    distinct planar cell indices of the family at level Delta_exp.
    """
    fam_cells = family_cell_indices(family, Delta_exp)
    cube_ids, inverse = np.unique(fam_cells, axis=0, return_inverse=True)
    res = _count_against_threshold(family, squares, lam * squares.delta, collect=True)
    n_cubes = len(cube_ids)
    cells = res.pairs[:, 1] * n_cubes + inverse[res.pairs[:, 0]]
    counts = np.bincount(cells, minlength=len(squares) * n_cubes)
    return counts.reshape(len(squares), n_cubes), cube_ids


def n_delta_b(
    square,
    family: TransversalFamily,
    Delta_exp: int,
    b: int,
    lam: float = 2.0,
) -> int:
    """N_{Delta,b}(p): #family Delta-cubes containing >= b curves incident to p.

    The neighbourhood multiplier lam defaults to 2; it is exposed because
    the two standard conventions (2p and 3p) differ only in this factor.
    """
    sf = SquareFamily(square.k, np.array([square.ix]), np.array([square.iy]))
    counts, _ = cube_incidence_counts(family, sf, Delta_exp, lam)
    return int(np.sum(counts[0] >= b))


def squares_on_graphs(
    family: TransversalFamily,
    indices,
    k: int,
    x_range: tuple[float, float] = (0.0, 1.0),
    samples_per_cell: int = 9,
) -> SquareFamily:
    """Level-k squares hit by the graphs of the selected curves.

    Inner approximation: each graph is sampled at ``samples_per_cell``
    points per column and the visited cells are collected.
    """
    dl = side_of(k)
    lo = max(x_range[0], family.x_lo)
    hi = min(x_range[1], family.x_hi)
    n_cols = int(round((hi - lo) / dl))
    xs = lo + (np.arange(n_cols * samples_per_cell) + 0.5) * (dl / samples_per_cell)
    fy = family.subfamily(indices).evaluate(xs[None])
    iy = np.floor(np.ldexp(fy, k)).astype(np.int64)
    all_ix = np.broadcast_to(np.floor(xs / dl).astype(np.int64), iy.shape)
    cells = np.unique(np.stack([all_ix.ravel(), iy.ravel()], axis=1), axis=0)
    return SquareFamily(k, cells[:, 0], cells[:, 1], dedupe=False)
