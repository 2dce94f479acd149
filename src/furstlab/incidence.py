"""Incidence counting between curve families and dyadic squares.

An incidence is a pair (f, p) whose square center z_p lies in the vertical
lambda*delta-neighbourhood of the curve: |y_p - f(x_p)| < lambda*delta,
strictly (centers are exact dyadic rationals, so boundary cases are
deterministic).  The fast counter buckets squares by column, evaluates
each curve once per distinct column center, and range-counts candidate
rows; it must agree *exactly* with the brute-force oracle, which evaluates
every (curve, square) pair directly, one curve closure at a time.  Both
paths decide each candidate with the identical float expression, and the
candidate window is padded by one cell beyond the float-computed bounds,
so no hit can escape it.
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


def _column_buckets(squares: SquareFamily):
    order = np.lexsort((squares.iy, squares.ix))
    ix_s = squares.ix[order]
    iy_s = squares.iy[order]
    cols, col_start = np.unique(ix_s, return_index=True)
    col_end = np.append(col_start[1:], len(ix_s))
    return order, ix_s, iy_s, cols, col_start, col_end


#: candidate cells (curve, column, window row) per kernel step, small enough
#: for a step's temporaries to stay in cache: on the high-low workload,
#: 2^21-cell steps ran 1.8x slower and took 4x the memory
CANDIDATE_BUDGET = 1 << 16


def _count_against_threshold(
    family: TransversalFamily,
    squares: SquareFamily,
    threshold: float,
    collect: bool,
) -> IncidenceResult:
    """Column-bucketed exact count of pairs with |y_p - f(x_p)| < threshold."""
    k = squares.k
    dl = side_of(k)
    order, _, iy_s, cols, col_start, col_end = _column_buckets(squares)
    xc = centers_of(cols, k)
    iy_min = int(iy_s.min()) if len(iy_s) else 0
    iy_max = int(iy_s.max()) if len(iy_s) else 0
    span = iy_max - iy_min + 1
    # global sorted keys: squares sorted by (ix, iy) <=> col*span + (iy-iy_min)
    col_of_sorted = np.repeat(np.arange(len(cols)), col_end - col_start)
    keys = col_of_sorted * span + (iy_s - iy_min)

    count = 0
    pair_chunks: list[np.ndarray] = []
    half_width = int(math.ceil(threshold / dl)) + 2
    window = np.arange(2 * half_width + 1, dtype=np.int64) - half_width
    col_chunk = max(1, CANDIDATE_BUDGET // len(window))
    for start in range(0, len(cols), col_chunk):
        xs = xc[start:start + col_chunk]
        rows = max(1, col_chunk // len(xs))
        for r0 in range(0, len(family), rows):
            fx = family.subfamily(range(r0, min(r0 + rows, len(family)))).evaluate(xs[None])
            iy_cand = np.floor(fx / dl).astype(np.int64)[..., None] + window
            in_range = (iy_cand >= iy_min) & (iy_cand <= iy_max)
            yc = (iy_cand + 0.5) * dl
            hit = (np.abs(yc - fx[..., None]) < threshold) & in_range
            fi, cidx, widx = np.nonzero(hit)
            if not len(fi):
                continue
            cand_keys = (cidx + start) * span + (iy_cand[fi, cidx, widx] - iy_min)
            pos = np.searchsorted(keys, cand_keys)
            pos = np.clip(pos, 0, len(keys) - 1)
            member = keys[pos] == cand_keys
            hits = int(np.sum(member))
            count += hits
            if collect and hits:
                pair_chunks.append(np.stack([fi[member] + r0, order[pos[member]]], axis=1))
    pairs = None
    if collect:
        pairs = (
            np.concatenate(pair_chunks)
            if pair_chunks
            else np.zeros((0, 2), dtype=np.int64)
        )
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    return IncidenceResult(count=count, pairs=pairs)


def incidences(
    family: TransversalFamily,
    squares: SquareFamily,
    lam: float,
    collect: bool = True,
) -> IncidenceResult:
    """I^lambda(F, P): exact count (and pair list) of incidences.

    Requires lambda*delta <= 1/2; lambda below 2 is allowed computationally
    (useful for probing the strict boundary) though the estimates assume
    lambda >= 2.
    """
    if not (lam > 0):
        raise DomainError(f"lambda must be positive, got {lam}")
    dl = squares.delta
    if lam * dl > 0.5 + 1e-15:
        raise DomainError(f"lambda*delta = {lam * dl} exceeds 1/2")
    return _count_against_threshold(family, squares, lam * dl, collect)


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


def pairs_to_csv(result: IncidenceResult, squares: SquareFamily, path) -> None:
    """Stream the pair list as curve_id,square_ix,square_iy."""
    with open(path, "w") as fh:
        fh.write("curve_id,square_ix,square_iy\n")
        if result.pairs is not None:
            for fi, si in result.pairs:
                fh.write(f"{fi},{squares.ix[si]},{squares.iy[si]}\n")


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

def _row_c2_distances(family: TransversalFamily, i: int) -> np.ndarray:
    """C2 grid distances from curve i to every member (0 at i)."""
    coeffs = family.affine_difference_coeffs()
    xs = family.grid()
    if coeffs is not None:
        al, be = coeffs
        a = al - al[i]
        b = be - be[i]
        ends = np.abs(np.stack([a * xs[0] + b, a * xs[-1] + b], axis=-1))
        return ends.max(axis=-1) + np.abs(a)
    vals = [family.evaluate(xs[None], order) for order in range(3)]
    d0, d1, d2 = (np.abs(v - v[i]) for v in vals)
    return np.max(d0 + d1 + d2, axis=1)


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
    dists = _row_c2_distances(family, f_index)
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
    counts = np.zeros((len(squares), len(cube_ids)), dtype=np.int64)
    if res.pairs is not None and len(res.pairs):
        np.add.at(counts, (res.pairs[:, 1], inverse[res.pairs[:, 0]]), 1)
    return counts, cube_ids


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
