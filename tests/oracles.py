"""Reference checks that only the tests call.

A greedy packer that brackets the covering number, the re-check of a nice
configuration's invariants, the ratio at a set-class report's witness and
the per-pair transversality defect, each computed directly from its
definition so that the library's results can be checked against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from furstlab import config
from furstlab.dyadic import (
    DiscretePointSet,
    SetClassReport,
    _cell_representatives,
    cell_indices,
    centers_of,
    side_of,
)
from furstlab.family import (
    DEFAULT_GRID_N,
    DUPLICATE_TOL,
    CurveFunction,
    IdenticalCurvesError,
    _grid_gaps,
)


def greedy_separated(dist, r: float) -> np.ndarray:
    """Indices of a maximal r-separated subset of the points of ``dist``, a
    full pairwise distance matrix in any metric, scanned in input order.

    A point is kept when its distance to every kept point exceeds r
    (packing convention: the count brackets the covering number,
    N(P,r) <= count <= N(P,r/2)).  Each kept point blocks the later points
    within r of it; a point is kept if still unblocked.
    """
    dmat = np.asarray(dist, dtype=float)
    blocked = np.zeros(len(dmat), dtype=bool)
    for k in range(len(dmat)):
        if not blocked[k]:
            blocked[k + 1:] |= dmat[k + 1:, k] <= r
    return np.flatnonzero(~blocked)


@dataclass(frozen=True)
class NiceReport:
    passed: bool
    failures: tuple[str, ...]
    min_separation: float


def verify_nice(conf: config.NiceConfiguration) -> NiceReport:
    """Re-check all nice-configuration invariants, without auditing.

    Graph intersection is tested by sampling every curve at 9 points
    across each of its squares' x-range and requiring some sample to land
    in the square's half-open y-interval.  Delta-separation is the least
    C2 distance between members, so coincident members fail it.
    """
    failures: list[str] = []
    if conf.col_idx.shape != conf.iy.shape:
        failures.append("square index arrays are ragged")
    k = conf.delta_exp
    dl = side_of(k)
    offs = (np.arange(9) + 0.5) / 9 * dl
    # a block of curves at a time, about the build's STEP_BUDGET samples
    # each; every block is evaluated, so a non-finite value anywhere is
    # still refused
    n, M = conf.col_idx.shape
    rows = max(1, config.STEP_BUDGET // (9 * M))
    dup_at = miss_at = None
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        cols = conf.col_idx[r0:r1]
        if dup_at is None:
            cols_sorted = np.sort(cols, axis=1)
            dup = np.any(cols_sorted[:, 1:] == cols_sorted[:, :-1], axis=1)
            if np.any(dup):
                dup_at = r0 + int(np.argmax(dup))
        xs = (centers_of(cols, k) - 0.5 * dl)[..., None] + offs
        iy_hit = cell_indices(conf.family.subfamily(slice(r0, r1)).evaluate(xs), k)
        missed = ~np.any(iy_hit == conf.iy[r0:r1, :, None], axis=2)
        if miss_at is None and np.any(missed):
            i, j = np.argwhere(missed)[0]
            miss_at = r0 + i, j
    if dup_at is not None:
        failures.append(f"curve {dup_at}: |P(f)| != M (duplicate columns)")
    if miss_at is not None:
        i, j = miss_at
        failures.append(
            f"square (ix={conf.col_idx[i][j]}, iy={conf.iy[i][j]}) misses the graph of curve {i}"
        )
    min_sep = conf.family.min_pair_distance() if conf.n_curves >= 2 else math.inf
    if min_sep < dl:
        failures.append(f"family not delta-separated: min distance {min_sep} < {dl}")
    return NiceReport(passed=not failures, failures=tuple(failures), min_separation=min_sep)


def reevaluate_report(pset: DiscretePointSet, report: SetClassReport, s: float) -> float:
    """Recompute the ratio at a report's witness."""
    center = np.asarray(report.witness_center, dtype=float)
    r = float(report.witness_radius)
    reps = _cell_representatives(pset.points, pset.delta_exp)
    d2 = np.sum((reps - center) ** 2, axis=1)
    cnt = int(np.sum(d2 <= r * r))
    if report.kind.startswith("katz-tao"):
        return float(cnt / (r / pset.delta) ** s)
    return float(cnt / (r ** s * len(reps)))


def transversality_defect(f: CurveFunction, g: CurveFunction, grid_n: int = DEFAULT_GRID_N) -> float:
    """min_grid(|f-g| + |f'-g'|) / ||f-g||_C2,grid: the per-pair oracle of
    ``TransversalFamily.t_const``.

    A family is T-transversal (at grid resolution) iff every pairwise defect
    is >= 1/T.  Raises IdenticalCurvesError when ||f-g|| vanishes.
    """
    _, d0, d1, d2 = _grid_gaps(f, g, grid_n)
    denom = float(np.max(d0 + d1 + d2))
    if denom <= DUPLICATE_TOL:
        raise IdenticalCurvesError("curves are identical (C2 distance at most 1e-12)")
    return float(np.min(d0 + d1)) / denom
