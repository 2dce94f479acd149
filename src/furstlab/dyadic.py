"""Dyadic cells, covering numbers, and quantitative set-class checkers.

Scales are always dyadic and carried as integer exponents: level k means
side 2^-k.  Multiplying a float by an exact power of two only shifts its
exponent, so cell membership floor(x * 2^k) is computed without rounding
drift, and every point lies in exactly one half-open cell
[i 2^-k, (i+1) 2^-k) per level.

The set-class checkers (delta-set, upper regular, Katz-Tao, Frostman) are
brute-force maximisations of the defining ratio over centers in P and
dyadic radii in [delta, 1].  Restricting centers and radii this way loses
at most a factor 2^s <= 2 against arbitrary centers/radii.  Covering
numbers at scale delta inside the checkers are dyadic-cell counts of the
point set (one representative per delta-cell), which is exact for
delta-separated sets.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .family import DomainError


class ParameterError(ValueError):
    """A scale or shape parameter outside the supported form."""


# --------------------------------------------------------------------------
# CSV output
# --------------------------------------------------------------------------

def write_csv(path, header: str, rows, provenance: str | None = None) -> None:
    """Write every furstlab CSV: a header line, then one line per row.

    Floats are written with 17 significant digits, so they read back
    exactly; any other cell is written with ``str``.  With ``provenance``
    the file ends in the footer comment ``# <provenance> rows=<n>``, which
    ``DiscretePointSet.from_csv`` skips.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        n = 0
        for row in rows:
            fh.write(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                              for v in row) + "\n")
            n += 1
        if provenance is not None:
            fh.write(f"# {provenance} rows={n}\n")


# --------------------------------------------------------------------------
# Cells
# --------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class DyadicInterval:
    """Half-open dyadic interval [ix 2^-k, (ix+1) 2^-k)."""

    k: int
    ix: int

    @property
    def side(self) -> float:
        return math.ldexp(1.0, -self.k)

    @property
    def center(self) -> float:
        return math.ldexp(2 * self.ix + 1, -self.k - 1)


@dataclass(frozen=True, order=True)
class DyadicSquare:
    """Half-open dyadic square of side 2^-k at integer index (ix, iy)."""

    k: int
    ix: int
    iy: int

    @property
    def side(self) -> float:
        return math.ldexp(1.0, -self.k)

    @property
    def center(self) -> tuple[float, float]:
        return (
            math.ldexp(2 * self.ix + 1, -self.k - 1),
            math.ldexp(2 * self.iy + 1, -self.k - 1),
        )


def cell_indices(points: np.ndarray, k: int) -> np.ndarray:
    """Integer cell indices at level k; exact (scaling by 2^k is lossless)."""
    pts = np.asarray(points, dtype=float)
    return np.floor(np.ldexp(pts, k)).astype(np.int64)


def side_of(k: int) -> float:
    return math.ldexp(1.0, -k)


def centers_of(idx: np.ndarray, k: int) -> np.ndarray:
    """Cell centers (idx + 0.5) 2^-k, exact."""
    return np.ldexp(2 * np.asarray(idx, dtype=np.int64) + 1, -(k + 1)).astype(float)


# --------------------------------------------------------------------------
# Point sets and measures
# --------------------------------------------------------------------------

class DiscretePointSet:
    """A finite set of distinct points in R^1 or R^2 with a dyadic scale."""

    def __init__(self, points: np.ndarray, delta_exp: int):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] not in (1, 2):
            raise DomainError(f"points must be (n,1) or (n,2), got shape {pts.shape}")
        if delta_exp < 0:
            raise ParameterError(f"delta_exp must be >= 0, got {delta_exp}")
        if not np.all(np.isfinite(pts)):
            raise DomainError("points must be finite")
        if len(pts) != len(np.unique(pts, axis=0)):
            raise DomainError("points must be pairwise distinct")
        self.points = pts
        self.delta_exp = int(delta_exp)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def delta(self) -> float:
        return side_of(self.delta_exp)

    def __len__(self) -> int:
        return len(self.points)

    def to_csv(self, path) -> None:
        """Columns x[,y], header line, 17 significant digits."""
        write_csv(path, "x" if self.dim == 1 else "x,y", self.points)

    @classmethod
    def from_csv(cls, path, delta_exp: int) -> "DiscretePointSet":
        """Read the x[,y] columns; a cell that is not a finite number, or a
        short row, raises DomainError naming the file and line."""
        rows = []
        with open(path) as fh:
            cols = [h for h in fh.readline().strip().split(",") if h in ("x", "y")]
            ncol = len(cols)
            for lineno, line in enumerate(fh, 2):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    vals = [float(v) for v in line.split(",")[:ncol]]
                except ValueError:
                    vals = []
                if len(vals) < ncol or not all(math.isfinite(v) for v in vals):
                    raise DomainError(f"{path}:{lineno}: expected finite {','.join(cols)}, got {line!r}")
                rows.append(vals)
        return cls(np.array(rows, dtype=float), delta_exp)


class AtomicMeasure:
    """Finitely many weighted planar (or line) atoms with total mass <= 1."""

    MASS_TOL = 1e-12

    def __init__(self, points: np.ndarray, weights: np.ndarray):
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        w = np.asarray(weights, dtype=float)
        if len(w) != len(pts):
            raise DomainError("one weight per atom required")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(w))):
            raise DomainError("atoms and weights must be finite")
        if np.any(w < 0):
            raise DomainError("weights must be nonnegative")
        if len(pts) != len(np.unique(pts, axis=0)):
            raise DomainError("atoms must be distinct")
        total = float(w.sum())
        if total > 1.0 + self.MASS_TOL:
            raise DomainError(f"total mass {total} exceeds 1")
        self.points = pts
        self.weights = w
        self.total_mass = total

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)

    def to_csv(self, path) -> None:
        write_csv(path, ("x" if self.dim == 1 else "x,y") + ",w",
                  (list(row) + [w] for row, w in zip(self.points, self.weights)))


@dataclass(frozen=True)
class SetClassReport:
    """Outcome of one set-class maximisation.

    ``best_constant`` is the maximised ratio, ``witness`` the (center,
    radius) pair achieving it; re-evaluating the ratio at the witness
    reproduces the constant to 1e-9.  For two-scale checkers the radius
    slot holds the (r, R) pair.
    """

    best_constant: float
    witness_center: tuple
    witness_radius: object
    scale_range: tuple[float, float]
    kind: str = ""

    def __repr__(self):
        return (
            f"SetClassReport({self.kind}: C={self.best_constant:.6g}, "
            f"witness center={self.witness_center}, r={self.witness_radius})"
        )


# --------------------------------------------------------------------------
# Covers and covering numbers
# --------------------------------------------------------------------------

def dyadic_cover(pset: DiscretePointSet | np.ndarray, k: int):
    """The exact set of level-k cells meeting P, sorted by index."""
    if k < 0:
        raise ParameterError(f"level must be >= 0, got {k}")
    pts = _as_points(pset)
    idx = np.unique(cell_indices(pts, k), axis=0)
    if pts.shape[1] == 1:
        return [DyadicInterval(k, int(i)) for i in idx[:, 0]]
    return [DyadicSquare(k, int(i), int(j)) for i, j in idx]


def dyadic_cell_count(points: np.ndarray, k: int) -> int:
    """|D_{2^-k}(P)|, the level-k cell count."""
    pts = _as_points(points)
    if len(pts) == 0:
        return 0
    return len(np.unique(cell_indices(pts, k), axis=0))


def _as_points(pset) -> np.ndarray:
    pts = pset.points if isinstance(pset, (DiscretePointSet, AtomicMeasure)) else np.asarray(pset, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def _separation(points, dist, r: float):
    """(n, thr, between) for points or for ``dist``, a full pairwise distance
    matrix in any metric: between(j, k) (indices, slices or broadcasting
    arrays) is compared with thr, as the squared Euclidean distance against
    r^2 for points and as the entry dist[j, k] against r for a matrix."""
    if (points is None) == (dist is None):
        raise DomainError("give exactly one of points and dist=")
    if dist is None:
        pts = _as_points(points)
        return len(pts), r * r, lambda j, k: np.sum((pts[k] - pts[j]) ** 2, axis=-1)
    dmat = np.asarray(dist, dtype=float)
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise DomainError(f"dist must be a square matrix, got shape {dmat.shape}")
    return len(dmat), r, lambda j, k: dmat[j, k]


def greedy_separated(points=None, r: float | None = None, inclusive: bool = False,
                     *, dist=None) -> np.ndarray:
    """Indices of a maximal r-separated subset of points (or of ``dist=``, a
    full pairwise distance matrix in any metric), scanned in input order.

    With inclusive=False a point is kept when its distance to every kept
    point exceeds r (packing convention: the count brackets the covering
    number, N(P,r) <= count <= N(P,r/2)).  With inclusive=True points at
    distance exactly r are also kept (used where the quantity of interest
    is the number of r-separated representatives).  Each kept point blocks
    the later points too close to it; a point is kept if still unblocked.
    """
    n, thr, between = _separation(points, dist, r)
    blocked = np.zeros(n, dtype=bool)
    for k in range(n):
        if not blocked[k]:
            d = between(slice(k + 1, None), k)
            blocked[k + 1:] |= d < thr if inclusive else d <= thr
    return np.flatnonzero(~blocked)


EXACT_COVER_LIMIT = 512


def covering_number(pset=None, r: float | None = None, mode: str = "auto", *, dist=None) -> int:
    """Covering-number estimate at radius r of points, or of ``dist=``, a full
    pairwise distance matrix in any metric (curve families in the C2 metric).

    mode="exact": minimum closed-r-ball cover with centers in P, solved as
    the integer program min 1'x s.t. cover @ x >= 1, x binary, by scipy's
    HiGHS MILP; |P| <= 512.  mode="greedy": size of a maximal strictly
    r-separated subset, which satisfies N(P, r) <= greedy <= N(P, r/2), so
    the two modes cross-check.  mode="auto" picks exact when |P| <= 512.
    """
    n, thr, between = _separation(pset, dist, r)
    if n == 0:
        raise DomainError("covering_number of an empty set")
    if not (r > 0):
        raise DomainError(f"radius must be positive, got {r}")
    if mode == "auto":
        mode = "exact" if n <= EXACT_COVER_LIMIT else "greedy"
    if mode == "greedy":
        return len(greedy_separated(pset, r, dist=dist))
    if mode != "exact":
        raise ParameterError(f"unknown covering mode {mode!r}")
    if n > EXACT_COVER_LIMIT:
        raise ParameterError(f"exact mode supports |P| <= {EXACT_COVER_LIMIT}")
    from scipy import optimize, sparse

    idx = np.arange(n)
    cover = between(idx[:, None], idx) <= thr  # ball j covers the points cover[:, j]
    res = optimize.milp(np.ones(n), integrality=np.ones(n), bounds=optimize.Bounds(0, 1),
                        constraints=optimize.LinearConstraint(sparse.csr_matrix(cover.astype(float)),
                                                              lb=np.ones(n)))
    if not res.success:
        raise RuntimeError(f"exact covering MILP failed: {res.message}")
    return int(round(res.fun))


# --------------------------------------------------------------------------
# Set-class checkers
# --------------------------------------------------------------------------

def _dyadic_radii(delta_exp: int) -> np.ndarray:
    return np.ldexp(1.0, -np.arange(delta_exp + 1, dtype=np.int64)).astype(float)


def _cell_representatives(pts: np.ndarray, delta_exp: int) -> np.ndarray:
    """First point per delta-cell, in input order."""
    idx = cell_indices(pts, delta_exp)
    _, first = np.unique(idx, axis=0, return_index=True)
    return pts[np.sort(first)]


def _probe_centers(reps: np.ndarray, max_centers: int | None) -> np.ndarray:
    if max_centers is None or len(reps) <= max_centers:
        return reps
    # deterministic probe: even stride over the lexicographically sorted reps
    order = np.lexsort(tuple(reps[:, c] for c in range(reps.shape[1] - 1, -1, -1)))
    stride_idx = np.linspace(0, len(reps) - 1, max_centers).astype(np.int64)
    return reps[order[stride_idx]]


def _ball_counts(reps: np.ndarray, centers: np.ndarray, radii: np.ndarray,
                 weights: np.ndarray | None = None) -> np.ndarray:
    """counts[c, r] = #representatives within closed radius radii[r] of centers[c],
    or with ``weights`` (one per representative) the weight inside that ball."""
    counts = np.empty((len(centers), len(radii)), dtype=np.int64 if weights is None else float)
    chunk = max(1, (1 << 22) // max(1, len(reps)))
    for start in range(0, len(centers), chunk):
        block = centers[start:start + chunk]
        d2 = np.sum((block[:, None, :] - reps[None, :, :]) ** 2, axis=-1)
        for rj, r in enumerate(radii):
            inside = d2 <= r * r
            if weights is not None:
                inside = np.where(inside, weights[None, :], 0.0)
            counts[start:start + len(block), rj] = np.sum(inside, axis=1)
    return counts


def _best_ratio(points, centers, radii, denominator, scale_range, kind, weights=None) -> SetClassReport:
    """The largest ball count (or mass) over denominator[r], with its witness."""
    ratios = _ball_counts(points, centers, radii, weights) / denominator[None, :]
    ci, rj = np.unravel_index(np.argmax(ratios), ratios.shape)
    return SetClassReport(best_constant=float(ratios[ci, rj]), witness_center=tuple(float(v) for v in centers[ci]),
                          witness_radius=float(radii[rj]), scale_range=scale_range, kind=kind)


def _max_ball_ratio(pset: DiscretePointSet, s: float, max_centers: int | None,
                    denominator, kind: str) -> SetClassReport:
    """Maximise |P n B(x,r)|_delta / denominator(r, |P|_delta) over centers x
    in P (or a probe of them) and dyadic r in [delta, 1]."""
    if len(pset) == 0:
        raise DomainError("empty point set")
    if not (0 <= s <= pset.dim):
        raise ParameterError(f"s must lie in [0, {pset.dim}], got {s}")
    reps = _cell_representatives(pset.points, pset.delta_exp)
    radii = _dyadic_radii(pset.delta_exp)
    return _best_ratio(reps, _probe_centers(reps, max_centers), radii,
                       denominator(radii, len(reps)), (pset.delta, 1.0), kind)


def delta_set_constant(
    pset: DiscretePointSet,
    s: float,
    max_centers: int | None = None,
) -> SetClassReport:
    """Measured (delta, s, C)-set constant of P.

    C = max over centers x in P and dyadic r in [delta, 1] of
    |P n B(x,r)|_delta / (r^s |P|_delta), with |.|_delta realised as the
    delta-cell count (one representative per cell).  ``max_centers`` probes
    a deterministic subsample of centers for large sets (a lower estimate).
    """
    return _max_ball_ratio(pset, s, max_centers, lambda radii, n: (radii ** s) * n,
                           f"delta-set(s={s})")


def katz_tao_constant(
    pset: DiscretePointSet,
    s: float,
    max_centers: int | None = None,
) -> SetClassReport:
    """Measured Katz-Tao (delta, s, K)-set constant.

    K = max over centers in P and dyadic r in [delta, 1] of
    |P n B(x,r)|_delta / (r/delta)^s: the non-normalised spacing condition.
    """
    return _max_ball_ratio(pset, s, max_centers,
                           lambda radii, n: (radii / pset.delta) ** s,
                           f"katz-tao(s={s})")


def upper_regular_constant(
    pset: DiscretePointSet,
    s: float,
    max_centers: int | None = 128,
) -> SetClassReport:
    """Measured upper (delta, s, C)-regular constant.

    C = max over centers x in P and dyadic delta <= r <= R <= 1 of
    |P n B(x,R)|_r / (R/r)^s, where |.|_r is the level-r cell count of the
    points inside the ball.
    """
    if len(pset) == 0:
        raise DomainError("empty point set")
    if s <= 0:
        raise ParameterError(f"s must be positive, got {s}")
    pts = pset.points
    k = pset.delta_exp
    levels = np.arange(k + 1)
    ids_per_level = [cell_indices(pts, int(l)) for l in levels]
    # collapse each level's indices to a scalar key for fast unique counting
    keys = []
    for ids in ids_per_level:
        if ids.shape[1] == 1:
            keys.append(ids[:, 0])
        else:
            span = ids[:, 1].max() - ids[:, 1].min() + 1
            keys.append((ids[:, 0] - ids[:, 0].min()) * span + (ids[:, 1] - ids[:, 1].min()))
    centers = _probe_centers(_cell_representatives(pts, k), max_centers)
    radii = _dyadic_radii(k)
    best = -math.inf
    witness = (tuple(float(v) for v in centers[0]), (pset.delta, pset.delta))
    for c in centers:
        d2 = np.sum((pts - c) ** 2, axis=1)
        for Ri, R in enumerate(radii):
            mask = d2 <= R * R
            if not np.any(mask):
                continue
            for rj in range(Ri, len(radii)):
                r = radii[rj]
                cnt = len(np.unique(keys[rj][mask]))
                ratio = cnt / (R / r) ** s
                if ratio > best:
                    best = ratio
                    witness = (tuple(float(v) for v in c), (float(r), float(R)))
    return SetClassReport(
        best_constant=float(best),
        witness_center=witness[0],
        witness_radius=witness[1],
        scale_range=(pset.delta, 1.0),
        kind=f"upper-regular(s={s})",
    )


def frostman_constant(
    mu: AtomicMeasure,
    t: float,
    delta_exp: int,
    max_centers: int | None = None,
) -> SetClassReport:
    """Measured (delta, t, C)-Frostman constant of an atomic measure.

    C = max over atoms x and dyadic r >= delta of mu(B(x,r)) / r^t.
    Large constants (e.g. t above the measure's actual dimension) are
    reported, not raised.
    """
    if len(mu) == 0:
        raise DomainError("empty measure")
    radii = _dyadic_radii(delta_exp)
    # scalar powers: numpy's vectorised pow can differ from them in the last bit
    r_t = np.array([r ** t for r in radii])
    return _best_ratio(mu.points, _probe_centers(mu.points, max_centers), radii, r_t,
                       (side_of(delta_exp), 1.0), f"frostman(t={t})", mu.weights)


def reevaluate_report(pset_or_mu, report: SetClassReport, s_or_t: float) -> float:
    """Recompute the ratio at a report's witness (used by reproducibility tests)."""
    center = np.asarray(report.witness_center, dtype=float)
    if report.kind.startswith("frostman"):
        mu: AtomicMeasure = pset_or_mu
        r = float(report.witness_radius)
        d2 = np.sum((mu.points - center) ** 2, axis=1)
        return float(np.sum(mu.weights[d2 <= r * r]) / r ** s_or_t)
    pset: DiscretePointSet = pset_or_mu
    reps = _cell_representatives(pset.points, pset.delta_exp)
    if report.kind.startswith("upper-regular"):
        r, R = report.witness_radius
        d2 = np.sum((pset.points - center) ** 2, axis=1)
        level = int(round(-math.log2(r)))
        cnt = dyadic_cell_count(pset.points[d2 <= R * R], level)
        return float(cnt / (R / r) ** s_or_t)
    r = float(report.witness_radius)
    d2 = np.sum((reps - center) ** 2, axis=1)
    cnt = int(np.sum(d2 <= r * r))
    if report.kind.startswith("katz-tao"):
        return float(cnt / (r / pset.delta) ** s_or_t)
    return float(cnt / (r ** s_or_t * len(reps)))


# --------------------------------------------------------------------------
# (delta, s)-set generator
# --------------------------------------------------------------------------

def _sample_distinct(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k distinct integers in [0, n) without materialising range(n)."""
    if k >= n:
        return np.arange(n, dtype=np.int64)
    out: set[int] = set()
    while len(out) < k:
        draw = rng.integers(0, n, size=2 * (k - len(out)))
        for v in draw:
            out.add(int(v))
            if len(out) == k:
                break
    return np.array(sorted(out), dtype=np.int64)


#: most leaf cells ``generate_delta_set_indices`` builds in one call: 512 MiB
#: of int64 indices per dimension (delta 2^-12 in the benchmark's Furstenberg
#: sweep needs 4096 trees of 6^4 cells, about 5.3M)
MAX_TREE_CELLS = 1 << 26


def generate_delta_set_indices(
    delta_exp: int,
    s: float,
    T: int,
    rng: np.random.Generator,
    dim: int = 1,
    batch: int = 1,
) -> np.ndarray:
    """Cell indices of `batch` independent {2^-jT}-uniform trees.

    Each cell at every level keeps round(2^{sT}) children, chosen uniformly
    at random without replacement.  Returns an int64 array of shape
    (batch, K^m, dim) of level-delta_exp cell indices, with m = delta_exp/T
    and K = round(2^{sT}).
    """
    if T <= 0 or delta_exp % T != 0:
        raise ParameterError(f"delta_exp={delta_exp} is not a multiple of the period T={T}")
    if not (0 <= s <= dim):
        raise ParameterError(f"s must lie in [0, {dim}], got {s}")
    m = delta_exp // T
    K = int(round(2.0 ** (s * T)))
    K = max(1, min(K, 2 ** (dim * T)))
    # with K >= 2, m > 64 is over the limit; testing it first keeps a huge m
    # from building a huge integer
    if (K > 1 and m > 64) or int(batch) * K ** m > MAX_TREE_CELLS:
        raise ParameterError(
            f"{batch} trees of {K}^{m} cells at delta=2^-{delta_exp} exceed the "
            f"limit of {MAX_TREE_CELLS} cells"
        )
    n_children = 2 ** (dim * T)
    cells = np.zeros((batch, 1, dim), dtype=np.int64)
    for _ in range(m):
        b, n, _ = cells.shape
        if n_children <= 4096:
            offsets = np.tile(np.arange(n_children, dtype=np.int64), (b * n, 1))
            offsets = rng.permuted(offsets, axis=1)[:, :K]
        else:
            offsets = np.stack(
                [_sample_distinct(rng, n_children, K) for _ in range(b * n)]
            )
        offsets = offsets.reshape(b, n, K)
        child = np.empty((b, n, K, dim), dtype=np.int64)
        rem = offsets
        for axis in range(dim - 1, -1, -1):
            child[..., axis] = rem % (1 << T)
            rem = rem >> T
        cells = (cells[:, :, None, :] << T) + child
        cells = cells.reshape(b, n * K, dim)
    return cells


def generate_delta_set(
    delta_exp: int,
    s: float,
    T: int,
    seed: int,
    dim: int = 1,
) -> DiscretePointSet:
    """A random {2^-jT}-uniform (delta, s)-set of cell centers in [0,1)^dim.

    delta = 2^-mT must be a power of the period; the output has exactly
    round(2^{sT})^m points, one per selected delta-cell, and passes the
    delta-set checker with constant <= 64 for the supported parameter
    envelope (T <= 4 or s well below dim).
    """
    rng = np.random.default_rng(seed)
    idx = generate_delta_set_indices(delta_exp, s, T, rng, dim=dim, batch=1)[0]
    pts = centers_of(idx, delta_exp)
    return DiscretePointSet(pts, delta_exp)


# --------------------------------------------------------------------------
# Array-backed square collections (for the incidence kernels)
# --------------------------------------------------------------------------

class SquareFamily:
    """A disjoint family of level-k dyadic squares stored as index arrays."""

    def __init__(self, k: int, ix: np.ndarray, iy: np.ndarray, dedupe: bool = True):
        ix = np.asarray(ix, dtype=np.int64)
        iy = np.asarray(iy, dtype=np.int64)
        if ix.shape != iy.shape or ix.ndim != 1:
            raise DomainError("ix, iy must be equal-length 1-d arrays")
        if dedupe and len(ix):
            pair = np.stack([ix, iy], axis=1)
            pair = np.unique(pair, axis=0)
            ix, iy = pair[:, 0], pair[:, 1]
        self.k = int(k)
        self.ix = ix
        self.iy = iy

    def __len__(self) -> int:
        return len(self.ix)

    @property
    def delta(self) -> float:
        return side_of(self.k)

    @classmethod
    def grid(cls, k: int, x_range=(0.0, 1.0), y_range=(0.0, 1.0)) -> "SquareFamily":
        """All level-k squares whose lower-left corner lies in the box."""
        sx = np.arange(int(math.ldexp(x_range[0], k)), int(math.ldexp(x_range[1], k)))
        sy = np.arange(int(math.ldexp(y_range[0], k)), int(math.ldexp(y_range[1], k)))
        gx, gy = np.meshgrid(sx, sy, indexing="ij")
        return cls(k, gx.ravel(), gy.ravel(), dedupe=False)
