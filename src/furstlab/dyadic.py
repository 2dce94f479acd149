"""Dyadic cells, covering numbers, and quantitative set-class checkers.

Scales are always dyadic and carried as integer exponents: level k means
side 2^-k.  Multiplying a float by an exact power of two only shifts its
exponent, so cell membership floor(x * 2^k) is computed without rounding
drift, and every point lies in exactly one half-open cell
[i 2^-k, (i+1) 2^-k) per level.

The set-class checkers (delta-set, Katz-Tao) are brute-force
maximisations of the defining ratio over centers in P and dyadic radii in
[delta, 1].  Restricting centers and radii this way loses at most a factor
2^s <= 2 against arbitrary centers/radii.  Covering numbers at scale delta
inside the checkers are dyadic-cell counts of the point set (one
representative per delta-cell), which is exact for delta-separated sets.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .family import DomainError


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

def cell_indices(points: np.ndarray, k: int) -> np.ndarray:
    """Integer cell indices at level k; exact (scaling by 2^k is lossless)."""
    pts = np.asarray(points, dtype=float)
    return np.floor(np.ldexp(pts, k)).astype(np.int64)


def side_of(k: int) -> float:
    return math.ldexp(1.0, -k)


def centers_of(idx: np.ndarray, k: int) -> np.ndarray:
    """Cell centers (idx + 0.5) 2^-k, exact."""
    return np.ldexp(2 * np.asarray(idx, dtype=np.int64) + 1, -(k + 1))


# --------------------------------------------------------------------------
# Point sets and measures
# --------------------------------------------------------------------------

def _point_rows(points, noun: str) -> np.ndarray:
    """The one row check of point sets and measures: finite, pairwise distinct
    rows of 1 or 2 columns (a 1-d input is one column), called ``noun``."""
    pts = _as_points(points)
    if pts.ndim != 2 or pts.shape[1] not in (1, 2):
        raise DomainError(f"{noun} must be (n,1) or (n,2), got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DomainError(f"{noun} must be finite")
    if len(pts) != len(np.unique(pts, axis=0)):
        raise DomainError(f"{noun} must be pairwise distinct")
    return pts


class DiscretePointSet:
    """A finite set of distinct points in R^1 or R^2 with a dyadic scale."""

    def __init__(self, points: np.ndarray, delta_exp: int):
        pts = _point_rows(points, "points")
        if delta_exp < 0:
            raise DomainError(f"delta_exp must be >= 0, got {delta_exp}")
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
        pts = _point_rows(points, "atoms")
        w = np.asarray(weights, dtype=float)
        if len(w) != len(pts):
            raise DomainError("one weight per atom required")
        if not np.all(np.isfinite(w)):
            raise DomainError("weights must be finite")
        if np.any(w < 0):
            raise DomainError("weights must be nonnegative")
        total = float(w.sum())
        if total > 1.0 + self.MASS_TOL:
            raise DomainError(f"total mass {total} exceeds 1")
        self.points = pts
        self.weights = w
        self.total_mass = total

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class SetClassReport:
    """Outcome of one set-class maximisation.

    ``best_constant`` is the maximised ratio, ``witness`` the (center,
    radius) pair achieving it; re-evaluating the ratio at the witness
    reproduces the constant to 1e-9.
    """

    best_constant: float
    witness_center: tuple
    witness_radius: float
    kind: str = ""


# --------------------------------------------------------------------------
# Covers and covering numbers
# --------------------------------------------------------------------------

def dyadic_cover(pset: DiscretePointSet | np.ndarray, k: int) -> np.ndarray:
    """The level-k cells meeting P: their distinct index rows, sorted (int64, shape (m, d))."""
    return np.unique(cell_indices(_as_points(pset), k), axis=0)


def _as_points(pset) -> np.ndarray:
    pts = pset.points if isinstance(pset, (DiscretePointSet, AtomicMeasure)) else np.asarray(pset, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return pts


def _distance_matrix(dist) -> np.ndarray:
    """``dist`` as a float array, refused unless it is a square matrix that
    is finite, non-negative, zero on the diagonal and exactly symmetric."""
    dmat = np.asarray(dist, dtype=float)
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise DomainError(f"dist must be a square matrix, got shape {dmat.shape}")
    if not np.all(np.isfinite(dmat)) or np.any(dmat < 0):
        raise DomainError("dist must be finite and non-negative")
    if np.any(np.diagonal(dmat) != 0) or not np.array_equal(dmat, dmat.T):
        raise DomainError("dist must be exactly symmetric with a zero diagonal")
    return dmat


EXACT_COVER_LIMIT = 512


def covering_number(dist, r: float) -> int:
    """N(P, r): the fewest closed r-balls centered in P that cover P, for
    the points of ``dist``, a full pairwise distance matrix in any metric
    (curve families in the C2 metric).

    Solved exactly as the integer program min 1'x s.t. cover @ x >= 1, x
    binary, by scipy's HiGHS MILP; |P| is refused above EXACT_COVER_LIMIT.
    With a zero diagonal each point covers itself, so the program is always
    feasible, and a RuntimeError means the solver failed.
    """
    dmat = _distance_matrix(dist)
    n = len(dmat)
    if n == 0:
        raise DomainError("covering_number of an empty set")
    if not (r > 0):
        raise DomainError(f"radius must be positive, got {r}")
    if n > EXACT_COVER_LIMIT:
        raise DomainError(f"the exact cover supports |P| <= {EXACT_COVER_LIMIT}, got {n}")
    from scipy import optimize, sparse

    cover = dmat <= r  # ball j covers the points cover[:, j]
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


def _ball_counts(reps: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """counts[c, r] = #representatives within closed radius radii[r] of centers[c]."""
    counts = np.empty((len(centers), len(radii)), dtype=np.int64)
    chunk = max(1, (1 << 22) // max(1, len(reps)))
    for start in range(0, len(centers), chunk):
        block = centers[start:start + chunk]
        d2 = np.sum((block[:, None, :] - reps[None, :, :]) ** 2, axis=-1)
        for rj, r in enumerate(radii):
            counts[start:start + len(block), rj] = np.sum(d2 <= r * r, axis=1)
    return counts


def _max_ball_ratio(pset: DiscretePointSet, s: float, max_centers: int | None,
                    denominator, kind: str) -> SetClassReport:
    """Maximise |P n B(x,r)|_delta / denominator(r, |P|_delta) over centers x
    in P (or a probe of ``max_centers``, an integer of at least 1 that
    ``operator.index`` takes) and dyadic r in [delta, 1], with the witness (x, r)."""
    if len(pset) == 0:
        raise DomainError("empty point set")
    if not (0 <= s <= pset.dim):
        raise DomainError(f"s must lie in [0, {pset.dim}], got {s}")
    if max_centers is not None and not (hasattr(max_centers, "__index__") and max_centers >= 1):
        raise DomainError(f"max_centers must be at least 1 and an integer, got {max_centers!r}")
    reps = _cell_representatives(pset.points, pset.delta_exp)
    radii = _dyadic_radii(pset.delta_exp)
    centers = _probe_centers(reps, max_centers)
    ratios = _ball_counts(reps, centers, radii) / denominator(radii, len(reps))[None, :]
    ci, rj = np.unravel_index(np.argmax(ratios), ratios.shape)
    return SetClassReport(best_constant=float(ratios[ci, rj]),
                          witness_center=tuple(float(v) for v in centers[ci]),
                          witness_radius=float(radii[rj]), kind=kind)


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
#: finest level ``generate_delta_set_indices`` accepts: ``centers_of``'s
#: (2i + 1) 2^-(k+1) is an exact float only while 2^(k+1) fits the 53-bit
#: significand
MAX_DELTA_EXP = 52
#: most entries ``generate_delta_set_indices`` permutes at once (32 MiB of
#: int64); a level with more is permuted a block of rows at a time, with the
#: same stream
PERMUTE_BUDGET = 1 << 22
#: most child offsets ``generate_delta_set_indices`` permutes in one call,
#: refused beyond: about 14 s at the 13 ns per entry of the 2^-36 parabola
#: build (T = 12, s = t = 0.25, 1.5e8 entries in 2 s on one core of a shared
#: 2-core x86-64 host); its 2^-48 build's 4,096 column trees would permute 9.8e9
MAX_PERMUTE_ENTRIES = 1 << 30
#: most draws ``generate_delta_set_indices`` expects to make one at a time in
#: Python, where a cell has more than 4,096 children, refused beyond: about
#: 12 s at the 0.71 us per draw of 800 column trees at 2^-26 (T = 13, s = 0.5,
#: 6.7e6 draws in 4.7 s on one core of a shared 2-core x86-64 host), and up to
#: twice that where a cell keeps only 10 to 15 children, as the per-cell call
#: then weighs more
MAX_SAMPLED_DRAWS = 1 << 24


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
        raise DomainError(f"delta_exp={delta_exp} is not a multiple of the period T={T}")
    if not (0 <= s <= dim):
        raise DomainError(f"s must lie in [0, {dim}], got {s}")
    if delta_exp > MAX_DELTA_EXP:
        raise DomainError(
            f"delta=2^-{delta_exp} is finer than 2^-{MAX_DELTA_EXP}, "
            "below which cell centers are not exact floats"
        )
    if dim * T > 63:
        raise DomainError(
            f"a period T={T} in dimension {dim} gives 2^{dim * T} children per cell, "
            "more than the 2^63 an int64 draw reaches"
        )
    m = delta_exp // T
    K = int(round(2.0 ** (s * T)))
    K = max(1, min(K, 2 ** (dim * T)))
    # with K >= 2, m > 64 is over the limit; testing it first keeps a huge m
    # from building a huge integer
    if (K > 1 and m > 64) or int(batch) * K ** m > MAX_TREE_CELLS:
        raise DomainError(
            f"{batch} trees of {K}^{m} cells at delta=2^-{delta_exp} exceed the "
            f"limit of {MAX_TREE_CELLS} cells"
        )
    n_children = 2 ** (dim * T)
    n_parents = int(batch) * sum(K ** j for j in range(m))  # cells that get children
    if n_children <= 4096:
        # where it permutes, a level draws a full row of offsets per cell above it
        n_permuted = n_parents * n_children
        if n_permuted > MAX_PERMUTE_ENTRIES:
            raise DomainError(
                f"{batch} trees of {K}^{m} cells at delta=2^-{delta_exp} permute {n_permuted} "
                f"child offsets, over the limit of {MAX_PERMUTE_ENTRIES}"
            )
    elif K < n_children:
        # elsewhere a cell's K distinct offsets take n ln(n / (n - K)) draws
        # on average (K when K is small against the n children)
        n_drawn = n_parents * -n_children * math.log1p(-K / n_children)
        if n_drawn > MAX_SAMPLED_DRAWS:
            raise DomainError(
                f"{batch} trees of {K}^{m} cells at delta=2^-{delta_exp} draw about "
                f"{n_drawn:.3g} child offsets one at a time, over the limit of {MAX_SAMPLED_DRAWS}"
            )
    # a child offset's T-bit digits, most significant first, are its per-axis steps
    shifts = T * np.arange(dim - 1, -1, -1, dtype=np.int64)
    cells = np.zeros((batch, dim), dtype=np.int64)  # every tree's cells, tree by tree
    for _ in range(m):
        # the last level's permutation buffer goes before this level's is made
        buf = out = None
        # the level's cells are written once, in place, in tree order
        children = np.empty((len(cells), K, dim), dtype=np.int64)
        if n_children <= 4096:
            # permuted copies its input into buf, so a broadcast view of one
            # row is enough, and shuffles row after row, so a block of rows at
            # a time draws the stream of one call
            row = np.arange(n_children, dtype=np.int64)
            buf = np.empty((min(len(cells), max(1, PERMUTE_BUDGET // n_children)), n_children),
                           dtype=np.int64)
            for r0 in range(0, len(cells), len(buf)):
                out = buf[:len(cells) - r0]
                rng.permuted(np.broadcast_to(row, out.shape), axis=1, out=out)
                np.right_shift(out[:, :K, None], shifts, out=children[r0:r0 + len(out)])
        else:
            offsets = np.stack([_sample_distinct(rng, n_children, K) for _ in range(len(cells))])
            np.right_shift(offsets[..., None], shifts, out=children)
        children &= (1 << T) - 1
        children += cells[:, None, :] << T
        cells = children.reshape(-1, dim)
    return cells.reshape(batch, K ** m, dim)


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

def _key_layout(ix: np.ndarray, iy: np.ndarray):
    """``(ix0, iy0, span, size)`` of the one int64 key per square of the
    nonempty index arrays (ix, iy), (ix - ix0) * span + (iy - iy0), which
    orders as (ix, iy) does and lies in [0, size); None where size would pass
    2^63.  One sort orders these keys far faster than two columns."""
    ix0, iy0 = int(ix.min()), int(iy.min())
    span = int(iy.max()) - iy0 + 1
    size = (int(ix.max()) - ix0 + 1) * span
    return None if size >= 2 ** 63 else (ix0, iy0, span, size)


def _keys_into(out: np.ndarray, ix: np.ndarray, iy: np.ndarray, layout) -> np.ndarray:
    """Write the keys of ``layout`` of the squares (ix, iy) into the int64
    array ``out`` of their length, and return it.  Adding iy before taking
    iy0 off may wrap, but int64 wraps modulo 2^64 and the key is below 2^63."""
    ix0, iy0, span, _ = layout
    np.subtract(ix, ix0, out=out)
    out *= span
    out += iy
    out -= iy0
    return out


def _split_keys(keys: np.ndarray, layout) -> tuple[np.ndarray, np.ndarray]:
    """The ix and iy arrays of the squares whose keys of ``layout`` are ``keys``."""
    ix0, iy0, span, _ = layout
    return keys // span + ix0, keys % span + iy0


def _lexsorted_rows(ix: np.ndarray, iy: np.ndarray):
    """``(order, rows, first)``: the order that sorts the squares by (ix, iy),
    their sorted (n, 2) index rows, and a mask of each distinct row's first;
    the fallback of the two functions below where ``_key_layout`` is None."""
    order = np.lexsort((iy, ix))
    rows = np.stack([ix[order], iy[order]], axis=1)
    return order, rows, np.r_[True, np.any(rows[1:] != rows[:-1], axis=1)]


#: keys built at a time where ``_distinct_square_keys`` marks a table, 512 KiB
#: of int64: the 5.3M keys of the 2^-12 Furstenberg cell (parabola, s = 0.9,
#: t = 1, T = 3) mark in 36 ms, against 38 to 45 ms with blocks of 2^12, 2^14,
#: 2^18 and 2^20 keys
KEY_BLOCK = 1 << 16


def _distinct_square_keys(ix: np.ndarray, iy: np.ndarray, marks=None):
    """The distinct squares of the int64 index arrays (ix, iy), sorted by (ix, iy).

    Returns ``(keys, split)``: one key per distinct square, in order, and the
    function that turns keys back into ix and iy arrays.  Where the key range
    is at most 8 times the square count, so that a bool table over it holds
    no more bytes than the int64 keys a sort would allocate, the table is
    marked from keys built ``KEY_BLOCK`` at a time and its marked entries are
    the keys; otherwise the keys are sorted.  Where keys would pass 2^63, the
    (ix, iy) rows themselves are lexsorted and are the keys.  ``marks`` is
    ``_square_marks(ix, iy)`` where the caller has it already.
    """
    if len(ix) == 0:
        return ix, lambda keys: (keys, keys)
    layout, seen = _square_marks(ix, iy) if marks is None else marks
    if layout is None:
        _, rows, first = _lexsorted_rows(ix, iy)
        return rows[first], lambda rows: (rows[:, 0], rows[:, 1])
    if seen is None:
        keys = _keys_into(np.empty(len(ix), dtype=np.int64), ix, iy, layout)
        keys.sort()
        keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
    else:
        keys = np.flatnonzero(seen)
    return keys, lambda keys: _split_keys(keys, layout)


def _square_marks(ix: np.ndarray, iy: np.ndarray):
    """``(layout, seen)`` of the nonempty index arrays (ix, iy): their
    ``_key_layout``, and the bool table over its key range that marks the
    squares, from keys built ``KEY_BLOCK`` at a time; seen is None where
    layout is, or where the range is over 8 times the square count, and a
    sort of the keys costs less."""
    layout = _key_layout(ix, iy)
    if layout is None or layout[3] > 8 * len(ix):
        return layout, None
    seen = np.zeros(layout[3], dtype=bool)
    buf = np.empty(min(len(ix), KEY_BLOCK), dtype=np.int64)
    for b0 in range(0, len(ix), len(buf)):
        b1 = min(b0 + len(buf), len(ix))
        seen[_keys_into(buf[:b1 - b0], ix[b0:b1], iy[b0:b1], layout)] = True
    return layout, seen


def _distinct_square_count(ix: np.ndarray, iy: np.ndarray) -> int:
    """``len(_distinct_square_keys(ix, iy)[0])``; where a table is marked, its
    marks are counted and no key is listed."""
    if len(ix) == 0:
        return 0
    marks = _square_marks(ix, iy)
    if marks[1] is None:
        return len(_distinct_square_keys(ix, iy, marks)[0])
    return int(np.count_nonzero(marks[1]))


def unique_cells(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an (n, 2) int64 array of planar cell indices,
    sorted, and each input row's position among them: the result of
    ``np.unique(cells, axis=0, return_inverse=True)``, by a sort of one int64
    key per row (``_key_layout``), or a lexsort where that key would pass 2^63.
    """
    if len(cells) == 0:
        return cells[:0], np.zeros(0, dtype=np.int64)
    ix, iy = cells[:, 0], cells[:, 1]
    layout = _key_layout(ix, iy)
    if layout is not None:
        keys = _keys_into(np.empty(len(cells), dtype=np.int64), ix, iy, layout)
        distinct, inverse = np.unique(keys, return_inverse=True)
        return np.stack(_split_keys(distinct, layout), axis=1), inverse
    order, rows, first = _lexsorted_rows(ix, iy)
    inverse = np.empty(len(cells), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return rows[first], inverse


class SquareFamily:
    """A set of level-k dyadic squares stored as index arrays.

    The squares are distinct and sorted by (ix, iy), whatever order and
    repeats the input has; the incidence kernel's column search relies on
    it.  The column layout and search keys that the kernel reads are built
    from ix and iy on first use and kept, so the index arrays are not to be
    changed in place.
    """

    def __init__(self, k: int, ix: np.ndarray, iy: np.ndarray):
        ix = np.asarray(ix, dtype=np.int64)
        iy = np.asarray(iy, dtype=np.int64)
        if ix.shape != iy.shape or ix.ndim != 1:
            raise DomainError("ix, iy must be equal-length 1-d arrays")
        keys, split = _distinct_square_keys(ix, iy)
        self.k = int(k)
        self.ix, self.iy = split(keys)

    def __len__(self) -> int:
        return len(self.ix)

    @property
    def delta(self) -> float:
        return side_of(self.k)

    @classmethod
    def grid(cls, k: int) -> "SquareFamily":
        """All level-k squares of the unit box [0, 1)^2."""
        side = np.arange(1 << k)
        gx, gy = np.meshgrid(side, side, indexing="ij")
        grid = cls.__new__(cls)  # the ix-major meshgrid is already sorted and distinct
        grid.k, grid.ix, grid.iy = int(k), gx.ravel(), gy.ravel()
        return grid

    @cached_property
    def column_starts(self) -> np.ndarray:
        """Where each occupied column's block of squares starts, then len(self):
        column c holds the squares column_starts[c] to column_starts[c + 1] - 1."""
        return np.append(np.flatnonzero(np.diff(self.ix, prepend=self.ix[:1] - 1)), len(self))

    @cached_property
    def column_y(self) -> np.ndarray:
        """Each square's search key c + i*y: c the index of its occupied column
        and y its center's exact ordinate (iy + 1/2) * delta.  numpy orders
        complex numbers by real, then imaginary part, so the keys are sorted
        as the squares are, and a search for c + i*y finds the place of y
        among column c's squares; the imaginary parts are the centers the
        incidence kernel compares."""
        keys = np.empty(len(self), dtype=complex)
        keys.real = np.repeat(np.arange(len(self.column_starts) - 1), np.diff(self.column_starts))
        keys.imag = centers_of(self.iy, self.k)
        return keys
