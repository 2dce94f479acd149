"""Curve functions and transversal families.

A family of C2 graphs is *transversal* when the pointwise value+slope gap
between any two members controls their full C2 distance:

    min_x (|f(x)-g(x)| + |f'(x)-g'(x)|)  >=  (1/T) * ||f-g||_C2,

with transversality constant T >= 1.  Everything in this module measures
norms and infima on a uniform grid (default 2049 points), so all constants
are grid-resolution estimates: grid minima over-estimate true infima and
grid maxima under-estimate true suprema, which makes the estimated T a
*lower* bound of the true constant.

A family stores the members of one kind (lines, translates of a parabola,
translates of a convex seed) as two parameter arrays, which ``_kind_values``
evaluates.  A member is a CurveFunction only where a single curve is
needed: the per-pair oracles (``c2_dist``, ``intersection_components``)
take those.
Lines and parabola translates get a fast pairwise path: the difference of
any two members is an affine function of x, so pairwise grid quantities
reduce to a handful of candidate grid points per pair, and the closest pair
is found by a sorted window over the members' coefficients instead of by
scoring every pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_GRID_N = 2049

DUPLICATE_TOL = 1e-12


class DomainError(ValueError):
    """Input outside the admissible domain of an operation: the one refusal
    type of the library, which ``furst-lab`` reports in one line, exit 1."""


class EvaluationError(DomainError):
    """A curve evaluator returned a non-finite value."""


class IdenticalCurvesError(DomainError):
    """Two curves at C2 distance at most the duplicate tolerance."""


# --------------------------------------------------------------------------
# Curves
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveFunction:
    """An evaluable C2 function on a compact interval.

    ``eval0``, ``eval1``, ``eval2`` evaluate f, f', f'' and must accept
    scalars and numpy arrays.
    """

    x_lo: float
    x_hi: float
    eval0: Callable
    eval1: Callable
    eval2: Callable

    @property
    def interval(self) -> tuple[float, float]:
        return (self.x_lo, self.x_hi)


#: the curve kinds of a TransversalFamily
PARAMETRIC_KINDS = ("affine", "parabola", "convex")


def _kind_values(kind: str, a, b, lead: float, seed, x, order: int):
    """f^(order)(x) for the member (a, b) of a kind.

    affine: f(x) = a*x + b; parabola: f(x) = lead*(x-a)^2 + b; convex:
    f(x) = g(x-a) + b with g the seed.  a and b broadcast against x.
    """
    if kind == "convex":
        v = np.asarray((seed.g0, seed.g1, seed.g2)[order](x - a), dtype=float)
        return v + b if order == 0 else v
    if order == 0:
        return a * x + b if kind == "affine" else lead * (x - a) ** 2 + b
    if kind == "parabola" and order == 1:
        return 2.0 * lead * (x - a)
    ones = np.ones(np.broadcast_shapes(np.shape(a), np.shape(x)))
    if kind == "affine":
        return a * ones if order == 1 else np.zeros_like(ones)
    return 2.0 * lead * ones


def _member_curve(kind: str, a: float, b: float, interval, lead: float = 1.0, seed=None) -> CurveFunction:
    """One member of a kind as a CurveFunction."""
    return CurveFunction(
        x_lo=float(interval[0]),
        x_hi=float(interval[1]),
        eval0=lambda x: _kind_values(kind, a, b, lead, seed, x, 0),
        eval1=lambda x: _kind_values(kind, a, b, lead, seed, x, 1),
        eval2=lambda x: _kind_values(kind, a, b, lead, seed, x, 2),
    )


def affine_curve(a: float, b: float, interval: tuple[float, float] = (-2.0, 2.0)) -> CurveFunction:
    """The line x -> a*x + b."""
    return _member_curve("affine", float(a), float(b), interval)


def quadratic_translate_curve(
    a: float,
    b: float,
    interval: tuple[float, float] = (-2.0, 2.0),
    lead: float = 1.0,
) -> CurveFunction:
    """Translate x -> lead*(x-a)^2 + b of the fixed parabola lead*x^2."""
    return _member_curve("parabola", float(a), float(b), interval, lead=float(lead))


# --------------------------------------------------------------------------
# Convex seeds (the members of the convex kind are their translates)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexSeed:
    """A convex C3 seed g on [-6, 6] with its two shape constants.

    frak_G is the C3 norm of g on [-6, 6]; frak_g = min g'' there.  Both are
    grid estimates unless supplied in closed form.
    """

    g0: Callable
    g1: Callable
    g2: Callable
    g3: Callable
    frak_G: float
    frak_g: float
    name: str = "seed"

    def __post_init__(self):
        if not (self.frak_g > 0):
            raise DomainError(f"seed {self.name}: min g'' = {self.frak_g} is not positive")
        if self.frak_G < self.frak_g:
            raise DomainError(f"seed {self.name}: C3 norm {self.frak_G} < min g'' {self.frak_g}")


def quadratic_seed(lead: float = 1.0) -> ConvexSeed:
    """Seed g(x) = lead*x^2 with exact constants."""
    q = float(lead)
    return ConvexSeed(
        g0=lambda x, q=q: q * np.asarray(x, dtype=float) ** 2,
        g1=lambda x, q=q: 2.0 * q * np.asarray(x, dtype=float),
        g2=lambda x, q=q: 2.0 * q * np.ones_like(np.asarray(x, dtype=float)),
        g3=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        frak_G=q * (36.0 + 12.0 + 2.0),
        frak_g=2.0 * q,
        name=f"quadratic({q})",
    )


def exp_seed() -> ConvexSeed:
    """Seed g(x) = e^x; min g'' on [-6,6] is e^-6."""
    e6 = math.exp(6.0)
    return ConvexSeed(
        g0=np.exp, g1=np.exp, g2=np.exp, g3=np.exp,
        frak_G=4.0 * e6, frak_g=math.exp(-6.0), name="exp",
    )


# --------------------------------------------------------------------------
# Grid norms and pairwise quantities
# --------------------------------------------------------------------------

def _grid(x_lo: float, x_hi: float, grid_n: int) -> np.ndarray:
    if not 2 <= grid_n <= TransversalFamily.CHUNK_FLOATS:
        raise DomainError(
            f"grid_n must lie in [2, {TransversalFamily.CHUNK_FLOATS}], got {grid_n}: "
            "a longer grid does not fit one pairwise chunk"
        )
    return np.linspace(x_lo, x_hi, grid_n)


def _require_finite(vals: np.ndarray, xs: np.ndarray, what: str) -> np.ndarray:
    finite = np.isfinite(vals)
    if not np.all(finite):
        bad = np.broadcast_to(xs, vals.shape)[~finite][0]
        raise EvaluationError(f"{what} returned a non-finite value at x={bad}")
    return vals


def _eval_checked(fn, xs: np.ndarray, what: str) -> np.ndarray:
    vals = np.asarray(fn(xs), dtype=float)
    if vals.shape != xs.shape:
        vals = np.broadcast_to(vals, xs.shape)
    return _require_finite(vals, xs, what)


def _grid_gaps(f: CurveFunction, g: CurveFunction, grid_n: int):
    """(xs, |f - g|, |f' - g'|, |f'' - g''|) on the grid of the shared interval:
    the one grid pass of the per-pair oracles."""
    if (f.x_lo, f.x_hi) != (g.x_lo, g.x_hi):
        raise DomainError(f"curves live on different intervals {f.interval} vs {g.interval}")
    xs = _grid(f.x_lo, f.x_hi, grid_n)
    gaps = []
    for order, (fe, ge) in enumerate(((f.eval0, g.eval0), (f.eval1, g.eval1), (f.eval2, g.eval2))):
        primes = "'" * order
        gaps.append(np.abs(_eval_checked(fe, xs, "f" + primes) - _eval_checked(ge, xs, "g" + primes)))
    return (xs, *gaps)


def c2_dist(f: CurveFunction, g: CurveFunction, grid_n: int = DEFAULT_GRID_N) -> float:
    """Grid estimate of ||f - g||_C2 on the shared interval."""
    _, d0, d1, d2 = _grid_gaps(f, g, grid_n)
    return float(np.max(d0 + d1 + d2))


def _ragged_pairs(start: np.ndarray, width: np.ndarray, chunk: int):
    """Yield (i, j) index arrays of at most ``chunk`` pairs each that list,
    row by row, i with j = start[i], ..., start[i] + width[i] - 1.

    Each chunk [lo, hi) of the flattened list is generated from the rows it
    overlaps, so the index memory is bounded by the chunk, not by the number
    of pairs.
    """
    ends = np.cumsum(width)
    shift = start - ends + width
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        r0, r1 = np.searchsorted(ends, [lo, hi - 1], side="right")
        rows = np.arange(r0, r1 + 1)
        i = np.repeat(rows, np.minimum(ends[rows], hi) - np.maximum(ends[rows] - width[rows], lo))
        yield i, np.arange(lo, hi) + shift[i]


def _window_pairs(window, w: float, chunk: int):
    """Yield (i, j) arrays, i < j, that hold every pair whose affine C2
    distance, as ``TransversalFamily._pair_formula`` computes it, is <= w.

    ``window`` is ``TransversalFamily._window_order()``: the members' order
    and their coordinates (alpha, beta_c) in that order, sorted by alpha and
    then beta_c, and the scale S = max|alpha| * max(1, |x_lo|, |x_hi|) +
    max|beta|.  Here beta_c = alpha * x_c + beta with x_c a point of the
    interval.  The difference of two members is A*x + B on the interval,
    with C2 distance |A| + max(|A*x_lo + B|, |A*x_hi + B|); that is at least
    |A| = |d alpha| and at least |A*x_c + B| = |d beta_c|, because x_c lies
    between the endpoints.  So a pair at distance <= w lies in the window
    |d alpha| <= w, |d beta_c| <= w.  The members of one alpha value form a
    block sorted by beta_c; ``searchsorted`` finds the blocks within w of a
    member's alpha, and, in each, the members whose beta_c lies in
    [beta_c - w, beta_c + w], so only the window's pairs are made.

    Float rounding: with u = eps/2, rounding moves the computed A, B,
    A*x + B and beta_c by a few u times S or w, so a pair whose computed
    distance is <= w has |d alpha| and |d beta_c| below w + 14u*(S + w).
    Computing the padded w, alpha + w and beta_c -+ w rounds once more each,
    by at most u*(S + w).  The window pads w by 16*eps*(S + w) =
    32u*(S + w), more than all of these, so rounding cannot drop a pair; a
    wider padding would only add candidates.
    """
    order, alpha, beta_c, scale = window
    w += 16.0 * np.finfo(float).eps * (scale + w)
    n = len(order)
    new_block = np.r_[True, alpha[1:] != alpha[:-1]]
    head = np.flatnonzero(new_block)  # each block's first member
    block = np.cumsum(new_block) - 1
    # a member's key orders as (block, beta_c) does: beta_c enters by its rank
    # among all members, so one searchsorted finds a bound inside any block
    ranked = np.sort(beta_c)
    key = block * (n + 1) + np.searchsorted(ranked, beta_c)
    past = np.searchsorted(alpha[head], alpha + w, side="right")  # first block beyond the strip
    for p, b in _ragged_pairs(block, past - block, chunk):
        lo = np.searchsorted(key, b * (n + 1) + np.searchsorted(ranked, beta_c[p] - w))
        hi = np.searchsorted(key, b * (n + 1) + np.searchsorted(ranked, beta_c[p] + w, side="right"))
        lo = np.maximum(lo, p + 1)  # in p's own block, the members after it
        for r, q in _ragged_pairs(lo, np.maximum(hi - lo, 0), chunk):
            i, j = order[p[r]], order[q]
            yield np.minimum(i, j), np.maximum(i, j)


def _affine_pair_min_max(alpha: np.ndarray, beta: np.ndarray, xs: np.ndarray):
    """Vectorised grid min/max of |alpha*x + beta| over grid xs, per pair.

    The minimand is V-shaped, so the grid minimum sits at the grid points
    bracketing the root -beta/alpha (clipped to the grid); the maximum sits
    at an endpoint.
    """
    n = xs.shape[0]
    lo, hi = xs[0], xs[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        xstar = np.where(alpha != 0.0, -beta / np.where(alpha == 0.0, 1.0, alpha), lo)
    step = (hi - lo) / (n - 1)
    i_real = (xstar - lo) / step
    i0 = np.clip(np.floor(i_real).astype(np.int64) - 1, 0, n - 1)
    cand = np.stack([np.clip(i0 + k, 0, n - 1) for k in range(4)], axis=-1)
    vals = np.abs(alpha[..., None] * xs[cand] + beta[..., None])
    vmin = vals.min(axis=-1)
    ends = np.abs(np.stack([alpha * lo + beta, alpha * hi + beta], axis=-1))
    vmin = np.minimum(vmin, ends.min(axis=-1))
    vmax = ends.max(axis=-1)
    return vmin, vmax


# --------------------------------------------------------------------------
# Transversal families
# --------------------------------------------------------------------------

class TransversalFamily:
    """A finite collection of curves of one kind over one shared interval.

    The members of one of PARAMETRIC_KINDS are stored as the arrays ``a``
    and ``b`` plus ``lead`` (parabola) or ``seed`` (convex), and ``evaluate``
    evaluates them all at once.  ``curves``, the members as CurveFunctions
    for the per-pair oracles, is built on first use.

    ``t_const`` (the grid estimate of the transversality constant) is
    computed lazily and cached.  ``t_bound()`` is a constant that holds for
    the family: certified from the interval for lines and parabola
    translates, with no pairwise pass, and the estimate otherwise.  All
    state is immutable after construction apart from the caches.

    Construction does not compare members: coincident ones (C2 distance
    at most DUPLICATE_TOL) are refused where a pairwise quantity needs
    them distinct.  ``t_const`` raises IdenticalCurvesError naming the
    first such pair, as does ``intersection_components`` on the members,
    and ``min_pair_distance()`` returns the tiny distance for a separation
    check against delta.
    """

    #: floats one chunk of the pairwise pass holds: grid values per pair on
    #: the grid path, four candidate points per pair on the affine path
    CHUNK_FLOATS = 1 << 22

    def __init__(
        self,
        kind: str,
        a,
        b,
        interval: tuple[float, float],
        lead: float = 1.0,
        seed: ConvexSeed | None = None,
        grid_n: int = DEFAULT_GRID_N,
    ):
        """Members (a[i], b[i]) of one kind (see ``_kind_values``)."""
        if kind not in PARAMETRIC_KINDS:
            raise DomainError(f"unknown kind {kind!r}; expected one of {PARAMETRIC_KINDS}")
        if kind == "convex" and seed is None:
            raise DomainError("kind 'convex' needs a ConvexSeed")
        a = np.asarray(a, dtype=float).ravel()
        b = np.asarray(b, dtype=float).ravel()
        if a.shape != b.shape:
            raise DomainError(f"parameter arrays differ in length: {len(a)} and {len(b)}")
        if not len(a):
            raise DomainError("a family needs at least one curve")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and math.isfinite(lead)):
            raise DomainError("member parameters must be finite")
        self.kind, self.a, self.b, self.seed = kind, a, b, seed
        self.lead = float(lead)
        self.x_lo, self.x_hi = float(interval[0]), float(interval[1])
        self.grid_n = int(grid_n)
        self._curves: list[CurveFunction] | None = None
        self._t_const: float | None = None
        self._images: np.ndarray | None = None
        self._grid_cache: np.ndarray | None = None
        self._min_pair: float | None = None

    # -- basics ------------------------------------------------------------

    @property
    def curves(self) -> list[CurveFunction]:
        if self._curves is None:
            self._curves = [
                _member_curve(self.kind, float(a), float(b), self.interval, self.lead, self.seed)
                for a, b in zip(self.a, self.b)
            ]
        return self._curves

    def __len__(self) -> int:
        return len(self.a)

    @property
    def interval(self) -> tuple[float, float]:
        return (self.x_lo, self.x_hi)

    def grid(self) -> np.ndarray:
        if self._grid_cache is None:
            self._grid_cache = _grid(self.x_lo, self.x_hi, self.grid_n)
        return self._grid_cache

    def subfamily(self, indices) -> "TransversalFamily":
        """The members that ``indices`` (any numpy index: a slice, a boolean
        mask, an index array, a list or a range) selects from ``a`` and ``b``."""
        return TransversalFamily(
            self.kind, self.a[indices], self.b[indices], self.interval, self.lead, self.seed, self.grid_n
        )

    def evaluate(self, x, order: int = 0) -> np.ndarray:
        """f_i^(order) for every member i (order 0, 1 or 2).

        The first axis of ``x`` is the curve axis: length 1 shares x[0]
        among all members, length len(self) gives member i the points x[i].
        Returns shape (len(self),) + x.shape[1:]; raises EvaluationError on a
        non-finite value.
        """
        x = np.asarray(x, dtype=float)
        n = len(self)
        if x.ndim == 0 or x.shape[0] not in (1, n):
            raise DomainError(f"x needs a leading curve axis of length 1 or {n}, got shape {x.shape}")
        col = (n,) + (1,) * (x.ndim - 1)
        vals = _kind_values(
            self.kind, self.a.reshape(col), self.b.reshape(col), self.lead, self.seed, x, order
        )
        return _require_finite(vals, x, ("f", "f'", "f''")[order])

    def affine_difference_coeffs(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(alpha, beta) with f_i - f_j = (alpha_i-alpha_j) x + (beta_i-beta_j).

        Lines carry (a, b); parabola translates lead*(x-a)^2 + b carry
        (-2*lead*a, lead*a^2 + b).  None for the other kinds, whose
        differences are not affine.
        """
        if self.kind == "affine":
            return self.a, self.b
        if self.kind == "parabola":
            return -2.0 * self.lead * self.a, self.lead * self.a ** 2 + self.b
        return None

    # -- pairwise machinery ---------------------------------------------------

    def _pair_formula(self):
        """(pair, chunk): pair(ii, jj) is (min_x(|d0| + |d1|), C2 distance) per pair,
        by the affine shortcut or by the grid formula on values evaluated once
        here; ``chunk`` pairs per call keep the temporaries small."""
        coeffs = self.affine_difference_coeffs()
        xs = self.grid()
        if coeffs is not None:
            al, be = coeffs

            def pair(ii, jj):
                a = al[ii] - al[jj]
                vmin, vmax = _affine_pair_min_max(a, be[ii] - be[jj], xs)
                return vmin + np.abs(a), vmax + np.abs(a)

            return pair, self.CHUNK_FLOATS // 4
        v0, v1, v2 = (self.evaluate(xs[None], order) for order in range(3))

        def pair(ii, jj):
            d0 = np.abs(v0[ii] - v0[jj])
            d1 = np.abs(v1[ii] - v1[jj])
            d2 = np.abs(v2[ii] - v2[jj])
            return (d0 + d1).min(axis=1), (d0 + d1 + d2).max(axis=1)

        return pair, max(1, self.CHUNK_FLOATS // len(xs))

    def _window_order(self):
        """(order, alpha, beta_c, scale) for ``_window_pairs``: the members
        sorted by (alpha, beta_c), with (alpha, beta) from
        ``affine_difference_coeffs`` and beta_c = alpha * x_c + beta, x_c = 0
        when the interval holds 0 and its midpoint otherwise."""
        al, be = self.affine_difference_coeffs()
        lo, hi = self.interval
        x_c = 0.0 if lo <= 0.0 <= hi else 0.5 * (lo + hi)
        bc = al * x_c + be
        order = np.lexsort((bc, al))
        scale = float(np.abs(al).max()) * max(1.0, abs(lo), abs(hi)) + float(np.abs(be).max())
        return order, al[order], bc[order], scale

    def pairwise_defect_and_dist(self):
        """Yield (i, j, defect, dist) arrays over all pairs i < j, chunked, in
        the order of ``np.triu_indices(n, 1)``."""
        pair, chunk = self._pair_formula()
        rows = np.arange(len(self))
        for ii, jj in _ragged_pairs(rows + 1, len(self) - 1 - rows, chunk):
            num, dist = pair(ii, jj)
            with np.errstate(divide="ignore", invalid="ignore"):
                defect = np.where(dist > 0, num / np.where(dist == 0, 1.0, dist), np.inf)
            yield ii, jj, defect, dist

    def min_pair_distance(self) -> float:
        """Least C2 grid distance between two members (inf below two).

        The affine-difference kinds score the pairs adjacent in
        ``_window_order`` to get an upper bound d, then only the pairs in
        the window of width d around each member (``_window_pairs``), by the
        same formula as the all-pairs pass: the result is the same float.
        Other kinds score every pair.
        """
        if self._min_pair is None:
            worst = math.inf
            if self.affine_difference_coeffs() is None or len(self) < 2:
                for _, _, _, dist in self.pairwise_defect_and_dist():
                    worst = min(worst, float(dist.min()))
            else:
                pair, chunk = self._pair_formula()
                window = self._window_order()
                order = window[0]
                worst = float(pair(np.minimum(order[:-1], order[1:]),
                                   np.maximum(order[:-1], order[1:]))[1].min())
                for ii, jj in _window_pairs(window, worst, chunk):
                    worst = min(worst, float(pair(ii, jj)[1].min()))
            self._min_pair = worst
        return self._min_pair

    @property
    def t_const(self) -> float:
        if self._t_const is None:
            self._t_const = estimate_transversality_constant(self)
        return self._t_const

    def t_bound(self) -> float:
        """A transversality constant T that holds for the family.

        Lines and parabola translates get 1.0 when every slope alpha of
        ``affine_difference_coeffs`` is the same, and 1 + (x_hi - x_lo)
        otherwise.  Proof: two members differ by A*x + B on [lo, hi], so
        their defect is (min|A*x + B| + |A|) / (max|A*x + B| + |A|), which is
        1 for A = 0.  Otherwise |A*x + B| is |A|-Lipschitz, so
        max - min <= |A| * (hi - lo), and with m = min|A*x + B| >= 0 the
        defect is at least (m + |A|) / (m + |A| + |A| * (hi - lo)) >=
        1 / (1 + hi - lo), with equality when the root -B/A is an endpoint.
        The grid estimate ``t_const`` reads the same coefficients; its grid
        holds both endpoints, where the maximum sits, and its grid minimum
        is at least the true one, so it never exceeds this bound (up to
        float rounding).

        Other kinds get the estimate ``t_const``, which raises on duplicate
        or tangent members.
        """
        coeffs = self.affine_difference_coeffs()
        if coeffs is None:
            return self.t_const
        alpha = coeffs[0]
        return 1.0 if np.all(alpha == alpha[0]) else 1.0 + (self.x_hi - self.x_lo)

    def embedding_images(self) -> np.ndarray:
        """A(f) = (f(x0), f'(x0)) for every member, x0 the interval midpoint."""
        if self._images is None:
            x0 = [0.5 * (self.x_lo + self.x_hi)]
            self._images = np.stack([self.evaluate(x0, 0), self.evaluate(x0, 1)], axis=1)
        return self._images


def estimate_transversality_constant(family: TransversalFamily) -> float:
    """max(1, 1 / min pairwise defect), the grid estimate of T.

    O(n^2 * grid_n) in general, O(n^2) for affine-difference families.
    Raises IdenticalCurvesError naming the pair if two members coincide.
    """
    if len(family) < 2:
        return 1.0
    worst = math.inf
    for ii, jj, defect, dist in family.pairwise_defect_and_dist():
        dead = dist <= DUPLICATE_TOL
        if np.any(dead):
            k = int(np.argmax(dead))
            raise IdenticalCurvesError(
                f"duplicate curves at indices {int(ii[k])} and {int(jj[k])}"
            )
        worst = min(worst, float(defect.min()))
    if worst <= 0:
        raise DomainError("zero transversality defect; family is not transversal at grid resolution")
    return max(1.0, 1.0 / worst)


# --------------------------------------------------------------------------
# Intersection structure of thin neighbourhoods
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentReport:
    """Connected components of {x : |f(x)-g(x)| < 2r} at grid resolution."""

    intervals: tuple[tuple[float, float], ...]
    lengths: tuple[float, ...]
    under_resolved: bool

    def __len__(self) -> int:
        return len(self.intervals)


def intersection_components(
    f: CurveFunction,
    g: CurveFunction,
    r: float,
    grid_n: int = DEFAULT_GRID_N,
) -> ComponentReport:
    """Components of the x-projection of the overlap of two r-neighbourhoods.

    Scans {x in interior(I) : |f(x)-g(x)| < 2r} on the grid; each maximal
    run of grid points becomes one interval (reported by its first/last grid
    point, an inner approximation accurate to one grid step per side).  Runs
    spanning fewer than two grid steps raise the under_resolved flag.
    """
    if not (r > 0):
        raise DomainError(f"r must be positive, got {r}")
    xs, d0, d1, d2 = _grid_gaps(f, g, grid_n)
    if np.max(d0 + d1 + d2) <= DUPLICATE_TOL:
        raise IdenticalCurvesError("curves are identical")
    xs = xs[1:-1]
    mask = d0[1:-1] < 2.0 * r
    if not np.any(mask):
        return ComponentReport((), (), False)
    padded = np.concatenate([[False], mask, [False]])
    starts = np.flatnonzero(padded[1:] & ~padded[:-1])
    ends = np.flatnonzero(~padded[1:] & padded[:-1]) - 1
    intervals = tuple((float(xs[s]), float(xs[e])) for s, e in zip(starts, ends))
    lengths = tuple(b - a for a, b in intervals)
    h = xs[1] - xs[0] if len(xs) > 1 else 0.0
    under = bool(any((e - s) < 2 for s, e in zip(starts, ends))) and h > 0
    return ComponentReport(intervals, lengths, under)
