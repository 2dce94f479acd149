"""Curve functions, transversal families, and C2 rescaling maps.

A family of C2 graphs is *transversal* when the pointwise value+slope gap
between any two members controls their full C2 distance:

    min_x (|f(x)-g(x)| + |f'(x)-g'(x)|)  >=  (1/T) * ||f-g||_C2,

with transversality constant T >= 1.  Everything in this module measures
norms and infima on a uniform grid (default 2049 points), so all constants
are grid-resolution estimates: grid minima over-estimate true infima and
grid maxima under-estimate true suprema, which makes the estimated T a
*lower* bound of the true constant.

A family either wraps a list of CurveFunction closures or stores one
parametric kind as arrays (lines, translates of a parabola, translates of
a convex seed); ``_kind_values`` is the one place that evaluates a kind.
Lines and parabola translates get a fast pairwise path: the difference of
any two members is an affine function of x, so pairwise grid quantities
reduce to a handful of candidate grid points per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

DEFAULT_GRID_N = 2049

DUPLICATE_TOL = 1e-12


class EvaluationError(ValueError):
    """A curve evaluator returned a non-finite value."""


class IdenticalCurvesError(ValueError):
    """Two curves at C2 distance below the duplicate tolerance."""


class DomainError(ValueError):
    """Input outside the admissible domain of an operation."""


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
    params: tuple = ()
    family_tag: str = "custom"

    @property
    def interval(self) -> tuple[float, float]:
        return (self.x_lo, self.x_hi)


#: curve kinds a TransversalFamily can store as parameter arrays
PARAMETRIC_KINDS = ("affine", "parabola", "convex")


def _kind_values(kind: str, a, b, lead: float, seed, x, order: int):
    """f^(order)(x) for the member (a, b) of a parametric kind.

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


def _parametric_curve(kind: str, a: float, b: float, interval, lead: float = 1.0, seed=None) -> CurveFunction:
    """One member of a parametric kind as a CurveFunction."""
    return CurveFunction(
        x_lo=float(interval[0]),
        x_hi=float(interval[1]),
        eval0=lambda x: _kind_values(kind, a, b, lead, seed, x, 0),
        eval1=lambda x: _kind_values(kind, a, b, lead, seed, x, 1),
        eval2=lambda x: _kind_values(kind, a, b, lead, seed, x, 2),
        params=(a, b, lead) if kind == "parabola" else (a, b),
        family_tag=kind,
    )


def affine_curve(a: float, b: float, interval: tuple[float, float] = (-2.0, 2.0)) -> CurveFunction:
    """The line x -> a*x + b."""
    return _parametric_curve("affine", float(a), float(b), interval)


def quadratic_translate_curve(
    a: float,
    b: float,
    interval: tuple[float, float] = (-2.0, 2.0),
    lead: float = 1.0,
) -> CurveFunction:
    """Translate x -> lead*(x-a)^2 + b of the fixed parabola lead*x^2."""
    return _parametric_curve("parabola", float(a), float(b), interval, lead=float(lead))


# --------------------------------------------------------------------------
# Convex seeds (Example-style translate families)
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
    if grid_n < 2:
        raise DomainError(f"grid_n must be >= 2, got {grid_n}")
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


def c2_norm(f: CurveFunction, grid_n: int = DEFAULT_GRID_N) -> float:
    """Grid estimate of ||f||_C2 = max_x (|f| + |f'| + |f''|).

    A lower bound of the true norm; exact for affine f at any grid_n >= 2
    because the maximand is then convex.
    """
    xs = _grid(f.x_lo, f.x_hi, grid_n)
    v0 = _eval_checked(f.eval0, xs, "f")
    v1 = _eval_checked(f.eval1, xs, "f'")
    v2 = _eval_checked(f.eval2, xs, "f''")
    return float(np.max(np.abs(v0) + np.abs(v1) + np.abs(v2)))


def c2_dist(f: CurveFunction, g: CurveFunction, grid_n: int = DEFAULT_GRID_N) -> float:
    """Grid estimate of ||f - g||_C2 on the shared interval."""
    _require_shared_interval(f, g)
    xs = _grid(f.x_lo, f.x_hi, grid_n)
    d0 = _eval_checked(f.eval0, xs, "f") - _eval_checked(g.eval0, xs, "g")
    d1 = _eval_checked(f.eval1, xs, "f'") - _eval_checked(g.eval1, xs, "g'")
    d2 = _eval_checked(f.eval2, xs, "f''") - _eval_checked(g.eval2, xs, "g''")
    return float(np.max(np.abs(d0) + np.abs(d1) + np.abs(d2)))


def _require_shared_interval(f: CurveFunction, g: CurveFunction) -> None:
    if (f.x_lo, f.x_hi) != (g.x_lo, g.x_hi):
        raise DomainError(f"curves live on different intervals {f.interval} vs {g.interval}")


def transversality_defect(f: CurveFunction, g: CurveFunction, grid_n: int = DEFAULT_GRID_N) -> float:
    """min_grid(|f-g| + |f'-g'|) / ||f-g||_C2,grid.

    A family is T-transversal (at grid resolution) iff every pairwise defect
    is >= 1/T.  Raises IdenticalCurvesError when ||f-g|| vanishes.
    """
    _require_shared_interval(f, g)
    xs = _grid(f.x_lo, f.x_hi, grid_n)
    d0 = np.abs(_eval_checked(f.eval0, xs, "f") - _eval_checked(g.eval0, xs, "g"))
    d1 = np.abs(_eval_checked(f.eval1, xs, "f'") - _eval_checked(g.eval1, xs, "g'"))
    d2 = np.abs(_eval_checked(f.eval2, xs, "f''") - _eval_checked(g.eval2, xs, "g''"))
    denom = float(np.max(d0 + d1 + d2))
    if denom <= DUPLICATE_TOL:
        raise IdenticalCurvesError("curves are identical (C2 distance below 1e-12)")
    return float(np.min(d0 + d1)) / denom


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
    """A finite collection of curves over one shared interval.

    A family built from a list of CurveFunctions keeps the list and
    evaluates its closures (``kind == "custom"``).  ``parametric`` builds a
    family of one of PARAMETRIC_KINDS stored as the arrays ``a`` and ``b``
    plus ``lead`` or ``seed``; its ``curves`` list is built on first use.
    ``evaluate`` serves both forms.

    ``t_const`` (estimated transversality constant) is computed lazily and
    cached; ``declared_t_const`` lets structured generators install an
    analytically certified bound so that huge families skip the O(n^2)
    pairwise pass.  All state is immutable after construction apart from
    the caches.
    """

    #: families larger than this skip the full O(n^2) duplicate scan
    FULL_PAIR_LIMIT = 4096

    def __init__(
        self,
        curves: Sequence[CurveFunction],
        grid_n: int = DEFAULT_GRID_N,
        declared_t_const: float | None = None,
        check_duplicates: bool = True,
    ):
        curves = list(curves)
        if not curves:
            raise DomainError("a family needs at least one curve")
        iv = curves[0].interval
        for c in curves[1:]:
            if c.interval != iv:
                raise DomainError(f"all curves must share one interval; got {iv} and {c.interval}")
        self.kind = "custom"
        self.a = self.b = self.seed = None
        self.lead = 1.0
        self._curves = curves
        self._setup(iv, grid_n, declared_t_const, check_duplicates)

    @classmethod
    def parametric(
        cls,
        kind: str,
        a,
        b,
        interval: tuple[float, float],
        lead: float = 1.0,
        seed: ConvexSeed | None = None,
        grid_n: int = DEFAULT_GRID_N,
        declared_t_const: float | None = None,
        check_duplicates: bool = True,
    ) -> "TransversalFamily":
        """Members (a[i], b[i]) of one parametric kind (see ``_kind_values``)."""
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
        fam = cls.__new__(cls)
        fam.kind, fam.a, fam.b, fam.seed = kind, a, b, seed
        fam.lead = float(lead)
        fam._curves = None
        fam._setup((float(interval[0]), float(interval[1])), grid_n, declared_t_const, check_duplicates)
        return fam

    def _setup(self, interval, grid_n, declared_t_const, check_duplicates) -> None:
        self.x_lo, self.x_hi = interval
        self.grid_n = int(grid_n)
        self.declared_t_const = declared_t_const
        self._t_const: float | None = None
        self._images: np.ndarray | None = None
        self._grid_cache: np.ndarray | None = None
        self._min_pair: float | None = None
        if check_duplicates:
            self._reject_duplicates()

    # -- basics ------------------------------------------------------------

    @property
    def curves(self) -> list[CurveFunction]:
        if self._curves is None:
            self._curves = [
                _parametric_curve(self.kind, float(a), float(b), self.interval, self.lead, self.seed)
                for a, b in zip(self.a, self.b)
            ]
        return self._curves

    def __len__(self) -> int:
        return len(self._curves) if self.kind == "custom" else len(self.a)

    def __iter__(self):
        return iter(self.curves)

    @property
    def interval(self) -> tuple[float, float]:
        return (self.x_lo, self.x_hi)

    def grid(self) -> np.ndarray:
        if self._grid_cache is None:
            self._grid_cache = _grid(self.x_lo, self.x_hi, self.grid_n)
        return self._grid_cache

    def midpoint_x(self) -> float:
        """The grid's middle element; equals the interval midpoint for odd grid_n."""
        g = self.grid()
        return float(g[(len(g) - 1) // 2])

    def subfamily(self, indices) -> "TransversalFamily":
        idx = np.asarray(list(indices), dtype=np.int64)
        kw = dict(grid_n=self.grid_n, declared_t_const=self.declared_t_const, check_duplicates=False)
        if self.kind == "custom":
            return TransversalFamily([self._curves[i] for i in idx], **kw)
        return TransversalFamily.parametric(
            self.kind, self.a[idx], self.b[idx], self.interval, self.lead, self.seed, **kw
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
        what = ("f", "f'", "f''")[order]
        if self.kind == "custom":
            rows = np.broadcast_to(x, (n,) + x.shape[1:])
            return np.concatenate([
                _eval_checked((c.eval0, c.eval1, c.eval2)[order], rows[i:i + 1], what)
                for i, c in enumerate(self._curves)
            ])
        col = (n,) + (1,) * (x.ndim - 1)
        vals = _kind_values(
            self.kind, self.a.reshape(col), self.b.reshape(col), self.lead, self.seed, x, order
        )
        return _require_finite(vals, x, what)

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

    # -- duplicate rejection -------------------------------------------------

    def _reject_duplicates(self) -> None:
        n = len(self)
        coeffs = self.affine_difference_coeffs()
        if coeffs is not None:
            al, be = coeffs
            order = np.lexsort((be, al))
            # only lexsort-adjacent rows are compared (for affine differences
            # ||f-g|| >= max(|dalpha|, |dbeta|)): every exact duplicate is
            # caught, but not a near-duplicate pair with a row between them
            da = np.abs(np.diff(al[order]))
            db = np.abs(np.diff(be[order]))
            close = (da < DUPLICATE_TOL) & (db < DUPLICATE_TOL)
            if np.any(close):
                j = int(np.argmax(close))
                i1, i2 = int(order[j]), int(order[j + 1])
                raise IdenticalCurvesError(f"duplicate curves at indices {i1} and {i2}")
            return
        if n > self.FULL_PAIR_LIMIT:
            return
        for ii, jj, _, dist in self.pairwise_defect_and_dist():
            dup = dist < DUPLICATE_TOL
            if np.any(dup):
                k = int(np.argmax(dup))
                raise IdenticalCurvesError(
                    f"duplicate curves at indices {int(ii[k])} and {int(jj[k])}"
                )

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

            return pair, 1 << 20
        v0, v1, v2 = (self.evaluate(xs[None], order) for order in range(3))

        def pair(ii, jj):
            d0 = np.abs(v0[ii] - v0[jj])
            d1 = np.abs(v1[ii] - v1[jj])
            d2 = np.abs(v2[ii] - v2[jj])
            return (d0 + d1).min(axis=1), (d0 + d1 + d2).max(axis=1)

        return pair, max(1, (1 << 22) // len(xs))

    def pairwise_defect_and_dist(self):
        """Yield (i, j, defect, dist) arrays over all pairs i < j, chunked."""
        pair, chunk = self._pair_formula()
        all_ii, all_jj = np.triu_indices(len(self), k=1)
        for start in range(0, len(all_ii), chunk):
            ii, jj = all_ii[start:start + chunk], all_jj[start:start + chunk]
            num, dist = pair(ii, jj)
            with np.errstate(divide="ignore", invalid="ignore"):
                defect = np.where(dist > 0, num / np.where(dist == 0, 1.0, dist), np.inf)
            yield ii, jj, defect, dist

    def distance_row(self, i: int) -> np.ndarray:
        """C2 grid distances from member i to every member (0 at i), equal to
        the distances ``pairwise_defect_and_dist`` yields for the same pairs."""
        pair, _ = self._pair_formula()
        return pair(i, slice(None))[1]

    def min_pair_distance(self) -> float:
        if self._min_pair is None:
            worst = math.inf
            for _, _, _, dist in self.pairwise_defect_and_dist():
                worst = min(worst, float(dist.min()))
            self._min_pair = worst
        return self._min_pair

    @property
    def t_const(self) -> float:
        if self._t_const is None:
            self._t_const = estimate_transversality_constant(self)
        return self._t_const

    def t_bound(self) -> float:
        """Declared constant when present, else the estimated one."""
        if self.declared_t_const is not None:
            return self.declared_t_const
        return self.t_const

    def embedding_images(self) -> np.ndarray:
        """A(f) = (f(x0), f'(x0)) for every member, x0 the grid midpoint."""
        if self._images is None:
            x0 = [self.midpoint_x()]
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
# Convex translate families (Example-style)
# --------------------------------------------------------------------------

def convex_translate_family(
    seed: ConvexSeed,
    centers: Sequence[tuple[float, float]],
    x0: float = 0.0,
    grid_n: int = DEFAULT_GRID_N,
) -> TransversalFamily:
    """Translates g_z(x) = g(x - a) + b over [x0-5, x0+5], z = (a, b).

    Centers must satisfy a in [x0-1, x0+1] so that x - a stays in [-6, 6]
    on the working interval.  The construction verifies, at grid
    resolution, that ||g_z1 - g_z2||_C2 is comparable to |z1 - z2| and
    records the two comparability constants on the returned family as
    ``form28_lower`` / ``form28_upper`` (min/max of ratio norm/|z1-z2|).
    """
    centers = [(float(a), float(b)) for a, b in centers]
    for a, b in centers:
        if not (x0 - 1.0 <= a <= x0 + 1.0):
            raise DomainError(f"center a={a} outside [{x0 - 1}, {x0 + 1}]")
    pts = np.array(centers, dtype=float).reshape(-1, 2)
    fam = TransversalFamily.parametric(
        "convex", pts[:, 0], pts[:, 1], (x0 - 5.0, x0 + 5.0), seed=seed, grid_n=grid_n
    )

    # convexity floor on the working interval
    low = fam.evaluate(fam.grid()[None], 2).min(axis=1) < seed.frak_g * (1.0 - 1e-9)
    if np.any(low):
        raise DomainError(
            f"translate at {centers[int(np.argmax(low))]}: g'' dips below the seed floor {seed.frak_g}"
        )

    lower = math.inf
    upper = 0.0
    if len(centers) >= 2:
        for ii, jj, _, dist in fam.pairwise_defect_and_dist():
            zgap = np.hypot(pts[ii, 0] - pts[jj, 0], pts[ii, 1] - pts[jj, 1])
            ratio = dist / zgap
            lower = min(lower, float(ratio.min()))
            upper = max(upper, float(ratio.max()))
    fam.form28_lower = lower
    fam.form28_upper = upper
    return fam


# --------------------------------------------------------------------------
# Rescaling maps
# --------------------------------------------------------------------------

def _compose_ball(c: CurveFunction, f0: CurveFunction, r0: float) -> CurveFunction:
    return CurveFunction(
        x_lo=c.x_lo, x_hi=c.x_hi,
        eval0=lambda x, c=c, f0=f0, r0=r0: (np.asarray(c.eval0(x), dtype=float) - np.asarray(f0.eval0(x), dtype=float)) / r0,
        eval1=lambda x, c=c, f0=f0, r0=r0: (np.asarray(c.eval1(x), dtype=float) - np.asarray(f0.eval1(x), dtype=float)) / r0,
        eval2=lambda x, c=c, f0=f0, r0=r0: (np.asarray(c.eval2(x), dtype=float) - np.asarray(f0.eval2(x), dtype=float)) / r0,
        params=c.params,
    )


def rescale_ball(
    family: TransversalFamily,
    f0: CurveFunction,
    r0: float,
    check: bool | None = None,
) -> TransversalFamily:
    """The ball rescaling f -> (f - f0)/r0 on the same interval.

    Preserves the transversality constant exactly in theory; when ``check``
    is on (default: families of <= 512 curves) the estimated constants of
    input and output are compared and must agree to 1%.
    """
    if not (r0 > 0):
        raise DomainError(f"r0 must be positive, got {r0}")
    out = TransversalFamily(
        [_compose_ball(c, f0, r0) for c in family],
        grid_n=family.grid_n,
        declared_t_const=family.declared_t_const,
        check_duplicates=False,
    )
    if check is None:
        check = len(family) <= 512
    if check and len(family) >= 2:
        t_in = family.t_const
        t_out = out.t_const
        if abs(t_out - t_in) > 0.01 * t_in:
            raise DomainError(
                f"ball rescaling changed the estimated transversality constant: {t_in} -> {t_out}"
            )
    return out


def rescale_window(
    family: TransversalFamily,
    x0: float,
    y0: float,
    r: float,
    window: tuple[float, float],
    check: bool | None = None,
) -> TransversalFamily:
    """The window rescaling f -> (f(r x + x0) - y0)/r on the interval J.

    Requires J inside (I - x0)/r and r in (0, 1].  The output's estimated
    constant is asserted to satisfy T_out <= |J| * T_in + 1 (plus grid
    tolerance) when checking is on.
    """
    if not (0 < r <= 1):
        raise DomainError(f"r must lie in (0, 1], got {r}")
    lo, hi = float(window[0]), float(window[1])
    if lo >= hi:
        raise DomainError(f"empty window {window}")
    src_lo = (family.x_lo - x0) / r
    src_hi = (family.x_hi - x0) / r
    tol = 1e-9 * max(1.0, abs(src_lo), abs(src_hi))
    if lo < src_lo - tol or hi > src_hi + tol:
        raise DomainError(f"window {window} not contained in (I - x0)/r = ({src_lo}, {src_hi})")

    def make(c: CurveFunction) -> CurveFunction:
        return CurveFunction(
            x_lo=lo, x_hi=hi,
            eval0=lambda x, c=c: (np.asarray(c.eval0(r * np.asarray(x, dtype=float) + x0), dtype=float) - y0) / r,
            eval1=lambda x, c=c: np.asarray(c.eval1(r * np.asarray(x, dtype=float) + x0), dtype=float),
            eval2=lambda x, c=c: r * np.asarray(c.eval2(r * np.asarray(x, dtype=float) + x0), dtype=float),
            params=c.params,
        )

    out = TransversalFamily(
        [make(c) for c in family],
        grid_n=family.grid_n,
        check_duplicates=False,
    )
    if check is None:
        check = len(family) <= 512
    if check and len(family) >= 2:
        t_in = family.t_const
        t_out = out.t_const
        budget = (hi - lo) * t_in + 1.0
        if t_out > budget * (1.0 + 1e-6):
            raise DomainError(
                f"window rescaling broke the constant budget: T_out={t_out} > |J|*T_in+1={budget}"
            )
    return out


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
    _require_shared_interval(f, g)
    if c2_dist(f, g, grid_n) <= DUPLICATE_TOL:
        raise IdenticalCurvesError("curves are identical")
    xs = _grid(f.x_lo, f.x_hi, grid_n)[1:-1]
    gap = np.abs(
        _eval_checked(f.eval0, xs, "f") - _eval_checked(g.eval0, xs, "g")
    )
    mask = gap < 2.0 * r
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
