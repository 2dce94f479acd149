"""Nice-configuration construction and the discretized counting experiments.

A (delta, s, C, M)-nice configuration is a delta-separated transversal
family where every curve carries exactly M dyadic delta-squares meeting
its graph, each per-curve square set being a (delta, s)-set.  Generators
here build such configurations from random uniform trees in the parameter
plane (slope/intercept for lines, translation centers for convex
translates), attach per-curve column sets, and measure the actual
set-class constants of everything they emit.

Experiments evaluate the paper-style counting inequalities at desk scale:
the three-way Furstenberg lower bound, its two endpoint regimes, the
semi-well-spaced spacing conditions, and the a/b multiplicity bound for
squares charged by many cubes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import (
    DiscretePointSet,
    ParameterError,
    SquareFamily,
    centers_of,
    delta_set_constant,
    generate_delta_set_indices,
    katz_tao_constant,
    side_of,
)
from .family import DEFAULT_GRID_N, PARAMETRIC_KINDS, DomainError, TransversalFamily
from .famspace import family_distance_matrix
from .incidence import check_lambda_delta, cube_incidence_counts

WORK_INTERVAL = (-2.0, 2.0)

#: certified transversality bound on [-2,2] for families whose pairwise
#: differences are affine in x (lines; translates of a fixed quadratic):
#: with A=|slope gap|, B=|offset gap|, the defect
#: (max(0,B-2A)+A)/(B+3A) is minimised at B=2A with value 1/5.
AFFINE_DIFFERENCE_T = 5.0

#: the parabola kind's members are translates of 0.5*x^2
PARABOLA_LEAD = 0.5


def _make_family(
    kind: str,
    a: np.ndarray,
    b: np.ndarray,
    seed_curve=None,
    declared_t_const: float | None = None,
    grid_n: int = DEFAULT_GRID_N,
) -> TransversalFamily:
    """Map parameter-plane points to a family on the working interval.

    Values over the column range [0, 1) land in [-1, 1) for the built-in
    kinds (intercepts are shifted down by 1), so the attached squares stay
    inside [-1, 1]^2.  Lines and parabola translates declare the certified
    AFFINE_DIFFERENCE_T unless the caller declares a tighter constant.
    """
    if kind not in PARAMETRIC_KINDS:
        raise ParameterError(f"unknown kind {kind!r}; expected one of {PARAMETRIC_KINDS}")
    if declared_t_const is None and kind != "convex":
        declared_t_const = AFFINE_DIFFERENCE_T
    return TransversalFamily.parametric(
        kind, a, b - 1.0, WORK_INTERVAL, lead=PARABOLA_LEAD, seed=seed_curve,
        grid_n=grid_n, declared_t_const=declared_t_const, check_duplicates=False,
    )


# --------------------------------------------------------------------------
# Nice configurations
# --------------------------------------------------------------------------

@dataclass
class NiceConfiguration:
    """A transversal family plus per-curve square sets at one dyadic scale."""

    family: TransversalFamily
    kind: str
    delta_exp: int
    s: float
    t: float
    T: int
    seed: int
    col_idx: np.ndarray       # (n, M) column indices, distinct per row
    iy: np.ndarray            # (n, M) row indices
    measured: dict = field(default_factory=dict)

    @property
    def M(self) -> int:
        return self.col_idx.shape[1]

    @property
    def n_curves(self) -> int:
        return len(self.family)

    @property
    def delta(self) -> float:
        return side_of(self.delta_exp)

    def union_square_count(self) -> int:
        """|P| = number of distinct squares across all per-curve sets."""
        ix = self.col_idx.ravel()
        iy = self.iy.ravel()
        span = iy.max() - iy.min() + 1
        keys = (ix - ix.min()) * span + (iy - iy.min())
        keys.sort()
        return int(np.count_nonzero(np.diff(keys))) + 1

    def union_squares(self) -> SquareFamily:
        return SquareFamily(self.delta_exp, self.col_idx.ravel(), self.iy.ravel())

    def squares_of(self, i: int) -> SquareFamily:
        return SquareFamily(self.delta_exp, self.col_idx[i], self.iy[i], dedupe=False)


AUDIT_FULL_CURVES = 600
AUDIT_FULL_COLUMNS = 64
AUDIT_PROBE_CENTERS = 128
AUDIT_PROBE_CURVES = 8


def _audit_constants(conf: NiceConfiguration, audit: str) -> dict:
    """Measure the (delta, *)-set constants of F and of sampled P(f).

    audit="full" maximises over every center; "probe" uses a deterministic
    center subsample and a handful of curves (recorded in the result).
    """
    n, M = conf.n_curves, conf.M
    if audit == "auto":
        audit = "full" if (n <= AUDIT_FULL_CURVES and M <= AUDIT_FULL_COLUMNS) else "probe"
    max_centers = None if audit == "full" else AUDIT_PROBE_CENTERS
    images = conf.family.embedding_images()
    fam_set = DiscretePointSet(images, conf.delta_exp)
    fam_rep = delta_set_constant(fam_set, conf.t, max_centers=max_centers)
    if audit == "full":
        curve_ids = range(n)
    else:
        curve_ids = np.linspace(0, n - 1, min(n, AUDIT_PROBE_CURVES)).astype(int)
    worst_pf = 0.0
    k = conf.delta_exp
    for i in curve_ids:
        pts = np.stack(
            [centers_of(conf.col_idx[i], k), centers_of(conf.iy[i], k)], axis=1
        )
        rep = delta_set_constant(DiscretePointSet(pts, k), conf.s, max_centers=max_centers)
        worst_pf = max(worst_pf, rep.best_constant)
    return {
        "audit": audit,
        "family_constant": fam_rep.best_constant,
        "worst_square_set_constant": worst_pf,
    }


def build_nice_configuration(
    kind: str,
    delta_exp: int,
    s: float,
    t: float,
    T: int,
    seed: int,
    seed_curve=None,
    correlated: bool = False,
    audit: str = "auto",
    grid_n: int | None = None,
) -> NiceConfiguration:
    """Generate a nice configuration from random uniform parameter trees.

    The family comes from a 2-D (delta, t)-tree in the parameter plane
    (slope/intercept resp. translation center), mapped to curves on
    [-2, 2]; each curve's squares sit on an independent 1-D (delta, s)-tree
    of x-columns (``correlated=True`` shares one column set across curves,
    a stress mode that shrinks |P|).  Raises if the mapped family fails the
    declared transversality bound.
    """
    if not (0 <= s <= 1):
        raise ParameterError(f"s must lie in [0, 1], got {s}")
    if not (0 <= t <= 2):
        raise ParameterError(f"t must lie in [0, 2], got {t}")
    rng = np.random.default_rng(seed)
    param_idx = generate_delta_set_indices(delta_exp, t, T, rng, dim=2, batch=1)[0]
    a = centers_of(param_idx[:, 0], delta_exp)
    b = centers_of(param_idx[:, 1], delta_exp)
    family = _make_family(
        kind, a, b, seed_curve, grid_n=DEFAULT_GRID_N if grid_n is None else grid_n
    )
    t_bound = family.t_bound()
    _check_transversality(family, t_bound)

    n = len(family)
    if correlated:
        cols_one = generate_delta_set_indices(delta_exp, s, T, rng, dim=1, batch=1)[0][:, 0]
        col_idx = np.tile(cols_one, (n, 1))
    else:
        col_idx = generate_delta_set_indices(delta_exp, s, T, rng, dim=1, batch=n)[..., 0]
    values = family.evaluate(centers_of(col_idx, delta_exp))
    iy = np.floor(np.ldexp(values, delta_exp)).astype(np.int64)
    conf = NiceConfiguration(
        family=family,
        kind=kind,
        delta_exp=delta_exp,
        s=s,
        t=t,
        T=T,
        seed=seed,
        col_idx=col_idx,
        iy=iy,
    )
    conf.measured = _audit_constants(conf, audit)
    return conf


def _check_transversality(family: TransversalFamily, t_bound: float, probe: int = 512) -> None:
    """Check the estimated T against the declared bound, on the whole family
    up to ``probe`` curves and on an even-stride probe of that many above."""
    n = len(family)
    if n < 2:
        return
    sub = family if n <= probe else family.subfamily(np.linspace(0, n - 1, probe).astype(int))
    est = sub.t_const
    if est > t_bound * (1 + 1e-9):
        raise DomainError(
            f"parameter set maps to a non-transversal family: estimated T {est} "
            f"on {len(sub)} of {n} curves exceeds the declared bound {t_bound}"
        )


def build_parallel_translate_configuration(
    delta_exp: int,
    s: float,
    T: int,
    seed: int,
    kind: str = "parabola",
) -> NiceConfiguration:
    """Katz-Tao style generator: ~delta^-s equispaced vertical translates.

    The translate spacing delta^s makes the family a Katz-Tao (delta, s)-set
    with constant O(1); differences are constant, so the transversality
    constant is exactly 1.
    """
    if kind not in ("affine", "parabola"):
        raise ParameterError("parallel generator supports affine | parabola")
    count = int(round(2.0 ** (s * delta_exp)))
    rng = np.random.default_rng(seed)
    b = (np.arange(count) + 0.5) / count
    a = np.full(count, 0.5)
    family = _make_family(kind, a, b, declared_t_const=1.0)
    col_idx = generate_delta_set_indices(delta_exp, s, T, rng, dim=1, batch=count)[..., 0]
    values = family.evaluate(centers_of(col_idx, delta_exp))
    iy = np.floor(np.ldexp(values, delta_exp)).astype(np.int64)
    conf = NiceConfiguration(
        family=family, kind=kind, delta_exp=delta_exp, s=s, t=s, T=T, seed=seed,
        col_idx=col_idx, iy=iy,
    )
    conf.measured = _audit_constants(conf, "auto")
    return conf


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NiceReport:
    passed: bool
    failures: tuple[str, ...]
    min_separation: float
    measured: dict


def verify_nice(conf: NiceConfiguration, samples: int = 9, max_curves: int | None = None) -> NiceReport:
    """Re-check all nice-configuration invariants.

    Graph intersection is tested by sampling each curve at ``samples``
    points across the square's x-range and requiring some sample to land in
    the square's half-open y-interval.  Curves are all checked unless
    ``max_curves`` caps the sweep (deterministic stride).
    """
    failures: list[str] = []
    n, M = conf.n_curves, conf.M
    if conf.col_idx.shape != conf.iy.shape:
        failures.append("square index arrays are ragged")
    cols_sorted = np.sort(conf.col_idx, axis=1)
    dup = np.any(cols_sorted[:, 1:] == cols_sorted[:, :-1], axis=1)
    if np.any(dup):
        failures.append(f"curve {int(np.argmax(dup))}: |P(f)| != M (duplicate columns)")
    k = conf.delta_exp
    dl = side_of(k)
    curve_ids = np.arange(n)
    if max_curves is not None and n > max_curves:
        curve_ids = np.linspace(0, n - 1, max_curves).astype(int)
    offs = (np.arange(samples) + 0.5) / samples * dl
    xs = (centers_of(conf.col_idx[curve_ids], k) - 0.5 * dl)[..., None] + offs
    vals = conf.family.subfamily(curve_ids).evaluate(xs)
    iy_hit = np.floor(np.ldexp(vals, k)).astype(np.int64)
    missed = ~np.any(iy_hit == conf.iy[curve_ids][..., None], axis=2)
    if np.any(missed):
        c, j = np.argwhere(missed)[0]
        i = curve_ids[c]
        failures.append(
            f"square (ix={conf.col_idx[i][j]}, iy={conf.iy[i][j]}) misses the graph of curve {i}"
        )
    min_sep = conf.family.min_pair_distance() if n >= 2 else math.inf
    if min_sep < dl:
        failures.append(f"family not delta-separated: min distance {min_sep} < {dl}")
    return NiceReport(
        passed=not failures,
        failures=tuple(failures),
        min_separation=min_sep,
        measured=dict(conf.measured),
    )


# --------------------------------------------------------------------------
# Furstenberg experiment
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentResult:
    kind: str
    delta_exp: int
    s: float
    t: float
    T: int
    seed: int
    F_size: int
    M: int
    P_size: int
    bound: float
    eta_emp: float

    #: the field names in order, so ``dataclasses.astuple`` gives a CSV row
    CSV_HEADER = "kind,delta_exp,s,t,T,seed,F_size,M,P_size,bound,eta_emp"


def three_way_bound(delta_exp: int, s: float, t: float, M: int) -> float:
    """min{delta^-t, delta^-(s+t)/2, delta^-1} * M."""
    k = delta_exp
    exponent = min(t * k, (s + t) / 2.0 * k, float(k))
    return 2.0 ** exponent * M


def furstenberg_experiment(conf: NiceConfiguration, t: float | None = None) -> ExperimentResult:
    """Count |P| exactly and report the empirical exponent deficit.

    eta_emp = log_delta(|P| / bound) clamped at zero: zero means the
    configuration meets the three-way bound outright; positive values
    measure the shortfall in delta-exponents.
    """
    t_used = conf.t if t is None else t
    P = conf.union_square_count()
    bound = three_way_bound(conf.delta_exp, conf.s, t_used, conf.M)
    eta = max(0.0, math.log2(bound / P) / conf.delta_exp)
    return ExperimentResult(
        kind=conf.kind,
        delta_exp=conf.delta_exp,
        s=conf.s,
        t=t_used,
        T=conf.T,
        seed=conf.seed,
        F_size=conf.n_curves,
        M=conf.M,
        P_size=P,
        bound=bound,
        eta_emp=eta,
    )


# --------------------------------------------------------------------------
# Endpoint corollary checks
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EndpointReport:
    """Both endpoint ratios with their measured epsilon slack.

    dense_ratio = |P| / (delta^-1 M) targets the dense regime (family a
    (delta, 2-s)-set); kt_ratio = |P| / (|F| M) targets the Katz-Tao
    regime.  eps_* = log_delta(ratio): the exponent epsilon with ratio =
    delta^eps (smaller is better; 0 means the bound is met exactly).
    """

    delta_exp: int
    s: float
    P_size: int
    F_size: int
    M: int
    dense_ratio: float
    kt_ratio: float
    eps_dense: float
    eps_kt: float
    family_delta_set_c: float
    family_katz_tao_c: float


def endpoint_checks(conf: NiceConfiguration, max_centers: int | None = 256) -> EndpointReport:
    """Measure both endpoint-regime constants and ratios for one configuration."""
    P = conf.union_square_count()
    n, M, k = conf.n_curves, conf.M, conf.delta_exp
    dense_ratio = P / (2.0 ** k * M)
    kt_ratio = P / (n * M)
    images = conf.family.embedding_images()
    fam_set = DiscretePointSet(images, k)
    c_dense = delta_set_constant(fam_set, min(2.0 - conf.s, 2.0), max_centers=max_centers)
    c_kt = katz_tao_constant(fam_set, conf.s, max_centers=max_centers)

    def eps_of(ratio: float) -> float:
        return math.log2(1.0 / ratio) / k if ratio > 0 else math.inf

    return EndpointReport(
        delta_exp=k,
        s=conf.s,
        P_size=P,
        F_size=n,
        M=M,
        dense_ratio=dense_ratio,
        kt_ratio=kt_ratio,
        eps_dense=eps_of(dense_ratio),
        eps_kt=eps_of(kt_ratio),
        family_delta_set_c=c_dense.best_constant,
        family_katz_tao_c=c_kt.best_constant,
    )


# --------------------------------------------------------------------------
# Semi-well-spaced spacing conditions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SpacingReport:
    """Worst-case ratios of the two-regime spacing conditions.

    high_ratio = max over f and dyadic r in [Delta, 1] of
    |F n B(f,r)| / (r^(2-s) |F|); low_ratio = max over f and dyadic r in
    [delta, Delta] of |F n B(f,r)| / (r/delta)^s.  ``slack`` records the
    theoretical delta^(-eps^2) factor; the pass flags compare against the
    explicit desk-scale budget ``tolerance`` (default 64), since at
    desk scales the asymptotic slack is smaller than the geometric
    constants it is meant to absorb.
    """

    delta_exp: int
    Delta_exp: int
    s: float
    eps: float
    high_ratio: float
    low_ratio: float
    tolerance: float = 64.0

    @property
    def slack(self) -> float:
        return 2.0 ** (self.eps ** 2 * self.delta_exp)

    @property
    def high_ok(self) -> bool:
        return self.high_ratio <= max(self.tolerance, self.slack)

    @property
    def low_ok(self) -> bool:
        return self.low_ratio <= max(self.tolerance, self.slack)


def semi_well_spaced_check(
    family: TransversalFamily,
    delta_exp: int,
    Delta_exp: int,
    s: float,
    eps: float,
    tolerance: float = 64.0,
) -> SpacingReport:
    """Evaluate both spacing conditions over dyadic radii on each side of Delta."""
    if not (0 <= Delta_exp <= delta_exp):
        raise ParameterError(f"need 0 <= Delta_exp <= delta_exp, got {Delta_exp}, {delta_exp}")
    n = len(family)
    dl = side_of(delta_exp)
    high_ratio = 0.0
    low_ratio = 0.0
    if n == 1:
        return SpacingReport(delta_exp, Delta_exp, s, eps, 1.0, 1.0, tolerance)
    dists = family_distance_matrix(family)
    for l in range(0, delta_exp + 1):
        r = side_of(l)
        counts = np.sum(dists <= r, axis=1)  # includes self
        cmax = float(counts.max())
        if l <= Delta_exp:
            high_ratio = max(high_ratio, cmax / (r ** (2.0 - s) * n))
        if l >= Delta_exp:
            low_ratio = max(low_ratio, cmax / (r / dl) ** s)
    return SpacingReport(delta_exp, Delta_exp, s, eps, high_ratio, low_ratio, tolerance)


def build_semi_well_spaced_family(
    delta_exp: int,
    Delta_exp: int,
    s: float,
    seed: int,
    kind: str = "parabola",
) -> TransversalFamily:
    """Product construction: (2-s)-dimensional cells above Delta, vertical
    delta-separated lines below.

    Chooses ~Delta^-(2-s) parameter cells at scale Delta and fills each
    with round((Delta/delta)^s) vertically equispaced centers, matching the
    crossover choice Delta = (delta^s |F|)^(1/(2s-2)) up to dyadic rounding.
    """
    rng = np.random.default_rng(seed)
    cells = generate_delta_set_indices(Delta_exp, 2.0 - s, Delta_exp, rng, dim=2, batch=1)[0]
    Delta = side_of(Delta_exp)
    per_cell = max(1, int(round((Delta / side_of(delta_exp)) ** s)))
    a = np.repeat(centers_of(cells[:, 0], Delta_exp), per_cell)
    b_lo = np.repeat(np.ldexp(cells[:, 1].astype(float), -Delta_exp), per_cell)
    offs = np.tile((np.arange(per_cell) + 0.5) * Delta / per_cell, len(cells))
    b = b_lo + offs
    return _make_family(kind, a, b)


# --------------------------------------------------------------------------
# Multiplicity-count bound (a, b sweep)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class MainlemReport:
    a: int
    b: int
    P_ab_size: int
    pre_filter_size: int   # squares passing the N_{Delta,b} >= a test alone
    bound: float
    hypotheses_met: bool
    hypothesis_detail: dict
    violation: bool


#: the largest mainlem run accepted, in (curve, column) pairs for the
#: incidence kernel and in entries of the (square, cube) count table: at
#: 2^26 pairs (delta = 2^-10, Delta = 2^-4) a run peaks near 2 GB
MAINLEM_MAX_CELLS = 1 << 26


def _default_branching(Delta_exp: int) -> tuple[int, ...]:
    wide = min(2, Delta_exp - 1)
    return tuple([4] * wide + [1] * (Delta_exp - 1 - wide) + [1])


def check_mainlem_size(delta_exp: int, Delta_exp: int) -> tuple[int, int, int]:
    """(|F|, grid squares, family cubes) of a default mainlem run, checked
    against MAINLEM_MAX_CELLS before anything is allocated."""
    if not 1 <= Delta_exp <= delta_exp:
        raise ParameterError(f"need 1 <= Delta_exp <= delta_exp, got {Delta_exp} and {delta_exp}")
    n_cubes = math.prod(_default_branching(Delta_exp))
    n_curves = n_cubes << 2 * (delta_exp - Delta_exp)
    n_squares = 1 << 2 * delta_exp
    for what, cells in (("curve-column pairs", n_curves << delta_exp),
                        ("count-table entries", n_squares * n_cubes)):
        if cells > MAINLEM_MAX_CELLS:
            raise ParameterError(
                f"mainlem at delta=2^-{delta_exp}, Delta=2^-{Delta_exp} needs {cells} {what}; "
                f"the limit is {MAINLEM_MAX_CELLS}"
            )
    return n_curves, n_squares, n_cubes


def build_uniform_line_family(
    delta_exp: int,
    Delta_exp: int,
    seed: int,
    branching: tuple[int, ...] | None = None,
) -> TransversalFamily:
    """An exactly uniform line family whose Delta-cubes are Delta-separated.

    Parameter cells are chosen level by level with fixed branching; the
    final level always keeps the single even-indexed child, which forces a
    gap of at least Delta between distinct Delta-cells.  Each chosen
    Delta-cell is filled with the full delta-grid of parameters.
    """
    if branching is None:
        branching = _default_branching(Delta_exp)
    if len(branching) != Delta_exp:
        raise ParameterError(f"need one branching factor per level, got {len(branching)} for {Delta_exp}")
    if branching[-1] != 1:
        raise ParameterError("last branching factor must be 1 (even-child separation)")
    rng = np.random.default_rng(seed)
    cells = np.zeros((1, 2), dtype=np.int64)
    for level, c in enumerate(branching, start=1):
        if not (1 <= c <= 4):
            raise ParameterError(f"branching factors must lie in [1, 4], got {c}")
        children = []
        for cell in cells:
            if level == Delta_exp:
                offs = np.array([[0, 0]], dtype=np.int64)
            else:
                pick = rng.permutation(4)[:c]
                offs = np.stack([pick >> 1, pick & 1], axis=1).astype(np.int64)
            children.append((cell[None, :] << 1) + offs)
        cells = np.concatenate(children)
    # fill each Delta-cell with the full delta-grid
    fill = delta_exp - Delta_exp
    side = 1 << fill
    gx, gy = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    sub = np.stack([gx.ravel(), gy.ravel()], axis=1).astype(np.int64)
    full = (cells[:, None, :] << fill) + sub[None, :, :]
    full = full.reshape(-1, 2)
    a = centers_of(full[:, 0], delta_exp)
    b = centers_of(full[:, 1], delta_exp)
    return _make_family("affine", a, b)


class MainlemEvaluator:
    """Shared counting state for a full (a, b) sweep at fixed scales."""

    def __init__(
        self,
        family: TransversalFamily,
        delta_exp: int,
        Delta_exp: int,
        eps: float,
        lam: float = 2.0,
    ):
        inv = 1.0 / eps
        if abs(inv - round(inv)) > 1e-9:
            raise ParameterError(f"eps must be the reciprocal of an integer, got {eps}")
        self.n_levels = int(round(inv))
        step = Delta_exp * eps
        if abs(step - round(step)) > 1e-9:
            raise ParameterError(
                f"Delta^(k*eps) must be dyadic: Delta_exp*eps = {step} is not an integer"
            )
        self.level_step = int(round(step))
        check_lambda_delta(lam, side_of(delta_exp))
        self.family = family
        self.delta_exp = delta_exp
        self.Delta_exp = Delta_exp
        self.eps = eps
        self.lam = lam
        self.squares = SquareFamily.grid(delta_exp)
        self.counts, self.cube_ids = cube_incidence_counts(
            family, self.squares, Delta_exp, lam
        )
        self.hyp_i_mask = self._hypothesis_i_mask()
        self.cube_separated = self._cube_separation()

    def _cube_separation(self) -> bool:
        ids = self.cube_ids
        if len(ids) < 2:
            return True
        gap_x = np.abs(ids[:, 0][:, None] - ids[:, 0][None, :])
        gap_y = np.abs(ids[:, 1][:, None] - ids[:, 1][None, :])
        cheb = np.maximum(gap_x, gap_y)
        np.fill_diagonal(cheb, 2)
        return bool(np.all(cheb >= 2))

    def _hypothesis_i_mask(self) -> np.ndarray:
        """Per delta-square: does the 6p^rho crowding bound hold at every rho?"""
        ok = np.ones(len(self.squares), dtype=bool)
        for k_lvl in range(1, self.n_levels + 1):
            level = k_lvl * self.level_step
            rho = side_of(level)
            coarse = SquareFamily.grid(level)
            counts_r, _ = cube_incidence_counts(self.family, coarse, level, 6.0)
            n_cubes_r = counts_r.shape[1]
            touched = np.sum(counts_r >= 1, axis=1)
            budget = 2.0 ** (self.eps * self.Delta_exp) * rho * n_cubes_r
            ok_coarse = touched <= budget
            # map each delta-square to its level-rho ancestor
            shift = self.delta_exp - level
            anc_ix = self.squares.ix >> shift
            anc_iy = self.squares.iy >> shift
            span = int(coarse.iy.max()) + 1
            key_coarse = coarse.ix * span + coarse.iy
            order = np.argsort(key_coarse)
            pos = np.searchsorted(key_coarse[order], anc_ix * span + anc_iy)
            ok &= ok_coarse[order[np.clip(pos, 0, len(order) - 1)]]
        return ok

    def report(self, a: int, b: int) -> MainlemReport:
        n_big = np.sum(self.counts >= b, axis=1)
        pre = n_big >= a
        mask = pre & self.hyp_i_mask
        size = int(np.sum(mask))
        n = len(self.family)
        bound = 2.0 ** (10.0 * self.eps * self.delta_exp) * n * n / (a ** 3 * b ** 2)
        detail = {
            "a_ge_2": a >= 2,
            "b_ge_1": b >= 1,
            "ab_large": a * b >= 2.0 ** (-(1 - 2 * self.eps) * self.delta_exp) * n,
            "cubes_separated": self.cube_separated,
        }
        met = all(detail.values())
        return MainlemReport(
            a=a, b=b, P_ab_size=size, pre_filter_size=int(np.sum(pre)), bound=bound,
            hypotheses_met=met, hypothesis_detail=detail,
            violation=bool(met and size > bound),
        )

    def sweep(self) -> list[MainlemReport]:
        """All dyadic (a, b) with a >= 2 up to the realised maxima."""
        max_nb = int(np.max(np.sum(self.counts >= 1, axis=1))) if len(self.counts) else 0
        max_b = int(self.counts.max()) if self.counts.size else 0
        reports = []
        a = 2
        while a <= max(2, max_nb):
            b = 1
            while b <= max(1, max_b):
                reports.append(self.report(a, b))
                b *= 2
            a *= 2
        return reports


def mainlem_experiment(
    family: TransversalFamily,
    delta_exp: int,
    Delta_exp: int,
    eps: float,
    a: int,
    b: int,
    lam: float = 2.0,
) -> MainlemReport:
    """One (a, b) evaluation of the multiplicity-count bound.

    P_{a,b} collects the delta-squares of [0,1]^2 where hypothesis (i)
    holds and at least a family Delta-cubes contribute >= b incident
    curves; when the arithmetic hypotheses hold as well, its size is
    compared against delta^(-10 eps) |F|^2 / (a^3 b^2).
    """
    ev = MainlemEvaluator(family, delta_exp, Delta_exp, eps, lam)
    return ev.report(a, b)
