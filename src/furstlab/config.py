"""Nice-configuration construction and the discretized counting experiments.

A (delta, s, C, M)-nice configuration is a delta-separated transversal
family where every curve carries exactly M dyadic delta-squares meeting
its graph, each per-curve square set being a (delta, s)-set.  Generators
here build such configurations from random uniform trees in the parameter
plane (slope/intercept for lines, translation centers for convex
translates), attach per-curve column sets, and measure the actual
set-class constants of everything they emit when those are first read.

Experiments evaluate the paper-style counting inequalities at desk scale:
the three-way Furstenberg lower bound, its two endpoint regimes, and the
a/b multiplicity bound for squares charged by many cubes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dyadic import (
    MAX_TREE_CELLS,
    DiscretePointSet,
    SquareFamily,
    _distinct_square_count,
    cell_indices,
    centers_of,
    delta_set_constant,
    generate_delta_set_indices,
    katz_tao_constant,
    side_of,
)
from .family import DEFAULT_GRID_N, DomainError, TransversalFamily
from .famspace import family_cubes
from .incidence import STEP_BUDGET, check_lambda_delta, cube_incidence_counts

WORK_INTERVAL = (-2.0, 2.0)

#: the parabola kind's members are translates of 0.5*x^2
PARABOLA_LEAD = 0.5


def _make_family(
    kind: str,
    a: np.ndarray,
    b: np.ndarray,
    seed_curve=None,
    grid_n: int = DEFAULT_GRID_N,
) -> TransversalFamily:
    """Map parameter-plane points to a family on the working interval.

    Values over the column range [0, 1) land in [-1, 1) for the built-in
    kinds (intercepts are shifted down by 1), so the attached squares stay
    inside [-1, 1]^2.
    """
    return TransversalFamily(
        kind, a, b - 1.0, WORK_INTERVAL, lead=PARABOLA_LEAD, seed=seed_curve, grid_n=grid_n
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
    audit: str = "auto"       # how ``measured`` audits: one of AUDIT_MODES

    def __post_init__(self):
        if self.audit not in AUDIT_MODES:
            raise DomainError(f"unknown audit mode {self.audit!r}; expected one of {AUDIT_MODES}")

    @property
    def M(self) -> int:
        return self.col_idx.shape[1]

    @property
    def n_curves(self) -> int:
        return len(self.family)

    @cached_property
    def measured(self) -> dict:
        """The configuration's set-class constants, audited on first read."""
        return _audit_constants(self, self.audit)

    def union_square_count(self) -> int:
        """|P| = number of distinct squares across all per-curve sets."""
        return _distinct_square_count(self.col_idx.ravel(), self.iy.ravel())

    def union_squares(self) -> SquareFamily:
        return SquareFamily(self.delta_exp, self.col_idx.ravel(), self.iy.ravel())


AUDIT_MODES = ("auto", "full", "probe")
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
    a stress mode that shrinks |P|).  No kind's build compares members:
    coincident ones are refused where a pairwise quantity reads them
    (``t_const``, ``high_low_reports``).  ``audit`` (one of
    AUDIT_MODES) is how ``measured`` audits the result on its first read.
    """
    if not (0 <= s <= 1):
        raise DomainError(f"s must lie in [0, 1], got {s}")
    if not (0 <= t <= 2):
        raise DomainError(f"t must lie in [0, 2], got {t}")
    rng = np.random.default_rng(seed)
    param_idx = generate_delta_set_indices(delta_exp, t, T, rng, dim=2, batch=1)[0]
    a = centers_of(param_idx[:, 0], delta_exp)
    b = centers_of(param_idx[:, 1], delta_exp)
    family = _make_family(
        kind, a, b, seed_curve, grid_n=DEFAULT_GRID_N if grid_n is None else grid_n
    )
    return _attach_squares(family, kind, delta_exp, s, t, T, seed, rng, audit, correlated)


def _attach_squares(
    family: TransversalFamily,
    kind: str,
    delta_exp: int,
    s: float,
    t: float,
    T: int,
    seed: int,
    rng: np.random.Generator,
    audit: str,
    correlated: bool = False,
) -> NiceConfiguration:
    """Give each curve the squares it crosses over a (delta, s)-tree of
    columns drawn from ``rng`` (one tree shared by all curves when
    ``correlated``); ``audit`` is how its set constants are measured when read."""
    n = len(family)
    if correlated:
        cols_one = generate_delta_set_indices(delta_exp, s, T, rng, dim=1, batch=1)[0][:, 0]
        # the random layout's limit, on the (n, M) array the tiling would build
        if n * len(cols_one) > MAX_TREE_CELLS:
            raise DomainError(
                f"{n} curves on {len(cols_one)} shared columns at delta=2^-{delta_exp} "
                f"exceed the limit of {MAX_TREE_CELLS} cells"
            )
        col_idx = np.tile(cols_one, (n, 1))
    else:
        col_idx = generate_delta_set_indices(delta_exp, s, T, rng, dim=1, batch=n)[..., 0]
    # a block of curves at a time, about STEP_BUDGET values each, so no
    # (n, M) array of x or f(x) is made
    iy = np.empty_like(col_idx)
    rows = max(1, STEP_BUDGET // col_idx.shape[1])
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        values = family.subfamily(slice(r0, r1)).evaluate(centers_of(col_idx[r0:r1], delta_exp))
        iy[r0:r1] = cell_indices(values, delta_exp)
    return NiceConfiguration(
        family=family, kind=kind, delta_exp=delta_exp, s=s, t=t, T=T, seed=seed,
        col_idx=col_idx, iy=iy, audit=audit,
    )


def build_parallel_translate_configuration(
    delta_exp: int,
    s: float,
    T: int,
    seed: int,
) -> NiceConfiguration:
    """Katz-Tao style generator: ~delta^-s equispaced vertical translates of
    the parabola.

    The translate spacing delta^s makes the family a Katz-Tao (delta, s)-set
    with constant O(1); differences are constant, so the transversality
    constant is exactly 1.
    """
    count = int(round(2.0 ** (s * delta_exp)))
    rng = np.random.default_rng(seed)
    b = (np.arange(count) + 0.5) / count
    a = np.full(count, 0.5)
    family = _make_family("parabola", a, b)
    return _attach_squares(family, "parabola", delta_exp, s=s, t=s, T=T, seed=seed, rng=rng, audit="auto")


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


def furstenberg_experiment(conf: NiceConfiguration) -> ExperimentResult:
    """Count |P| exactly and report the empirical exponent deficit.

    eta_emp = log_delta(|P| / bound) clamped at zero: zero means the
    configuration meets the three-way bound outright; positive values
    measure the shortfall in delta-exponents.
    """
    P = conf.union_square_count()
    bound = three_way_bound(conf.delta_exp, conf.s, conf.t, conf.M)
    eta = max(0.0, math.log2(bound / P) / conf.delta_exp)
    return ExperimentResult(
        kind=conf.kind,
        delta_exp=conf.delta_exp,
        s=conf.s,
        t=conf.t,
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
    """Both endpoint ratios with the family's set constants.

    dense_ratio = |P| / (delta^-1 M) targets the dense regime (family a
    (delta, 2-s)-set); kt_ratio = |P| / (|F| M) targets the Katz-Tao
    regime.
    """

    delta_exp: int
    s: float
    P_size: int
    F_size: int
    M: int
    dense_ratio: float
    kt_ratio: float
    family_delta_set_c: float
    family_katz_tao_c: float


def endpoint_checks(conf: NiceConfiguration) -> EndpointReport:
    """Measure both endpoint-regime constants and ratios for one configuration.

    The family's constants are maximised over a probe of 256 centers.
    """
    P = conf.union_square_count()
    n, M, k = conf.n_curves, conf.M, conf.delta_exp
    dense_ratio = P / (2.0 ** k * M)
    kt_ratio = P / (n * M)
    images = conf.family.embedding_images()
    fam_set = DiscretePointSet(images, k)
    c_dense = delta_set_constant(fam_set, min(2.0 - conf.s, 2.0), max_centers=256)
    c_kt = katz_tao_constant(fam_set, conf.s, max_centers=256)

    return EndpointReport(
        delta_exp=k,
        s=conf.s,
        P_size=P,
        F_size=n,
        M=M,
        dense_ratio=dense_ratio,
        kt_ratio=kt_ratio,
        family_delta_set_c=c_dense.best_constant,
        family_katz_tao_c=c_kt.best_constant,
    )


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


#: the largest estimated mainlem peak accepted, in bytes
MAINLEM_MAX_BYTES = 5 << 29

#: bytes held at once, per unit, rounded up so that tracemalloc peaks from
#: delta = 2^-5 to 2^-12 at Delta = 2^-4, and from 2^-9 to 2^-12 at
#: Delta = 2^-8, reach at most 0.9 of the estimate (they reach 0.07 to 0.82
#: of it, the most at delta = 2^-10, Delta = 2^-8, where the squares' bytes
#: are 95% of it): a grid square's indices, kept search key and count column,
#: and the fold's and the hypothesis-(i) mask's temporaries; an int32 n_big
#: level per square; a curve's parameters, cells and cube order; a kernel
#: step's buffers and temporaries
MAINLEM_BYTES_PER = {"square": 64, "level": 4, "curve": 128, "step": 64 * STEP_BUDGET}


def _default_branching(Delta_exp: int) -> tuple[int, ...]:
    wide = min(2, Delta_exp - 1)
    return tuple([4] * wide + [1] * (Delta_exp - 1 - wide) + [1])


def check_mainlem_scales(delta_exp: int, Delta_exp: int) -> None:
    """The rule on the main lemma's scales: integers 1 <= Delta_exp <= delta_exp."""
    if not (hasattr(delta_exp, "__index__") and hasattr(Delta_exp, "__index__")
            and 1 <= Delta_exp <= delta_exp):
        raise DomainError(
            f"need 1 <= Delta_exp <= delta_exp, both integers, got {Delta_exp!r} and {delta_exp!r}"
        )


def check_mainlem_size(delta_exp: int, Delta_exp: int) -> tuple[int, int, int, int]:
    """(|F|, grid squares, family cubes, estimated peak bytes) of a default
    mainlem run, checked against MAINLEM_MAX_BYTES before anything is allocated.

    The grid, its kept search keys and n_big (one level per bit of a cube's
    curve count) stay; one cube's per-square counts come and go in turn, in
    both passes, and the hypothesis-(i) pass's coarse grids are smaller.
    """
    check_mainlem_scales(delta_exp, Delta_exp)
    n_cubes = math.prod(_default_branching(Delta_exp))
    cube_curves = 1 << 2 * (delta_exp - Delta_exp)
    n_curves = n_cubes * cube_curves
    n_squares = 1 << 2 * delta_exp
    per = MAINLEM_BYTES_PER
    n_bytes = (n_squares * (per["square"] + per["level"] * cube_curves.bit_length())
               + n_curves * per["curve"] + per["step"])
    if n_bytes > MAINLEM_MAX_BYTES:
        raise DomainError(
            f"mainlem at delta=2^-{delta_exp}, Delta=2^-{Delta_exp} needs an estimated "
            f"{n_bytes / 1e9:.2f} GB; the limit is {MAINLEM_MAX_BYTES / 1e9:.2f} GB"
        )
    return n_curves, n_squares, n_cubes, n_bytes


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
    check_mainlem_scales(delta_exp, Delta_exp)
    if branching is None:
        branching = _default_branching(Delta_exp)
    if len(branching) != Delta_exp:
        raise DomainError(f"need one branching factor per level, got {len(branching)} for {Delta_exp}")
    if branching[-1] != 1:
        raise DomainError("last branching factor must be 1 (even-child separation)")
    rng = np.random.default_rng(seed)
    cells = np.zeros((1, 2), dtype=np.int64)
    for level, c in enumerate(branching, start=1):
        if not (1 <= c <= 4):
            raise DomainError(f"branching factors must lie in [1, 4], got {c}")
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


def check_mainlem_eps(Delta_exp: int, eps: float) -> tuple[int, int]:
    """The rule on the main lemma's eps: (1/eps, Delta_exp * eps), the count
    of crowding levels and the level step, both integers."""
    if not 0 < eps <= 1:
        raise DomainError(f"eps must be in (0, 1], got {eps}")
    inv = 1.0 / eps
    if abs(inv - round(inv)) > 1e-9:
        raise DomainError(f"eps must be the reciprocal of an integer, got {eps}")
    step = Delta_exp * eps
    if abs(step - round(step)) > 1e-9:
        raise DomainError(
            f"Delta^(k*eps) must be dyadic: Delta_exp*eps = {step} is not an integer"
        )
    return int(round(inv)), int(round(step))


def _cube_levels(family: TransversalFamily, squares: SquareFamily, level: int,
                 lam: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """(cube_ids, n_big): the family's level cubes, and the int32 counts
    n_big[j][p] = #cubes with at least 2^j curves incident to square p, one
    level per bit of the largest.  Each cube's column of
    ``cube_incidence_counts``, run on its curves alone, is folded in and
    dropped in turn, so no squares x cubes table is made."""
    cube_ids, members = family_cubes(family, level)
    n_big: list[np.ndarray] = []
    for curves in members:
        counts, _ = cube_incidence_counts(family.subfamily(curves), squares, level, lam)
        # only the squares the cube's curves touched change a level
        hit = np.flatnonzero(counts[:, 0])
        c = counts[hit, 0]
        del counts  # not held through the next cube's kernel call
        top = int(c.max()) if len(c) else 0
        for j in range(top.bit_length()):
            if j == len(n_big):
                n_big.append(np.zeros(len(squares), dtype=np.int32))
            n_big[j][hit] += c >= 1 << j
    return cube_ids, n_big


class MainlemEvaluator:
    """Shared counting state for a full (a, b) sweep at fixed scales.

    The N_{Delta,b} counts are n_big[j][p] = #Delta-cubes meeting square p in
    at least 2^j curves, and hypothesis (i) reads the cubes meeting each
    coarse rho-square: both come from ``_cube_levels``' streamed fold.
    """

    def __init__(
        self,
        family: TransversalFamily,
        delta_exp: int,
        Delta_exp: int,
        eps: float,
        lam: float = 2.0,
    ):
        check_mainlem_scales(delta_exp, Delta_exp)
        self.n_levels, self.level_step = check_mainlem_eps(Delta_exp, eps)
        check_lambda_delta(lam, side_of(delta_exp))
        self.family = family
        self.delta_exp = delta_exp
        self.Delta_exp = Delta_exp
        self.eps = eps
        self.lam = lam
        self.squares = SquareFamily.grid(delta_exp)
        #: n_big[j]: per square, the int32 count of cubes with >= 2^j incident curves
        self.cube_ids, self.n_big = _cube_levels(family, self.squares, Delta_exp, lam)
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
            cube_ids, n_big = _cube_levels(self.family, coarse, level, 6.0)
            touched = n_big[0] if n_big else np.zeros(len(coarse), dtype=np.int32)
            budget = 2.0 ** (self.eps * self.Delta_exp) * rho * len(cube_ids)
            ok_coarse = touched <= budget
            # each delta-square's level-rho ancestor, at its place in the
            # ix-major grid over [0, 2^level)^2
            shift = self.delta_exp - level
            ok &= ok_coarse[(self.squares.ix >> shift << level) + (self.squares.iy >> shift)]
        return ok

    def report(self, a: int, b: int) -> MainlemReport:
        """The (a, b) cell: a an integer >= 1, b a power of two (the only b n_big keeps)."""
        if not (hasattr(a, "__index__") and a >= 1 and b >= 1 and math.log2(b).is_integer()):
            raise DomainError(f"need an integer a >= 1 and a power of two b, got a={a!r}, b={b!r}")
        j = int(math.log2(b))
        pre = self.n_big[j] >= a if j < len(self.n_big) else np.zeros(len(self.squares), bool)
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
        max_nb = int(self.n_big[0].max()) if self.n_big else 0
        reports = []
        a = 2
        while a <= max(2, max_nb):
            for j in range(max(1, len(self.n_big))):
                reports.append(self.report(a, 1 << j))
            a *= 2
        return reports
