"""The dyadic system on a transversal family via the planar embedding.

A transversal family embeds into the plane by A(f) = (f(x0), f'(x0)) with
x0 the interval midpoint; the embedding is sqrt(2)*T bi-Lipschitz, so
dyadic squares in the plane pull back to "dyadic cubes" in the family.
This module materialises those cubes, extracts exactly-uniform subsets by
level-wise pigeonholing, and turns the resulting branching counts into
piecewise-linear branching functions whose (super)linearity encodes the
family's dimensionality scale by scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import ParameterError, cell_indices, write_csv
from .family import DomainError, TransversalFamily


# --------------------------------------------------------------------------
# Embedding
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyEmbedding:
    """A(f) = (f(x0), f'(x0)) for every curve, plus the bi-Lipschitz audit.

    max_lower_ratio is the largest |A(f)-A(g)| / ||f-g|| seen (must be
    <= 1), max_upper_ratio the largest ||f-g|| / (sqrt(2) T |A(f)-A(g)|)
    (must be <= 1 + tol).  ``checked_pairs`` records whether the audit ran
    on all pairs or on a deterministic probe.
    """

    x0: float
    images: np.ndarray
    t_est: float
    max_lower_ratio: float
    max_upper_ratio: float
    checked_pairs: str

    BILIP_TOL = 1e-6

    @property
    def ok(self) -> bool:
        return (
            self.max_lower_ratio <= 1.0 + 1e-12
            and self.max_upper_ratio <= 1.0 + self.BILIP_TOL
        )


def embed(family: TransversalFamily, check: str = "auto") -> FamilyEmbedding:
    """Compute the planar embedding and audit the bi-Lipschitz inequality.

    check: "all" forces the full pairwise audit, "probe" audits a
    deterministic subsample, "none" skips it, "auto" audits all pairs for
    families of at most 1024 curves and probes otherwise.  A violated
    invariant raises, naming the pair: it signals a bad T estimate.
    """
    images = family.embedding_images()
    x0 = family.midpoint_x()
    n = len(family)
    if check == "auto":
        check = "all" if n <= 1024 else "probe"
    if check == "none" or n < 2:
        return FamilyEmbedding(x0, images, family.t_bound(), 0.0, 0.0, "none")

    t_est = family.t_const if family.declared_t_const is None else family.declared_t_const
    max_lower = 0.0
    max_upper = 0.0
    worst_pair = (0, 1)
    if check == "probe":
        sub_n = min(n, 512)
        stride = np.linspace(0, n - 1, sub_n).astype(np.int64)
        subfam = family.subfamily(stride)
        sub_img = images[stride]
        source = subfam
        img = sub_img
    else:
        source = family
        img = images
    for ii, jj, _, dist in source.pairwise_defect_and_dist():
        gap = np.hypot(img[ii, 0] - img[jj, 0], img[ii, 1] - img[jj, 1])
        with np.errstate(divide="ignore", invalid="ignore"):
            lower = np.where(dist > 0, gap / np.where(dist == 0, 1.0, dist), 0.0)
            upper = np.where(gap > 0, dist / (math.sqrt(2.0) * t_est * np.where(gap == 0, 1.0, gap)), np.inf)
        li = int(np.argmax(lower))
        ui = int(np.argmax(upper))
        if lower[li] > max_lower:
            max_lower = float(lower[li])
        if upper[ui] > max_upper:
            max_upper = float(upper[ui])
            worst_pair = (int(ii[ui]), int(jj[ui]))
    emb = FamilyEmbedding(x0, images, t_est, max_lower, max_upper, check)
    if not emb.ok:
        raise DomainError(
            f"bi-Lipschitz audit failed at curve pair {worst_pair}: "
            f"lower ratio {max_lower}, upper ratio {max_upper} "
            f"(T estimate {t_est} is likely too small)"
        )
    return emb


# --------------------------------------------------------------------------
# Dyadic cubes in the family
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyDyadicCube:
    """Pull-back of a planar dyadic square: the curves whose images lie in it."""

    level: int
    ix: int
    iy: int
    members: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)


def family_cell_indices(family: TransversalFamily, level: int) -> np.ndarray:
    """Planar cell indices of A(F) at the given level (may be negative)."""
    return cell_indices(family.embedding_images(), level)


def family_dyadic_cubes(family: TransversalFamily, level: int) -> list[FamilyDyadicCube]:
    """The cubes D_{2^-level}(F): one per occupied planar square, sorted.

    Members are exact preimages: every curve belongs to exactly one cube
    per level (half-open cells).
    """
    idx = family_cell_indices(family, level)
    order = np.lexsort((idx[:, 1], idx[:, 0]))
    cubes: list[FamilyDyadicCube] = []
    cur_key = None
    cur_members: list[int] = []
    for i in order:
        key = (int(idx[i, 0]), int(idx[i, 1]))
        if key != cur_key:
            if cur_key is not None:
                cubes.append(FamilyDyadicCube(level, cur_key[0], cur_key[1], tuple(cur_members)))
            cur_key = key
            cur_members = []
        cur_members.append(int(i))
    if cur_key is not None:
        cubes.append(FamilyDyadicCube(level, cur_key[0], cur_key[1], tuple(cur_members)))
    return cubes


def family_cube_count(family: TransversalFamily, level: int) -> int:
    idx = family_cell_indices(family, level)
    return len(np.unique(idx, axis=0))


def family_distance_matrix(family: TransversalFamily) -> np.ndarray:
    """Full symmetric C2 grid-distance matrix of the family."""
    n = len(family)
    out = np.zeros((n, n))
    for ii, jj, _, dist in family.pairwise_defect_and_dist():
        out[ii, jj] = dist
        out[jj, ii] = dist
    return out


# --------------------------------------------------------------------------
# Uniformization
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformStructure:
    """Bookkeeping of one uniformization run.

    N[j-1] is the common number of level-j cubes inside each level-(j-1)
    cube of the extracted subset, for j = 1..m (levels are multiples of the
    period T).  delta-cell counts before/after witness the (6T)^-m loss
    bound.
    """

    T: int
    m: int
    N: tuple[int, ...]
    delta_cells_before: int
    delta_cells_after: int

    @property
    def loss_bound(self) -> float:
        return (6.0 * self.T) ** (-self.m)

    @property
    def loss_ok(self) -> bool:
        return self.delta_cells_after >= self.loss_bound * self.delta_cells_before


def lipschitz_period_floor(t_const: float) -> int:
    """Smallest admissible period: T >= log2(640 T^4) forces 3-Lipschitz branching."""
    return int(math.ceil(math.log2(640.0 * t_const ** 4)))


def extract_uniform_subset(
    family: TransversalFamily,
    T: int,
    m: int,
) -> tuple[TransversalFamily, UniformStructure]:
    """Level-wise pigeonhole extraction of an exactly uniform subset.

    Works bottom-up on the cube tree at levels jT, j = 0..m.  At each level
    the parents are classified by child count into dyadic classes
    [2^k, 2^(k+1)); the class with the most child cubes wins (ties: lowest
    k); every parent in the class is pruned to the class minimum, keeping
    the lexicographically smallest child cubes.  The result is exactly
    uniform and keeps at least (6T)^-m of the delta-cells,
    delta = 2^-mT.
    """
    t_req = lipschitz_period_floor(family.t_bound())
    if T < t_req:
        raise ParameterError(
            f"period T={T} below the Lipschitz requirement ceil(log2(640*T^4)) = {t_req} "
            f"for estimated transversality constant {family.t_bound():.3g}"
        )
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    delta_exp = m * T
    leaf_idx = family_cell_indices(family, delta_exp)

    n = len(family)
    # live delta-cells; ancestor cells at level jT are right-shifts of the
    # leaf keys (arithmetic shift = floor division, correct for negatives)
    leaf_keys = {}
    for i in range(n):
        key = (int(leaf_idx[i, 0]), int(leaf_idx[i, 1]))
        leaf_keys.setdefault(key, []).append(i)
    live = set(leaf_keys.keys())
    cells_before = len(live)

    def parent_key(key: tuple[int, int], shift: int) -> tuple[int, int]:
        return (key[0] >> shift, key[1] >> shift)

    n_counts: list[int] = [0] * m
    for level in range(m - 1, -1, -1):
        shift_child = (m - level - 1) * T   # leaf -> level (level+1) cube
        shift_parent = (m - level) * T
        children: dict[tuple[int, int], set[tuple[int, int]]] = {}
        for leaf in live:
            ck = parent_key(leaf, shift_child)
            pk = parent_key(leaf, shift_parent)
            children.setdefault(pk, set()).add(ck)
        # dyadic classes by child count
        classes: dict[int, list[tuple[int, int]]] = {}
        for pk, ch in children.items():
            k = int(math.floor(math.log2(len(ch))))
            classes.setdefault(k, []).append(pk)
        totals = {
            k: sum(len(children[pk]) for pk in parents) for k, parents in classes.items()
        }
        best_total = max(totals.values())
        k_star = min(k for k, tot in totals.items() if tot == best_total)
        parents = classes[k_star]
        keep_count = min(len(children[pk]) for pk in parents)
        kept_cubes: set[tuple[int, int]] = set()
        for pk in parents:
            ordered = sorted(children[pk])
            kept_cubes.update(ordered[:keep_count])
        n_counts[level] = keep_count
        live = {leaf for leaf in live if parent_key(leaf, shift_child) in kept_cubes}

    kept_indices = sorted(i for leaf in live for i in leaf_keys[leaf])
    sub = family.subfamily(kept_indices)
    structure = UniformStructure(
        T=T,
        m=m,
        N=tuple(n_counts),
        delta_cells_before=cells_before,
        delta_cells_after=len(live),
    )
    return sub, structure


def audit_uniformity(family: TransversalFamily, T: int, m: int) -> tuple[bool, tuple[int, ...]]:
    """Independent recount: is the family exactly {2^-jT}-uniform?

    Returns (uniform?, per-level child counts); counts are 0 where a level
    is non-uniform.
    """
    counts = []
    ok = True
    for j in range(1, m + 1):
        parent = family_cell_indices(family, (j - 1) * T)
        child = family_cell_indices(family, j * T)
        groups: dict[tuple[int, int], set[tuple[int, int]]] = {}
        for p, c in zip(map(tuple, parent), map(tuple, child)):
            groups.setdefault(p, set()).add(c)
        sizes = {len(v) for v in groups.values()}
        if len(sizes) != 1:
            ok = False
            counts.append(0)
        else:
            counts.append(sizes.pop())
    return ok, tuple(counts)


# --------------------------------------------------------------------------
# Branching functions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BranchingFunction:
    """beta(j) = (1/T) sum_{i<=j} log2 N_i, linearly interpolated.

    Nondecreasing, beta(0) = 0; 3-Lipschitz whenever the period satisfies
    T >= log2(640 T_const^4).
    """

    T: int
    values: tuple[float, ...]

    @property
    def m(self) -> int:
        return len(self.values) - 1

    def __call__(self, x):
        return np.interp(x, np.arange(len(self.values)), np.asarray(self.values))

    def lipschitz_constant(self) -> float:
        v = np.asarray(self.values)
        return float(np.max(np.abs(np.diff(v)))) if len(v) > 1 else 0.0

    def to_csv(self, path) -> None:
        write_csv(path, "j,beta", enumerate(self.values))


def branching_function(structure: UniformStructure) -> BranchingFunction:
    vals = [0.0]
    acc = 0.0
    for nj in structure.N:
        if nj < 1:
            raise ParameterError("branching numbers must be >= 1")
        acc += math.log2(nj) / structure.T
        vals.append(acc)
    return BranchingFunction(T=structure.T, values=tuple(vals))


def _breakpoints(beta: BranchingFunction, a: float, b: float, extra=()) -> np.ndarray:
    pts = [a, b]
    pts.extend(j for j in range(int(math.floor(a)) + 1, int(math.ceil(b))) if a < j < b)
    pts.extend(x for x in extra if a < x < b)
    return np.unique(np.asarray(pts, dtype=float))


def check_superlinear(beta: BranchingFunction, sigma: float, eps: float, a: float, b: float):
    """Is beta(x) >= beta(a) + sigma (x-a) - eps (b-a) on [a, b]?

    Returns (ok, max_violation); the check runs on the breakpoints, which
    is exact for piecewise-linear beta.
    """
    if not (0 <= a < b <= beta.m):
        raise ParameterError(f"need 0 <= a < b <= m={beta.m}, got [{a}, {b}]")
    xs = _breakpoints(beta, a, b)
    lhs = beta(xs)
    rhs = beta(a) + sigma * (xs - a) - eps * (b - a)
    violation = float(np.max(rhs - lhs))
    return violation <= 1e-12, max(0.0, violation)


def check_linear(beta: BranchingFunction, sigma: float, eps: float, a: float, b: float):
    """Is |beta(x) - beta(a) - sigma (x-a)| <= eps (b-a) on [a, b]?"""
    if not (0 <= a < b <= beta.m):
        raise ParameterError(f"need 0 <= a < b <= m={beta.m}, got [{a}, {b}]")
    xs = _breakpoints(beta, a, b)
    dev = np.abs(beta(xs) - beta(a) - sigma * (xs - a)) - eps * (b - a)
    violation = float(np.max(dev))
    return violation <= 1e-12, max(0.0, violation)


@dataclass(frozen=True)
class StructuredInterval:
    c: int
    d: int
    kind: str          # "a" (linear) or "b" (superlinear with the two-slope floor)
    slope: float

    @property
    def length(self) -> int:
        return self.d - self.c


@dataclass(frozen=True)
class StructuredIntervalReport:
    intervals: tuple[StructuredInterval, ...]
    leftover_ratio: float
    hypotheses_ok: bool


def _two_slope_floor_ok(beta, c, d, s, u, eps) -> bool:
    """beta(x) >= min(beta(c) + u (x-c), beta(d) - s (d-x)) - eps (d-c) on [c,d].

    The minimum of the two affine branches crosses once; the deficit is
    checked on the integer breakpoints plus the crossing point.
    """
    denom = u + s
    cross = c if denom == 0 else (beta(d) - beta(c) + u * c + s * d) / denom
    xs = _breakpoints(beta, c, d, extra=(cross,))
    lo = np.minimum(beta(c) + u * (xs - c), beta(d) - s * (d - xs)) - eps * (d - c)
    return bool(np.all(beta(xs) >= lo - 1e-12))


def find_structured_intervals(
    beta: BranchingFunction,
    s: float,
    t: float,
    u: float,
    eps: float,
) -> StructuredIntervalReport:
    """Greedy conclusion-checker for the linear/superlinear decomposition.

    Scans all integer-endpoint intervals [c, d] in [0, m], admitting those
    that are either (a) eps-linear with chord slope in [s, u], or (b)
    eps-superlinear with chord slope in [s, u] and satisfying the two-slope
    floor inequality; then selects a maximal non-overlapping family, greedy
    by length with ties broken by left endpoint.  This checks the
    conclusion of the decomposition result; it does not reproduce its
    constructive proof, so emptiness is reported, not raised.
    """
    if not (0 < s < t < u):
        raise ParameterError(f"need 0 < s < t < u, got s={s}, t={t}, u={u}")
    if beta.lipschitz_constant() > 3.0 + 1e-9:
        raise ParameterError(
            f"branching function is {beta.lipschitz_constant():.3g}-Lipschitz, not 3-Lipschitz"
        )
    m = beta.m
    hyp_xs = np.arange(m + 1, dtype=float)
    hypotheses_ok = bool(
        np.all(beta(hyp_xs) >= t * hyp_xs - eps ** 2 * m - 1e-12)
        and beta(m) <= (t + eps ** 2) * m + 1e-12
    )
    admissible: list[StructuredInterval] = []
    for c in range(m):
        for d in range(c + 1, m + 1):
            slope = (float(beta(d)) - float(beta(c))) / (d - c)
            if not (s - 1e-12 <= slope <= u + 1e-12):
                continue
            lin_ok, _ = check_linear(beta, slope, eps, c, d)
            if lin_ok:
                admissible.append(StructuredInterval(c, d, "a", slope))
                continue
            sup_ok, _ = check_superlinear(beta, slope, eps, c, d)
            if sup_ok and _two_slope_floor_ok(beta, c, d, s, u, eps):
                admissible.append(StructuredInterval(c, d, "b", slope))
    admissible.sort(key=lambda iv: (-iv.length, iv.c))
    chosen: list[StructuredInterval] = []
    for iv in admissible:
        if all(iv.d <= sel.c or iv.c >= sel.d for sel in chosen):
            chosen.append(iv)
    chosen.sort(key=lambda iv: iv.c)
    covered = sum(iv.length for iv in chosen)
    leftover = (m - covered) / m if m > 0 else 0.0
    return StructuredIntervalReport(tuple(chosen), leftover, hypotheses_ok)
