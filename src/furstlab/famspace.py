"""The dyadic system on a transversal family via the planar embedding.

A transversal family embeds into the plane by A(f) = (f(x0), f'(x0)) with
x0 the interval midpoint; the embedding is sqrt(2)*T bi-Lipschitz, so
dyadic squares in the plane pull back to "dyadic cubes" in the family.
This module groups the curves' cell indices, with ``dyadic.unique_cells``,
into those cubes (``family_cubes``) and into exactly-uniform subsets
(level-wise pigeonholing), with ``audit_uniformity`` as the independent
recount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import cell_indices, dyadic_cover, unique_cells
from .family import DomainError, TransversalFamily


# --------------------------------------------------------------------------
# Dyadic cubes in the family
# --------------------------------------------------------------------------

def family_cell_indices(family: TransversalFamily, level: int) -> np.ndarray:
    """Planar cell indices of A(F) at the given level (may be negative)."""
    return cell_indices(family.embedding_images(), level)


def family_cubes(family: TransversalFamily, level: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """(cube_ids, members): the sorted distinct level cells of A(F), and
    each one's curve indices, ascending."""
    cube_ids, cube_of = unique_cells(family_cell_indices(family, level))
    order = np.argsort(cube_of, kind="stable")
    ends = np.cumsum(np.bincount(cube_of, minlength=len(cube_ids)))
    return cube_ids, np.split(order, ends[:-1])


def family_cube_count(family: TransversalFamily, level: int) -> int:
    return len(dyadic_cover(family.embedding_images(), level))


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
        raise DomainError(
            f"period T={T} below the Lipschitz requirement ceil(log2(640*T^4)) = {t_req} "
            f"for transversality bound {family.t_bound():.3g}"
        )
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    # leaf cells at level mT; the level-jT cubes above them are right
    # shifts of their indices (arithmetic shift = floor division)
    leaves, leaf_of = unique_cells(family_cell_indices(family, m * T))
    live = np.arange(len(leaves))
    n_counts = [0] * m
    for level in range(m - 1, -1, -1):
        child, child_of = unique_cells(leaves[live] >> (m - level - 1) * T)
        _, parent_of = unique_cells(child >> T)
        n = np.bincount(parent_of)
        k = np.frexp(n)[1] - 1                 # floor(log2 n), exactly
        k_star = int(np.argmax(np.bincount(k, weights=n)))
        keep_count = int(n[k == k_star].min())
        # rank of each child among its parent's children, in (ix, iy) order
        order = np.argsort(parent_of, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order)) - np.repeat(np.cumsum(n) - n, n)
        kept = (k[parent_of] == k_star) & (rank < keep_count)
        n_counts[level] = keep_count
        live = live[kept[child_of]]

    sub = family.subfamily(np.flatnonzero(np.isin(leaf_of, live)))
    return sub, UniformStructure(T, m, tuple(n_counts), len(leaves), len(live))


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
