import hashlib
import math

import numpy as np
import pytest

import furstlab as fl
from furstlab import dyadic as dy
from furstlab import famspace as fs
from furstlab import incidence as inc
from furstlab.family import DomainError


def tree_family(seed, T=19, m=2, s=0.25):
    """Parabola translates whose parameters form a {2^-jT}-uniform tree."""
    rng = np.random.default_rng(seed)
    idx = dy.generate_delta_set_indices(m * T, s, T, rng, dim=2, batch=1)[0]
    a = dy.centers_of(idx[:, 0], m * T)
    b = dy.centers_of(idx[:, 1], m * T)
    return fl.TransversalFamily("parabola", a, b - 1.0, (-2.0, 2.0), lead=0.5)


# -- embedding --------------------------------------------------------------------

def test_embed_affine_images():
    fam = fl.TransversalFamily("affine", [1.0, 0.5], [0.25, 0.0], (0.0, 1.0))
    np.testing.assert_allclose(fam.embedding_images(), [[0.75, 1.0], [0.25, 0.5]], atol=0)


def test_embed_vertical_translates_differ_in_first_coordinate():
    fam = fl.TransversalFamily("parabola", [0.3, 0.3], [0.0, 0.5], (-2.0, 2.0), lead=0.5)
    images = fam.embedding_images()
    assert images[0, 1] == images[1, 1]
    assert images[0, 0] != images[1, 0]


def bilipschitz_ratios(fam, t=None):
    """Largest |A(f)-A(g)| / ||f-g|| and ||f-g|| / (sqrt(2) T |A(f)-A(g)|) over all
    pairs, with T = fam.t_bound() unless given."""
    t = fam.t_bound() if t is None else t
    img = fam.embedding_images()
    dmat = fs.family_distance_matrix(fam)
    ii, jj = np.triu_indices(len(fam), k=1)
    gap = np.hypot(*(img[ii] - img[jj]).T)
    return float(np.max(gap / dmat[ii, jj])), float(np.max(dmat[ii, jj] / (math.sqrt(2) * t * gap)))


def test_embed_bilipschitz_random_family():
    rng = np.random.default_rng(0)
    fam = fl.TransversalFamily("parabola", rng.uniform(0, 1, 40), rng.uniform(0, 1, 40) - 1.0,
                               (-2.0, 2.0), lead=0.5)
    lower, upper = bilipschitz_ratios(fam)
    assert lower <= 1.0 + 1e-12
    assert upper <= 1.0 + 1e-6


def test_embed_flags_bad_t_estimate():
    fam = fl.TransversalFamily("parabola", [0.2, 0.9], [0.0, -0.5], (-2.0, 2.0), lead=0.5)
    assert bilipschitz_ratios(fam)[1] <= 1.0 + 1e-6
    assert bilipschitz_ratios(fam, t=1.0)[1] > 1.0 + 1e-6  # deliberately too small


# -- cubes ------------------------------------------------------------------------

def test_single_curve_single_cube_every_level():
    fam = fl.TransversalFamily("affine", [0.3], [0.1], (0.0, 1.0))
    for level in (-1, 0, 2, 5):
        assert fs.family_cube_count(fam, level) == 1


def test_cubes_partition_members():
    # every incident curve is charged to exactly one cube of the kernel
    fam = tree_family(1)
    P = dy.SquareFamily.grid(5)
    per_square = np.bincount(inc.incidences_bruteforce(fam, P, 2.0).pairs[:, 1], minlength=len(P))
    assert per_square.any()
    for level in (3, 7):
        counts, cube_ids = inc.cube_incidence_counts(fam, P, level)
        assert len(cube_ids) == fs.family_cube_count(fam, level)
        np.testing.assert_array_equal(counts.sum(axis=1), per_square)


def test_cubes_are_exact_preimages_in_order():
    fam = tree_family(1)
    P = dy.SquareFamily.grid(5)
    pairs = inc.incidences_bruteforce(fam, P, 2.0).pairs
    for level in (-1, 0, 3, 7, 38):
        idx = fs.family_cell_indices(fam, level)
        counts, cube_ids = inc.cube_incidence_counts(fam, P, level)
        for c, (ix, iy) in enumerate(cube_ids.tolist()):
            members = np.flatnonzero((idx == (ix, iy)).all(axis=1))
            assert len(members)
            expect = np.bincount(pairs[np.isin(pairs[:, 0], members), 1], minlength=len(P))
            np.testing.assert_array_equal(counts[:, c], expect)
        keys = [tuple(k) for k in cube_ids.tolist()]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


def test_cube_count_at_unit_scale_bounded():
    fam = tree_family(2)
    # images live in a ball of radius sqrt(2); O(T^2) is generous
    assert fs.family_cube_count(fam, 0) <= 9


def test_covering_ratio_bracket():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(15, 50))
        fam = fl.TransversalFamily("parabola", rng.uniform(0, 1, n), rng.uniform(0, 1, n) - 1.0,
                                   (-2.0, 2.0), lead=0.5)
        t_est = fam.t_const
        dmat = fs.family_distance_matrix(fam)
        diam = dmat.max()
        for level in range(0, 12):
            r = math.ldexp(1.0, -level)
            if r > diam:
                continue
            ratio = dy.covering_number(dist=dmat, r=r) / fs.family_cube_count(fam, level)
            assert 1.0 / 16.0 <= ratio <= 40.0 * t_est ** 4


@pytest.mark.parametrize("kind", ["affine", "parabola", "convex"])
def test_distance_row_equals_distance_matrix_row(kind):
    # each row of the pairwise matrix against c2_dist taken one pair at a time
    rng = np.random.default_rng(17)
    a, b = rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40)
    fam = fl.TransversalFamily(kind, a, b, (-2.0, 2.0), lead=0.5,
                               seed=fl.quadratic_seed(0.5), grid_n=257)
    dmat = fs.family_distance_matrix(fam)
    for i in range(len(fam)):
        row = [fl.c2_dist(fam.curves[i], g, grid_n=257) for g in fam.curves]
        np.testing.assert_allclose(dmat[i], row, rtol=1e-12, atol=1e-15)


# -- uniformization ----------------------------------------------------------------

def test_uniform_extraction_is_identity_on_uniform_input():
    fam = tree_family(3)
    sub, st_ = fs.extract_uniform_subset(fam, 19, 2)
    ok, counts = fs.audit_uniformity(sub, 19, 2)
    assert ok
    # a second pass changes nothing
    sub2, st2 = fs.extract_uniform_subset(sub, 19, 2)
    assert len(sub2) == len(sub)
    assert st2.N == st_.N


def test_uniform_extraction_bound_and_audit():
    for seed in range(20):
        fam = tree_family(100 + seed, s=float(np.random.default_rng(seed).uniform(0.05, 0.3)))
        sub, st_ = fs.extract_uniform_subset(fam, 19, 2)
        ok, counts = fs.audit_uniformity(sub, 19, 2)
        assert ok and counts == st_.N
        # at least (6T)^-m of the delta-cells survive
        assert st_.delta_cells_after >= (6.0 * 19) ** -2 * st_.delta_cells_before


def pinned_parabola_family():
    rng = np.random.default_rng(1)
    a, b = rng.uniform(-1, 1, 3000), rng.uniform(-1, 1, 3000)
    return fl.TransversalFamily("parabola", a, b, (-2.0, 2.0), lead=0.5)


#: (tree_family seed or None for the parabola family, N, delta cells before,
#: after, sha256 prefix of the kept images) at T=19, m=2
PINNED_EXTRACTIONS = [
    (0, (20, 16), 729, 320, "77a019db252e5d33"),
    (1, (19, 16), 729, 304, "e7a1c1b5d3815061"),
    (2, (19, 16), 729, 304, "696a5d58eccd663d"),
    (3, (18, 16), 729, 288, "883f177081af43cc"),
    (4, (18, 16), 729, 288, "ff811774dd22db7e"),
    (None, (586, 1), 3000, 2344, "d922853e3a8b4a90"),
]


@pytest.mark.parametrize("seed, N, before, after, digest", PINNED_EXTRACTIONS)
def test_uniform_extraction_is_pinned(seed, N, before, after, digest):
    # the exact selection (which child cubes survive), not only its uniformity
    fam = pinned_parabola_family() if seed is None else tree_family(seed)
    sub, st_ = fs.extract_uniform_subset(fam, 19, 2)
    assert (st_.N, st_.delta_cells_before, st_.delta_cells_after) == (N, before, after)
    assert hashlib.sha256(sub.embedding_images().tobytes()).hexdigest()[:16] == digest


def test_uniform_extraction_period_floor():
    fam = tree_family(4)
    with pytest.raises(DomainError, match="Lipschitz"):
        fs.extract_uniform_subset(fam, 5, 2)


def test_generator_branching_recovered_through_vertical_embedding():
    # vertical translates embed isometrically, so the tree's branching
    # numbers survive exactly
    T, m, s = 10, 2, 0.35
    pts = dy.generate_delta_set(T * m, s, T, seed=3)
    fam = fl.TransversalFamily("affine", np.zeros(len(pts)), pts.points[:, 0], (0.0, 1.0))
    sub, st_ = fs.extract_uniform_subset(fam, T, m)
    assert len(sub) == len(fam)
    assert st_.N == (round(2 ** (s * T)),) * m


# -- branching numbers -------------------------------------------------------------

def branching_values(st_):
    """The branching function at j = 0..m: beta(j) = sum_{i<=j} log2 N_i / T."""
    return np.concatenate(([0.0], np.cumsum(np.log2(st_.N)) / st_.T))


def test_branching_three_lipschitz_above_period_floor():
    # with T at or above the period floor, extracted branching functions
    # are 3-Lipschitz
    for seed in range(5):
        fam = tree_family(600 + seed, s=0.3)
        sub, st_ = fs.extract_uniform_subset(fam, 19, 2)
        steps = np.diff(branching_values(st_))
        assert np.max(steps) <= 3.0
        assert np.all(steps >= 0)


def test_form38_on_uniform_family():
    T, m = 10, 2
    pts = dy.generate_delta_set(T * m, 0.35, T, seed=5)
    fam = fl.TransversalFamily("affine", np.zeros(len(pts)), pts.points[:, 0], (0.0, 1.0))
    sub, st_ = fs.extract_uniform_subset(fam, T, m)
    K = fs.family_cube_count(sub, 0)  # the recorded constant
    for j in range(m + 1):
        count = fs.family_cube_count(sub, j * T)
        branches = math.prod(st_.N[:j])  # 2^(T beta(j)), exactly
        assert branches <= count
        assert count <= K * branches


def test_superlinear_consistent_with_measured_set_class():
    # forward direction: superlinear branching caps the delta-set constant
    T, m, s = 10, 2, 0.35
    pts = dy.generate_delta_set(T * m, s, T, seed=8)
    fam = fl.TransversalFamily("affine", np.zeros(len(pts)), pts.points[:, 0], (0.0, 1.0))
    sub, st_ = fs.extract_uniform_subset(fam, T, m)
    beta = branching_values(st_)
    sigma = beta[-1] / m
    xs = np.arange(m + 1, dtype=float)
    assert np.all(sigma * xs - 0.05 * m - beta <= 1e-12)
    images = DiscretePointsFrom(sub)
    rep = dy.delta_set_constant(images, sigma)
    assert rep.best_constant <= 64.0


def DiscretePointsFrom(fam):
    return dy.DiscretePointSet(fam.embedding_images(), 20)


def test_superlinear_converse_from_measured_constant():
    # converse direction: a measured (delta, sigma, C)-set has a branching
    # function above sigma*x - 2*eps*m with eps = log_delta(1/C)
    T, m, sigma = 10, 2, 0.35
    pts = dy.generate_delta_set(T * m, sigma, T, seed=12)
    fam = fl.TransversalFamily("affine", np.zeros(len(pts)), pts.points[:, 0], (0.0, 1.0))
    sub, st_ = fs.extract_uniform_subset(fam, T, m)
    C = dy.delta_set_constant(DiscretePointsFrom(sub), sigma).best_constant
    eps_meas = math.log2(max(C, 1.0)) / (m * T)
    xs = np.arange(m + 1, dtype=float)
    assert np.all(branching_values(st_) >= sigma * xs - 2.0 * eps_meas * m - 1e-9)
