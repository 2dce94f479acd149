import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import furstlab as fl
from furstlab import dyadic as dy
from furstlab import famspace as fs
from furstlab.dyadic import ParameterError


def parabola(a, b):
    return fl.quadratic_translate_curve(a, b, (-2.0, 2.0), lead=0.5)


def tree_family(seed, T=19, m=2, s=0.25):
    """Parabola translates whose parameters form a {2^-jT}-uniform tree."""
    rng = np.random.default_rng(seed)
    idx = dy.generate_delta_set_indices(m * T, s, T, rng, dim=2, batch=1)[0]
    a = dy.centers_of(idx[:, 0], m * T)
    b = dy.centers_of(idx[:, 1], m * T)
    return fl.TransversalFamily(
        [parabola(ai, bi - 1.0) for ai, bi in zip(a, b)],
        declared_t_const=5.0,
        check_duplicates=False,
    )


# -- embedding --------------------------------------------------------------------

def test_embed_affine_images():
    fam = fl.TransversalFamily(
        [fl.affine_curve(1.0, 0.25, (0.0, 1.0)), fl.affine_curve(0.5, 0.0, (0.0, 1.0))]
    )
    emb = fs.embed(fam)
    assert emb.x0 == 0.5
    np.testing.assert_allclose(emb.images, [[0.75, 1.0], [0.25, 0.5]], atol=0)


def test_embed_vertical_translates_differ_in_first_coordinate():
    fam = fl.TransversalFamily([parabola(0.3, 0.0), parabola(0.3, 0.5)],
                               check_duplicates=False)
    emb = fs.embed(fam)
    assert emb.images[0, 1] == emb.images[1, 1]
    assert emb.images[0, 0] != emb.images[1, 0]


def test_embed_bilipschitz_random_family():
    rng = np.random.default_rng(0)
    fam = fl.TransversalFamily(
        [parabola(a, b - 1.0) for a, b in zip(rng.uniform(0, 1, 40), rng.uniform(0, 1, 40))],
        check_duplicates=False,
    )
    emb = fs.embed(fam, check="all")
    assert emb.ok
    assert emb.max_upper_ratio <= 1.0 + 1e-6


def test_embed_flags_bad_t_estimate():
    fam = fl.TransversalFamily([parabola(0.2, 0.0), parabola(0.9, -0.5)],
                               check_duplicates=False)
    fam.declared_t_const = 1.0  # deliberately too small
    with pytest.raises(Exception, match="bi-Lipschitz"):
        fs.embed(fam, check="all")


# -- cubes ------------------------------------------------------------------------

def test_single_curve_single_cube_every_level():
    fam = fl.TransversalFamily([fl.affine_curve(0.3, 0.1, (0.0, 1.0))])
    for level in (-1, 0, 2, 5):
        assert len(fs.family_dyadic_cubes(fam, level)) == 1


def test_cubes_partition_members():
    fam = tree_family(1)
    for level in (3, 7):
        cubes = fs.family_dyadic_cubes(fam, level)
        members = sorted(i for c in cubes for i in c.members)
        assert members == list(range(len(fam)))


def test_cubes_are_exact_preimages_in_order():
    fam = tree_family(1)
    for level in (-1, 0, 3, 7, 38):
        idx = fs.family_cell_indices(fam, level)
        cubes = fs.family_dyadic_cubes(fam, level)
        for c in cubes:
            assert c.members == tuple(np.flatnonzero((idx == (c.ix, c.iy)).all(axis=1)))
        keys = [(c.ix, c.iy) for c in cubes]
        assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))


def test_cube_count_at_unit_scale_bounded():
    fam = tree_family(2)
    # images live in a ball of radius sqrt(2); O(T^2) is generous
    assert fs.family_cube_count(fam, 0) <= 9


def test_covering_ratio_bracket():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(15, 50))
        fam = fl.TransversalFamily(
            [parabola(a, b - 1.0) for a, b in zip(rng.uniform(0, 1, n), rng.uniform(0, 1, n))],
            check_duplicates=False,
        )
        t_est = fam.t_const
        dmat = fs.family_distance_matrix(fam)
        diam = dmat.max()
        for level in range(0, 12):
            r = math.ldexp(1.0, -level)
            if r > diam:
                continue
            ratio = dy.covering_number(dist=dmat, r=r) / fs.family_cube_count(fam, level)
            assert 1.0 / 16.0 <= ratio <= 40.0 * t_est ** 4


@pytest.mark.parametrize("kind", ["affine", "parabola", "convex", "closures"])
def test_distance_row_equals_distance_matrix_row(kind):
    rng = np.random.default_rng(17)
    a, b = rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40)
    if kind == "closures":
        fam = fl.TransversalFamily([parabola(ai, bi) for ai, bi in zip(a, b)], grid_n=257)
    else:
        fam = fl.TransversalFamily.parametric(kind, a, b, (-2.0, 2.0), lead=0.5,
                                              seed=fl.quadratic_seed(0.5), grid_n=257)
    dmat = fs.family_distance_matrix(fam)
    for i in range(len(fam)):
        np.testing.assert_array_equal(fam.distance_row(i), dmat[i])


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
        assert st_.loss_ok


def pinned_parabola_family():
    rng = np.random.default_rng(1)
    a, b = rng.uniform(-1, 1, 3000), rng.uniform(-1, 1, 3000)
    return fl.TransversalFamily.parametric("parabola", a, b, (-2.0, 2.0), lead=0.5,
                                           declared_t_const=5.0, check_duplicates=False)


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
    with pytest.raises(ParameterError, match="Lipschitz"):
        fs.extract_uniform_subset(fam, 5, 2)


def test_generator_branching_recovered_through_vertical_embedding():
    # vertical translates embed isometrically, so the tree's branching
    # numbers survive exactly
    T, m, s = 10, 2, 0.35
    pts = dy.generate_delta_set(T * m, s, T, seed=3)
    fam = fl.TransversalFamily(
        [fl.affine_curve(0.0, float(b), (0.0, 1.0)) for b in pts.points[:, 0]],
        declared_t_const=1.0,
    )
    sub, st_ = fs.extract_uniform_subset(fam, T, m)
    assert len(sub) == len(fam)
    assert st_.N == (round(2 ** (s * T)),) * m


# -- branching functions -----------------------------------------------------------

def test_branching_full_splitting():
    st_ = fs.UniformStructure(T=4, m=3, N=(16, 16, 16), delta_cells_before=1, delta_cells_after=1)
    beta = fs.branching_function(st_)
    assert beta.values == (0.0, 1.0, 2.0, 3.0)


def test_branching_no_splitting():
    st_ = fs.UniformStructure(T=4, m=3, N=(1, 1, 1), delta_cells_before=1, delta_cells_after=1)
    assert fs.branching_function(st_).values == (0.0, 0.0, 0.0, 0.0)


def test_branching_mixed():
    st_ = fs.UniformStructure(T=3, m=2, N=(8, 1), delta_cells_before=1, delta_cells_after=1)
    assert fs.branching_function(st_).values == (0.0, 1.0, 1.0)


def test_branching_csv(tmp_path):
    st_ = fs.UniformStructure(T=3, m=2, N=(8, 2), delta_cells_before=1, delta_cells_after=1)
    path = tmp_path / "beta.csv"
    fs.branching_function(st_).to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "j,beta"
    assert len(lines) == 4


def test_branching_three_lipschitz_above_period_floor():
    # with T at or above the period floor, extracted branching functions
    # are 3-Lipschitz
    for seed in range(5):
        fam = tree_family(600 + seed, s=0.3)
        sub, st_ = fs.extract_uniform_subset(fam, 19, 2)
        beta = fs.branching_function(st_)
        assert beta.lipschitz_constant() <= 3.0
        assert all(b2 >= b1 for b1, b2 in zip(beta.values, beta.values[1:]))


def test_form38_on_uniform_family():
    T, m = 10, 2
    pts = dy.generate_delta_set(T * m, 0.35, T, seed=5)
    fam = fl.TransversalFamily(
        [fl.affine_curve(0.0, float(b), (0.0, 1.0)) for b in pts.points[:, 0]],
        declared_t_const=1.0,
    )
    sub, st_ = fs.extract_uniform_subset(fam, T, m)
    beta = fs.branching_function(st_)
    K = fs.family_cube_count(sub, 0)  # the recorded constant
    for j in range(m + 1):
        count = fs.family_cube_count(sub, j * T)
        assert 2.0 ** (T * beta(j)) <= count * (1 + 1e-9)
        assert count <= K * 2.0 ** (T * beta(j)) * (1 + 1e-9)


# -- linearity checks ----------------------------------------------------------------

def make_beta(values, T=8):
    return fs.BranchingFunction(T=T, values=tuple(float(v) for v in values))


def test_superlinear_identity_line():
    beta = make_beta([0, 1, 2, 3])
    ok, v = fs.check_superlinear(beta, 1.0, 0.0, 0, 3)
    assert ok and v == 0.0


def test_superlinear_violation_measured():
    beta = make_beta([0, 1])
    ok, v = fs.check_superlinear(beta, 1.1, 0.0, 0, 1)
    assert not ok
    assert v == pytest.approx(0.1, abs=1e-12)


def test_linear_identity():
    beta = make_beta([0, 1, 2])
    assert fs.check_linear(beta, 1.0, 0.0, 0, 2)[0]


def test_linear_mixed_slope_half():
    T = 3
    st_ = fs.UniformStructure(T=T, m=2, N=(2 ** T, 1), delta_cells_before=1, delta_cells_after=1)
    beta = fs.branching_function(st_)
    assert fs.check_linear(beta, 0.5, 0.5, 0, 2)[0]


def test_linear_zero_slope_fails_on_increasing():
    beta = make_beta([0, 1, 2])
    ok, v = fs.check_linear(beta, 0.0, 0.0, 0, 2)
    assert not ok
    assert v == pytest.approx(beta(2), abs=1e-12)


def test_superlinear_consistent_with_measured_set_class():
    # forward direction: superlinear branching caps the delta-set constant
    T, m, s = 10, 2, 0.35
    pts = dy.generate_delta_set(T * m, s, T, seed=8)
    fam = fl.TransversalFamily(
        [fl.affine_curve(0.0, float(b), (0.0, 1.0)) for b in pts.points[:, 0]],
        declared_t_const=1.0,
    )
    sub, st_ = fs.extract_uniform_subset(fam, T, m)
    beta = fs.branching_function(st_)
    sigma = (beta.values[-1]) / m
    ok, _ = fs.check_superlinear(beta, sigma, 0.05, 0, m)
    assert ok
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
    fam = fl.TransversalFamily(
        [fl.affine_curve(0.0, float(b), (0.0, 1.0)) for b in pts.points[:, 0]],
        declared_t_const=1.0,
    )
    sub, st_ = fs.extract_uniform_subset(fam, T, m)
    beta = fs.branching_function(st_)
    C = dy.delta_set_constant(DiscretePointsFrom(sub), sigma).best_constant
    eps_meas = math.log2(max(C, 1.0)) / (m * T)
    xs = np.arange(m + 1, dtype=float)
    assert np.all(beta(xs) >= sigma * xs - 2.0 * eps_meas * m - 1e-9)


# -- structured intervals --------------------------------------------------------------

def test_structured_exact_line_type_a():
    m = 8
    t = 1.0
    beta = make_beta([t * j for j in range(m + 1)])
    rep = fs.find_structured_intervals(beta, s=0.5, t=t, u=1.5, eps=0.05)
    assert rep.hypotheses_ok
    assert len(rep.intervals) == 1
    iv = rep.intervals[0]
    assert (iv.c, iv.d, iv.kind) == (0, m, "a")
    assert rep.leftover_ratio == 0.0


def test_structured_steep_then_flat_type_b():
    # the two-slope floor admits the concave steep-then-flat profile: it
    # rises at >= u off the left endpoint and approaches the right endpoint
    # at <= s, so it is superlinear but far from linear
    m = 8
    vals = [3.0 * j for j in range(m // 2 + 1)] + [3.0 * (m // 2)] * (m // 2)
    beta = make_beta(vals)
    s, u, eps = 0.5, 2.4, 0.3
    rep = fs.find_structured_intervals(beta, s=s, t=1.4, u=u, eps=eps)
    b_ivs = [iv for iv in rep.intervals if iv.kind == "b"]
    assert b_ivs
    # re-validate the two-slope floor directly on every type-b interval
    for iv in b_ivs:
        xs = np.linspace(iv.c, iv.d, 200)
        lo = np.minimum(
            beta(iv.c) + u * (xs - iv.c), beta(iv.d) - s * (iv.d - xs)
        ) - eps * (iv.d - iv.c)
        assert np.all(beta(xs) >= lo - 1e-9)


def test_structured_flat_then_steep_yields_no_full_type_b():
    # the mirrored profile violates the floor mid-flat; whatever is
    # returned must still re-validate piecewise
    m = 8
    vals = [0.0] * (m // 2 + 1) + [3.0 * j for j in range(1, m // 2 + 1)]
    beta = make_beta(vals)
    rep = fs.find_structured_intervals(beta, s=0.5, t=1.4, u=2.4, eps=0.3)
    assert all(not (iv.kind == "b" and (iv.c, iv.d) == (0, m)) for iv in rep.intervals)
    for iv in rep.intervals:
        if iv.kind == "a":
            assert fs.check_linear(beta, iv.slope, 0.3, iv.c, iv.d)[0]
        else:
            assert fs.check_superlinear(beta, iv.slope, 0.3, iv.c, iv.d)[0]


def test_structured_all_slopes_below_s():
    m = 6
    beta = make_beta([0.1 * j for j in range(m + 1)])
    rep = fs.find_structured_intervals(beta, s=0.5, t=0.7, u=1.5, eps=0.05)
    assert rep.intervals == ()
    assert rep.leftover_ratio == 1.0


def test_structured_rejects_non_lipschitz():
    beta = make_beta([0, 5])
    with pytest.raises(ParameterError, match="Lipschitz"):
        fs.find_structured_intervals(beta, 0.5, 1.0, 1.5, 0.1)


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(st.floats(0.0, 2.5), min_size=3, max_size=10))
def test_structured_intervals_revalidate(steps):
    vals = [0.0]
    for d in steps:
        vals.append(vals[-1] + d)
    beta = make_beta(vals)
    m = beta.m
    rep = fs.find_structured_intervals(beta, s=0.4, t=1.0, u=1.8, eps=0.25)
    covered = 0
    for iv in rep.intervals:
        covered += iv.length
        assert 0.4 - 1e-9 <= iv.slope <= 1.8 + 1e-9
        if iv.kind == "a":
            assert fs.check_linear(beta, iv.slope, 0.25, iv.c, iv.d)[0]
        else:
            assert fs.check_superlinear(beta, iv.slope, 0.25, iv.c, iv.d)[0]
    # selection is non-overlapping
    ivs = sorted(rep.intervals, key=lambda iv: iv.c)
    for left, right in zip(ivs, ivs[1:]):
        assert left.d <= right.c
    assert rep.leftover_ratio == pytest.approx((m - covered) / m, abs=1e-12)
