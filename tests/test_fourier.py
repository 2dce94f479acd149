import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from furstlab import dyadic as dy
from furstlab import fourier as fo
from furstlab.dyadic import AtomicMeasure
from furstlab.family import DomainError


def point_mass():
    return AtomicMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))


def parabola_lift(delta_exp=8):
    return fo.uniform_grid_lift(lambda x: np.asarray(x, dtype=float) ** 2, delta_exp)


# -- lifts --------------------------------------------------------------------------

def test_lift_single_atom():
    cm = fo.lift_measure(lambda x: np.asarray(x) ** 2, np.array([0.5]), np.array([1.0]))
    assert type(cm) is AtomicMeasure
    assert len(cm) == 1
    assert cm.points[0, 1] == 0.25


def test_lift_uniform_grid():
    cm = parabola_lift()
    assert cm.total_mass == pytest.approx(1.0, abs=1e-12)
    # atoms on the graph exactly
    np.testing.assert_allclose(cm.points[:, 1], cm.points[:, 0] ** 2, atol=1e-12)


def test_lift_broadcasts_a_scalar_g():
    cm = fo.lift_measure(lambda x: 1.0, [0.0, 0.5], [0.5, 0.5])
    np.testing.assert_array_equal(cm.points, [[0.0, 1.0], [0.5, 1.0]])


def test_lift_rejects_a_non_finite_g():
    with pytest.raises(DomainError, match=r"g returned a non-finite value at x=0\.5"):
        fo.lift_measure(lambda x: np.where(x > 0.25, np.inf, x), [0.0, 0.5], [0.5, 0.5])


def test_lift_rejects_mass_above_one():
    with pytest.raises(DomainError):
        fo.lift_measure(np.abs, np.array([0.0, 0.5]), np.array([0.7, 0.7]))


def test_lift_rejects_points_outside_base_interval():
    with pytest.raises(DomainError):
        fo.lift_measure(np.abs, np.array([1.5]), np.array([0.5]))


# -- transform ----------------------------------------------------------------------

def test_transform_point_mass_is_one_everywhere():
    pm = point_mass()
    for xi in ([0.0, 0.0], [3.0, -4.0], [100.5, 0.25]):
        assert fo.fourier_transform(pm, np.array(xi)) == pytest.approx(1.0 + 0.0j)


def test_transform_cancellation():
    mu = AtomicMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    assert abs(fo.fourier_transform(mu, np.array([0.5, 0.0]))) <= 1e-12


def test_transform_at_zero_is_total_mass():
    mu = AtomicMeasure(np.array([[0.2, 0.3], [0.9, -0.4]]), np.array([0.25, 0.5]))
    assert fo.fourier_transform(mu, np.array([0.0, 0.0])) == pytest.approx(0.75 + 0.0j)


@settings(max_examples=40, deadline=None)
@given(
    xi1=st.floats(-20, 20), xi2=st.floats(-20, 20),
    seed=st.integers(0, 100),
)
def test_transform_bounded_and_conjugate_symmetric(xi1, xi2, seed):
    rng = np.random.default_rng(seed)
    n = 5
    mu = AtomicMeasure(rng.uniform(-1, 1, (n, 2)), rng.uniform(0, 1.0 / n, n))
    xi = np.array([xi1, xi2])
    v = fo.fourier_transform(mu, xi)
    assert abs(v) <= mu.total_mass + 1e-12
    assert fo.fourier_transform(mu, -xi) == pytest.approx(v.conjugate(), abs=1e-12)


def test_grid_transform_matches_direct_sum():
    rng = np.random.default_rng(3)
    mu = AtomicMeasure(rng.uniform(-1, 1, (7, 2)), rng.uniform(0, 1 / 7, 7))
    from furstlab.fourier import _grid_transform_sq
    mag2, kr = _grid_transform_sq(mu, 2.0, 1 / 8)
    i = 3, 11
    xi = np.array([kr[i[0]] / 8.0, kr[i[1]] / 8.0])
    direct = abs(fo.fourier_transform(mu, xi)) ** 2
    assert mag2[i] == pytest.approx(direct, rel=1e-12)


# -- FFT path of the grid transform --------------------------------------------------

def _assert_fft_path_matches_direct_sum(mu, R, h, samples=None):
    """Every (or `samples` random) grid value of |sigma-hat|^2 against the direct sum."""
    assert fo._x_grid(mu.points[:, 0], h) is not None
    mag2, kr = fo._grid_transform_sq(mu, R, h)
    if samples is None:
        i, j = (v.ravel() for v in np.indices(mag2.shape))
    else:
        i, j = np.random.default_rng(0).integers(0, len(kr), (2, samples))
    direct = np.abs(fo.fourier_transform(mu, h * np.stack([kr[i], kr[j]], axis=1))) ** 2
    np.testing.assert_allclose(mag2[i, j], direct, rtol=1e-11, atol=1e-15 * mu.total_mass ** 2)


@pytest.mark.parametrize("h", [1 / 8, 1 / 16])
@pytest.mark.parametrize("delta_exp, samples", [(4, None), (8, 2000)])
def test_fft_path_uniform_lift(delta_exp, samples, h):
    _assert_fft_path_matches_direct_sum(parabola_lift(delta_exp), 8.0, h, samples)


def test_fft_path_tree_set_lift():
    k = 8
    base = dy.generate_delta_set(k, 0.5, 2, seed=0)
    xs = 2.0 * base.points[:, 0] - 1.0
    cm = fo.lift_measure(lambda x: np.asarray(x) ** 2, xs, np.full(len(xs), 2.0 ** (-k / 2)))
    assert len(cm) < 2 ** k  # a gapped subset of the grid
    _assert_fft_path_matches_direct_sum(cm, 8.0, 1 / 8)


def test_fft_path_atoms_sharing_an_x():
    mu = AtomicMeasure(np.array([[0.25, 0.5], [0.25, -0.75], [0.5, 0.1]]), np.array([0.3, 0.5, 0.2]))
    _assert_fft_path_matches_direct_sum(mu, 8.0, 1 / 8)


def test_fft_path_wraps_indices_beyond_one_over_h():
    xs = np.array([0.0, 3.0, 9.0, 20.0, 16.0])  # span 20 > 1/h = 8
    mu = AtomicMeasure(np.stack([xs, np.array([0.5, -0.75, 0.1, 0.3, 0.2])], axis=1), np.full(5, 0.2))
    m, N = fo._x_grid(xs, 1 / 8)
    assert N == 8 and m.tolist() == [0, 3, 1, 4, 0]
    _assert_fft_path_matches_direct_sum(mu, 8.0, 1 / 8)


def test_fft_path_single_atom():
    _assert_fft_path_matches_direct_sum(AtomicMeasure(np.array([[0.3, 0.7]]), np.array([0.6])), 8.0, 1 / 8)


def test_off_grid_atoms_take_the_gemm_path():
    rng = np.random.default_rng(3)
    assert fo._x_grid(rng.uniform(-1, 1, 7), 1 / 8) is None


def _dirichlet(t: np.ndarray, n: int) -> np.ndarray:
    """D_n(t) = sum over |m| <= n of exp(-2 pi i m t), real."""
    return 1.0 + 2.0 * np.cos(2.0 * np.pi * np.outer(t, np.arange(1, n + 1))).sum(axis=1)


@pytest.mark.parametrize("fft_path", [True, False])
def test_grid_fourth_moment_equals_the_additive_energy_sum(fft_path):
    # sum over the square grid of |sigma-hat|^4 is the sum over quadruples of
    # w_i w_j w_k w_l D_n(h dx) D_n(h dy), (dx, dy) = a_i + a_j - a_k - a_l:
    # an oracle that uses neither the FFT nor the GEMM
    h, R = 1 / 8, 16.0
    if fft_path:
        mu = parabola_lift(3)
    else:
        mu = AtomicMeasure(np.random.default_rng(0).uniform(-1, 1, (9, 2)), np.full(9, 1 / 9))
    assert (fo._x_grid(mu.points[:, 0], h) is not None) == fft_path
    mag2, kr = fo._grid_transform_sq(mu, R, h)
    n = (len(kr) - 1) // 2
    pair_sum = (mu.points[:, None, :] + mu.points[None, :, :]).reshape(-1, 2)
    pair_w = np.outer(mu.weights, mu.weights).ravel()
    diff = (pair_sum[:, None, :] - pair_sum[None, :, :]).reshape(-1, 2)
    weight = np.outer(pair_w, pair_w).ravel()
    dirichlet = []
    for axis in range(2):  # D_n once per distinct difference
        t, inverse = np.unique(h * diff[:, axis], return_inverse=True)
        dirichlet.append(_dirichlet(t, n)[inverse.ravel()])
    energy = float(np.sum(weight * dirichlet[0] * dirichlet[1]))
    assert float(np.sum(mag2 ** 2)) == pytest.approx(energy, rel=1e-12)


def _tree_set_lift(k=8):
    base = dy.generate_delta_set(k, 0.5, 2, seed=0)
    xs = 2.0 * base.points[:, 0] - 1.0
    return fo.lift_measure(lambda x: np.asarray(x) ** 2, xs, np.full(len(xs), 2.0 ** (-k / 2)))


#: measures that reach each branch of the grid transform at h = 1/8 (at
#: h = 0.1 only the point mass stays on an x-grid)
BRANCH_MEASURES = {
    # two atoms share an x-grid slot: the summed scatter
    "shared slot": lambda: AtomicMeasure(np.array([[0.25, 0.5], [0.25, -0.75], [0.5, 0.1]]),
                                         np.array([0.3, 0.5, 0.2])),
    # N = 1, so the length-L transforms are tiled to 2n+1 and more
    "point mass": point_mass,
    # a gapped subset of the x-grid
    "tree-set lift": _tree_set_lift,
    # off every x-grid: the GEMM path
    "off grid": lambda: AtomicMeasure(np.random.default_rng(3).uniform(-1, 1, (7, 2)), np.full(7, 1 / 7)),
}


#: sha256 prefixes of the float64 bits of `_ball_integrals` over R = 2, 4, 8, 16,
#: for p in (1, 3, 8) and h in (1/8, 0.1)
@pytest.mark.parametrize("name, digest", [
    ("shared slot", "91c4909f01c6dc7f"),
    ("point mass", "c37741bc1baedb14"),
    ("tree-set lift", "7d9224b000aac82b"),
    ("off grid", "3ea7a1fdc0756d30"),
])
def test_ball_integrals_are_pinned(name, digest):
    mu = BRANCH_MEASURES[name]()
    vals = [v for p in (1.0, 3.0, 8.0) for h in (1 / 8, 0.1)
            for v in fo._ball_integrals(mu, p, (2.0, 4.0, 8.0, 16.0), h)]
    assert hashlib.sha256(b"".join(np.float64(v).tobytes() for v in vals)).hexdigest()[:16] == digest


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(BRANCH_MEASURES)),
    h=st.sampled_from([1 / 8, 1 / 16, 1 / 32, 0.1]),
    p=st.floats(1, 10),
    radii=st.lists(st.one_of(st.floats(1, 12), st.integers(8, 120)), min_size=1, max_size=3),
)
# at h = 0.1, floor(R^2 (1 + 1e-12) / h / h) is 323 where the ball test passes
# 324 = 18^2, and 178 = 13^2 + 3^2 where it passes only 177
@example(name="point mass", h=0.1, p=3.0, radii=[1.7999999999991])
@example(name="point mass", h=0.1, p=3.0, radii=[1.3341664064119663])
def test_ball_sums_equal_the_full_grid_masks(name, h, p, radii):
    # an integer j stands for R = j*h, whose circle passes through grid points
    R_list = tuple(j * h if isinstance(j, int) else j for j in radii)
    R_list = tuple(R for R in R_list if R >= 1) or (1.0,)
    mu = BRANCH_MEASURES[name]()
    mag2, kr = fo._grid_transform_sq(mu, max(R_list), h)
    k2 = (kr[:, None] ** 2 + kr[None, :] ** 2) * h * h
    oracle = [float(np.sum((mag2 ** (p / 2))[k2 <= R * R * (1 + 1e-12)]) * h * h) for R in R_list]
    assert fo._ball_integrals(mu, p, R_list, h) == oracle


def test_transform_size_is_refused_before_allocating():
    many = AtomicMeasure(np.random.default_rng(0).uniform(-1, 1, (7000, 2)), np.full(7000, 1 / 7000))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="65537x65537 grid"):
            fo.lp_norm_ball(point_mass(), 2.0, 4096.0)
        with pytest.raises(DomainError, match="GEMM factors for 7000 atoms"):
            fo.lp_norm_ball(many, 2.0, 512.0)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    fo.check_transform_size(512.0, 1 / 8, 7000, fft=True)  # the FFT path needs no factors


def test_check_decay_applies_the_size_rule_to_a_described_measure():
    # 2^23 + 1 atoms 2^-22 apart need N = 2^25 > 2^MAX_FFT_EXP: off the FFT path
    with pytest.raises(DomainError, match="GEMM"):
        fo.check_decay(8.0, [4, 8, 16], atoms=2 ** 23 + 1, x_step=2.0 ** -22)
    assert fo.check_decay(8.0, [4, 8, 16], atoms=2 ** 22 + 1, x_step=2.0 ** -21) == (4.0, 8.0, 16.0)
    with pytest.raises(DomainError, match="grid"):
        fo.check_decay(8.0, [4, 8, 4096])


# -- L^p norms ------------------------------------------------------------------------

def test_lp_point_mass_matches_disk_area():
    for R in (2.0, 4.0):
        v = fo.lp_norm_ball(point_mass(), 2.0, R, 1 / 8)
        assert v == pytest.approx(math.pi * R * R, rel=3 * (1 / 8) / R)


def test_lp_rejects_large_step():
    with pytest.raises(DomainError):
        fo.lp_norm_ball(point_mass(), 2.0, 4.0, 0.3)


def test_lp_rejects_bad_p_radius_and_step():
    for p, R, h in ((math.nan, 4.0, 1 / 8), (math.inf, 4.0, 1 / 8),
                    (2.0, math.nan, 1 / 8), (2.0, math.inf, 1 / 8), (2.0, 0.5, 1 / 8),
                    (2.0, 4.0, 0.0), (2.0, 4.0, math.nan)):
        with pytest.raises(DomainError):
            fo.lp_norm_ball(point_mass(), p, R, h)


def test_lp_rejects_non_measures():
    with pytest.raises(DomainError):
        fo.lp_norm_ball(np.array([[0.0, 0.0]]), 2.0, 4.0)
    with pytest.raises(DomainError, match="planar"):  # atoms on a line
        fo.lp_norm_ball(AtomicMeasure(np.array([0.0, 0.5]), np.array([0.5, 0.5])), 2.0, 4.0)


def test_lp_quadrature_halving_stable():
    lift = parabola_lift()
    for R in (4.0, 16.0):
        v1 = fo.lp_norm_ball(lift, 8.0, R, 1 / 8)
        v2 = fo.lp_norm_ball(lift, 8.0, R, 1 / 16)
        assert abs(v2 - v1) / v1 <= 0.05


# -- decay slopes -------------------------------------------------------------------------

def test_decay_point_mass_slope_two():
    rep = fo.decay_slope(point_mass(), 4.0, [4, 8, 16, 32, 64])
    assert rep.slope == pytest.approx(2.0, abs=0.05)


def test_decay_point_mass_slope_independent_of_p():
    # |sigma-hat| == 1 for a point mass, so the slope pin holds for every p
    slopes = [fo.decay_slope(point_mass(), p, [4, 8, 16, 32]).slope for p in (1.0, 2.0, 8.0)]
    assert max(slopes) - min(slopes) <= 1e-12
    for s in slopes:
        assert s == pytest.approx(2.0, abs=0.05)


def test_decay_parabola_lift_flat():
    rep = fo.decay_slope(parabola_lift(), 8.0, [4, 8, 16, 32, 64])
    assert rep.slope <= 0.3


def test_decay_validates_radii():
    with pytest.raises(DomainError):
        fo.decay_slope(point_mass(), 2.0, [4, 8])          # too few
    with pytest.raises(DomainError):
        fo.decay_slope(point_mass(), 2.0, [4, 8, 12])      # not dyadic
    with pytest.raises(DomainError):
        fo.decay_slope(point_mass(), 2.0, [8, 4, 16])      # not increasing
    with pytest.raises(DomainError):
        fo.decay_slope(point_mass(), 2.0, [4, 4, 8])       # a repeated radius
    for bad in (math.nan, math.inf, 0.0, -4.0):
        with pytest.raises(DomainError):
            fo.decay_slope(point_mass(), 2.0, [4, 8, bad])


def test_decay_rejects_p_below_one_or_not_finite():
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            fo.decay_slope(point_mass(), p, [4, 8, 16])


def test_decay_table_csv(tmp_path):
    rep = fo.decay_slope(point_mass(), 2.0, [4, 8, 16])
    path = tmp_path / "decay.csv"
    dy.write_csv(path, "R,p,integral,slope_cum", rep.rows())
    lines = path.read_text().splitlines()
    assert lines[0] == "R,p,integral,slope_cum"
    assert len(lines) == 4


def test_decay_integrals_consistent_with_lp_norm_ball():
    lift = parabola_lift(6)
    rep = fo.decay_slope(lift, 4.0, [4, 8, 16])
    for R, integral in zip(rep.R_list, rep.integrals):
        assert integral == pytest.approx(fo.lp_norm_ball(lift, 4.0, R), rel=1e-12)
