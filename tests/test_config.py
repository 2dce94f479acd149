import hashlib
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

import furstlab as fl
from furstlab import config as cf
from furstlab.dyadic import (
    cell_indices,
    centers_of,
    generate_delta_set_indices,
    side_of,
    write_csv,
)
from furstlab.family import DomainError, EvaluationError
from furstlab.famspace import family_cell_indices
from oracles import verify_nice


# -- builder ------------------------------------------------------------------------

def test_build_single_curve_full_columns():
    conf = cf.build_nice_configuration("affine", 6, 1.0, 0.0, 6, seed=0)
    assert conf.n_curves == 1
    assert conf.M == 2 ** 6
    assert conf.union_square_count() == conf.M


def test_build_s_zero_one_square_per_curve():
    conf = cf.build_nice_configuration("parabola", 6, 0.0, 1.0, 6, seed=0)
    assert conf.M == 1


def test_build_parabola_constants_within_budget():
    conf = cf.build_nice_configuration("parabola", 8, 0.5, 1.0, 2, seed=0)
    assert conf.measured["audit"] == "full"
    assert conf.measured["family_constant"] <= 64.0
    assert conf.measured["worst_square_set_constant"] <= 64.0


def test_build_convex_kind_with_seed_curve():
    conf = cf.build_nice_configuration(
        "convex", 6, 0.5, 1.0, 3, seed=0, seed_curve=fl.exp_seed()
    )
    assert verify_nice(conf).passed


def test_no_kind_builds_with_a_pairwise_pass(monkeypatch):
    # coincident members are refused where a pairwise quantity reads them,
    # not at build; the configurations then verify with the pass restored
    def must_not_pair(self):
        raise AssertionError("a pairwise pass ran")

    confs = []
    with monkeypatch.context() as patch:
        patch.setattr(fl.TransversalFamily, "pairwise_defect_and_dist", must_not_pair)
        for kind, seed_curve in (("affine", None), ("parabola", None), ("convex", fl.exp_seed())):
            for k in (6, 8):
                confs.append(cf.build_nice_configuration(kind, k, 0.5, 1.0, 2, seed=0,
                                                         seed_curve=seed_curve))
    assert [c.n_curves for c in confs] == [64, 256] * 3
    assert all(verify_nice(c).passed for c in confs[::2])


def test_build_validates_parameters():
    with pytest.raises(DomainError):
        cf.build_nice_configuration("parabola", 8, 1.5, 1.0, 2, seed=0)
    with pytest.raises(DomainError):
        cf.build_nice_configuration("parabola", 9, 0.5, 1.0, 2, seed=0)  # T does not divide
    with pytest.raises(DomainError):
        cf.build_nice_configuration("spline", 8, 0.5, 1.0, 2, seed=0)


def test_unknown_audit_mode_is_refused():
    with pytest.raises(DomainError, match="audit mode"):
        cf.build_nice_configuration("parabola", 6, 0.5, 1.0, 3, seed=0, audit="bogus")


def test_measured_is_audited_once_on_first_read(monkeypatch):
    calls = []
    audit = cf._audit_constants
    monkeypatch.setattr(cf, "_audit_constants", lambda conf, mode: calls.append(mode) or audit(conf, mode))
    conf = cf.build_nice_configuration("parabola", 8, 0.5, 1.0, 2, seed=0, audit="probe")
    assert calls == []
    first = conf.measured
    assert conf.measured is first
    assert calls == ["probe"] and first["audit"] == "probe"


def _union_oracle(conf):
    return np.unique(np.stack([conf.col_idx.ravel(), conf.iy.ravel()], axis=1), axis=0)


def test_union_count_where_square_keys_pass_int64():
    # (ix range + 1) * iy span reaches 2^64, so one int64 key per square would
    # wrap distinct squares onto each other
    fam = fl.TransversalFamily("affine", [0.0, 1.0], [0.0, 1.0], (-2.0, 2.0))
    conf = cf.NiceConfiguration(
        fam, "affine", 6, 0.5, 1.0, 3, 0,
        col_idx=np.array([[0, 2 ** 31], [0, 2 ** 31]]),
        iy=np.array([[0, 0], [2 ** 33 - 1, 2 ** 33 - 1]]),
    )
    # a parabola build at 2^-32 whose ix and iy ranges give (ix range + 1) * iy span > 2^64
    built = cf.build_nice_configuration("parabola", 32, 0.25, 0.25, 16, seed=0)
    assert (int(np.ptp(built.col_idx)) + 1) * (int(np.ptp(built.iy)) + 1) >= 2 ** 64
    for c in (conf, built):
        want = _union_oracle(c)
        assert c.union_square_count() == len(want)
        sq = c.union_squares()
        assert np.array_equal(np.stack([sq.ix, sq.iy], axis=1), want)
    assert conf.union_square_count() == 4


def test_t_bound_never_below_the_estimate():
    # t_bound() of lines and parabola translates is certified from the
    # interval alone: the grid estimate never exceeds it, the pair whose
    # difference has its root at an endpoint reaches it, equal slopes give 1
    rng = np.random.default_rng(18)
    for interval in ((-2.0, 2.0), (0.0, 1.0), (5.0, 6.0), (-0.3, -0.2), (-3.0, 3.0)):
        lo, hi = interval
        for kind in ("affine", "parabola"):
            for _ in range(10):
                n = int(rng.integers(2, 40))
                fam = fl.TransversalFamily(kind, rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                                           interval, lead=0.5)
                assert fam.t_bound() == 1.0 + (hi - lo)
                assert fam.t_const <= fam.t_bound() * (1 + 1e-9)
        # the lines 0 and x - lo differ by x - lo, whose root is lo
        pair = fl.TransversalFamily("affine", [0.0, 1.0], [0.0, -lo], interval)
        assert pair.t_const == pytest.approx(pair.t_bound(), rel=1e-12)
        same = fl.TransversalFamily("parabola", np.full(5, 0.3), np.arange(5.0), interval)
        assert same.t_bound() == same.t_const == 1.0
    assert fl.TransversalFamily("affine", [0.0, 1.0], [0.0, 2.0], (-2.0, 2.0)).t_const == 5.0
    for kind, seed_curve in (("affine", None), ("parabola", None), ("convex", fl.exp_seed())):
        fam = cf.build_nice_configuration(kind, 6, 0.5, 1.0, 3, seed=0, seed_curve=seed_curve).family
        assert fam.t_const <= fam.t_bound() * (1 + 1e-9)


def test_correlated_mode_shrinks_union():
    base = cf.build_nice_configuration("parabola", 8, 0.5, 1.0, 2, seed=5)
    corr = cf.build_nice_configuration("parabola", 8, 0.5, 1.0, 2, seed=5, correlated=True)
    assert np.all(corr.col_idx == corr.col_idx[0])
    assert corr.union_square_count() <= base.union_square_count()


def test_correlated_mode_refuses_oversized_tiling_before_building(monkeypatch):
    # 64 curves on 9 shared columns tile 576 cells; one cell over the limit
    # is refused before np.tile, as the random layout refuses its trees
    def must_not_tile(*args, **kwargs):
        raise AssertionError("the shared columns were tiled")

    monkeypatch.setattr(cf, "MAX_TREE_CELLS", 575)
    monkeypatch.setattr(cf.np, "tile", must_not_tile)
    with pytest.raises(DomainError, match="64 curves on 9 shared columns"):
        cf.build_nice_configuration("parabola", 6, 0.5, 1.0, 3, 0, correlated=True)
    monkeypatch.undo()
    monkeypatch.setattr(cf, "MAX_TREE_CELLS", 576)
    conf = cf.build_nice_configuration("parabola", 6, 0.5, 1.0, 3, 0, correlated=True)
    assert conf.col_idx.shape == (64, 9)


def _one_shot_iy(conf):
    k = conf.delta_exp
    return cell_indices(conf.family.evaluate(centers_of(conf.col_idx, k)), k)


@pytest.mark.parametrize("kind, seed_curve, correlated", [
    ("affine", None, False), ("parabola", None, False), ("convex", fl.exp_seed(), False),
    ("parabola", None, True),
])
@pytest.mark.parametrize("budget", [None, 7 * 27, 26])
def test_blocked_build_equals_the_one_shot_build(monkeypatch, kind, seed_curve, correlated, budget):
    # 512 curves of 27 squares (delta 2^-9, s = 0.5, t = 1, T = 3): the full
    # step budget, 7 rows a block (512 = 73 * 7 + 1), and a budget under M, one row
    if budget is not None:
        monkeypatch.setattr(cf, "STEP_BUDGET", budget)
    conf = cf.build_nice_configuration(kind, 9, 0.5, 1.0, 3, seed=4, seed_curve=seed_curve,
                                       correlated=correlated)
    assert conf.col_idx.shape == (512, 27)
    assert np.array_equal(conf.iy, _one_shot_iy(conf))


def test_blocked_build_names_a_non_finite_value_of_a_later_block(monkeypatch):
    # the last of 10 curves, in the last block of two, is nan wherever x - a >= 1;
    # the blocked build refuses it as one evaluate over every curve does
    def zero(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    nan_from_one = fl.ConvexSeed(
        g0=lambda x: np.where(np.asarray(x) >= 1.0, np.nan, 0.25),
        g1=zero, g2=zero, g3=zero, frak_G=1.0, frak_g=1.0, name="nan from 1",
    )
    fam = fl.TransversalFamily("convex", np.r_[np.full(9, 0.5), -0.5], np.arange(10) / 10,
                               cf.WORK_INTERVAL, seed=nan_from_one)
    col_idx = generate_delta_set_indices(4, 1.0, 4, np.random.default_rng(0), batch=10)[..., 0]
    with pytest.raises(EvaluationError, match="x=") as one_shot:
        fam.evaluate(centers_of(col_idx, 4))
    monkeypatch.setattr(cf, "STEP_BUDGET", 2 * 16)
    with pytest.raises(EvaluationError) as blocked:
        cf._attach_squares(fam, "convex", 4, 1.0, 1.0, 4, 0, np.random.default_rng(0), "auto")
    assert str(blocked.value) == str(one_shot.value)


#: build_parallel_translate_configuration(8, 0.5, 2, seed): (seed, sha256
#: prefixes of col_idx and of iy); all three measure the same constants
PINNED_PARALLEL = [
    (0, "c317097eba9cf38d", "9a93f7ce1108e4f6"),
    (1, "a7f3438ea35afd37", "baf5d476e82ba9f3"),
    (2, "0e8cd75f45f94dc7", "8f19c2866d6eb239"),
]


@pytest.mark.parametrize("seed, col_digest, iy_digest", PINNED_PARALLEL)
def test_parallel_translate_configuration_is_pinned(seed, col_digest, iy_digest):
    conf = cf.build_parallel_translate_configuration(8, 0.5, 2, seed)
    assert conf.col_idx.shape == conf.iy.shape == (16, 16)
    assert conf.col_idx.dtype == conf.iy.dtype == np.int64
    assert hashlib.sha256(conf.col_idx.tobytes()).hexdigest()[:16] == col_digest
    assert hashlib.sha256(conf.iy.tobytes()).hexdigest()[:16] == iy_digest
    assert conf.measured == {"audit": "full", "family_constant": 1.414213562373095,
                             "worst_square_set_constant": 3.0}


# -- verification --------------------------------------------------------------------

def test_verify_positive(monkeypatch):
    def must_not_audit(*args, **kwargs):
        raise AssertionError("audit constants were computed")

    monkeypatch.setattr(cf, "_audit_constants", must_not_audit)  # verifying reads no audit
    conf = cf.build_nice_configuration("parabola", 8, 0.5, 1.0, 2, seed=1)
    rep = verify_nice(conf)
    assert rep.passed
    assert rep.min_separation >= side_of(conf.delta_exp)


@pytest.mark.parametrize("kind", ["affine", "parabola"])
@pytest.mark.parametrize("s,t", [(0.5, 0.5), (0.5, 1.0), (0.9, 1.5), (1.0, 2.0)])
def test_verify_passes_across_matrix(kind, s, t):
    conf = cf.build_nice_configuration(kind, 6, s, t, 3, seed=4, audit="probe")
    assert verify_nice(conf).passed


def test_verify_catches_off_graph_square():
    conf = cf.build_nice_configuration("parabola", 8, 0.5, 1.0, 2, seed=2)
    conf.iy[0, 0] += 10  # push one square far off the graph
    rep = verify_nice(conf)
    assert not rep.passed
    assert any("misses the graph" in f for f in rep.failures)


def test_verify_catches_m_mismatch():
    conf = cf.build_nice_configuration("parabola", 8, 0.5, 1.0, 2, seed=2)
    conf.col_idx[0, 1] = conf.col_idx[0, 0]  # duplicate column: |P(f)| < M
    rep = verify_nice(conf)
    assert not rep.passed
    assert any("M" in f for f in rep.failures)


def _one_shot_failures(conf):
    """verify_nice's square checks on the whole (n, M) and (n, M, 9) arrays at once."""
    failures = []
    cols_sorted = np.sort(conf.col_idx, axis=1)
    dup = np.any(cols_sorted[:, 1:] == cols_sorted[:, :-1], axis=1)
    if np.any(dup):
        failures.append(f"curve {int(np.argmax(dup))}: |P(f)| != M (duplicate columns)")
    k, dl = conf.delta_exp, side_of(conf.delta_exp)
    xs = (centers_of(conf.col_idx, k) - 0.5 * dl)[..., None] + (np.arange(9) + 0.5) / 9 * dl
    missed = ~np.any(cell_indices(conf.family.evaluate(xs), k) == conf.iy[..., None], axis=2)
    if np.any(missed):
        i, j = np.argwhere(missed)[0]
        failures.append(f"square (ix={conf.col_idx[i][j]}, iy={conf.iy[i][j]}) misses the graph of curve {i}")
    return failures


@pytest.mark.parametrize("budget", [None, 9 * 16 * 10, 1])
def test_verify_names_the_first_failure_of_the_one_shot_check(monkeypatch, budget):
    # blocks of one curve, of ten curves and of all of them name the
    # same first duplicate and the same first square off the graph
    if budget is not None:
        monkeypatch.setattr(cf, "STEP_BUDGET", budget)
    conf = cf.build_nice_configuration("parabola", 8, 0.5, 1.0, 2, seed=2)
    assert conf.n_curves > 40 and conf.M == 16
    assert verify_nice(conf).passed and _one_shot_failures(conf) == []
    conf.iy[37, 2] += 10
    conf.iy[38, 0] -= 7
    conf.col_idx[23, 3] = conf.col_idx[23, 1]
    conf.col_idx[41, 0] = conf.col_idx[41, 2]
    rep = verify_nice(conf)
    assert not rep.passed
    assert list(rep.failures[:2]) == _one_shot_failures(conf)
    assert rep.failures[0].startswith("curve 23:") and "curve 23" in rep.failures[1]


def test_verify_refuses_a_non_finite_value_in_a_later_block(monkeypatch):
    # the first block already fails, yet every block is evaluated
    monkeypatch.setattr(cf, "STEP_BUDGET", 9 * 16)
    conf = cf.build_nice_configuration("parabola", 8, 0.5, 1.0, 2, seed=2)
    conf.iy[0, 0] += 10
    conf.family.a[30] = 1e200  # (x - a)^2 overflows
    with np.errstate(over="ignore"), pytest.raises(EvaluationError, match="x="):
        verify_nice(conf)


def test_verify_holds_its_samples_a_block_at_a_time():
    # 12,167 curves by 216 squares: the one-shot (n, M, 9) check peaked at 778 MB
    conf = cf.build_nice_configuration("parabola", 9, 0.9, 1.5, 3, 0)
    assert (conf.n_curves, conf.M) == (12167, 216)
    conf.family.min_pair_distance()  # the separation check's pass is not the square check's
    tracemalloc.start()
    try:
        rep = verify_nice(conf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak <= 64 * cf.STEP_BUDGET  # 2.6 MB, 40 bytes per sample of a block


# -- furstenberg experiment -------------------------------------------------------------

def test_disjoint_square_sets_cross_curves():
    # well-separated vertical translates never share squares, so |P| = |F| M
    conf = cf.build_parallel_translate_configuration(8, 0.5, 2, seed=0)
    res = cf.furstenberg_experiment(conf)
    assert res.P_size == res.F_size * res.M
    assert res.eta_emp == 0.0


def test_identical_square_sets_give_P_equal_M():
    base = cf.build_nice_configuration("parabola", 8, 0.5, 0.0, 2, seed=0)
    # duplicate the single curve's square row across a fake 4-member family
    fam = cf.build_nice_configuration("parabola", 8, 0.5, 1.0, 2, seed=0).family
    conf = cf.NiceConfiguration(
        family=fam, kind="parabola", delta_exp=8, s=0.5, t=1.0, T=2, seed=0,
        col_idx=np.tile(base.col_idx[0], (len(fam), 1)),
        iy=np.tile(base.iy[0], (len(fam), 1)),
    )
    res = cf.furstenberg_experiment(conf)
    assert res.P_size == conf.M
    k, s, t = conf.delta_exp, conf.s, conf.t
    min_term = cf.three_way_bound(k, s, t, 1)
    assert res.eta_emp == pytest.approx(math.log2(min_term) / k, rel=1e-9)


def test_eta_threshold_on_parabola_runs():
    etas = []
    for seed in range(5):
        conf = cf.build_nice_configuration("parabola", 9, 0.5, 1.0, 3, seed=seed, audit="probe")
        etas.append(cf.furstenberg_experiment(conf).eta_emp)
    assert max(etas) <= 0.5


def test_union_bounds_invariant():
    for seed in range(4):
        conf = cf.build_nice_configuration("parabola", 8, 0.5, 1.0, 2, seed=seed, audit="probe")
        P = conf.union_square_count()
        assert conf.M <= P <= conf.n_curves * conf.M


def test_csv_row_format(tmp_path):
    conf = cf.build_nice_configuration("affine", 6, 0.5, 1.0, 2, seed=0, audit="probe")
    path = tmp_path / "f.csv"
    write_csv(path, cf.ExperimentResult.CSV_HEADER, [astuple(cf.furstenberg_experiment(conf))])
    row = path.read_text().splitlines()[1]
    assert row.startswith("affine,6,0.5,1,2,0,")
    assert len(row.split(",")) == len(cf.ExperimentResult.CSV_HEADER.split(","))


# -- endpoint checks ----------------------------------------------------------------------

def test_endpoint_katz_tao_generator():
    slack = 2.0 ** (-0.4 * 8)
    for seed in range(3):
        conf = cf.build_parallel_translate_configuration(8, 0.5, 2, seed=seed)
        rep = cf.endpoint_checks(conf)
        assert rep.kt_ratio >= slack
        assert rep.family_katz_tao_c <= 64.0


def test_endpoint_dense_generator():
    slack = 2.0 ** (-0.4 * 8)
    for seed in range(3):
        conf = cf.build_nice_configuration("parabola", 8, 0.5, 1.5, 2, seed=seed, audit="probe")
        rep = cf.endpoint_checks(conf)
        assert rep.dense_ratio >= slack
        assert rep.family_delta_set_c <= 64.0


def test_endpoint_single_curve_reports_without_assertion():
    conf = cf.build_nice_configuration("affine", 6, 1.0, 0.0, 6, seed=0)
    rep = cf.endpoint_checks(conf)
    assert rep.F_size == 1
    assert math.isfinite(rep.dense_ratio) and math.isfinite(rep.kt_ratio)


# -- mainlem ------------------------------------------------------------------------------

@pytest.fixture(scope="module")
def line_evaluator():
    fam = cf.build_uniform_line_family(8, 4, seed=0)
    return cf.MainlemEvaluator(fam, 8, 4, 0.25)


def test_mainlem_a_above_cube_count_empty(line_evaluator):
    rep = line_evaluator.report(a=len(line_evaluator.cube_ids) + 1, b=1)
    assert rep.P_ab_size == 0


def test_mainlem_b_above_max_population_empty(line_evaluator):
    # b = the smallest power of two above the largest cube count at a square
    # finds nothing; the largest one at or below it finds that square
    levels = len(line_evaluator.n_big)
    rep = line_evaluator.report(a=2, b=1 << levels)
    assert rep.P_ab_size == 0 and rep.pre_filter_size == 0
    assert line_evaluator.report(a=1, b=1 << levels - 1).pre_filter_size > 0


def test_mainlem_sweep_no_violation(line_evaluator):
    reports = line_evaluator.sweep()
    assert reports
    assert not any(r.violation for r in reports)
    assert line_evaluator.cube_separated


def test_mainlem_counts_nonvacuous(line_evaluator):
    # the N_{Delta,b} >= a side of the filter must fire somewhere
    reports = line_evaluator.sweep()
    assert any(r.pre_filter_size > 0 for r in reports)


def test_mainlem_parameter_validation():
    fam = cf.build_uniform_line_family(6, 3, seed=0, branching=(2, 2, 1))
    with pytest.raises(DomainError):
        cf.MainlemEvaluator(fam, 6, 3, 0.3)   # not 1/N
    with pytest.raises(DomainError):
        cf.MainlemEvaluator(fam, 6, 3, 0.5)   # Delta_exp * eps not integral
    # Delta_exp above delta_exp, or a scale that is not an integer, for the
    # builder, the evaluator and the size check alike
    for scales in ((6, 7), (6, 2.5), (6.5, 3)):
        with pytest.raises(DomainError, match="need 1 <= Delta_exp <= delta_exp"):
            cf.build_uniform_line_family(*scales, 0)
    for scales, eps in (((4, 5), 0.2), ((6.5, 3), 1 / 3)):
        with pytest.raises(DomainError, match="need 1 <= Delta_exp <= delta_exp"):
            cf.MainlemEvaluator(fam, *scales, eps)
    with pytest.raises(DomainError, match="need 1 <= Delta_exp <= delta_exp"):
        cf.check_mainlem_size(6, 2.5)


@pytest.mark.parametrize("eps", [0.0, math.nan, math.inf, -0.25])
def test_mainlem_eps_outside_unit_interval(eps):
    # -0.25 passes the reciprocal and dyadic tests at Delta_exp 4
    fam = cf.build_uniform_line_family(6, 4, seed=0)
    with pytest.raises(DomainError, match=r"eps must be in \(0, 1\]"):
        cf.MainlemEvaluator(fam, 6, 4, eps)


def test_mainlem_single_report_matches_evaluator(line_evaluator):
    # one report from a fresh evaluator equals the shared evaluator's
    fam = line_evaluator.family
    rep = cf.MainlemEvaluator(fam, 8, 4, 0.25).report(a=2, b=2)
    assert rep.P_ab_size == line_evaluator.report(2, 2).P_ab_size


@pytest.mark.parametrize("delta_exp, Delta_exp", [(4, 1), (5, 2), (6, 3), (7, 4)])
def test_mainlem_size_estimate_matches_the_build(delta_exp, Delta_exp):
    fam = cf.build_uniform_line_family(delta_exp, Delta_exp, seed=1)
    n_curves, n_squares, n_cubes, _ = cf.check_mainlem_size(delta_exp, Delta_exp)
    assert n_curves == len(fam)
    ev = cf.MainlemEvaluator(fam, delta_exp, Delta_exp, 1 / Delta_exp)
    assert n_squares == len(ev.squares) and n_cubes == len(ev.cube_ids)
    # the estimate's n_big levels: one per bit of a cube's curve count
    table, _ = cf.cube_incidence_counts(fam, ev.squares, Delta_exp)
    assert table.max() > 0
    assert len(ev.n_big) == int(table.max()).bit_length() <= (n_curves // n_cubes).bit_length()


def test_mainlem_size_limit():
    # the benchmark's 2^-9 runs stay well inside; 2^-12 is the last accepted
    # scale at Delta = 2^-4 (its run peaked at 1.63 GB traced, under its
    # 2.35 GB estimate) and at Delta = 2^-8
    assert cf.check_mainlem_size(9, 4)[3] <= cf.MAINLEM_MAX_BYTES // 8
    assert cf.check_mainlem_size(11, 4)[3] <= cf.MAINLEM_MAX_BYTES
    assert cf.check_mainlem_size(12, 4)[3] <= cf.MAINLEM_MAX_BYTES
    assert cf.check_mainlem_size(12, 8)[3] <= cf.MAINLEM_MAX_BYTES
    for de, De in ((13, 8), (6, 0)):
        with pytest.raises(DomainError):
            cf.check_mainlem_size(de, De)


@pytest.mark.parametrize("delta_exp, Delta_exp", [(7, 4), (8, 4), (10, 8)])
def test_mainlem_peak_stays_under_the_size_estimate(delta_exp, Delta_exp):
    # the streamed counts hold no |P| x cubes table: at (8, 4) the dense one
    # peaked at 33 MB against an estimate of 14.5 MB; at (10, 8) the grid's
    # per-square bytes are two thirds of the estimate.  MAINLEM_BYTES_PER
    # leaves a tenth of the estimate spare
    estimate = cf.check_mainlem_size(delta_exp, Delta_exp)[3]
    tracemalloc.start()
    try:
        fam = cf.build_uniform_line_family(delta_exp, Delta_exp, 0)
        cf.MainlemEvaluator(fam, delta_exp, Delta_exp, 0.25).sweep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.9 * estimate


def test_mainlem_peak_with_many_cubes_holds_no_squares_by_cubes_table():
    # 64 cubes on the 2^-8 grid: both passes fold one cube's counts at a
    # time, so the peak stays under half of one 65,536 x 64 int64 table
    tracemalloc.start()
    try:
        fam = cf.build_uniform_line_family(8, 8, 0, (4, 4, 4, 1, 1, 1, 1, 1))
        ev = cf.MainlemEvaluator(fam, 8, 8, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ev.cube_ids) == 64
    assert peak <= (len(ev.squares) * 64 * 8) // 2


def _dense_sweep(ev, dense):
    """(a, b, |P_ab|, pre-filter) of every sweep cell, from the dense (square, cube) table."""
    def at_least(b):
        return np.sum(dense >= b, axis=1)

    out = []
    for i in range(1, max(2, int(at_least(1).max())).bit_length()):
        for j in range(max(1, int(dense.max())).bit_length()):
            pre = at_least(1 << j) >= 1 << i
            out.append((1 << i, 1 << j, int(np.sum(pre & ev.hyp_i_mask)), int(pre.sum())))
    return out


@pytest.mark.parametrize("lam", [2.0, 6.0])
@pytest.mark.parametrize("delta_exp, Delta_exp", [(6, 3), (7, 4), (8, 4)])
def test_mainlem_streamed_fold_equals_the_dense_table(delta_exp, Delta_exp, lam):
    for seed in range(3):
        fam = cf.build_uniform_line_family(delta_exp, Delta_exp, seed)
        ev = cf.MainlemEvaluator(fam, delta_exp, Delta_exp, 1 / Delta_exp, lam)
        dense, cube_ids = cf.cube_incidence_counts(fam, ev.squares, Delta_exp, lam)
        np.testing.assert_array_equal(cube_ids, ev.cube_ids)
        assert dense.max() > 0
        assert len(ev.n_big) == int(dense.max()).bit_length()
        for j, column in enumerate(ev.n_big):
            assert column.dtype == np.int32
            np.testing.assert_array_equal(column, np.sum(dense >= 2 ** j, axis=1))
        got = [(r.a, r.b, r.P_ab_size, r.pre_filter_size) for r in ev.sweep()]
        assert got == _dense_sweep(ev, dense)


def _cube_table(fam, squares, level, lam):
    """(square, cube) incident-curve counts recounted from the oracle's pairs,
    the cubes the family's distinct level cells, grouped by np.unique."""
    _, cube_of = np.unique(family_cell_indices(fam, level), axis=0, return_inverse=True)
    n_cubes = cube_of.max() + 1
    pairs = fl.incidences_bruteforce(fam, squares, lam).pairs
    flat = np.bincount(pairs[:, 1] * n_cubes + cube_of[pairs[:, 0]], minlength=len(squares) * n_cubes)
    return flat.reshape(len(squares), n_cubes)


#: (Delta_exp, eps, branching, share of squares passing hypothesis (i)): the
#: default family at Delta = 2^-3 passes nowhere, so a sparser one joins it;
#: the last has 64 cubes
@pytest.mark.parametrize("Delta_exp, eps, branching, share", [
    (3, 1 / 3, None, 0.0), (3, 1 / 3, (2, 4, 1), 0.0625), (2, 1 / 2, None, 0.0625),
    (4, 1 / 2, (4, 4, 4, 1), 0.63671875),
])
def test_mainlem_counts_equal_an_oracle_recount(Delta_exp, eps, branching, share):
    k = 6
    fam = cf.build_uniform_line_family(k, Delta_exp, 0, branching)
    ev = cf.MainlemEvaluator(fam, k, Delta_exp, eps)
    table = _cube_table(fam, ev.squares, Delta_exp, 2.0)
    assert table.max() > 1
    assert len(ev.n_big) == int(table.max()).bit_length()
    for j, column in enumerate(ev.n_big):
        np.testing.assert_array_equal(column, np.sum(table >= 2 ** j, axis=1))
    # hypothesis (i): at each rho = 2^-level, the level-rho square above p
    # meets at most Delta^-eps * rho * (level cubes) cubes in 6*rho
    ok = np.ones(len(ev.squares), dtype=bool)
    for level in range(ev.level_step, Delta_exp + 1, ev.level_step):
        coarse = cf.SquareFamily.grid(level)
        table_r = _cube_table(fam, coarse, level, 6.0)
        touched = np.sum(table_r >= 1, axis=1)
        fits = touched <= 2.0 ** (eps * Delta_exp) * 2.0 ** -level * table_r.shape[1]
        shift = k - level
        ok &= fits[(ev.squares.ix >> shift) * 2 ** level + (ev.squares.iy >> shift)]
    assert ok.mean() == share
    np.testing.assert_array_equal(ev.hyp_i_mask, ok)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mainlem_counts_with_empty_cubes_equal_an_oracle_recount(seed):
    # at 2^-7 and Delta = 2^-4, the lines of 6 to 8 of the 16 cubes miss the
    # grid, so their column is all zeros
    k, Delta_exp = 7, 4
    fam = cf.build_uniform_line_family(k, Delta_exp, seed)
    ev = cf.MainlemEvaluator(fam, k, Delta_exp, 0.25)
    table = _cube_table(fam, ev.squares, Delta_exp, 2.0)
    empty = ~table.any(axis=0)
    assert 6 <= empty.sum() <= 8 and len(empty) == 16
    assert table.max() > 1
    assert len(ev.n_big) == int(table.max()).bit_length()
    for j, column in enumerate(ev.n_big):
        np.testing.assert_array_equal(column, np.sum(table >= 2 ** j, axis=1))


def test_mainlem_touched_square_fold_equals_a_full_grid_recount():
    # each cube's counts are folded only where they are nonzero; folding
    # every square of every cube's column gives the same levels
    k, Delta_exp = 6, 3
    fam = cf.build_uniform_line_family(k, Delta_exp, 1)
    ev = cf.MainlemEvaluator(fam, k, Delta_exp, 1 / 3)
    dense, _ = cf.cube_incidence_counts(fam, ev.squares, Delta_exp)
    assert 0 < (dense > 0).any(axis=1).mean() < 1 and not dense.all(axis=0).any()
    full = [np.zeros(len(ev.squares), dtype=np.int32) for _ in range(int(dense.max()).bit_length())]
    for column in dense.T:
        for j, level in enumerate(full):
            level += column >= 1 << j
    assert len(ev.n_big) == len(full)
    for got, want in zip(ev.n_big, full):
        np.testing.assert_array_equal(got, want)


def test_mainlem_fold_counts_a_run_that_ends_at_the_last_square():
    # curves through the top row: in the last column they hit the grid's
    # last square, whose search key is the last of all
    k = 5
    top = 1.0 - 2.0 ** -(k + 1)
    fam = fl.TransversalFamily("affine", [0.0, 0.75], [top, top - 0.75], (0.0, 1.0))
    ev = cf.MainlemEvaluator(fam, k, 1, 1.0)
    dense, _ = cf.cube_incidence_counts(fam, ev.squares, 1)
    pairs = fl.incidences_bruteforce(fam, ev.squares, 2.0).pairs
    want = np.bincount(pairs[:, 1], minlength=len(ev.squares))
    assert want[-1] == 2
    np.testing.assert_array_equal(dense.sum(axis=1), want)
    np.testing.assert_array_equal(ev.n_big[0], np.sum(dense >= 1, axis=1))
    assert ev.n_big[0][-1] == len(ev.cube_ids) == 2


@pytest.mark.parametrize("b", [0, 3, 6, 2.5, -2])
def test_mainlem_report_refuses_a_b_that_is_not_a_power_of_two(line_evaluator, b):
    with pytest.raises(DomainError):
        line_evaluator.report(a=2, b=b)


@pytest.mark.parametrize("a", [0, -2, 2.5])
def test_mainlem_report_refuses_an_a_that_is_not_an_integer_of_at_least_one(line_evaluator, a):
    # 0 would divide the bound by zero, -2 make it negative, 2.5 name no cell
    with pytest.raises(DomainError, match="need an integer a >= 1"):
        line_evaluator.report(a=a, b=1)
