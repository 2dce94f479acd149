"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

import furstlab as fl
from furstlab import cli
from furstlab import config as cf
from furstlab import dyadic as dy
from furstlab import famspace as fs
from furstlab import fourier as fo
from furstlab import incidence as inc


def report(num: int, name: str, t0: float, detail: str = "") -> None:
    extra = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num} ({name}): PASS ({time.time() - t0:.1f}s){extra}")


def parabola(a, b):
    return fl.quadratic_translate_curve(a, b, (-2.0, 2.0), lead=0.5)


def random_parabola_family(rng, n, declared=None):
    return fl.TransversalFamily(
        [parabola(a, b - 1.0) for a, b in zip(rng.uniform(0, 1, n), rng.uniform(0, 1, n))],
        declared_t_const=declared,
        check_duplicates=False,
    )


# -- 1: incidence oracle equivalence ----------------------------------------------

def test_acceptance_01_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    checked_pairs = 0
    for trial in range(200):
        k = int(rng.integers(5, 9))          # delta in {2^-5 .. 2^-8}
        n = int(rng.integers(2, 129))        # |F| <= 128
        n_sq = int(rng.integers(16, 4097))   # squares <= 4096
        if trial % 2 == 0:
            fam = fl.TransversalFamily(
                [fl.affine_curve(a, b - 1.0, (0.0, 1.0))
                 for a, b in zip(rng.uniform(0, 1, n), rng.uniform(0, 1, n))],
                declared_t_const=5.0, check_duplicates=False,
            )
        else:
            fam = random_parabola_family(rng, n, declared=5.0)
        ix = rng.integers(0, 2 ** k, n_sq)
        iy = rng.integers(-(2 ** k), 2 ** k, n_sq)
        P = dy.SquareFamily(k, ix, iy)
        lam = float(rng.uniform(1.0, 4.0))
        fast = inc.incidences(fam, P, lam)
        brute = inc.incidences_bruteforce(fam, P, lam)
        assert fast.count == brute.count
        assert np.array_equal(fast.pairs, brute.pairs)
        checked_pairs += fast.count
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 10s"
    report(1, "fast incidence == brute force, 200 instances", t0,
           f"{checked_pairs} incidences compared")


# -- 2: bi-Lipschitz embedding -------------------------------------------------------

def test_acceptance_02_embedding():
    t0 = time.time()
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(8, 64))
        fam = random_parabola_family(rng, n)
        t_est = fam.t_const
        img = fam.embedding_images()
        dmat = fs.family_distance_matrix(fam)
        for i in range(n):
            for j in range(i + 1, n):
                gap = math.hypot(img[i, 0] - img[j, 0], img[i, 1] - img[j, 1])
                assert gap <= dmat[i, j] * (1 + 1e-12)
                assert dmat[i, j] <= math.sqrt(2) * t_est * gap * (1 + 1e-6)
    report(2, "sqrt(2) T bi-Lipschitz embedding, 20 families", t0)


# -- 3: covering ratio ------------------------------------------------------------------

def test_acceptance_03_covering_ratio():
    t0 = time.time()
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(12, 60))
        fam = random_parabola_family(rng, n)
        t_est = fam.t_const
        dmat = fs.family_distance_matrix(fam)
        diam = float(dmat.max())
        for level in range(0, 14):
            r = math.ldexp(1.0, -level)
            if r > diam:
                continue
            ratio = dy.covering_number(dist=dmat, r=r) / fs.family_cube_count(fam, level)
            assert 1.0 / 16.0 <= ratio <= 40.0 * t_est ** 4, (seed, level, ratio)
    report(3, "covering ratio in [1/16, 40 T^4], 20 families", t0)


# -- 4: uniformization ---------------------------------------------------------------------

def test_acceptance_04_uniformization():
    t0 = time.time()
    T = fs.lipschitz_period_floor(cf.AFFINE_DIFFERENCE_T)
    m = 2
    for seed in range(50):
        rng = np.random.default_rng(400 + seed)
        s = float(rng.uniform(0.05, 0.3))
        idx = dy.generate_delta_set_indices(m * T, s, T, rng, dim=2, batch=1)[0]
        a = dy.centers_of(idx[:, 0], m * T)
        b = dy.centers_of(idx[:, 1], m * T)
        fam = fl.TransversalFamily(
            [parabola(ai, bi - 1.0) for ai, bi in zip(a, b)],
            declared_t_const=cf.AFFINE_DIFFERENCE_T, check_duplicates=False,
        )
        sub, st = fs.extract_uniform_subset(fam, T, m)
        uniform, counts = fs.audit_uniformity(sub, T, m)
        assert uniform and counts == st.N
        assert st.delta_cells_after >= (6 * T) ** (-m) * st.delta_cells_before
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"criterion 4 runtime {elapsed:.1f}s exceeds 30s"
    report(4, "exact uniformization with (6T)^-m loss bound, 50 families", t0)


# -- 5: intersection structure ----------------------------------------------------------------

def test_acceptance_05_intersection_structure():
    t0 = time.time()
    rng = np.random.default_rng(500)
    grid_n = 2049
    tested = 0
    while tested < 100:
        a1, a2 = rng.uniform(0, 1, 2)
        b1, b2 = rng.uniform(-1, 0, 2)
        f, g = parabola(a1, b1), parabola(a2, b2)
        fam = fl.TransversalFamily([f, g], check_duplicates=False)
        t_est = fam.t_const
        d = fl.c2_dist(f, g, grid_n)
        r = d / (4.0 * t_est) * float(rng.uniform(0.05, 0.95))
        if r <= 0:
            continue
        assert d >= 4 * r * t_est
        rep = fl.intersection_components(f, g, r, grid_n)
        assert len(rep) <= math.ceil(5 * t_est)
        for L in rep.lengths:
            assert L <= 16.0 * r * t_est / d * (1.0 + 10.0 / grid_n)
        tested += 1
    report(5, "overlap components: count <= ceil(5T), length <= 16rT/d", t0)


# -- 6: high-low estimate ------------------------------------------------------------------------

def test_acceptance_06_high_low():
    t0 = time.time()
    lam = 2.0
    S_factors = (1, 2, 4)
    for kind in ("affine", "parabola"):
        calib = []
        checks = []
        for de in (6, 7, 8, 9, 10):
            conf = cf.build_nice_configuration(kind, de, 0.5, 1.0, de, seed=606, audit="probe")
            P = conf.union_squares()
            for f in S_factors:
                rep = inc.high_low_report(conf.family, P, lam, 2 * lam * f)
                (calib if de == 6 else checks).append(rep)
        C0 = max(r.fitted_C for r in calib)
        for rep in checks:
            assert rep.satisfies(C0), (kind, rep.delta_exp, rep.S, rep.fitted_C, C0)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"criterion 6 runtime {elapsed:.1f}s exceeds 60s"
    report(6, "high-low inequality with C0 calibrated at delta=2^-6", t0)


# -- 7: Furstenberg bound ---------------------------------------------------------------------------

def test_acceptance_07_furstenberg():
    t0 = time.time()
    for (s, t) in ((0.5, 1.0), (0.5, 0.5), (0.9, 1.5)):
        etas = {}
        for de in (9, 6):
            vals = []
            for seed in range(20):
                conf = cf.build_nice_configuration(
                    "parabola", de, s, t, 3, seed=700 + seed, audit="probe"
                )
                res = cf.furstenberg_experiment(conf)
                if de == 9:
                    assert res.eta_emp <= 0.5, (s, t, seed, res.eta_emp)
                vals.append(res.eta_emp)
            etas[de] = float(np.median(vals))
        assert etas[9] <= etas[6] + 1e-12, (s, t, etas)
    elapsed = time.time() - t0
    assert elapsed < 180.0, f"criterion 7 runtime {elapsed:.1f}s exceeds 180s"
    report(7, "three-way counting bound: eta_emp <= 0.5, medians monotone", t0)


# -- 8: endpoint corollaries ---------------------------------------------------------------------------

def test_acceptance_08_endpoints():
    t0 = time.time()
    slack = 2.0 ** (-0.4 * 8)
    for seed in range(10):
        kt = cf.build_parallel_translate_configuration(8, 0.5, 2, seed=800 + seed)
        rep = cf.endpoint_checks(kt)
        assert rep.kt_ratio >= slack, ("katz-tao", seed, rep.kt_ratio)
        dense = cf.build_nice_configuration(
            "parabola", 8, 0.5, 1.5, 2, seed=800 + seed, audit="probe"
        )
        rep = cf.endpoint_checks(dense)
        assert rep.dense_ratio >= slack, ("dense", seed, rep.dense_ratio)
    report(8, "endpoint regimes reach delta^0.4 of their bounds, 10 seeds", t0)


# -- 9: multiplicity-count bound ---------------------------------------------------------------------------

def test_acceptance_09_mainlem():
    t0 = time.time()
    fam = cf.build_uniform_line_family(8, 4, seed=900)
    ev = cf.MainlemEvaluator(fam, 8, 4, 0.25)
    assert ev.cube_separated
    reports = ev.sweep()
    assert reports
    violations = [r for r in reports if r.violation]
    assert not violations
    fired = sum(r.pre_filter_size > 0 for r in reports)
    report(9, "no |P_ab| bound violation over the dyadic (a,b) sweep", t0,
           f"{len(reports)} cells, N-filter fired on {fired}")


# -- 10: Fourier decay ---------------------------------------------------------------------------

def test_acceptance_10_fourier_decay():
    t0 = time.time()
    pm = dy.AtomicMeasure(np.array([[0.0, 0.0]]), np.array([1.0]))
    slope_pm = fo.decay_slope(pm, 4.0, [4, 8, 16, 32, 64]).slope
    assert abs(slope_pm - 2.0) <= 0.05
    lift = fo.uniform_grid_lift(lambda x: np.asarray(x, dtype=float) ** 2, 8, s=1.0)
    rep = fo.decay_slope(lift, 8.0, [4, 8, 16, 32, 64])
    assert rep.slope <= 0.3
    for R in (4.0, 16.0, 64.0):
        v1 = fo.lp_norm_ball(lift, 8.0, R, 1 / 8)
        v2 = fo.lp_norm_ball(lift, 8.0, R, 1 / 16)
        assert abs(v2 - v1) / v1 <= 0.05
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"criterion 10 runtime {elapsed:.1f}s exceeds 120s"
    report(10, "point-mass slope 2 +- 0.05; lift slope <= 0.3; halving <= 5%", t0,
           f"lift slope {rep.slope:.4f}")


# -- 11: determinism ---------------------------------------------------------------------------

def test_acceptance_11_determinism(tmp_path, monkeypatch):
    t0 = time.time()
    out1 = tmp_path / "threads1"
    out8 = tmp_path / "threads8"
    monkeypatch.delenv("FURSTLAB_THREADS", raising=False)
    assert cli.main(["suite", "--seeds", "4", "--threads", "1", "--out", str(out1)]) == 0
    assert cli.main(["suite", "--seeds", "4", "--threads", "8", "--out", str(out8)]) == 0
    names = sorted(p.name for p in out1.glob("*.csv"))
    assert names, "suite produced no CSVs"
    for name in names:
        b1 = (out1 / name).read_bytes()
        b8 = (out8 / name).read_bytes()
        assert b1 == b8, f"{name} differs between 1 and 8 threads"
    report(11, "suite CSVs byte-identical across 1 and 8 threads", t0,
           f"{len(names)} files compared")
