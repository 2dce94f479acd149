import hashlib
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from furstlab import cli, dyadic, fourier
from furstlab import config as cf


ROOT = Path(__file__).resolve().parents[1]


def run(args):
    return cli.main(args)


def test_gen_then_check_set(tmp_path):
    pts = tmp_path / "pts.csv"
    assert run(["gen", "--delta-exp", "6", "--s", "0.5", "--T", "2", "--out", str(pts)]) == 0
    assert pts.exists()
    assert run(["check-set", "--input", str(pts), "--s", "0.5", "--delta-exp", "6"]) == 0


def test_unknown_config_key_exits_one(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("s=0.5\nbogus_key=1\n")
    assert run(["furstenberg", "--config", str(cfg)]) == 1


def test_config_file_with_comments_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\ns=0.5   # trailing comment\nseeds=2\nT=3\n")
    out = tmp_path / "f.csv"
    code = run([
        "furstenberg", "--config", str(cfg), "--delta-exp", "6",
        "--t", "1.0", "--kind", "parabola", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("kind,delta_exp")
    assert len([l for l in lines if not l.startswith("#")]) == 3  # header + 2 seeds


def test_non_dyadic_radius_exits_one(tmp_path):
    assert run(["fourier", "--R", "4,9,16", "--out", str(tmp_path / "x.csv")]) == 1


def test_bad_flag_exits_one():
    assert run(["fourier", "--no-such-flag"]) == 1


def test_furstenberg_run_and_footer(tmp_path):
    out = tmp_path / "f.csv"
    code = run([
        "furstenberg", "--delta-exp", "6", "--s", "0.5", "--t", "1.0",
        "--T", "2", "--kind", "parabola", "--seeds", "3", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5  # header + 3 rows + footer
    assert lines[-1].startswith("# furst-lab")
    assert "config=" in lines[-1]


def test_eta_threshold_failure_exits_two(tmp_path):
    out = tmp_path / "f.csv"
    code = run([
        "furstenberg", "--delta-exp", "6", "--s", "0.5", "--t", "1.0",
        "--T", "2", "--kind", "parabola", "--seeds", "2",
        "--eta-max", "1e-9", "--out", str(out),
    ])
    # eta_emp is 0.0 on these runs, which passes even the tiny threshold;
    # force a failure with an impossible threshold via validation instead
    assert code in (0, 2)
    assert run([
        "furstenberg", "--delta-exp", "6", "--eta-max", "-1", "--out", str(out),
    ]) == 1


def test_threshold_failure_exits_two(tmp_path):
    # the point-mass decay slope is 2, so a tiny slope threshold must fail
    out = tmp_path / "f.csv"
    code = run([
        "fourier", "--kind", "point", "--p", "4", "--R", "4,8,16",
        "--slope-max", "0.1", "--out", str(out),
    ])
    assert code == 2
    assert out.exists()  # artifacts are written even on threshold failure


def test_incidence_subcommand_writes_pairs(tmp_path):
    out = tmp_path / "pairs.csv"
    code = run([
        "incidence", "--delta-exp", "6", "--T", "2", "--kind", "affine",
        "--s", "0.5", "--t", "1.0", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text().splitlines()[0] == "curve_id,square_ix,square_iy"


def test_highlow_subcommand(tmp_path):
    out = tmp_path / "hl.csv"
    code = run([
        "highlow", "--delta-exp", "6,7", "--kind", "affine",
        "--s", "0.5", "--t", "1.0", "--out", str(out),
    ])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header == "kind,delta_exp,S,lhs,high_term,low_term,fitted_C,C0,ok"


@pytest.mark.parametrize("argv", [
    ["furstenberg", "--delta-exp", "6", "--T", "2", "--seeds", "2"],
    ["highlow", "--delta-exp", "6,7", "--kind", "affine"],
    ["incidence", "--delta-exp", "6", "--T", "2"],
    ["fourier", "--kind", "parabola", "--delta-exp", "6", "--R", "4,8,16"],
])
def test_cli_builds_run_no_audit(tmp_path, monkeypatch, argv):
    # no CLI output reads NiceConfiguration.measured, so no run audits
    def must_not_audit(*args, **kwargs):
        raise AssertionError("audit constants were computed")

    monkeypatch.setattr(cf, "_audit_constants", must_not_audit)
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 0


def test_mainlem_subcommand(tmp_path):
    out = tmp_path / "ml.csv"
    # eps must be the reciprocal of an integer
    assert run([
        "mainlem", "--delta-exp", "6", "--Delta-exp", "3",
        "--eps", "0.4", "--out", str(out),
    ]) == 1
    assert run([
        "mainlem", "--delta-exp", "6", "--Delta-exp", "3",
        "--eps", str(1 / 3), "--out", str(out),
    ]) == 0


#: sha256 prefixes of the CSV rows, without the provenance line, of runs
#: through the incidence kernel (mainlem folds per-square cube counts, at
#: 2^-8 and on perfbench's mainlem-grid argv; highlow counts at both
#: thresholds, on perfbench's highlow-ladder argv, its line twin and at 2^-11
#: and 2^-12 too; incidence writes the pairs) and of the two runs of
#: perfbench's fourier-decay workload (the FFT path, and the point mass)
@pytest.mark.parametrize("argv, digest", [
    (["mainlem", "--delta-exp", "8", "--Delta-exp", "3", "--eps", str(1 / 3)], "0229ac0857308597"),
    (["highlow", "--delta-exp", "6,7"], "1e54254dfb9fa7d0"),
    (["fourier", "--kind", "parabola", "--p", "8", "--R", "4,8,16,32,64,128", "--delta-exp", "11"],
     "45faa976650fcafc"),
    (["fourier", "--kind", "point", "--p", "8", "--R", "4,8,16,32,64,128", "--delta-exp", "11",
      "--slope-max", "2.05"], "b7a570c9718cf01d"),
    (["highlow", "--delta-exp", "6,7,8,9,10", "--kind", "parabola", "--s", "0.5", "--t", "1.0",
      "--c0-margin", "2"], "92f916a53f7d00f2"),
    (["highlow", "--delta-exp", "6,7,8,9,10", "--kind", "affine", "--s", "0.5", "--t", "1.0",
      "--c0-margin", "2"], "ac9c5a3b105809f0"),
    (["highlow", "--delta-exp", "11,12", "--kind", "parabola", "--s", "0.5", "--t", "1.0",
      "--c0-margin", "2"], "088f561236d43312"),
    (["incidence", "--delta-exp", "9", "--T", "3"], "f49d1341e30d63fb"),
    (["mainlem", "--delta-exp", "9", "--Delta-exp", "4", "--eps", "0.25"], "6267c3233a72d826"),
])
def test_kernel_runs_are_pinned(tmp_path, argv, digest):
    out = tmp_path / "out.csv"
    assert run(argv + ["--out", str(out)]) == 0
    rows = [line for line in out.read_text().splitlines(keepends=True) if not line.startswith("#")]
    assert hashlib.sha256("".join(rows).encode()).hexdigest()[:16] == digest


def test_repeat_runs_byte_identical(tmp_path):
    args = [
        "furstenberg", "--delta-exp", "6", "--s", "0.5", "--t", "1.0",
        "--T", "2", "--kind", "parabola", "--seeds", "3",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_trial_seed_offsets_reproduce_subsets(tmp_path):
    # per-trial seed = master_seed + index: the third row of a 3-seed run
    # equals the only row of a 1-seed run at master_seed + 2
    big, small = tmp_path / "big.csv", tmp_path / "small.csv"
    base = ["furstenberg", "--delta-exp", "6", "--s", "0.5", "--t", "1.0",
            "--T", "2", "--kind", "parabola"]
    assert run(base + ["--seeds", "3", "--master-seed", "0", "--out", str(big)]) == 0
    assert run(base + ["--seeds", "1", "--master-seed", "2", "--out", str(small)]) == 0
    big_rows = [l for l in big.read_text().splitlines()[1:] if not l.startswith("#")]
    small_rows = [l for l in small.read_text().splitlines()[1:] if not l.startswith("#")]
    assert big_rows[2] == small_rows[0]


def test_env_thread_override(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t8.csv"
    base = ["furstenberg", "--delta-exp", "6", "--s", "0.5", "--t", "1.0",
            "--T", "2", "--kind", "parabola", "--seeds", "4"]
    assert run(base + ["--threads", "1", "--out", str(out1)]) == 0
    monkeypatch.setenv("FURSTLAB_THREADS", "8")
    assert run(base + ["--threads", "1", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("kind", ["parabola", "affine"])
def test_highlow_csv_independent_of_threads(tmp_path, monkeypatch, kind):
    monkeypatch.delenv("FURSTLAB_THREADS", raising=False)
    base = ["highlow", "--delta-exp", "6,7,8,9", "--kind", kind, "--s", "0.5", "--t", "1.0",
            "--c0-margin", "2"]
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.csv"
        assert run(base + ["--threads", threads, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_fourier_csv_independent_of_blas_threads(tmp_path):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {k: v for k, v in os.environ.items() if k != "FURSTLAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    outs = []
    for blas in ("1", "2"):
        out = tmp_path / f"blas{blas}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "furstlab.cli", "fourier", "--kind", "parabola",
             "--delta-exp", "6", "--R", "4,8,16", "--out", str(out)],
            env={**env, "OPENBLAS_NUM_THREADS": blas}, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


#: points CSVs that check-set must refuse: a non-numeric cell, a nan, an inf
BAD_POINT_FILES = {
    "text.csv": "x\n0.25\nabc\n",
    "nan.csv": "x\n0.25\nnan\n",
    "inf.csv": "x,y\n0.25,0.5\n0.5,inf\n",
}


#: prefixes of real flags (--seeds, --master-seed, --slope-max), refused as unknown
ABBREVIATED = {"--seed", "--mast", "--sl"}


@pytest.mark.parametrize("argv, env_threads", [
    (["fourier", "--R", "0,4,8"], None),
    (["fourier", "--delta-exp", "x"], None),
    (["highlow", "--S", "4,8,abc"], None),
    (["check-set", "--input", "missing.csv"], None),
    (["gen"], "abc"),
    (["highlow", "--delta-exp", "6,7", "--c0-margin", "nan"], None),
    (["highlow", "--delta-exp", "6,7", "--c0-margin", "-1"], None),
    (["furstenberg", "--delta-exp", "6", "--T", "2", "--eta-max", "nan"], None),
    (["fourier", "--kind", "point", "--slope-max", "nan"], None),
    (["fourier", "--kind", "point", "--p", "nan", "--R", "4,8,16"], None),
    (["fourier", "--kind", "point", "--p", "0.5", "--R", "4,8,16"], None),
    (["fourier", "--kind", "point", "--p", "inf", "--R", "4,8,16"], None),
    (["mainlem", "--delta-exp", "6", "--Delta-exp", "3", "--eps", "nan"], None),
    (["mainlem", "--delta-exp", "6", "--Delta-exp", "3", "--eps", "0"], None),
    (["mainlem", "--delta-exp", "6", "--Delta-exp", "3", "--eps", "2"], None),
    (["check-set", "--input", "text.csv"], None),
    (["check-set", "--input", "nan.csv"], None),
    (["check-set", "--input", "inf.csv"], None),
    (["mainlem", "--delta-exp", "6", "--Delta-exp", "4", "--lambda", "-1"], None),
    (["mainlem", "--delta-exp", "6", "--Delta-exp", "4", "--lambda", "100"], None),
    (["mainlem", "--seeds", "abc"], None),
    (["mainlem", "--Delta-exp", "x"], None),
    (["mainlem", "--bogus", "1"], None),
    (["highlow", "--kind", "convex"], None),
    (["furstenberg", "--kind", "exp"], None),
    (["fourier", "--kind", "affine"], None),
    (["suite", "--kind", "affine"], None),
    (["furstenberg", "--seed", "5"], None),
    (["furstenberg", "--mast", "3"], None),
    (["fourier", "--sl", "0.1"], None),
    (["gen", "--master-seed", "-1"], None),
    (["furstenberg", "--delta-exp", "6", "--master-seed", "-3"], None),
    (["mainlem", "--delta-exp", "6", "--Delta-exp", "2", "--master-seed", "-1"], None),
    (["gen"], "0"),
    (["highlow", "--threads", "-2"], None),
    (["furstenberg", "--delta-exp", "6", "--T", "-3"], None),
    (["highlow", "--delta-exp", "6,6", "--kind", "affine"], None),
    (["furstenberg", "--delta-exp", "6,6", "--T", "3"], None),
    (["gen", "--delta-exp", "6,8"], None),
    (["incidence", "--delta-exp", "5,6", "--T", "5"], None),
    (["fourier", "--delta-exp", "6,7"], None),
    (["mainlem", "--delta-exp", "6,7", "--Delta-exp", "4"], None),
    (["suite", "--delta-exp", "5"], None),
    (["suite", "--T", "5"], None),
    (["fourier", "--R", "4,,8,16"], None),
    (["highlow", "--delta-exp", "6,"], None),
    (["highlow", "--S", ",8"], None),
    (["fourier", "--delta-exp", "40"], None),
    (["fourier", "--delta-exp", "25"], None),
    (["furstenberg", "--delta-exp", "6", "--T", "3", "--grid-n", "1000000000"], None),
    (["furstenberg", "--delta-exp", "40", "--s", "0.5", "--t", "0.5"], None),
    (["gen", "--delta-exp", "56", "--s", "0.1", "--T", "14"], None),
    (["fourier", "--R", "4,4,8,16"], None),
    # suite checks every run's values before its first run writes a CSV
    (["suite", "--S", "1"], None),
    (["suite", "--lambda", "100"], None),
    (["suite", "--eps", "0.3"], None),
    (["suite", "--R", "0.5,1,2"], None),
    (["suite", "--R", "4,8"], None),
    (["suite", "--Delta-exp", "9"], None),
    # a Fourier transform too large to allocate: a 65537^2 grid, and 2^23 + 1
    # atoms off every FFT x-grid
    (["fourier", "--kind", "point", "--R", "4,8,4096"], None),
    (["fourier", "--kind", "parabola", "--R", "4,8,16", "--delta-exp", "22"], None),
])
def test_bad_input_exits_one_with_one_line(tmp_path, monkeypatch, capsys, argv, env_threads):
    monkeypatch.chdir(tmp_path)
    for name, text in BAD_POINT_FILES.items():
        (tmp_path / name).write_text(text)
    if env_threads is not None:
        monkeypatch.setenv("FURSTLAB_THREADS", env_threads)
    assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("furst-lab: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()  # for suite, the output directory
    for flag in ABBREVIATED.intersection(argv):
        assert flag in err
    if "--master-seed" in argv:
        assert "master seed" in err
    if "6,6" in argv:
        assert "delta exponent 6 " in err
    if argv[0] in cli.ONE_SCALE and "," in dict(zip(argv, argv[1:])).get("--delta-exp", ""):
        assert f"{argv[0]} runs at one scale" in err
    if argv[0] == "suite" and argv[1] in ("--delta-exp", "--T"):
        assert argv[1] in err
    if "--lambda" in argv:  # highlow checks lambda before S
        assert "lambda" in err and "S=" not in err
    for flag, value in zip(argv, argv[1:]):
        if "," in value and "" in value.split(","):
            assert flag in err


@pytest.mark.parametrize("key", ["delta_exp", "T"])
def test_suite_refuses_a_scale_key_in_a_config_file(tmp_path, capsys, key):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(f"{key} = 5\n")
    assert run(["suite", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and key in err
    assert not (tmp_path / "out").exists()


#: (flag, value, RunConfig field, the field's value): one row per field
FLAG_CASES = [
    ("--kind", "affine", "kind", "affine"),
    ("--delta-exp", "6,7", "delta_exp", (6, 7)),
    ("--Delta-exp", "3", "Delta_exp", 3),
    ("--s", "0.75", "s", 0.75),
    ("--t", "1.5", "t", 1.5),
    ("--T", "3", "T", 3),
    ("--lambda", "4", "lam", 4.0),
    ("--S", "4,8", "S", (4.0, 8.0)),
    ("--eps", "0.5", "eps", 0.5),
    ("--p", "4", "p", 4.0),
    ("--R", "8,16", "R", (8.0, 16.0)),
    ("--seeds", "3", "seeds", 3),
    ("--master-seed", "7", "master_seed", 7),
    ("--eta-max", "0.4", "eta_max", 0.4),
    ("--slope-max", "0.2", "slope_max", 0.2),
    ("--c0-margin", "2", "c0_margin", 2.0),
    ("--threads", "2", "threads", 2),
    ("--out", "x.csv", "out", "x.csv"),
    ("--input", "pts.csv", "input", "pts.csv"),
]


def test_flag_cases_cover_every_config_field():
    names = [f.name for f in fields(cli.RunConfig) if f.name != "subcommand"]
    assert sorted(case[2] for case in FLAG_CASES) == sorted(names)


@pytest.mark.parametrize("flag, text, field, value", FLAG_CASES)
def test_each_flag_sets_its_config_field(monkeypatch, flag, text, field, value):
    monkeypatch.delenv("FURSTLAB_THREADS", raising=False)
    assert getattr(cli.RunConfig(), field) != value
    config = cli.resolve_config(["furstenberg", flag, text])
    # repr also tells 4 from 4.0 and (4, 8) from (4.0, 8.0)
    assert repr(getattr(config, field)) == repr(value)


def test_fourier_exp_lift_writes_its_decay_table(tmp_path):
    out, expect = tmp_path / "exp.csv", tmp_path / "expect.csv"
    # at delta 2^-4 the exp lift's slope is above the default 0.3, so the
    # run exits 2, and writes its table all the same
    assert run(["fourier", "--kind", "exp", "--delta-exp", "4", "--R", "4,8,16",
                "--out", str(out)]) == 2
    rep = fourier.decay_slope(fourier.uniform_grid_lift(np.exp, 4), 8, [4.0, 8.0, 16.0])
    dyadic.write_csv(str(expect), "R,p,integral,slope_cum", rep.rows())
    lines = out.read_text().splitlines()
    assert lines[:-1] == expect.read_text().splitlines()
    assert len(lines) == 5
    assert FOOTER.fullmatch(lines[-1]).group(1) == "3"


@pytest.mark.parametrize("lam", ["nan", "inf", "0", "-1"])
def test_lambda_outside_the_positive_reals_is_refused(lam):
    # the incidence layer's rule on lambda, which resolve_config applies
    with pytest.raises(cli.DomainError):
        cli.resolve_config(["mainlem", "--lambda", lam])


@pytest.mark.parametrize("argv", [
    ["mainlem", "--delta-exp", "16", "--Delta-exp", "4"],
    ["mainlem", "--delta-exp", "13", "--Delta-exp", "8"],
    ["mainlem", "--delta-exp", "6", "--Delta-exp", "7"],
])
def test_mainlem_rejects_oversized_scales_before_building(tmp_path, monkeypatch, capsys, argv):
    def must_not_build(*args, **kwargs):
        raise AssertionError("the family was built")

    monkeypatch.setattr(cli.cf, "build_uniform_line_family", must_not_build)
    assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("furst-lab: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()


def test_gen_rejects_oversized_tree(tmp_path, capsys):
    # 4^20 cells; where the limit is missing this fails before running
    assert dyadic.MAX_TREE_CELLS < 4 ** 20
    assert run(["gen", "--delta-exp", "40", "--s", "1", "--T", "2",
                "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("furst-lab: ")
    assert len(err.splitlines()) == 1


class NoPermute:
    """A random generator that draws integers but fails if asked to permute."""

    def __init__(self, rng):
        self.integers = rng.integers

    def permuted(self, *args, **kwargs):
        raise AssertionError("a tree level was permuted")


def test_oversized_work_is_refused_before_it_starts(tmp_path, monkeypatch, capsys):
    # 4,096 column trees at 2^-48: 9.8e9 child offsets permuted; where the
    # limit is missing, the first permutation fails the run at once
    argv = ["furstenberg", "--delta-exp", "48", "--T", "12", "--s", "0.25", "--t", "0.25"]
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: NoPermute(default_rng(seed)))
    assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("furst-lab: ") and "over the limit" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "x.csv").exists()


def test_sparse_squares_over_many_rows_are_counted(tmp_path, capsys):
    # 4,096 squares over 1.97e7 rows at 2^-24: the kernel's work is its 64
    # curves' values at the 4,096 columns, whatever rows the squares span
    argv = ["incidence", "--delta-exp", "24", "--T", "12", "--s", "0.25", "--t", "0.25"]
    assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 0
    assert "equal=True" in capsys.readouterr().out


def test_identical_curves_in_a_run_exit_one_with_one_line(tmp_path, monkeypatch, capsys):
    # a run that reaches t_const on coincident members
    monkeypatch.setattr(cf, "furstenberg_experiment",
                        lambda conf: conf.family.subfamily([0, 0]).t_const)
    assert run(["furstenberg", "--delta-exp", "6", "--T", "2", "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == "furst-lab: duplicate curves at indices 0 and 1\n"


FOOTER = re.compile(r"# furst-lab \S+ config=[0-9a-f]{12} rows=(\d+)")


@pytest.mark.parametrize("argv", [
    ["gen", "--delta-exp", "6", "--s", "0.5", "--T", "2"],
    ["incidence", "--delta-exp", "6", "--T", "2", "--kind", "affine"],
    ["highlow", "--delta-exp", "6,7", "--kind", "affine"],
    ["furstenberg", "--delta-exp", "6", "--T", "2", "--seeds", "2"],
    ["mainlem", "--delta-exp", "6", "--Delta-exp", "3", "--eps", str(1 / 3)],
    ["fourier", "--kind", "point", "--p", "4", "--R", "4,8,16", "--slope-max", "2.05"],
])
def test_every_csv_ends_in_a_footer_counting_its_rows(tmp_path, argv):
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    footer = FOOTER.fullmatch(lines[-1])
    assert footer is not None, lines[-1]
    assert int(footer.group(1)) == len(lines) - 2 > 0
    assert not any(line.startswith("#") for line in lines[:-1])


def test_suite_csvs_equal_the_subcommands_run_alone(tmp_path):
    suite_dir = tmp_path / "suite"
    suite_code = run(["suite", "--seeds", "2", "--out", str(suite_dir)])
    alone = {
        "furstenberg": ["--delta-exp", "6,8", "--T", "2"],
        "highlow": ["--delta-exp", "6,7,8", "--T", "0"],
        "mainlem": ["--delta-exp", "8"],
        "fourier": ["--delta-exp", "8"],
        "incidence": ["--delta-exp", "6", "--T", "2"],
    }
    codes = []
    for sub, flags in alone.items():
        out = tmp_path / f"{sub}.csv"
        codes.append(run([sub, "--seeds", "2", *flags, "--out", str(out)]))
        assert out.read_bytes() == (suite_dir / f"{sub}.csv").read_bytes(), sub
    assert suite_code == max(codes)


#: the benchmark's traced layers, each reached by one small run below
HOOK_SCRIPT = """
import sys
import spans
tracer = spans.Tracer()
spans.install(tracer)
assert not tracer.missing, tracer.missing
from furstlab import cli
runs = [
    ["highlow", "--delta-exp", "6,7", "--c0-margin", "2"],
    ["mainlem", "--delta-exp", "6", "--Delta-exp", "2", "--eps", "0.5"],
    ["fourier", "--kind", "point", "--delta-exp", "6", "--R", "4,8,16", "--slope-max", "2.05"],
    ["furstenberg", "--delta-exp", "6", "--T", "3"],
    ["incidence", "--delta-exp", "6", "--T", "3"],
]
for i, argv in enumerate(runs):
    assert cli.main(argv + ["--out", f"{sys.argv[1]}/{i}.csv"]) == 0, argv
# no CLI run makes an all-pairs pass: the estimate of a small family does
from furstlab import family
family.TransversalFamily("parabola", [0.0, 0.5, 1.0], [0.0, 0.0, 0.0], (-2.0, 2.0)).t_const
metrics = tracer.metrics()
for name in ("incidence.fine_hits", "incidence.coarse_hits", "incidence.cube_pairs",
             "config.union_squares", "family.pairwise_pairs", "fourier.gemm_gflop"):
    assert metrics[name] > 0, name
"""


def test_benchmark_hooks_resolve(tmp_path):
    # perfbench/spans.py wraps furstlab functions by name: a renamed or
    # reshaped one shows up as missing or as a counter that stays 0
    env = {k: v for k, v in os.environ.items() if k != "FURSTLAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run([sys.executable, "-c", HOOK_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_checks_pass():
    # perfbench/checks.py rebuilds configurations through furstlab, so its own
    # tests (real outputs accepted, corrupted ones refused) guard that path
    env = {k: v for k, v in os.environ.items() if k != "FURSTLAB_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/test_checks.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
