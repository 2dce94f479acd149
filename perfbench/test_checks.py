"""The benchmark's checks accept real outputs and reject corrupted ones.

Run from the root of a checkout:  python3 -m pytest perfbench/test_checks.py
Each test runs a small `furst-lab` invocation, requires its CSV to pass the
checks, then corrupts one value and requires the checks to reject it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from checks import check_output  # noqa: E402
from workloads import Invocation  # noqa: E402

from furstlab import cli  # noqa: E402


def _output(tmp_path, inv: Invocation) -> str:
    out = tmp_path / f"{inv.label}.csv"
    assert cli.main(inv.full_argv(str(out))) == 0
    text = out.read_text()
    assert check_output(inv, text) == []
    return text


def _edit(text: str, row: int, col: int, fn) -> str:
    """Replace data row ``row``'s column ``col`` with fn(old value string)."""
    lines = text.splitlines(keepends=True)
    cells = lines[1 + row].rstrip("\n").split(",")
    cells[col] = fn(cells[col])
    lines[1 + row] = ",".join(cells) + "\n"
    return "".join(lines)


def _rejected(inv: Invocation, text: str) -> bool:
    return check_output(inv, text) != []


def _plus_one(v: str) -> str:
    return str(int(v) + 1)


def _scale(factor: float):
    return lambda v: repr(float(v) * factor)


FURSTENBERG = Invocation("furstenberg", (
    "furstenberg", "--kind", "parabola", "--T", "3", "--s", "0.5", "--t", "1.0",
    "--delta-exp", "3,6", "--seeds", "2", "--master-seed", "5",
))
HIGHLOW = Invocation("highlow", (
    "highlow", "--delta-exp", "6,7", "--kind", "parabola", "--s", "0.5", "--t", "1.0",
    "--c0-margin", "2.0", "--master-seed", "5",
))
MAINLEM = Invocation("mainlem", (
    "mainlem", "--delta-exp", "6", "--Delta-exp", "4", "--eps", "0.25", "--master-seed", "5",
))
FOURIER = Invocation("fourier", (
    "fourier", "--kind", "parabola", "--p", "8", "--R", "4,8,16", "--delta-exp", "6",
))
POINT = Invocation("point", (
    "fourier", "--kind", "point", "--p", "8", "--R", "4,8,16", "--delta-exp", "6",
    "--slope-max", "2.05",
))


# row 2 is the first seed at the largest delta, the trial whose |P| is recounted
@pytest.mark.parametrize("row, col, fn", [
    (2, 8, _plus_one),          # P_size
    (0, 6, _plus_one),          # F_size
    (1, 7, _plus_one),          # M
    (3, 9, _scale(1 + 1e-9)),   # bound
    (0, 10, lambda v: "0.25"),  # eta_emp
])
def test_furstenberg_corruption_rejected(tmp_path, row, col, fn):
    text = _output(tmp_path, FURSTENBERG)
    assert _rejected(FURSTENBERG, _edit(text, row, col, fn))


def test_furstenberg_dropped_row_rejected(tmp_path):
    text = _output(tmp_path, FURSTENBERG)
    lines = text.splitlines(keepends=True)
    assert _rejected(FURSTENBERG, "".join(lines[:2] + lines[3:]))


@pytest.mark.parametrize("row, col, fn", [
    (0, 3, _plus_one),                   # lhs, fine hit count at delta 2^-6
    (2, 3, _plus_one),                   # lhs differing across the S rows of one delta
    (1, 5, lambda v: repr(float(v) + 1.0 / 8)),  # coarse hit count at S = 8
    (4, 4, _scale(1 + 1e-9)),            # high_term
    (3, 6, _scale(2.0)),                 # fitted_C
    (4, 7, _scale(0.5)),                 # C0 without the margin
    (5, 8, lambda v: "0"),               # ok flag
])
def test_highlow_corruption_rejected(tmp_path, row, col, fn):
    text = _output(tmp_path, HIGHLOW)
    assert _rejected(HIGHLOW, _edit(text, row, col, fn))


def _refit(text: str) -> str:
    """Recompute fitted_C and C0 from the other columns, as highlow does."""
    lines = text.splitlines(keepends=True)
    rows = [line.rstrip("\n").split(",") for line in lines[1:-1]]
    for r in rows:
        k, lhs, high, low = int(r[1]), int(r[3]), float(r[4]), float(r[5])
        r[6] = repr(max(0.0, (lhs - low) / (k * high)))
    calib = min(int(r[1]) for r in rows)
    C0 = repr(2.0 * max(float(r[6]) for r in rows if int(r[1]) == calib))
    for r in rows:
        r[7] = C0
    return lines[0] + "".join(",".join(r) + "\n" for r in rows) + lines[-1]


def test_highlow_fine_count_checked_against_direct_count(tmp_path):
    text = _output(tmp_path, HIGHLOW)
    for row in range(3):  # every S row of delta 2^-6
        text = _edit(text, row, 3, _plus_one)
    assert _rejected(HIGHLOW, _refit(text))


def test_highlow_high_term_recomputed(tmp_path):
    text = _output(tmp_path, HIGHLOW)
    assert _rejected(HIGHLOW, _refit(_edit(text, 4, 4, _scale(1 + 1e-9))))


def test_highlow_coarse_counts_must_grow_with_S(tmp_path):
    text = _output(tmp_path, HIGHLOW)
    # delta 2^-7 is above the direct-count limit; give S = 16 a coarse count below S = 8's
    assert _rejected(HIGHLOW, _edit(text, 5, 5, lambda v: "1"))


@pytest.mark.parametrize("row, col, fn", [
    (0, 2, lambda v: "999999"),  # P_ab above pre_filter
    (0, 4, _scale(1 + 1e-9)),    # bound
    (0, 6, lambda v: "1"),       # violation
    (1, 3, lambda v: "999999"),  # pre_filter growing in b
])
def test_mainlem_corruption_rejected(tmp_path, row, col, fn):
    text = _output(tmp_path, MAINLEM)
    assert _rejected(MAINLEM, _edit(text, row, col, fn))


@pytest.mark.parametrize("inv, row, col, fn", [
    (FOURIER, 0, 2, _scale(1 + 1e-6)),  # R = 4 integral against the direct sum
    (FOURIER, 2, 2, _scale(0.5)),       # integral decreasing in R
    (FOURIER, 2, 3, _scale(1.01)),      # cumulative slope
    (POINT, 0, 2, _scale(1 + 1e-6)),
    (POINT, 2, 3, lambda v: "1.5"),     # point-mass slope away from 2
])
def test_fourier_corruption_rejected(tmp_path, inv, row, col, fn):
    text = _output(tmp_path, inv)
    assert _rejected(inv, _edit(text, row, col, fn))


@pytest.mark.parametrize("inv", [FOURIER, POINT])
def test_fourier_integrals_checked_against_direct_sum(tmp_path, inv):
    text = _output(tmp_path, inv)
    for row in range(3):  # a common factor leaves the slopes as they were
        text = _edit(text, row, 2, _scale(1.001))
    assert _rejected(inv, text)


def test_truncated_output_rejected(tmp_path):
    text = _output(tmp_path, MAINLEM)
    assert _rejected(MAINLEM, text.rsplit("#", 1)[0])
