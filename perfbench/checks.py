"""Correctness checks on the CSVs the workloads write.

Every check compares an output against a computation made here or against
a property the method must have; none compares against a stored copy of
earlier output.  ``check_output`` returns a list of problems, empty when the
output is accepted.  Some checks rebuild configurations and recount from
scratch, so the benchmark runs them on the first good output of each
invocation in a run and requires later passes to reproduce it byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import HIGHLOW_LAM, HIGHLOW_S_VALUES, Invocation

REL_TOL = 1e-12
#: the R = 4 integral is a GEMM on one side and a direct sum on the other;
#: the two sum in different orders
DIRECT_SUM_REL_TOL = 1e-9
FOURIER_GRID_STEP = 0.125
PARABOLA_SLOPE_MAX = 0.3
POINT_SLOPE = 2.0
POINT_SLOPE_TOL = 0.05
ETA_MAX = 0.5
#: the highlow kernel is compared with a direct count up to this delta exponent
DIRECT_COUNT_MAX_EXP = 8


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Header names and data rows; checks the provenance footer's row count."""
    lines = text.splitlines()
    if len(lines) < 2:
        raise ValueError("CSV has no header or no footer")
    footer = lines[-1].split()
    if not (footer[:2] == ["#", "furst-lab"] and footer[-1].startswith("rows=")):
        raise ValueError(f"bad provenance footer {lines[-1]!r}")
    rows = [line.split(",") for line in lines[1:-1]]
    header = lines[0].split(",")
    if int(footer[-1][len("rows="):]) != len(rows):
        raise ValueError(f"footer says {footer[-1]} but the CSV has {len(rows)} rows")
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged CSV rows")
    return header, rows


def tree_size(dim: int, s: float, T: int, k: int) -> int:
    """Cells of a {2^-jT}-uniform tree with round(2^{sT}) children per cell."""
    K = max(1, min(int(round(2.0 ** (s * T))), 2 ** (dim * T)))
    return K ** (k // T)


def distinct_squares(ix: np.ndarray, iy: np.ndarray) -> int:
    """Number of distinct (ix, iy) pairs, counted by sorting packed keys."""
    ix = np.asarray(ix, dtype=np.int64).ravel()
    iy = np.asarray(iy, dtype=np.int64).ravel()
    keys = np.sort(((ix - ix.min()) << 32) | (iy - iy.min()))
    return int(np.count_nonzero(np.diff(keys))) + 1 if len(keys) else 0


def _ls_slope(xs, ys) -> float:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    xm, ym = x.mean(), y.mean()
    return float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))


# --------------------------------------------------------------------------
# furstenberg
# --------------------------------------------------------------------------

FURSTENBERG_HEADER = "kind,delta_exp,s,t,T,seed,F_size,M,P_size,bound,eta_emp".split(",")


def _rebuild(kind: str, k: int, s: float, t: float, T: int, seed: int):
    from furstlab import config as cf

    return cf.build_nice_configuration(kind, k, s, t, T, seed, audit="probe", grid_n=2049)


def check_furstenberg(inv: Invocation, header, rows) -> list[str]:
    errs: list[str] = []
    if header != FURSTENBERG_HEADER:
        return [f"header {header}"]
    kind = inv.flag("--kind")
    s, t, T = float(inv.flag("--s")), float(inv.flag("--t")), int(inv.flag("--T"))
    ms, nseeds = int(inv.flag("--master-seed")), int(inv.flag("--seeds"))
    exps = _ints(inv.flag("--delta-exp"))
    expected = sorted((k, ms + i) for k in exps for i in range(nseeds))
    got = [(int(r[1]), int(r[5])) for r in rows]
    if got != expected:
        return [f"trials {got} != expected {expected}"]
    for r in rows:
        k, seed = int(r[1]), int(r[5])
        tag = f"delta 2^-{k} seed {seed}"
        F, M, P = int(r[6]), int(r[7]), int(r[8])
        bound, eta = float(r[9]), float(r[10])
        if (r[0], float(r[2]), float(r[3]), int(r[4])) != (kind, s, t, T):
            errs.append(f"{tag}: kind/s/t/T columns {r[:5]}")
        if F != tree_size(2, t, T, k):
            errs.append(f"{tag}: F_size {F} != tree size {tree_size(2, t, T, k)}")
        if M != tree_size(1, s, T, k):
            errs.append(f"{tag}: M {M} != tree size {tree_size(1, s, T, k)}")
        if not (M <= P <= F * M):
            errs.append(f"{tag}: P_size {P} outside [M, F*M] = [{M}, {F * M}]")
        want_bound = M * 2.0 ** (k * min(t, (s + t) / 2.0, 1.0))
        if not _close(bound, want_bound):
            errs.append(f"{tag}: bound {bound} != {want_bound}")
        want_eta = max(0.0, math.log2(want_bound / P) / k) if P > 0 else math.inf
        if not (abs(eta - want_eta) <= 1e-12):
            errs.append(f"{tag}: eta_emp {eta} != {want_eta}")
        if not (eta <= ETA_MAX):
            errs.append(f"{tag}: eta_emp {eta} > {ETA_MAX}")
    if not errs:
        # one trial per cell: the first seed at the largest delta
        r = next(r for r in rows if int(r[1]) == max(exps))
        k, seed = int(r[1]), int(r[5])
        conf = _rebuild(kind, k, s, t, T, seed)
        if (conf.n_curves, conf.M) != (int(r[6]), int(r[7])):
            errs.append(f"rebuilt delta 2^-{k} seed {seed}: |F|, M = {conf.n_curves}, {conf.M}")
        P = distinct_squares(conf.col_idx, conf.iy)
        if P != int(r[8]):
            errs.append(f"rebuilt delta 2^-{k} seed {seed}: |P| recount {P} != P_size {r[8]}")
    return errs


# --------------------------------------------------------------------------
# highlow
# --------------------------------------------------------------------------

HIGHLOW_HEADER = "kind,delta_exp,S,lhs,high_term,low_term,fitted_C,C0,ok".split(",")


def _direct_counts(conf, thresholds) -> list[int]:
    """Every curve against every distinct square: pairs with |y - f(x)| < thr."""
    k = conf.delta_exp
    keys = np.unique(np.stack([conf.col_idx.ravel(), conf.iy.ravel()], axis=1), axis=0)
    xc = (keys[:, 0] + 0.5) * 2.0 ** -k
    yc = (keys[:, 1] + 0.5) * 2.0 ** -k
    counts = [0] * len(thresholds)
    for curve in conf.family.curves:
        gap = np.abs(yc - np.asarray(curve.eval0(xc), dtype=float))
        for j, thr in enumerate(thresholds):
            counts[j] += int(np.count_nonzero(gap < thr))
    return counts


def check_highlow(inv: Invocation, header, rows) -> list[str]:
    errs: list[str] = []
    if header != HIGHLOW_HEADER:
        return [f"header {header}"]
    exps = sorted(_ints(inv.flag("--delta-exp")))
    expected = [(k, S) for k in exps for S in HIGHLOW_S_VALUES]
    got = [(int(r[1]), float(r[2])) for r in rows]
    if got != expected:
        return [f"(delta_exp, S) rows {got} != expected {expected}"]
    coarse: dict[tuple[int, float], int] = {}
    lhs: dict[int, int] = {}
    for r in rows:
        k, S = int(r[1]), float(r[2])
        tag = f"delta 2^-{k} S {S:g}"
        L, high, low, fitted = int(r[3]), float(r[4]), float(r[5]), float(r[6])
        c = low * S
        if c != round(c):
            errs.append(f"{tag}: low_term*S = {c} is not a count")
            continue
        coarse[k, S] = int(c)
        if lhs.setdefault(k, L) != L:
            errs.append(f"{tag}: lhs {L} differs across S")
        if L > c:
            errs.append(f"{tag}: lhs {L} > coarse count {int(c)}")
        want_fit = max(0.0, (L - low) / (k * high)) if high > 0 else 0.0
        if not _close(fitted, want_fit):
            errs.append(f"{tag}: fitted_C {fitted} != {want_fit}")
        if r[8] != "1":
            errs.append(f"{tag}: ok column {r[8]}")
    for k in exps:
        cs = [coarse.get((k, S)) for S in HIGHLOW_S_VALUES]
        if None not in cs and cs != sorted(cs):
            errs.append(f"delta 2^-{k}: coarse counts {cs} decrease as S grows")
    C0 = {float(r[7]) for r in rows}
    margin = float(inv.flag("--c0-margin", "1.0"))
    calib = margin * max(float(r[6]) for r in rows if int(r[1]) == exps[0])
    if C0 != {calib}:
        errs.append(f"C0 column {sorted(C0)} != {margin:g} x largest fitted_C at delta 2^-{exps[0]}: {calib}")
    if not errs:
        s, t = float(inv.flag("--s")), float(inv.flag("--t"))
        seed = int(inv.flag("--master-seed"))
        for k in exps:
            conf = _rebuild(inv.flag("--kind"), k, s, t, k, seed)
            F = conf.n_curves
            if F != tree_size(2, t, k, k):
                errs.append(f"delta 2^-{k}: |F| {F} != tree size {tree_size(2, t, k, k)}")
            P = distinct_squares(conf.col_idx, conf.iy)
            dl = 2.0 ** -k
            for r in (r for r in rows if int(r[1]) == k):
                S = float(r[2])
                want = math.sqrt(S ** 3 * (1.0 / dl) * F * P)
                if not _close(float(r[4]), want):
                    errs.append(f"delta 2^-{k} S {S:g}: high_term {r[4]} != {want}")
            if k <= DIRECT_COUNT_MAX_EXP:
                thresholds = [HIGHLOW_LAM * dl] + [2.0 * S * dl for S in HIGHLOW_S_VALUES]
                direct = _direct_counts(conf, thresholds)
                got = [lhs[k]] + [coarse[k, S] for S in HIGHLOW_S_VALUES]
                if got != direct:
                    errs.append(f"delta 2^-{k}: [lhs, coarse...] {got} != direct count {direct}")
    return errs


# --------------------------------------------------------------------------
# mainlem
# --------------------------------------------------------------------------

MAINLEM_HEADER = "a,b,P_ab,pre_filter,bound,hypotheses_met,violation".split(",")


def line_family_size(k: int, D: int) -> int:
    """|F| of the uniform line family: 4^min(2, D-1) Delta-cells, each a full delta-grid."""
    return 4 ** min(2, D - 1) * 4 ** (k - D)


def check_mainlem(inv: Invocation, header, rows) -> list[str]:
    errs: list[str] = []
    if header != MAINLEM_HEADER:
        return [f"header {header}"]
    if not rows:
        return ["no (a, b) rows"]
    k, D = int(inv.flag("--delta-exp")), int(inv.flag("--Delta-exp"))
    eps = float(inv.flag("--eps"))
    n = line_family_size(k, D)
    cells: dict[tuple[int, int], tuple[int, int]] = {}
    for r in rows:
        a, b, P, pre = (int(v) for v in r[:4])
        bound, met, viol = float(r[4]), int(r[5]), int(r[6])
        tag = f"(a, b) = ({a}, {b})"
        cells[a, b] = (P, pre)
        if a < 2 or a & (a - 1) or b < 1 or b & (b - 1):
            errs.append(f"{tag}: a, b must be dyadic with a >= 2, b >= 1")
        want = 2.0 ** (10.0 * eps * k) * n * n / (a ** 3 * b ** 2)
        if not _close(bound, want):
            errs.append(f"{tag}: bound {bound} != {want}")
        if not (0 <= P <= pre <= 4 ** k):
            errs.append(f"{tag}: need 0 <= P_ab {P} <= pre_filter {pre} <= {4 ** k}")
        if viol != int(bool(met) and P > bound):
            errs.append(f"{tag}: violation flag {viol} disagrees with P_ab and bound")
        if viol:
            errs.append(f"{tag}: violation")
    for (a, b), (P, pre) in cells.items():
        for nxt in ((2 * a, b), (a, 2 * b)):
            if nxt in cells and (cells[nxt][0] > P or cells[nxt][1] > pre):
                errs.append(f"P_ab or pre_filter grows from {(a, b)} to {nxt}")
    return errs


# --------------------------------------------------------------------------
# fourier
# --------------------------------------------------------------------------

FOURIER_HEADER = "R,p,integral,slope_cum".split(",")


def _atoms(kind: str, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if kind == "point":
        return np.zeros(1), np.zeros(1), np.ones(1)
    n = 2 ** (k + 1) + 1
    xs = -1.0 + 2.0 ** -k * np.arange(n)
    return xs, xs * xs, np.full(n, 1.0 / n)


def direct_lp_integral(kind: str, k: int, p: float, R: float, h: float = FOURIER_GRID_STEP) -> float:
    """sum of |sigma-hat|^p h^2 over h Z^2 within the closed ball B(R), by direct sums."""
    xs, ys, ws = _atoms(kind, k)
    n = int(math.floor(R / h + 1e-9))
    g = np.arange(-n, n + 1)
    k1, k2 = (v.ravel() for v in np.meshgrid(g, g, indexing="ij"))
    inside = (k1 * k1 + k2 * k2) * h * h <= R * R * (1 + 1e-12)
    xi1, xi2 = h * k1[inside], h * k2[inside]
    total = 0.0
    for start in range(0, len(xi1), 256):
        ph = np.outer(xi1[start:start + 256], xs) + np.outer(xi2[start:start + 256], ys)
        vals = np.exp(-2j * np.pi * ph) @ ws
        total += float(np.sum(np.abs(vals) ** p))
    return total * h * h


def check_fourier(inv: Invocation, header, rows) -> list[str]:
    errs: list[str] = []
    if header != FOURIER_HEADER:
        return [f"header {header}"]
    kind, p = inv.flag("--kind"), float(inv.flag("--p"))
    R_list = _floats(inv.flag("--R"))
    if [float(r[0]) for r in rows] != R_list or any(float(r[1]) != p for r in rows):
        return [f"R, p columns {[r[:2] for r in rows]} != {R_list}, {p}"]
    integrals = [float(r[2]) for r in rows]
    if not all(v > 0 for v in integrals):
        return [f"non-positive integral in {integrals}"]
    if integrals != sorted(integrals):
        errs.append(f"integrals decrease in R: {integrals}")
    logs_r, logs_i = np.log2(R_list), np.log2(integrals)
    for i, r in enumerate(rows):
        got = float(r[3])
        if i == 0:
            if not math.isnan(got):
                errs.append(f"R={R_list[0]:g}: slope_cum {got} should be nan")
            continue
        want = _ls_slope(logs_r[: i + 1], logs_i[: i + 1])
        if not _close(got, want, 1e-9):
            errs.append(f"R={R_list[i]:g}: slope_cum {got} != {want}")
    slope = float(rows[-1][3])
    if kind == "point" and not abs(slope - POINT_SLOPE) <= POINT_SLOPE_TOL:
        errs.append(f"point-mass slope {slope} not within {POINT_SLOPE} +- {POINT_SLOPE_TOL}")
    if kind == "parabola" and not slope <= PARABOLA_SLOPE_MAX:
        errs.append(f"parabola slope {slope} > {PARABOLA_SLOPE_MAX}")
    want = direct_lp_integral(kind, int(inv.flag("--delta-exp")), p, R_list[0])
    if not _close(integrals[0], want, DIRECT_SUM_REL_TOL):
        errs.append(f"R={R_list[0]:g}: integral {integrals[0]} != direct sum {want}")
    return errs


CHECKS = {
    "furstenberg": check_furstenberg,
    "highlow": check_highlow,
    "mainlem": check_mainlem,
    "fourier": check_fourier,
}


def check_output(inv: Invocation, text: str) -> list[str]:
    """Problems with one invocation's CSV output; empty when it is accepted."""
    try:
        header, rows = parse_csv(text)
        return CHECKS[inv.argv[0]](inv, header, rows)
    except (ValueError, IndexError, KeyError) as e:
        return [f"unreadable output: {e}"]
