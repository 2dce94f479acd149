"""Fractal measures on convex curves: Fourier transforms, L^p norms, decay.

Convention: sigma-hat(xi) = sum_j w_j exp(-2 pi i <x_j, xi>).  L^p norms
over a ball B(R) are Riemann sums on the square grid h Z^2 intersected
with the closed ball.  On that grid the transform factorises per atom into
a product exp(-2 pi i h k x_j) exp(-2 pi i h l y_j).  When the atoms'
x-coordinates lie on an arithmetic grid x0 + m/(hN) with N a power of two
(every lift of a dyadic base set does), the x-factor is periodic in k and
each frequency column l is one length-N DFT, computed by FFT; otherwise
the whole grid is one complex matrix product.  Both are exact
rearrangements of the direct sum, not approximations.  The FFT path runs
its columns in chunks through one reused buffer and writes each column l
as one contiguous row of an (l, k) array.

Every measure here, a lift onto a curve included, is a planar
`dyadic.AtomicMeasure`.  `lp_norm_ball` and `decay_slope` share one
ball-integral routine, which checks p, R (`check_lp`) and h once and runs
one grid transform at the largest R; `check_transform_size` refuses a
transform that would need more than MAX_TRANSFORM_BYTES before it
allocates.  Each ball sums only the rows and columns it reaches, and gets
the same bits as a boolean mask of the whole grid would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import MAX_TREE_CELLS, AtomicMeasure, side_of
from .family import DomainError, _eval_checked


# --------------------------------------------------------------------------
# Curve measures
# --------------------------------------------------------------------------

def lift_measure(g0, base_points: np.ndarray, base_weights: np.ndarray) -> AtomicMeasure:
    """Lift a weighted base set on [-1, 1] to the graph of g.

    Atoms become (x, g(x)) with the base weights; g may return a scalar,
    which is broadcast.  A non-finite g(x) or total mass above 1 is an
    error.
    """
    xs = np.asarray(base_points, dtype=float).reshape(-1)
    ws = np.asarray(base_weights, dtype=float).reshape(-1)
    if np.any(xs < -1.0) or np.any(xs > 1.0):
        raise DomainError("base points must lie in [-1, 1]")
    return AtomicMeasure(np.stack([xs, _eval_checked(g0, xs, "g")], axis=1), ws)


def uniform_grid_lift(g0, delta_exp: int) -> AtomicMeasure:
    """Equal weights on the delta-grid of [-1, 1], lifted to the graph of g.

    Refuses more than MAX_TREE_CELLS atoms before allocating any.
    """
    n = 2 ** (delta_exp + 1) + 1
    if n > MAX_TREE_CELLS:
        raise DomainError(
            f"the delta-grid of [-1, 1] at delta=2^-{delta_exp} has {n} points, over the "
            f"limit of {MAX_TREE_CELLS}"
        )
    xs = -1.0 + side_of(delta_exp) * np.arange(n)
    ws = np.full(n, 1.0 / n)
    return lift_measure(g0, xs, ws)


# --------------------------------------------------------------------------
# Fourier transform
# --------------------------------------------------------------------------

def fourier_transform(sigma, xi) -> complex | np.ndarray:
    """sigma-hat at one frequency or an (n, 2) array of frequencies.

    Direct summation; |sigma-hat(xi)| <= total mass for every xi.
    """
    pts, ws = _atoms_of(sigma)
    xi_arr = np.asarray(xi, dtype=float)
    single = xi_arr.ndim == 1
    if single:
        xi_arr = xi_arr[None, :]
    phase = xi_arr @ pts.T  # (n, atoms)
    vals = np.exp(-2j * np.pi * phase) @ ws
    return complex(vals[0]) if single else vals


def _atoms_of(sigma) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(sigma, AtomicMeasure):
        raise DomainError(f"unsupported measure type {type(sigma)!r}")
    if sigma.points.shape[1] != 2:
        raise DomainError(f"the transform needs planar atoms, got shape {sigma.points.shape}")
    return sigma.points, sigma.weights


MAX_GRID_STEP = 0.125


#: finest x-grid the FFT path takes: N = 2^e with e <= MAX_FFT_EXP
MAX_FFT_EXP = 24
#: complex entries per column chunk of the FFT path (2 MiB)
FFT_CHUNK = 1 << 17
#: the most bytes `check_transform_size` lets one grid transform need (2.5 GiB)
MAX_TRANSFORM_BYTES = 5 << 29


def _half_width(R: float, h: float) -> int:
    """n of the grid h*[-n..n]^2 that holds the ball B(R)."""
    return int(math.floor(R / h + 1e-9))


def check_transform_size(R: float, h: float, atoms: int, fft: bool) -> None:
    """The size rule of a grid transform at radius R and step h over `atoms` atoms.

    Its (2n+1)^2 grid needs 16 bytes a point (|sigma-hat|^2 and the ball
    values raised to p/2), and off the FFT path (`fft` false) the GEMM
    factors need 48 bytes per atom and grid column.  A transform that needs
    more than MAX_TRANSFORM_BYTES is refused before anything is allocated.
    """
    side = 2 * _half_width(R, h) + 1
    need = 16 * side * side + (0 if fft else 48 * atoms * side)
    if need > MAX_TRANSFORM_BYTES:
        gemm = "" if fft else f" and GEMM factors for {atoms} atoms off every FFT x-grid"
        raise DomainError(
            f"the grid transform at R={R}, h={h} needs {need / 2 ** 30:.1f} GiB for a "
            f"{side}x{side} grid{gemm}, over the limit of {MAX_TRANSFORM_BYTES / 2 ** 30:g} GiB"
        )


def _grid_transform_sq(sigma, R: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """|sigma-hat|^2 on the grid h*[-n..n]^2, plus the k^2 row template.

    Rows are x-frequencies h*k, columns y-frequencies h*l.  With
    u_j[k] = exp(-2 pi i h x_j k) and v_j[l] = exp(-2 pi i h y_j l) the grid
    transform is Z = (w * U)^T V.  Atoms on an x-grid (see `_x_grid`) take
    the FFT path of `_fft_transform_sq`, which makes no BLAS call, so its
    sums do not depend on the BLAS thread count; any other measure is one
    complex GEMM.  Both paths first pass `check_transform_size`.
    """
    pts, ws = _atoms_of(sigma)
    n = _half_width(R, h)
    krange = np.arange(-n, n + 1, dtype=float)
    grid = _x_grid(pts[:, 0], h) if len(pts) else None
    check_transform_size(R, h, len(pts), grid is not None)
    if grid is not None:
        return _fft_transform_sq(pts[:, 1], ws, n, h, *grid), krange
    U = np.exp(-2j * np.pi * h * np.outer(pts[:, 0], krange))
    V = np.exp(-2j * np.pi * h * np.outer(pts[:, 1], krange))
    Z = (U * ws[:, None]).T @ V
    return (Z.real ** 2 + Z.imag ** 2), krange


def _x_grid(xs: np.ndarray, h: float) -> tuple[np.ndarray, int] | None:
    """Grid indices m_j mod N and the period N, or None when xs is off-grid.

    N is the smallest power of two up to 2^MAX_FFT_EXP for which every
    h*(x_j - x0)*N, x0 = min x, is an integer m_j in floating point.  Then
    exp(-2 pi i h k x_j) = exp(-2 pi i h k x0) exp(-2 pi i k m_j / N), whose
    second factor has period N in k.  Indices wrap mod N, so an x-span
    beyond 1/h is fine.
    """
    t = h * (xs - xs.min())
    for e in range(MAX_FFT_EXP + 1):
        scaled = t * float(1 << e)
        if np.array_equal(scaled, np.floor(scaled)):  # nan and inf fail
            return np.mod(scaled, 1 << e).astype(np.int64), 1 << e
    return None


def _fft_transform_sq(ys, ws, n: int, h: float, m: np.ndarray, N: int) -> np.ndarray:
    """|Z|^2 on [-n..n]^2 for atoms at x-grid indices m (period N), by FFT.

    Column l of Z is the length-N DFT of a_j = w_j exp(-2 pi i h l y_j)
    placed at index m_j, read at k mod N; the common phase of x0 drops out
    of |Z|^2.  The DFT is split by residue: index i = q*D + r with
    D = N/L, L the smallest power of two P >= 2n+1 (or N, if smaller), gives
    Z[k] = sum_r exp(-2 pi i k r / N) FFT_L(a_{qD+r})[k mod L], taken over the
    residues that hold an atom.  Atoms sharing an index are summed.  Only
    columns l >= 0 are computed: the weights are real, so
    |sigma-hat(-xi)| = |sigma-hat(xi)| fills l < 0.

    The columns go in chunks through one (chunk, residue, L) buffer, zeroed
    once: every chunk writes the same atom slots, so the empty ones stay
    zero.  A transform of length L < P is tiled to P, after which k mod P
    is two slices, [P-n, P) for k < 0 and [0, n] for k >= 0; each slice is
    multiplied by its twiddles and summed over the residues in order
    r = 0, 1, ..., so each Z[k] is the sum above, term for term and in
    order, whatever the chunking.  Column l is written contiguously, as
    row n + l of an (l, k) array, whose transpose is returned (a view).
    """
    K = 2 * n + 1
    P = 1 << (K - 1).bit_length()
    L = min(N, P)
    D = N // L
    residues, r_pos = np.unique(m % D, return_inverse=True)
    nres = len(residues)
    slot = r_pos * L + (m // D)  # index into a (residue, q) buffer
    order = np.argsort(slot, kind="stable")
    slot, ys, ws = slot[order], ys[order], ws[order]
    starts = np.flatnonzero(np.r_[True, slot[1:] != slot[:-1]])
    shared = len(starts) < len(slot)
    k = np.arange(-n, n + 1)
    twiddle = np.exp(-2j * np.pi * (np.outer(residues, k) % N) / N)  # (nres, K)
    width = min(n + 1, max(1, FFT_CHUNK // (nres * max(L, K))))
    steps = np.exp(-2j * np.pi * h * np.outer(np.arange(width), ys))
    buf = np.zeros((width, nres * L), dtype=complex)
    flat = (np.arange(width)[:, None] * (nres * L) + slot[starts]).ravel()  # buf's atom slots
    prod = np.empty((width, nres, n + 1), dtype=complex)
    Z = np.empty((width, K), dtype=complex)
    rows = np.empty((K, K))  # row n + l holds |Z|^2 of column l
    for l0 in range(0, n + 1, width):
        c = min(width, n + 1 - l0)
        a = steps[:c] * (ws * np.exp(-2j * np.pi * h * l0 * ys))
        buf.reshape(-1)[flat[:c * len(starts)]] = (
            np.add.reduceat(a, starts, axis=1) if shared else a).ravel()
        F = np.fft.fft(buf[:c].reshape(c, nres, L), axis=-1)
        if L < P:
            F = np.tile(F, P // L)
        np.multiply(F[:, :, P - n:], twiddle[:, :n], out=prod[:c, :, :n])
        np.sum(prod[:c, :, :n], axis=1, out=Z[:c, :n])
        np.multiply(F[:, :, :n + 1], twiddle[:, n:], out=prod[:c])
        np.sum(prod[:c], axis=1, out=Z[:c, n:])
        np.add(Z[:c].real ** 2, Z[:c].imag ** 2, out=rows[n + l0:n + l0 + c])
    rows[:n] = rows[:n:-1, ::-1]  # (l, k) for l < 0 from (-l, -k)
    return rows.T


def check_lp(p: float, R_list) -> None:
    """The rule on every ball integral's p and radii: finite p >= 1 and R >= 1."""
    if not (1 <= p < math.inf):  # nan fails too
        raise DomainError(f"p must be finite and >= 1, got {p}")
    for R in R_list:
        if not (1 <= R < math.inf):
            raise DomainError(f"R must be finite and >= 1, got {R}")


def check_decay(p: float, R_list, atoms: int = 1, x_step: float = 0.0) -> tuple[float, ...]:
    """The rule on `decay_slope`'s p and radii: those of `check_lp`, at least
    three strictly increasing dyadic radii, and `check_transform_size` at
    the largest radius and step MAX_GRID_STEP over `atoms` atoms whose
    x-offsets are multiples of x_step; returns the radii as floats."""
    R_list = tuple(float(R) for R in R_list)
    if len(R_list) < 3:
        raise DomainError("need at least three R values")
    check_lp(p, R_list)
    for R in R_list:
        e = math.log2(R)
        if abs(e - round(e)) > 1e-9:
            raise DomainError(f"R values must be dyadic, got {R}")
    if any(r >= R for r, R in zip(R_list, R_list[1:])):
        raise DomainError(f"R values must be strictly increasing, got {R_list}")
    fft = _x_grid(np.array([0.0, x_step]), MAX_GRID_STEP) is not None
    check_transform_size(R_list[-1], MAX_GRID_STEP, atoms, fft)
    return R_list


def _ball_reach(R: float, h: float, n: int) -> np.ndarray:
    """Per row k = -m..m of the ball B(R) on the grid h*[-n..n]^2, the
    largest |l| with (k^2 + l^2) h h <= R^2 (1 + 1e-12), the ball's test.

    The test's left side is monotone in the integer q = k^2 + l^2, so it
    holds exactly when q <= Q, the largest q that passes it, settled from
    R^2 / h^2 in integers; each row's reach is then isqrt(Q - k^2), which
    float sqrt gives exactly below 2^52.  Rows past isqrt(Q) hold no point.
    """
    thr = R * R * (1 + 1e-12)
    Q = math.floor(thr / h / h)
    while (Q + 1) * h * h <= thr:
        Q += 1
    while Q * h * h > thr:
        Q -= 1
    m = min(n, math.isqrt(Q))
    r = np.minimum(n, np.floor(np.sqrt(Q - np.arange(m + 1) ** 2))).astype(np.int64)
    return np.r_[r[:0:-1], r]


def _ball_integrals(sigma, p: float, R_list: tuple[float, ...], h: float) -> list[float]:
    """Riemann sums of |sigma-hat|^p over the grid points of each closed ball B(R).

    One grid transform at the largest R.  Each ball reads only its rows
    |k| <= m, each row l = -r_k..r_k (`_ball_reach`): the largest ball's
    values are gathered once, in row-major (k, l) order, and raised to p/2
    in place; a smaller ball's values are slices of those, row by row.
    Each ball's values are thus the row-major sequence that a boolean mask
    of the whole grid would pick, and one `np.sum` sums that sequence
    pairwise, so each integral has the bits of the masked sum (the tests'
    oracle); the integrals are mutually consistent.
    """
    check_lp(p, R_list)
    if not (0 < h <= MAX_GRID_STEP + 1e-15):
        raise DomainError(f"grid step h={h} must be positive and <= {MAX_GRID_STEP}")
    R_max = max(R_list)
    mag2, krange = _grid_transform_sq(sigma, R_max, h)
    n = (len(krange) - 1) // 2
    big = _ball_reach(R_max, h, n)
    M = (len(big) - 1) // 2
    magp = np.concatenate([mag2[n + k, n - r:n + r + 1] for k, r in zip(range(-M, M + 1), big)])
    magp **= p / 2.0
    centre = np.cumsum(2 * big + 1) - big - 1  # place of (k, 0) in magp
    out = []
    for R in R_list:
        r = _ball_reach(R, h, n)
        m = (len(r) - 1) // 2
        vals = magp if R == R_max else np.concatenate(
            [magp[c - s:c + s + 1] for c, s in zip(centre[M - m:M + m + 1], r)])
        out.append(float(np.sum(vals) * h * h))
    return out


def lp_norm_ball(sigma, p: float, R: float, h: float = MAX_GRID_STEP) -> float:
    """Riemann sum of |sigma-hat|^p over the grid points of the closed ball B(R).

    Needs finite p >= 1, finite R >= 1 and grid step 0 < h <= 1/8 (support
    diameter <= 2 sqrt 2 keeps the transform's oscillation scale well above
    that).
    """
    return _ball_integrals(sigma, p, (R,), h)[0]


# --------------------------------------------------------------------------
# Decay slopes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    p: float
    h: float
    R_list: tuple[float, ...]
    integrals: tuple[float, ...]
    slope: float

    def rows(self):
        """CSV rows R,p,integral,slope_cum (cumulative LS slope up to each R)."""
        logs_r = np.log2(np.asarray(self.R_list))
        logs_i = np.log2(np.asarray(self.integrals))
        out = []
        for i in range(len(self.R_list)):
            if i >= 1:
                sl = float(np.polyfit(logs_r[: i + 1], logs_i[: i + 1], 1)[0])
            else:
                sl = float("nan")
            out.append((self.R_list[i], self.p, self.integrals[i], sl))
        return out


def decay_slope(sigma, p: float, R_list, h: float = MAX_GRID_STEP) -> DecayReport:
    """Least-squares slope of log2 lp_norm_ball against log2 R.

    p and R obey `check_decay`, and h the rule of `lp_norm_ball`.
    """
    R_list = check_decay(p, R_list)
    integrals = _ball_integrals(sigma, p, R_list, h)
    slope = float(np.polyfit(np.log2(np.asarray(R_list)), np.log2(np.asarray(integrals)), 1)[0])
    return DecayReport(p=p, h=h, R_list=R_list, integrals=tuple(integrals), slope=slope)
