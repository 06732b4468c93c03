"""Frequency-domain two-point oracle for reflection off a speed profile.

For each frequency the time-harmonic reduction of  u_tt = (c^2 u_x)_x  is

    (c^2 v')' + omega^2 v = 0,

read as the first-order system v' = w / c^2, w' = -omega^2 v, which never
differentiates the merely-Hoelder coefficient.  ``reflection_scan`` solves it
with layer matrices (Thomson 1950, Haskell 1953; the exponential-midpoint
Magnus step): [-x_match, x_match] is cut into ``CELLS`` quadratically graded
cells, finest at the singularity x = 0, which is a cell edge so a jump is
resolved exactly.  Each cell holds the speed at its midpoint and propagates
(v, w) by the exact constant-speed 2x2 matrix, for every frequency at once;
the cell matrices are multiplied pairwise in log2(CELLS) vectorised levels,
``BLOCK`` cells at a time.
With the speed constant outside [-x_match, x_match], plane-wave matching at
the ends yields the reflection and transmission coefficients.

Every layer matrix has determinant 1, so the flux defect is round-off on this
path and checks nothing.  The scan's accuracy number is a step-halving
difference instead: the largest relative |R| change against the same scan on
``HALVED_CELLS`` cells (the scheme is second order, so the error of the finer
scan is about a third of it).  ``reflection_scan_ivp`` integrates the same
system with DOP853 and is kept as the test reference only.

``probe.oracle_band_exponent`` fits |R| over the probe's own dyadic bands,
which gives the oracle decay exponent that the wave-field probe is compared
to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CELLS = 2**14
HALVED_CELLS = CELLS // 2
BLOCK = 2**8  # cells whose layer matrices are held at once


@dataclass
class ReflectionScan:
    omegas: np.ndarray
    R: np.ndarray  # complex reflection coefficients
    T: np.ndarray  # complex transmission coefficients
    c_left: float
    c_right: float
    halving: float | None = None  # max relative |R| change, CELLS vs HALVED_CELLS

    def flux_defect(self) -> np.ndarray:
        """|R|^2 + (k_R c_R^2)/(k_L c_L^2) |T|^2 - 1, zero for a lossless profile."""
        ratio = (self.c_right**2 / self.c_left**2) * (self.c_left / self.c_right)
        return np.abs(self.R) ** 2 + ratio * np.abs(self.T) ** 2 - 1.0


def _match(omegas, v, w, c_left, x_match):
    """R and T from the state (v, w) at -x_match of the solution that leaves
    x_match as a unit right-going wave."""
    k_l = omegas / c_left
    vp = w / c_left**2
    # v = a e^{i k x} + b e^{-i k x} at x = -x_match
    phase = np.exp(1j * k_l * (-x_match))
    a = 0.5 * (v + vp / (1j * k_l)) / phase
    b = 0.5 * (v - vp / (1j * k_l)) * phase
    return b / a, 1.0 / a


def _outgoing(omegas, c_right, x_match):
    """(v, w) at x_match of the transmitted wave of unit amplitude."""
    k_r = omegas / c_right
    v0 = np.exp(1j * k_r * x_match)
    return v0, c_right**2 * 1j * k_r * v0


def _graded_edges(x_match: float, cells: int) -> np.ndarray:
    """Cell edges x_match * s |s| for s uniform on [-1, 1]: widths grow
    linearly away from x = 0, which is the middle edge."""
    if cells < 2 or cells & (cells - 1):
        raise ValueError("cells must be a power of two, at least 2")
    s = np.linspace(-1.0, 1.0, cells + 1)
    edges = x_match * s * np.abs(s)
    edges[cells // 2] = 0.0
    return edges


def _pairwise(a, b, cc, d):
    """Multiply neighbouring matrices pairwise, right one on the left, until
    one remains; the leading axis holds the matrices in order."""
    while a.shape[0] > 1:
        la, lb, lc, ld = a[0::2], b[0::2], cc[0::2], d[0::2]
        ra, rb, rc, rd = a[1::2], b[1::2], cc[1::2], d[1::2]
        a, b, cc, d = (
            ra * la + rb * lc,
            ra * lb + rb * ld,
            rc * la + rd * lc,
            rc * lb + rd * ld,
        )
    return a, b, cc, d


def _layer_product(speed, omegas, x_match: float, cells: int):
    """Entries (a, b, c, d) of the propagator that carries (v, w) from
    -x_match to x_match, one value per frequency.

    Each cell's matrix is exact for the speed at its midpoint:
    [[cos kh, sin kh / (k c^2)], [-k c^2 sin kh, cos kh]] with k = omega / c.
    The speed is evaluated once at every midpoint.  The matrices are built
    ``BLOCK`` cells at a time, each aligned block is reduced pairwise to one
    matrix, and the block matrices are reduced the same way: the pairing
    tree of a whole-array reduction, without holding every cell's matrix.
    """
    edges = _graded_edges(x_match, cells)
    h = np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])
    c = np.asarray(speed(mid), float)[:, None]
    omegas = omegas[None, :]
    block = min(BLOCK, cells)
    blocks = []
    for lo in range(0, cells, block):
        cb = c[lo : lo + block]
        kh = omegas / cb * h[lo : lo + block]
        kc2 = omegas * cb  # k c^2
        cos, sin = np.cos(kh), np.sin(kh)
        blocks.append(_pairwise(cos, sin / kc2, -kc2 * sin, cos))
    a, b, cc, d = _pairwise(*(np.concatenate(entry) for entry in zip(*blocks)))
    return a[0], b[0], cc[0], d[0]


def layer_scan(speed, omegas, x_match: float, cells: int) -> ReflectionScan:
    """Reflection/transmission coefficients on ``cells`` graded layers (a
    power of two), without the step-halving number."""
    omegas = np.asarray(omegas, float)
    c_left = float(speed(-x_match - 1.0))
    c_right = float(speed(x_match + 1.0))
    a, b, c, d = _layer_product(speed, omegas, x_match, cells)
    v0, w0 = _outgoing(omegas, c_right, x_match)
    # the inverse of a unit-determinant matrix carries the state back to -x_match
    R, T = _match(omegas, d * v0 - b * w0, a * w0 - c * v0, c_left, x_match)
    return ReflectionScan(omegas=omegas, R=R, T=T, c_left=c_left, c_right=c_right)


def reflection_scan(speed, omegas, x_match: float) -> ReflectionScan:
    """Reflection/transmission coefficients of the profile at each frequency.

    ``speed`` maps an array of positions to the sound speed and must be
    constant outside [-x_match, x_match].  All frequencies are propagated
    together through ``CELLS`` layer matrices, then matched against
    left-going/right-going plane waves.  The scan is repeated on
    ``HALVED_CELLS`` cells, and the largest relative change of |R| is stored
    as ``halving``.
    """
    scan = layer_scan(speed, omegas, x_match, CELLS)
    coarse = layer_scan(speed, omegas, x_match, HALVED_CELLS)
    scan.halving = float(np.max(np.abs(np.abs(scan.R) - np.abs(coarse.R)) / np.abs(scan.R)))
    return scan


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first call: scipy is needed
    only by the DOP853 reference below, so the package loads without it."""
    try:
        from scipy.integrate import solve_ivp as scipy_solve_ivp
    except ImportError as err:
        raise ImportError(
            "reflection_scan_ivp needs scipy: pip install wavediff[test]"
        ) from err
    return scipy_solve_ivp(*args, **kwargs)


def reflection_scan_ivp(
    speed,
    omegas,
    x_match: float,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> ReflectionScan:
    """The same scan by DOP853 integration; the reference for the tests.

    ``speed`` maps a position (float) to the sound speed (float).  All
    frequencies are integrated together as one complex vector system from
    the transmission side back to the incidence side.
    """
    omegas = np.asarray(omegas, float)
    c_left = speed(-x_match - 1.0)
    c_right = speed(x_match + 1.0)
    m = omegas.size

    def rhs(x, y):
        c2 = speed(x) ** 2
        v = y[:m]
        w = y[m:]
        return np.concatenate([w / c2, -(omegas**2) * v])

    v0, w0 = _outgoing(omegas, c_right, x_match)
    sol = solve_ivp(
        rhs,
        (x_match, -x_match),
        np.concatenate([v0, w0]).astype(complex),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError("frequency sweep integration failed: %s" % sol.message)
    R, T = _match(omegas, sol.y[:m, -1], sol.y[m:, -1], c_left, x_match)
    return ReflectionScan(omegas=omegas, R=R, T=T, c_left=c_left, c_right=c_right)
