"""Frequency-domain two-point oracle for reflection off a speed profile.

For each frequency the time-harmonic reduction of  u_tt = (c^2 u_x)_x  is

    (c^2 v')' + omega^2 v = 0,

integrated as the first-order system v' = w / c^2, w' = -omega^2 v, which
never differentiates the merely-Hoelder coefficient.  With the speed constant
outside [-x_match, x_match], plane-wave matching at the ends yields the
reflection and transmission coefficients.  ``probe.oracle_band_exponent``
fits |R| over the probe's own dyadic bands, which gives the oracle decay
exponent that the wave-field probe is compared to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp


@dataclass
class ReflectionScan:
    omegas: np.ndarray
    R: np.ndarray  # complex reflection coefficients
    T: np.ndarray  # complex transmission coefficients
    c_left: float
    c_right: float

    def flux_defect(self) -> np.ndarray:
        """|R|^2 + (k_R c_R^2)/(k_L c_L^2) |T|^2 - 1, zero for a lossless profile."""
        ratio = (self.c_right**2 / self.c_left**2) * (self.c_left / self.c_right)
        return np.abs(self.R) ** 2 + ratio * np.abs(self.T) ** 2 - 1.0


def reflection_scan(
    speed,
    omegas,
    x_match: float = 0.6,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> ReflectionScan:
    """Reflection/transmission coefficients of the profile at each frequency.

    ``speed`` maps a position (float) to the sound speed (float) and must be
    constant outside [-x_match, x_match].  All frequencies are integrated
    together as one complex vector system from the transmission side back to
    the incidence side, then matched against left-going/right-going plane
    waves.
    """
    omegas = np.asarray(omegas, float)
    c_left = speed(-x_match - 1.0)
    c_right = speed(x_match + 1.0)
    k_l = omegas / c_left
    k_r = omegas / c_right
    m = omegas.size

    def rhs(x, y):
        c2 = speed(x) ** 2
        v = y[:m]
        w = y[m:]
        return np.concatenate([w / c2, -(omegas**2) * v])

    # transmitted wave of unit amplitude at the right end
    v0 = np.exp(1j * k_r * x_match)
    w0 = c_right**2 * 1j * k_r * v0
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
    v = sol.y[:m, -1]
    w = sol.y[m:, -1]
    vp = w / c_left**2
    # v = a e^{i k x} + b e^{-i k x} at x = -x_match
    phase = np.exp(1j * k_l * (-x_match))
    a = 0.5 * (v + vp / (1j * k_l)) / phase
    b = 0.5 * (v - vp / (1j * k_l)) * phase
    R = b / a
    T = 1.0 / a
    return ReflectionScan(omegas=omegas, R=R, T=T, c_left=c_left, c_right=c_right)

