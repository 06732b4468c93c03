"""The 1+1D product Lorentzian metric with a conormal sound-speed singularity.

States are ``(x, t, xi, tau)``: the normal coordinate ``x``, time ``t`` and
their duals.  The interface is ``Y = {x = 0}``, and the sound speed is

    c(x) = c_bg + amp * |x|^(s0 - 1) * bump(|x| / core),

smooth away from ``Y`` and of class C^{1,alpha} across it with
``alpha = s0 - 2``; the bump keeps the profile compactly modulated so the
medium is exactly homogeneous outside the core, where the speed is the
constant ``c_bg``.  One ``speed``/``dspeed`` pair evaluates the profile:
float in, float out; array in, array out.  A float runs a float
kernel, and ``hamilton_field`` computes on floats too.  The dual metric
function is

    p = tau^2 - c(x)^2 xi^2,

so rays travel at speed ``c`` and the time-dual ``tau`` is conserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .escape import chi0

CHAR_TOL = 1e-9


_PLATEAU = 0.3  # fraction of the core radius held exactly at profile value


def _over_square(f, t):
    """f / t^2 where t > 0, zero elsewhere: chi0'(t) from f = chi0(t)."""
    if isinstance(t, float):
        return f / (t * t) if t > 0 else 0.0
    out = np.zeros_like(f)
    pos = t > 0
    out[pos] = f[pos] / (t[pos] * t[pos])
    return out


@dataclass(frozen=True)
class PhasePoint:
    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, float))
        object.__setattr__(self, "xi", np.asarray(self.xi, float))
        if self.x.shape != self.xi.shape:
            raise ValueError("position and covector must have matching shape")


class ConormalMetric:
    """Sound-speed field with a conormal singularity at the interface {x = 0}."""

    def __init__(
        self,
        s0: float = 2.5,
        amp: float = 0.4,
        c_bg: float = 1.0,
        core_radius: float = 0.5,
    ):
        if not s0 > 2:
            raise ValueError("need s0 > 2 for a C^1 metric")
        self.s0 = float(s0)
        self.amp = float(amp)
        self.c_bg = float(c_bg)
        self.core_radius = float(core_radius)
        if not math.isfinite(self.amp):
            raise ValueError("amp must be finite, got %g" % self.amp)
        for name, value in (("c_bg", self.c_bg), ("core_radius", self.core_radius)):
            if not 0 < value < math.inf:  # nan fails too
                raise ValueError("%s must be positive and finite, got %g" % (name, value))
        self.exponent = self.s0 - 1.0
        self._field_x = self._field_profile = None  # see hamilton_field
        # the bump is at most 1 and the core holds |x| <= core_radius, so the
        # speed stays above c_bg - |amp| core_radius^(s0-1); compared in logs,
        # which never overflow
        if self.amp < 0 and not (math.log(self.c_bg) > math.log(-self.amp)
                                 + self.exponent * math.log(self.core_radius)):
            raise ValueError("amp %g may drive the speed non-positive in the core: "
                             "c_bg %g <= |amp| * core_radius^(s0-1)" % (self.amp, self.c_bg))

    # -- speed profile -----------------------------------------------------
    def _profile(self, x, slope: bool):
        """Speed at x, and with ``slope`` also its signed derivative d/dx.

        The singular part is amp |x|^e bump(|x| / core), e = s0 - 1 > 1, so
        its slope vanishes at x = 0.  The bump is 1 for u <= 0.3 and 0 for
        u >= 1; the wide transition keeps the modulation's own reflections
        well below the singular ones.  With t = (u - 0.3) / 0.7 it is
        1 - f / (f + g), f = chi0(t), g = chi0(1 - t), and the slope reuses
        f and g, since chi0'(t) = chi0(t) / t^2.

        A scalar x runs the same expressions on Python floats (the tracer
        calls this ~10^4 times per trace); only the cutoff terms branch on
        float against array.
        """
        scalar = isinstance(x, float) or np.ndim(x) == 0
        x = float(x) if scalar else np.asarray(x, float)
        r = abs(x)
        u = r / self.core_radius
        t = (u - _PLATEAU) / (1.0 - _PLATEAU)
        s = 1.0 - t
        f, g = chi0(t), chi0(s)
        bump = 1.0 - f / (f + g)
        e = self.exponent
        c = self.c_bg + self.amp * r**e * bump
        if not slope:
            return float(c) if scalar else c
        fp, gp = _over_square(f, t), _over_square(g, s)
        dbump = -((fp * g + f * gp) / (f + g) ** 2) / (1.0 - _PLATEAU)
        dc = self.amp * (e * r ** (e - 1.0) * bump + r**e * dbump / self.core_radius)
        if not scalar:
            return c, dc * np.sign(x)
        # np.sign(x) * dc on a float: the sign flips exactly, and 0 or nan
        # multiply as they would
        return c, (dc if x > 0 else -dc if x < 0 else dc * 0.0)

    def speed(self, x):
        """Speed at the normal coordinate x: float in, float out; array in,
        array out."""
        return self._profile(x, slope=False)

    def dspeed(self, x):
        """Signed d/dx of the speed, with the same float/array rule."""
        return self._profile(x, slope=True)[1]

    # -- dual metric ------------------------------------------------------
    def dual_hamiltonian(self, q: PhasePoint) -> float:
        (x, _t), (xi, tau) = q.x, q.xi
        c = self.speed(float(x))
        return float(tau**2 - c**2 * (xi * xi))

    def on_characteristic_set(self, q: PhasePoint, tol: float = CHAR_TOL) -> bool:
        scale = float(np.dot(q.xi, q.xi))
        if scale == 0:
            raise ValueError("covector must be nonzero")
        return abs(self.dual_hamiltonian(q)) <= tol * scale

    def hamilton_field(self, state) -> tuple:
        """Hamilton vector field on states (x, t, xi, tau) as a tuple of four
        Python floats: (-2 c^2 xi, 2 tau, 2 c c' xi^2, 0).

        The profile of the last ``x`` is kept and reused: the tracer's RK4
        step takes its two middle stages at one position and starts where
        the step before it ended, so it needs two profiles, not four.
        """
        x, _t, xi, tau = state.tolist() if isinstance(state, np.ndarray) else state
        if x != self._field_x:
            self._field_x, self._field_profile = x, self._profile(x, slope=True)
        c, dc = self._field_profile
        return (-2.0 * c**2) * xi, 2.0 * tau, ((2.0 * c) * dc) * (xi * xi), 0.0


class PiecewiseSpeed:
    """Jump-interface speed field: c_left for x < 0, c_right for x > 0.

    A jump sits one conormal order above a delta layer (s0 = 1 = codim), far
    below the C^1 regime; it serves as the negative control where no
    regularity gain is expected.  It has no Hamilton field, so it drives the
    wave solve and the oracle directly and no config builds it.
    """

    def __init__(self, c_left: float = 1.0, c_right: float = 1.3):
        self.c_left = float(c_left)
        self.c_right = float(c_right)
        self.amp = c_right - c_left

    def speed(self, x):
        x = np.asarray(x, float)
        c = np.where(x < 0, self.c_left, self.c_right)
        return c if c.ndim else float(c)

    def reflection_coefficient(self) -> float:
        """Plane-wave matching for divergence form: continuity of u and of
        c^2 u_x gives R = (c_left - c_right) / (c_left + c_right)."""
        return (self.c_left - self.c_right) / (self.c_left + self.c_right)

