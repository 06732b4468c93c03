"""Sobolev regularity probing by windowed Fourier decay.

A packet's regularity is inferred from the decay of its spatial transform in
a tapered space-time window: band-averaged magnitudes over dyadic wavenumber
bands are fit by a power law, and a decay exponent r corresponds to H^s
membership for s < r - 1/2 (one-dimensional square summability).  Windows sit
in the homogeneous part of the medium, so spatial wavenumber and temporal
frequency are interchangeable there; time aggregation takes the per-bin
maximum over slices, which registers every dispersed arrival as it passes
through the window.  ``WindowSpectrum`` takes that maximum slice by slice:
the pipeline hands it each slice as ``wave.stream`` produces it, so no field
history is stored, and a test may call it on slices of its own.

The quantitative target for the reflected packet is never an assumed
constant: the frequency-domain two-point oracle supplies the reflection
coefficient of the same profile, fitted over the same dyadic bands.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .escape import chi1
from .helmholtz import ReflectionScan, reflection_scan
from .orders import HyperbolicWindow
from .tracer import EventType
from .wave import WaveScenario


# the verdict's tolerances, as ``gain_report`` applies them
TRANSMIT_TOL = 0.25
ORACLE_TOL = 0.25
GAIN_FLOOR = 1.0
MARGIN = 0.25
# the dyadic bands the probe fits, and the plan checks each window against
N_BANDS = 8


class WindowPlanError(ValueError):
    pass


class InsufficientBandsError(ValueError):
    pass


@dataclass(frozen=True)
class ProbeWindow:
    x_lo: float
    x_hi: float
    t_lo: float
    t_hi: float
    label: str


def window_taper(x, lo, hi):
    """Smooth plateau over the window, exactly zero at and beyond the edges;
    each edge ramp spans 12% of the window."""
    x = np.asarray(x, float)
    rise = 0.12 * (hi - lo)
    return np.asarray(chi1((x - lo) / rise)) * np.asarray(chi1((hi - x) / rise))


@dataclass
class DecayFit:
    label: str
    r_hat: float
    stderr: float
    intercept: float  # log band mean = intercept - r_hat * log band center
    band: tuple
    n_bands: int
    band_centers: np.ndarray
    band_means: np.ndarray
    dynamic_range_decades: float
    low_confidence: bool
    smooth_at_resolution: bool
    n_slices: int

    @property
    def s_hat(self) -> float:
        return self.r_hat - 0.5


def _dyadic_bands(grid, values, k_top: float, what: str):
    """Means of ``values`` over the N_BANDS dyadic bands [k_top/2^j, k_top/2^(j-1)),
    lowest first, with the geometric band centers, the fit weights sqrt(count)
    and the band edges.  A band holding no grid point is an error naming ``what``,
    the kind of grid point it lacks.
    """
    edges = k_top / 2.0 ** np.arange(N_BANDS, -1, -1)
    means, centers, weights = [], [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        m = (grid >= lo) & (grid < hi)
        cnt = int(np.count_nonzero(m))
        if cnt == 0:
            raise InsufficientBandsError("band [%g, %g) holds no %s" % (lo, hi, what))
        means.append(float(np.mean(values[m])))
        centers.append(float(np.sqrt(lo * hi)))
        weights.append(np.sqrt(cnt))
    return np.asarray(means), np.asarray(centers), np.asarray(weights), edges


def _weighted_slope(x, y, w):
    W = np.asarray(w, float)
    X = np.stack([np.asarray(x, float), np.ones_like(W)], axis=1)
    WX = X * W[:, None]
    beta, *_ = np.linalg.lstsq(WX, np.asarray(y, float) * W, rcond=None)
    resid = y - X @ beta
    dof = max(x.size - 2, 1)
    sxx = np.sum(W**2 * (x - np.average(x, weights=W**2)) ** 2)
    stderr = float(np.sqrt(np.sum(W**2 * resid**2) / dof / max(sxx, 1e-300)))
    return float(beta[0]), float(beta[1]), stderr


class WindowSpectrum:
    """Per-bin maximum of |rfft(taper * u[a:b])| over the slices whose time
    lies in the window, where [a, b) are the grid nodes inside it.

    An observer for ``wave.stream``: it is called as ``spectrum(t, u)`` with
    each stored slice and keeps only its spectrum, one transform per slice in
    the window.  A window holding fewer than 64 nodes is refused when it is
    built, before any slice arrives; ``check_bands`` refuses one too short
    for the probe bands.
    """

    def __init__(self, window: ProbeWindow, xs):
        inside = np.flatnonzero((xs >= window.x_lo) & (xs <= window.x_hi))
        if inside.size < 64:
            raise WindowPlanError("window too narrow for the grid")
        self.window = window
        self.dx = float(xs[1] - xs[0])
        self.nodes = slice(int(inside[0]), int(inside[-1]) + 1)
        self.taper = window_taper(xs[self.nodes], window.x_lo, window.x_hi)
        self.peak = np.zeros(inside.size // 2 + 1)
        self.n_slices = 0

    def __call__(self, t, u):
        if self.window.t_lo <= t <= self.window.t_hi:
            spectrum = np.abs(np.fft.rfft(self.taper * u[self.nodes]))
            np.maximum(self.peak, spectrum, out=self.peak)
            self.n_slices += 1

    @property
    def wavenumbers(self) -> np.ndarray:
        """The angular wavenumbers of the spectrum's bins."""
        return 2.0 * np.pi * np.fft.rfftfreq(self.taper.size, d=self.dx)

    def check_bands(self):
        """Raise ``WindowPlanError`` unless each of the ``N_BANDS`` dyadic
        bands of ``probe_band``, which ``decay_fit`` fits, holds a bin of
        this window's spectrum: a window spanning too few wavelengths of the
        lowest band would fail only after the whole solve."""
        try:
            _dyadic_bands(self.wavenumbers, self.peak, probe_band(self.dx)[1],
                          "wavenumber of the window")
        except InsufficientBandsError as err:
            raise WindowPlanError("%s window too short for the probe bands: %s"
                                  % (self.window.label, err)) from None


def probe_band(dx: float) -> tuple:
    """The span ``(k_lo, k_top)`` of the ``N_BANDS`` dyadic probe bands on a
    grid of step ``dx``: the top edge is a quarter of the grid Nyquist.  It
    depends on the grid alone, so the oracle can scan it before any solve;
    ``decay_fit`` fits over the same edges."""
    k_top = np.pi / dx / 4.0
    return k_top / 2.0**N_BANDS, k_top


def decay_fit(spec: WindowSpectrum) -> DecayFit:
    """Fit the windowed spectral decay exponent over dyadic bands.

    The top band is capped at a quarter of the grid Nyquist; eight dyadic
    bands below it are required, not extrapolated.  The dynamic range is the
    headroom of the strongest band mean over the measured noise floor (median
    magnitude above the band-limit rolloff); under three decades the fit is
    flagged low-confidence.
    """
    if spec.n_slices == 0:
        raise WindowPlanError("no stored slices inside the time window")
    k = spec.wavenumbers
    nyquist = np.pi / spec.dx
    k_top = probe_band(spec.dx)[1]
    peak = spec.peak  # per-bin maximum over the window's slices
    means, centers, weights, edges = _dyadic_bands(
        k, peak, k_top, "wavenumber of the window; widen the window"
    )

    floor_band = (k >= 1.5 * k_top) & (k <= min(2.5 * k_top, 0.95 * nyquist))
    floor = float(np.median(peak[floor_band])) if np.any(floor_band) else 0.0
    floor = max(floor, 1e-300)
    decades = float(np.log10(max(means.max(), 1e-300) / floor))
    smooth_here = bool(means[-1] < 10.0 * floor)

    slope, intercept, stderr = _weighted_slope(
        np.log(centers), np.log(np.maximum(means, 1e-300)), weights
    )
    return DecayFit(
        label=spec.window.label,
        r_hat=-slope,
        stderr=stderr,
        intercept=intercept,
        band=(float(edges[0]), float(edges[-1])),
        n_bands=N_BANDS,
        band_centers=centers,
        band_means=means,
        dynamic_range_decades=decades,
        low_confidence=decades < 3.0,
        smooth_at_resolution=smooth_here,
        n_slices=spec.n_slices,
    )


def oracle_band_exponent(scan: ReflectionScan, band: tuple):
    """Fit the oracle's |R| over the same dyadic bands the field probe uses."""
    means, centers, weights, _ = _dyadic_bands(
        scan.omegas, np.abs(scan.R), band[1], "oracle frequency"
    )
    slope, _, stderr = _weighted_slope(np.log(centers), np.log(means), weights)
    return -slope, stderr


def default_oracle_scan(metric, band: tuple, points_per_octave: int = 6) -> ReflectionScan:
    """Frequency sweep of the metric's profile covering the probe band.

    Windows sit where the speed equals its background value, so temporal
    frequency equals background speed times spatial wavenumber.
    """
    k_lo, k_top = band
    c_bg = metric.c_bg
    n = max(3, int(np.ceil(points_per_octave * np.log2(k_top / k_lo))) + 1)
    omegas = np.geomspace(k_lo * c_bg, k_top * c_bg, n)
    return reflection_scan(metric.speed, omegas, x_match=1.1 * max(metric.core_radius, 0.05))


# ---------------------------------------------------------------------------
# window planning from a traced broken bicharacteristic


def _leg_time_at(leg, x):
    """Time at which the leg passes position x, or None if it never gets there."""
    ts = np.array([s.q[1] for s in leg])
    xs = np.array([s.q[0] for s in leg])
    if not xs.min() <= x <= xs.max():
        return None
    order = np.argsort(xs)
    return float(np.interp(x, xs[order], ts[order]))


def window_plan(scenario: WaveScenario, paths: list) -> list:
    """Place incident / reflected / transmitted windows from a traced path set.

    Spatial windows sit in the homogeneous region on either side of the
    interface, clear of the singular core and the sponges; time extents are
    read off the traced legs so every dispersed arrival passes fully through
    its window.  Raises WindowPlanError when the geometry does not fit.
    """
    refl_path = next(
        (p for p in paths if p.events and p.events[0].kind is EventType.REFLECTION), None
    )
    trans_path = next(
        (p for p in paths if p.events and p.events[0].kind is EventType.TRANSMISSION), None
    )
    if refl_path is None or trans_path is None:
        raise WindowPlanError("trace must contain one reflection and one transmission branch")
    t_event = refl_path.events[0].time

    m = scenario.metric
    dx = scenario.dx
    src = scenario.source
    clear = max(10 * dx, 1.1 * m.core_radius)
    sponge_pad = scenario.sponge.cells * dx + 20 * dx
    lo_usable = scenario.x_lo + sponge_pad
    hi_usable = scenario.x_hi - sponge_pad
    width = min(-clear - lo_usable, hi_usable - clear)
    if width <= 0:
        raise WindowPlanError("no room between the core and the sponges; enlarge the domain")

    left = ProbeWindow(
        x_lo=-clear - width, x_hi=-clear, t_lo=0.0, t_hi=0.0, label="placeholder"
    )
    if left.x_lo < lo_usable - 1e-9 or clear + width > hi_usable + 1e-9:
        raise WindowPlanError("windows collide with the sponges; enlarge the domain")

    support = 3.0 * src.width
    inc_leg = refl_path.legs[0]
    start_x = float(inc_leg[0].q[0])
    if abs(start_x - src.center) > max(5 * dx, 0.05 * abs(src.center)):
        raise WindowPlanError(
            "trace starts at x=%.4f but the source sits at x=%.4f" % (start_x, src.center)
        )
    # incident measurement must end before the packet's leading edge enters
    # the clearance zone
    t_inc_end = _leg_time_at(inc_leg, -(clear + support + 2 * dx))
    if t_inc_end is None or t_inc_end <= 0:
        raise WindowPlanError("source too close to the interface; move it outward")
    incident = ProbeWindow(
        x_lo=-clear - width, x_hi=-clear, t_lo=0.0, t_hi=t_inc_end, label="incident"
    )

    refl_leg = refl_path.legs[-1]
    trans_leg = trans_path.legs[-1]
    # reflected measurement starts once the trailing edge has cleared the core
    t_ref_start = 2.0 * t_event - t_inc_end
    t_end = scenario.duration
    if t_ref_start >= t_end:
        raise WindowPlanError("run too short for the reflected window; extend the duration")
    reflected = ProbeWindow(
        x_lo=-clear - width, x_hi=-clear, t_lo=t_ref_start, t_hi=t_end, label="reflected"
    )
    transmitted = ProbeWindow(
        x_lo=clear, x_hi=clear + width, t_lo=t_ref_start, t_hi=t_end, label="transmitted"
    )
    # the main reflected and transmitted arrivals must cross their windows
    # within the traced legs and before the run ends
    for label, leg, x in (("reflected", refl_leg, -(clear + 0.6 * width)),
                          ("transmitted", trans_leg, clear + 0.6 * width)):
        t_cross = _leg_time_at(leg, x)
        if t_cross is None:
            raise WindowPlanError(
                "traced %s leg ends before its window; extend the duration" % label
            )
        if t_cross > t_end:
            raise WindowPlanError(
                "%s packet does not reach its window; extend the duration" % label
            )

    # disjointness: incident/reflected share space but are separated in time
    # by the interface transit; enforce a five-pulse-width margin
    gap = (t_ref_start - t_inc_end) * m.speed(incident.x_hi)
    if gap < 5.0 * src.width:
        raise WindowPlanError("incident and reflected windows are not separated enough")
    return [incident, reflected, transmitted]


# ---------------------------------------------------------------------------
# report


@dataclass
class RegularityReport:
    fits: dict
    gain_reflected: float
    gain_transmitted: float
    oracle_exponent: float | None
    oracle_stderr: float | None
    oracle_halving: float | None
    predicted_reflected_r: float | None
    oracle_mismatch: float | None
    window_admissible: bool
    window_sup: float
    window_lo: float
    transmit_tol: float
    verdict: str
    notes: list

    def asdict(self):
        d = asdict(self)
        for label, fit in d["fits"].items():
            fit["band_centers"] = list(map(float, fit["band_centers"]))
            fit["band_means"] = list(map(float, fit["band_means"]))
        return d


def gain_report(
    fits: dict,
    window: HyperbolicWindow,
    oracle: ReflectionScan | None = None,
) -> RegularityReport:
    """Compare incident / reflected / transmitted decay exponents.

    ``fits`` maps the labels ``incident``, ``reflected`` and ``transmitted``
    to their windows' ``decay_fit``.  The transmitted exponent must match the
    incident one within ``TRANSMIT_TOL``; the reflected exponent must match
    incident + oracle exponent within ``ORACLE_TOL`` when an oracle scan is
    supplied (the pipeline always supplies one; the tests' jump and flat
    controls do not), and must in any case reach min(incident + ``GAIN_FLOOR``,
    interface ceiling - ``MARGIN``) in inferred Sobolev order.  The gate, the
    theorem window and the interface ceiling all come from the exact
    ``window`` (``orders.hyperbolic_window``).
    Low-confidence fits make the verdict "inconclusive", never "pass".
    """
    inc, refl, trans = fits["incident"], fits["reflected"], fits["transmitted"]
    notes = []

    gain_r = refl.r_hat - inc.r_hat
    gain_t = trans.r_hat - inc.r_hat

    theorem = window.theorem
    oracle_exp = oracle_err = halving = predicted = mismatch = None
    if oracle is not None:
        oracle_exp, oracle_err = oracle_band_exponent(oracle, inc.band)
        halving = oracle.halving
        predicted = inc.r_hat + oracle_exp
        mismatch = refl.r_hat - predicted

    checks = []
    checks.append(abs(gain_t) <= TRANSMIT_TOL)
    if not checks[-1]:
        notes.append("transmitted exponent drifted %.3f from incident" % gain_t)
    if mismatch is not None:
        checks.append(abs(mismatch) <= ORACLE_TOL)
        if not checks[-1]:
            notes.append("reflected exponent misses the oracle prediction by %.3f" % mismatch)
    # interface ceiling s0 - 1 - k/2: the top of the window as eps0 -> 0
    ceiling = float(theorem.hi + theorem.eps0) - MARGIN
    target_s = min(inc.s_hat + GAIN_FLOOR, ceiling)
    checks.append(refl.s_hat >= target_s)
    if not checks[-1]:
        notes.append(
            "reflected Sobolev proxy %.3f under target %.3f" % (refl.s_hat, target_s)
        )

    if any(f.low_confidence for f in fits.values()):
        verdict = "inconclusive"
        notes.append("low-confidence fit present")
    elif all(checks):
        verdict = "pass"
    else:
        verdict = "fail"
    return RegularityReport(
        fits=fits,
        gain_reflected=gain_r,
        gain_transmitted=gain_t,
        oracle_exponent=oracle_exp,
        oracle_stderr=oracle_err,
        oracle_halving=halving,
        predicted_reflected_r=predicted,
        oracle_mismatch=mismatch,
        window_admissible=window.admissible,
        window_sup=float(theorem.hi),
        window_lo=float(theorem.lo),
        transmit_tol=TRANSMIT_TOL,
        verdict=verdict,
        notes=notes,
    )
