from fractions import Fraction

import numpy as np
import pytest

from wavediff import helmholtz
from wavediff.cli import plan_spectra
from wavediff.helmholtz import layer_scan, reflection_scan, reflection_scan_ivp
from wavediff.metric import ConormalMetric, PhasePoint, PiecewiseSpeed
from wavediff.probe import (
    InsufficientBandsError,
    ProbeWindow,
    WindowPlanError,
    WindowSpectrum,
    _weighted_slope,
    decay_fit,
    default_oracle_scan,
    gain_report,
    oracle_band_exponent,
    probe_band,
    window_plan,
    window_taper,
)
from wavediff.orders import hyperbolic_window
from wavediff.tracer import gbb_trace, ray_on_characteristic
from wavediff.wave import PulseSpec, SpongeSpec, WaveScenario, make_pulse, run, stream


def fit_window(u0, window):
    """Fit one profile on a uniform grid over [-8, 8], handed to the window's
    spectrum as a single slice at t = 0."""
    spec = WindowSpectrum(window, np.linspace(-8.0, 8.0, u0.size))
    spec(0.0, u0)
    return decay_fit(spec)


def streamed_fits(scenario, spectra):
    """Solve ``scenario`` into the planned window spectra, as the pipeline
    does, and fit each one."""
    stream(scenario, spectra)
    return {spec.window.label: decay_fit(spec) for spec in spectra}


class TestTaper:
    def test_vanishes_at_edges(self):
        xs = np.linspace(-1.0, 1.0, 2001)
        tap = window_taper(xs, -1.0, 1.0)
        assert tap[0] == 0.0 and tap[-1] == 0.0
        assert tap[1] < 1e-8 and tap[-2] < 1e-8
        mid = np.abs(xs) < 0.5
        assert np.all(tap[mid] == 1.0)


class TestDecayFit:
    def _power_law_profile(self, r, n=2**15, seed=3):
        rng = np.random.default_rng(seed)
        k = 2 * np.pi * np.fft.rfftfreq(n, d=16.0 / n)
        mag = np.zeros_like(k)
        mag[1:] = (1.0 + k[1:] ** 2) ** (-r / 2.0)
        spec = mag * np.exp(1j * rng.uniform(0, 2 * np.pi, k.size))
        return np.fft.irfft(spec, n=n)

    def test_power_law_recovered(self):
        u = self._power_law_profile(2.0)
        w = ProbeWindow(-7.6, 7.6, -1, 1, "synthetic")
        fit = fit_window(u, w)
        assert fit.r_hat == pytest.approx(2.0, abs=0.05)

    def test_heaviside_step(self):
        n = 2**15
        xs = np.linspace(-8, 8, n)
        u = np.where(xs > 0.37, 1.0, 0.0)
        fit = fit_window(u, ProbeWindow(-7.6, 7.6, -1, 1, "step"))
        assert fit.r_hat == pytest.approx(1.0, abs=0.05)

    def test_gaussian_smooth_at_resolution(self):
        n = 2**15
        xs = np.linspace(-8, 8, n)
        u = np.exp(-0.5 * (xs / 0.25) ** 2)
        fit = fit_window(u, ProbeWindow(-7.6, 7.6, -1, 1, "gauss"))
        assert fit.smooth_at_resolution

    def test_noise_only_low_confidence(self):
        rng = np.random.default_rng(0)
        u = 1e-12 * rng.normal(size=2**15)
        fit = fit_window(u, ProbeWindow(-7.6, 7.6, -1, 1, "noise"))
        assert fit.low_confidence

    def test_rejects_tiny_window(self):
        u = self._power_law_profile(1.0)
        with pytest.raises((WindowPlanError, InsufficientBandsError)):
            fit_window(u, ProbeWindow(-0.01, 0.01, -1, 1, "tiny"))

    def test_taper_invariance(self):
        # doubling the window changes the exponent mildly
        u = self._power_law_profile(1.5)
        f1 = fit_window(u, ProbeWindow(-3.8, 3.8, -1, 1, "half"))
        f2 = fit_window(u, ProbeWindow(-7.6, 7.6, -1, 1, "full"))
        assert abs(f1.r_hat - f2.r_hat) <= 0.1


def batched_peak(u, ts, xs, window):
    """The per-bin maximum as one transform over every slice in the window."""
    sel_x = (xs >= window.x_lo) & (xs <= window.x_hi)
    sel_t = (ts >= window.t_lo) & (ts <= window.t_hi)
    taper = window_taper(xs[sel_x], window.x_lo, window.x_hi)
    agg = np.abs(np.fft.rfft(taper * u[np.ix_(sel_t, sel_x)], axis=1)).max(axis=0)
    return agg, int(np.count_nonzero(sel_t))


class TestWindowSpectrum:
    @pytest.mark.parametrize("x_lo, x_hi", [(-7.6, 7.6), (-3.8, -0.3), (0.11, 5.0)])
    def test_slice_by_slice_equals_batched_transform(self, x_lo, x_hi):
        rng = np.random.default_rng(5)
        n_t, n_x = 40, 2**13 + 1
        u = rng.normal(size=(n_t, n_x))
        ts, xs = np.linspace(0.0, 3.9, n_t), np.linspace(-8.0, 8.0, n_x)
        w = ProbeWindow(x_lo, x_hi, 0.5, 2.5, "w")
        spec = WindowSpectrum(w, xs)
        for t, u_t in zip(ts, u):
            spec(t, u_t)
        agg, n_slices = batched_peak(u, ts, xs, w)
        assert spec.n_slices == n_slices > 1
        assert np.array_equal(spec.peak, agg)

    @pytest.mark.parametrize("nx", [2**13, 3 * 2**12, 2**14])
    def test_fit_band_is_the_probe_band_of_the_grid(self, nx):
        # the oracle scans probe_band before any solve, so the fit's band
        # must be it bit for bit, for the dx a scenario grid's nodes give
        xs = -4.0 + 8.0 / nx * np.arange(nx + 1)
        spec = WindowSpectrum(ProbeWindow(-3.5, -0.5, 0.0, 1.0, "w"), xs)
        spec(0.5, np.sin(40.0 * xs))
        assert decay_fit(spec).band == probe_band(float(xs[1] - xs[0]))

    def test_window_without_slices_refused(self):
        with pytest.raises(WindowPlanError, match="no stored slices"):
            fit_window(np.ones(2**12), ProbeWindow(-7.6, 7.6, 1.0, 2.0, "late"))


class TestCalibrationClosure:
    @pytest.mark.parametrize("s_in", [-0.5, 0.0, 1.0, 2.0])
    def test_designed_exponent_recovered(self, s_in):
        m = ConormalMetric(s0=2.5, amp=0.0)
        sc = WaveScenario(
            metric=m, x_lo=-8.0, x_hi=8.0, duration=0.1, nx=2**15,
            source=PulseSpec(center=0.0, width=1.0, s_in=s_in),
            sponge=SpongeSpec(cells=600), store_stride=16,
        )
        fit = fit_window(make_pulse(sc), ProbeWindow(-4.8, 4.8, -1, 1, "cal"))
        assert fit.r_hat == pytest.approx(s_in + 0.55, abs=0.05)


class TestOracle:
    def test_jump_scan_matches_analytic(self):
        jump = PiecewiseSpeed(1.0, 1.3)
        scan = reflection_scan(jump.speed, np.geomspace(3, 300, 9), x_match=0.4)
        expected = abs(jump.reflection_coefficient())
        assert np.allclose(np.abs(scan.R), expected, rtol=1e-6)
        assert np.max(np.abs(scan.flux_defect())) < 1e-7

    def test_conormal_asymptotic_exponent(self):
        m = ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0)
        scan = reflection_scan(m.speed, np.geomspace(200, 1600, 13), x_match=1.1)
        om = scan.omegas  # per-frequency least squares with the probe's fit kernel
        slope, _, _ = _weighted_slope(np.log(om), np.log(np.abs(scan.R)), np.ones_like(om))
        rho = -slope
        assert rho == pytest.approx(m.s0 - 1.0, abs=0.05)

    def test_band_exponent_of_pure_power(self):
        om = np.geomspace(6.25, 1600, 49)
        scan_like = type("S", (), {})()
        scan_like.omegas = om
        scan_like.R = om**-1.5 + 0j
        rho, _ = oracle_band_exponent(scan_like, (6.25, 1600.0))
        assert rho == pytest.approx(1.5, abs=0.01)

    def test_default_scan_runs(self):
        m = ConormalMetric(s0=2.5, amp=0.4, core_radius=0.5)
        scan = default_oracle_scan(m, (10.0, 320.0), points_per_octave=4)
        assert scan.omegas.size >= 3
        assert np.max(np.abs(scan.flux_defect())) < 1e-6

    def test_layers_match_dop853_on_bundled_band(self):
        m, band = bundled_metric_and_band()
        scan = default_oracle_scan(m, band)
        assert scan.omegas.size == 49
        ref = reflection_scan_ivp(m.speed, scan.omegas, x_match=1.1)
        assert np.max(_rel_modulus_change(scan.R, ref.R)) <= 3e-4
        rho, _ = oracle_band_exponent(scan, band)
        rho_ref, _ = oracle_band_exponent(ref, band)
        assert abs(rho - rho_ref) <= 2e-5
        coarse = layer_scan(m.speed, scan.omegas, 1.1, helmholtz.HALVED_CELLS)
        assert scan.halving == np.max(_rel_modulus_change(scan.R, coarse.R))

    def test_halving_difference_is_second_order(self):
        m, band = bundled_metric_and_band()
        omegas = default_oracle_scan(m, band).omegas
        R = {n: layer_scan(m.speed, omegas, 1.1, n).R for n in (2**13, 2**14, 2**15)}
        # complex R too: sampling each cell at its left edge keeps |R| second
        # order but makes R itself first order
        for change in (_rel_modulus_change, lambda a, b: np.abs(a - b) / np.abs(a)):
            coarse = np.max(change(R[2**14], R[2**13]))
            fine = np.max(change(R[2**15], R[2**14]))
            assert 3.0 <= coarse / fine <= 5.0

    def test_jump_resolved_exactly(self):
        jump = PiecewiseSpeed(1.0, 1.3)
        scan = reflection_scan(jump.speed, np.geomspace(3, 3000, 13), x_match=0.4)
        assert np.allclose(scan.R, jump.reflection_coefficient(), rtol=1e-12, atol=0.0)


def whole_array_layer_product(speed, omegas, x_match, cells):
    """Every cell's matrix at once, reduced pairwise in one tree."""
    edges = helmholtz._graded_edges(x_match, cells)
    h = np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])
    c = np.asarray(speed(mid), float)[:, None]
    omegas = omegas[None, :]
    kh = omegas / c * h
    kc2 = omegas * c  # k c^2
    cos, sin = np.cos(kh), np.sin(kh)
    a, b, cc, d = cos, sin / kc2, -kc2 * sin, cos
    while a.shape[0] > 1:
        la, lb, lc, ld = a[0::2], b[0::2], cc[0::2], d[0::2]
        ra, rb, rc, rd = a[1::2], b[1::2], cc[1::2], d[1::2]
        a, b, cc, d = (
            ra * la + rb * lc,
            ra * lb + rb * ld,
            rc * la + rd * lc,
            rc * lb + rd * ld,
        )
    return a[0], b[0], cc[0], d[0]


class TestBlockedProduct:
    """``_layer_product`` reduces ``BLOCK`` cells at a time with the pairing
    tree of the whole-array product, so every entry keeps its bits."""

    @pytest.mark.parametrize(
        "cells", [helmholtz.CELLS, helmholtz.HALVED_CELLS, 2**10, helmholtz.BLOCK, 2**6]
    )
    @pytest.mark.parametrize("profile", ["bundled", "jump"])
    def test_matches_whole_array_product(self, profile, cells):
        if profile == "bundled":
            m, band = bundled_metric_and_band()
            speed, omegas, x_match = m.speed, default_oracle_scan(m, band).omegas, 1.1
        else:
            speed, omegas, x_match = PiecewiseSpeed(1.0, 1.3).speed, np.geomspace(3, 3000, 13), 0.4
        blocked = helmholtz._layer_product(speed, omegas, x_match, cells)
        whole = whole_array_layer_product(speed, omegas, x_match, cells)
        for got, want in zip(blocked, whole):
            assert np.array_equal(got, want)


def bundled_metric_and_band():
    """The bundled scenario's profile and the probe band of its 2^14 grid."""
    m = ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0)
    k_top = np.pi / (8.0 / 2**14) / 4.0  # a quarter of the Nyquist of [-4, 4]
    return m, (k_top / 2**8, k_top)


def _rel_modulus_change(R, R_ref):
    return np.abs(np.abs(R) - np.abs(R_ref)) / np.abs(R)


def small_experiment(metric, duration=6.6, nx=2**13, width=0.06):
    return WaveScenario(
        metric=metric, x_lo=-4.0, x_hi=4.0, duration=duration, nx=nx,
        source=PulseSpec(center=-2.2, width=width, s_in=-0.5),
        sponge=SpongeSpec(cells=300, strength=60.0), store_stride=8,
    )


class TestWindowPlan:
    def _paths(self, m, duration=6.6, x0=-2.2):
        q0 = ray_on_characteristic(m, x0, 0.0, direction=+1)
        return gbb_trace(m, q0, t_span=duration)

    def test_three_disjoint_windows(self):
        m = ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0)
        sc = small_experiment(m)
        wins = window_plan(sc, self._paths(m))
        labels = [w.label for w in wins]
        assert labels == ["incident", "reflected", "transmitted"]
        inc, refl, trans = wins
        assert inc.t_hi < refl.t_lo  # time-disjoint on the shared side
        assert trans.x_lo > refl.x_hi  # space-disjoint across the interface
        for w in wins:
            assert min(abs(w.x_lo), abs(w.x_hi)) >= 10 * sc.dx

    def test_source_too_close_rejected(self):
        m = ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0)
        sc = WaveScenario(
            metric=m, x_lo=-4.0, x_hi=4.0, duration=6.6, nx=2**13,
            source=PulseSpec(center=-1.15, width=0.06, s_in=-0.5),
            sponge=SpongeSpec(cells=300), store_stride=8,
        )
        with pytest.raises(WindowPlanError):
            window_plan(sc, self._paths(m, x0=-1.15))

    def test_mismatched_trace_rejected(self):
        m = ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0)
        sc = small_experiment(m)
        with pytest.raises(WindowPlanError):
            window_plan(sc, self._paths(m, x0=-1.5))

    def test_trace_too_short_rejected(self):
        # legs traced for 2.5 time units end short of the windows of a 6.6 run
        m = ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0)
        with pytest.raises(WindowPlanError, match="traced reflected leg ends"):
            window_plan(small_experiment(m), self._paths(m, duration=2.5))

    def test_run_too_short_rejected(self):
        m = ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0)
        sc = small_experiment(m, duration=2.5)
        with pytest.raises(WindowPlanError):
            window_plan(sc, self._paths(m, duration=2.5))

    def test_ray_prediction_tracks_packet_maximum(self):
        # analytic pulse on a jump interface: the reflected packet's peak
        # position matches the traced ray within two cells
        jump = PiecewiseSpeed(1.0, 1.5)
        sc = WaveScenario(
            metric=jump, x_lo=-4.0, x_hi=4.0, duration=3.0, nx=2**13,
            source=PulseSpec(center=-1.5, width=0.05),
            sponge=SpongeSpec(cells=300), store_stride=4,
        )
        fld = run(sc)
        # rays in the flat left region: incident hits Y at t=1.5, reflected
        # then sits at x = -(t - 1.5)
        idx = int(np.argmin(np.abs(fld.ts - 2.6)))
        x_pred = -(fld.ts[idx] - 1.5)
        sel = (fld.xs > -2.5) & (fld.xs < -0.5)
        x_meas = fld.xs[sel][np.argmax(np.abs(fld.u[idx, sel]))]
        assert abs(x_meas - x_pred) <= 2 * sc.dx


# the exact theorem window of s0 = 5/2, eps0 = 1/20, k = 1
WINDOW = hyperbolic_window(Fraction(5, 2), Fraction(1, 20), 1)


class TestGainReport:
    def test_small_grid_experiment_passes(self):
        m = ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0)
        sc = small_experiment(m)
        q0 = PhasePoint([-2.2, 0.0], [-1.0, 1.0])
        paths = gbb_trace(m, q0, t_span=sc.duration)
        fits = streamed_fits(sc, plan_spectra(sc, paths))
        oracle = default_oracle_scan(m, fits["incident"].band, points_per_octave=4)
        rep = gain_report(fits, WINDOW, oracle=oracle)
        assert rep.verdict == "pass"
        assert abs(rep.gain_transmitted) <= 0.25
        assert abs(rep.oracle_mismatch) <= 0.25
        assert rep.window_admissible
        assert (rep.window_lo, rep.window_sup) == (-0.5, 0.95)

    def test_no_interface_inconclusive(self):
        # smooth medium: the reflected window holds only noise
        m_flat = ConormalMetric(s0=2.5, amp=0.0)
        m_ref = ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0)
        sc_ref = small_experiment(m_ref)
        q0 = PhasePoint([-2.2, 0.0], [-1.0, 1.0])
        spectra = plan_spectra(sc_ref, gbb_trace(m_ref, q0, t_span=6.6))
        rep = gain_report(streamed_fits(small_experiment(m_flat), spectra), WINDOW)
        assert rep.fits["reflected"].low_confidence
        assert rep.verdict == "inconclusive"

    def test_report_serializes(self):
        import json

        m = ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0)
        sc = small_experiment(m)
        q0 = PhasePoint([-2.2, 0.0], [-1.0, 1.0])
        spectra = plan_spectra(sc, gbb_trace(m, q0, t_span=sc.duration))
        rep = gain_report(streamed_fits(sc, spectra), WINDOW)
        js = json.dumps(rep.asdict())
        assert "reflected" in js
