from fractions import Fraction

import numpy as np
import pytest

from wavediff import helmholtz
from wavediff.helmholtz import layer_scan, reflection_scan, reflection_scan_ivp
from wavediff.metric import ConormalMetric, PhasePoint, PiecewiseSpeed
from wavediff.probe import (
    InsufficientBandsError,
    ProbeWindow,
    WindowPlanError,
    _weighted_slope,
    decay_fit,
    default_oracle_scan,
    gain_report,
    oracle_band_exponent,
    window_plan,
    window_taper,
)
from wavediff.orders import hyperbolic_window
from wavediff.tracer import gbb_trace, ray_on_characteristic
from wavediff.wave import PulseSpec, SpongeSpec, WaveField, WaveScenario, make_pulse, run


def synthetic_field(u0, x_lo=-8.0, x_hi=8.0):
    xs = np.linspace(x_lo, x_hi, u0.size)
    return WaveField(
        u=u0[None, :],
        ts=np.array([0.0]),
        xs=xs,
        c=np.ones(u0.size),
        dt=1.0,
        energy=np.array([1.0]),
        max_trust_freq=1e9,
    )


class TestTaper:
    def test_vanishes_at_edges(self):
        xs = np.linspace(-1.0, 1.0, 2001)
        tap = window_taper(xs, -1.0, 1.0)
        assert tap[0] == 0.0 and tap[-1] == 0.0
        assert tap[1] < 1e-8 and tap[-2] < 1e-8
        mid = np.abs(xs) < 0.5
        assert np.all(tap[mid] == 1.0)


class TestDecayFit:
    def _power_law_field(self, r, n=2**15, seed=3):
        rng = np.random.default_rng(seed)
        k = 2 * np.pi * np.fft.rfftfreq(n, d=16.0 / n)
        mag = np.zeros_like(k)
        mag[1:] = (1.0 + k[1:] ** 2) ** (-r / 2.0)
        spec = mag * np.exp(1j * rng.uniform(0, 2 * np.pi, k.size))
        u = np.fft.irfft(spec, n=n)
        return synthetic_field(u)

    def test_power_law_recovered(self):
        fld = self._power_law_field(2.0)
        w = ProbeWindow(-7.6, 7.6, -1, 1, "synthetic")
        fit = decay_fit(fld, w)
        assert fit.r_hat == pytest.approx(2.0, abs=0.05)

    def test_heaviside_step(self):
        n = 2**15
        xs = np.linspace(-8, 8, n)
        u = np.where(xs > 0.37, 1.0, 0.0)
        fld = synthetic_field(u)
        fit = decay_fit(fld, ProbeWindow(-7.6, 7.6, -1, 1, "step"))
        assert fit.r_hat == pytest.approx(1.0, abs=0.05)

    def test_gaussian_smooth_at_resolution(self):
        n = 2**15
        xs = np.linspace(-8, 8, n)
        u = np.exp(-0.5 * (xs / 0.25) ** 2)
        fit = decay_fit(synthetic_field(u), ProbeWindow(-7.6, 7.6, -1, 1, "gauss"))
        assert fit.smooth_at_resolution

    def test_noise_only_low_confidence(self):
        rng = np.random.default_rng(0)
        u = 1e-12 * rng.normal(size=2**15)
        fit = decay_fit(synthetic_field(u), ProbeWindow(-7.6, 7.6, -1, 1, "noise"))
        assert fit.low_confidence

    def test_rejects_tiny_window(self):
        fld = self._power_law_field(1.0)
        with pytest.raises((WindowPlanError, InsufficientBandsError)):
            decay_fit(fld, ProbeWindow(-0.01, 0.01, -1, 1, "tiny"))

    def test_rejects_excess_top_band(self):
        fld = self._power_law_field(1.0)
        with pytest.raises(InsufficientBandsError):
            decay_fit(fld, ProbeWindow(-7.6, 7.6, -1, 1, "x"), k_top=np.pi / (16 / 2**15) / 2)

    def test_taper_invariance(self):
        # doubling the window changes the exponent mildly
        fld = self._power_law_field(1.5)
        f1 = decay_fit(fld, ProbeWindow(-3.8, 3.8, -1, 1, "half"))
        f2 = decay_fit(fld, ProbeWindow(-7.6, 7.6, -1, 1, "full"))
        assert abs(f1.r_hat - f2.r_hat) <= 0.1


class TestCalibrationClosure:
    @pytest.mark.parametrize("s_in", [-0.5, 0.0, 1.0, 2.0])
    def test_designed_exponent_recovered(self, s_in):
        m = ConormalMetric(n=2, s0=2.5, amp=0.0)
        sc = WaveScenario(
            metric=m, x_lo=-8.0, x_hi=8.0, duration=0.1, nx=2**15,
            source=PulseSpec(center=0.0, width=1.0, s_in=s_in),
            sponge=SpongeSpec(cells=600), store_stride=16,
        )
        u0 = make_pulse(sc)
        fld = synthetic_field(u0)
        fit = decay_fit(fld, ProbeWindow(-4.8, 4.8, -1, 1, "cal"))
        assert fit.r_hat == pytest.approx(s_in + 0.55, abs=0.05)


class TestOracle:
    def test_jump_scan_matches_analytic(self):
        jump = PiecewiseSpeed(1.0, 1.3)
        scan = reflection_scan(jump.speed, np.geomspace(3, 300, 9), x_match=0.4)
        expected = abs(jump.reflection_coefficient())
        assert np.allclose(np.abs(scan.R), expected, rtol=1e-6)
        assert np.max(np.abs(scan.flux_defect())) < 1e-7

    def test_conormal_asymptotic_exponent(self):
        m = ConormalMetric(n=2, s0=2.5, amp=0.4, core_radius=1.0)
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
        m = ConormalMetric(n=2, s0=2.5, amp=0.4, core_radius=0.5)
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


def bundled_metric_and_band():
    """The bundled scenario's profile and the probe band of its 2^14 grid."""
    m = ConormalMetric(n=2, s0=2.5, amp=0.4, core_radius=1.0)
    sc = WaveScenario(metric=m, x_lo=-4.0, x_hi=4.0, duration=6.6, nx=2**14)
    k_top = np.pi / sc.dx / 4.0
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
        return gbb_trace(m, q0, t_span=duration, policy="tree")

    def test_three_disjoint_windows(self):
        m = ConormalMetric(n=2, s0=2.5, amp=0.4, core_radius=1.0)
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
        m = ConormalMetric(n=2, s0=2.5, amp=0.4, core_radius=1.0)
        sc = WaveScenario(
            metric=m, x_lo=-4.0, x_hi=4.0, duration=6.6, nx=2**13,
            source=PulseSpec(center=-1.15, width=0.06, s_in=-0.5),
            sponge=SpongeSpec(cells=300), store_stride=8,
        )
        with pytest.raises(WindowPlanError):
            window_plan(sc, self._paths(m, x0=-1.15))

    def test_mismatched_trace_rejected(self):
        m = ConormalMetric(n=2, s0=2.5, amp=0.4, core_radius=1.0)
        sc = small_experiment(m)
        with pytest.raises(WindowPlanError):
            window_plan(sc, self._paths(m, x0=-1.5))

    def test_trace_too_short_rejected(self):
        # legs traced for 2.5 time units end short of the windows of a 6.6 run
        m = ConormalMetric(n=2, s0=2.5, amp=0.4, core_radius=1.0)
        with pytest.raises(WindowPlanError, match="traced reflected leg ends"):
            window_plan(small_experiment(m), self._paths(m, duration=2.5))

    def test_run_too_short_rejected(self):
        m = ConormalMetric(n=2, s0=2.5, amp=0.4, core_radius=1.0)
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
        t_probe = 2.6
        idx = fld.slice_at(t_probe)
        x_pred = -(fld.ts[idx] - 1.5)
        sel = (fld.xs > -2.5) & (fld.xs < -0.5)
        x_meas = fld.xs[sel][np.argmax(np.abs(fld.u[idx, sel]))]
        assert abs(x_meas - x_pred) <= 2 * fld.dx


# the exact theorem window of s0 = 5/2, eps0 = 1/20, k = 1
WINDOW = hyperbolic_window(Fraction(5, 2), Fraction(1, 20), 1)


class TestGainReport:
    def test_small_grid_experiment_passes(self):
        m = ConormalMetric(n=2, s0=2.5, amp=0.4, core_radius=1.0)
        sc = small_experiment(m)
        q0 = PhasePoint([-2.2, 0.0], [-1.0, 1.0])
        paths = gbb_trace(m, q0, t_span=sc.duration, policy="tree")
        wins = window_plan(sc, paths)
        fld = run(sc)
        fit0 = decay_fit(fld, wins[0])
        oracle = default_oracle_scan(m, fit0.band, points_per_octave=4)
        rep = gain_report(fld, wins, WINDOW, oracle=oracle)
        assert rep.verdict == "pass"
        assert abs(rep.gain_transmitted) <= 0.25
        assert abs(rep.oracle_mismatch) <= 0.25
        assert rep.window_admissible
        assert (rep.window_lo, rep.window_sup) == (-0.5, 0.95)

    def test_no_interface_inconclusive(self):
        # smooth medium: the reflected window holds only noise
        m_flat = ConormalMetric(n=2, s0=2.5, amp=0.0)
        m_ref = ConormalMetric(n=2, s0=2.5, amp=0.4, core_radius=1.0)
        sc_ref = small_experiment(m_ref)
        q0 = PhasePoint([-2.2, 0.0], [-1.0, 1.0])
        wins = window_plan(sc_ref, gbb_trace(m_ref, q0, t_span=6.6, policy="tree"))
        fld = run(small_experiment(m_flat))
        rep = gain_report(fld, wins, WINDOW)
        assert rep.fits["reflected"].low_confidence
        assert rep.verdict == "inconclusive"

    def test_report_serializes(self):
        import json

        m = ConormalMetric(n=2, s0=2.5, amp=0.4, core_radius=1.0)
        sc = small_experiment(m)
        q0 = PhasePoint([-2.2, 0.0], [-1.0, 1.0])
        wins = window_plan(sc, gbb_trace(m, q0, t_span=sc.duration, policy="tree"))
        fld = run(sc)
        rep = gain_report(fld, wins, WINDOW)
        js = json.dumps(rep.asdict())
        assert "reflected" in js
