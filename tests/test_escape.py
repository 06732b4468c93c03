from pathlib import Path

import numpy as np
import pytest
from scipy.stats import qmc

from wavediff import escape
from wavediff.config import load_config
from wavediff.escape import (
    FRAMES,
    EscapeParams,
    absorption_factor,
    check_positivity,
    check_support_estimates,
    chi0,
    chi0_prime,
    chi1,
    chi1_prime,
    decompose_commutator,
    derive_c_prime,
    epsilon_schedule,
    eval_a,
    eval_phi,
    find_F_threshold,
    halton,
    precise_localizer_frame,
    run_commutant_check,
    sample_chart,
    smooth_frame,
    synthetic_hoelder_frame,
)

SCENARIO = Path(__file__).resolve().parents[1] / "src/wavediff/scenarios/reflection-gain-s0-2.5.ini"


def scipy_halton(n, d, seed):
    return qmc.Halton(d=d, seed=seed).random(n)


class TestCutoffs:
    def test_chi0_identity(self):
        # chi0(t) = t^2 chi0'(t), exactly 0 for t <= 0
        t = np.concatenate([np.linspace(-2, 0, 50), np.linspace(1e-3, 5, 200)])
        lhs = chi0(t)
        rhs = t * t * chi0_prime(t)
        assert np.allclose(lhs, rhs, rtol=1e-14, atol=0)
        assert np.all(chi0(np.linspace(-3, 0, 10)) == 0)

    def test_chi1_step_properties(self):
        t = np.linspace(-1, 2, 601)
        v = chi1(t)
        assert np.all(v[t <= 0] == 0)
        assert np.all(v[t >= 1] == 1)
        assert np.all((0 <= v) & (v <= 1))
        assert np.all(np.diff(v) >= -1e-15)

    def test_chi1_prime_support(self):
        t = np.linspace(-1, 2, 601)
        d = chi1_prime(t)
        assert np.all(d >= 0)
        assert np.all(d[(t < 0) | (t > 1)] == 0)

    def test_chi1_prime_matches_fd(self):
        t = np.linspace(0.05, 0.95, 37)
        h = 1e-6
        fd = (chi1(t + h) - chi1(t - h)) / (2 * h)
        assert np.allclose(chi1_prime(t), fd, rtol=1e-4, atol=1e-12)

    def test_sqrt_chi1_is_c1(self):
        # difference quotients of sqrt(chi1) converge as the step shrinks,
        # including at the support boundary t = 0
        pts = np.array([0.0, 1e-3, 0.1, 0.5, 0.9, 1.0])
        prev = None
        for h in (1e-2, 1e-3, 1e-4):
            quot = (np.sqrt(chi1(pts + h)) - np.sqrt(chi1(np.maximum(pts - h, pts * 0 - 1)))) / (
                2 * h
            )
            if prev is not None:
                # quotients stabilize: successive refinements agree ever better
                assert np.all(np.abs(quot - prev) < np.maximum(1e-2, np.abs(prev)))
            prev = quot
        # at the boundary the one-sided quotient collapses to 0
        hs = np.array([1e-2, 1e-3, 1e-4])
        at0 = np.array([np.sqrt(chi1(h)) / h for h in hs])
        assert np.all(at0 <= at0[0]) and at0[0] < 1e-15


def make_params(delta=0.125, eps=0.5, beta=1.0, F=8.0, c0=1.0):
    return EscapeParams(delta=delta, eps=eps, beta=beta, F=F, c0=c0)


class TestFrames:
    @pytest.mark.parametrize("factory", [precise_localizer_frame, smooth_frame])
    def test_base_point_normalization(self, factory):
        # the flow must not move the transverse coordinates at the base point 0
        frame = factory(4)
        assert np.all(np.abs(frame.hp_sigmas(np.zeros(4))) <= 1e-6)

    def test_localizer_comparable_to_distance(self):
        # omega^{1/2} + |eta| is equivalent to the chart distance from the
        # base point
        frame = smooth_frame(3)
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.5, 0.5, size=(500, 3))
        dist = np.linalg.norm(pts, axis=1)
        gauge = np.sqrt(frame.omega(pts)) + np.abs(np.asarray(frame.eta(pts)))
        ratio = gauge / dist
        assert ratio.min() > 0.5 and ratio.max() < 2.0


class TestSymbol:
    def test_phi_at_base_point(self):
        frame = precise_localizer_frame(3)
        params = make_params()
        assert eval_phi(np.zeros(3), frame, params) == 0.0

    def test_phi_on_omega_zero_ray(self):
        frame = precise_localizer_frame(3)
        params = make_params()
        q = np.array([0.07, 0.0, 0.0])
        assert eval_phi(q, frame, params) == pytest.approx(0.07, rel=1e-14)

    def test_phi_cancellation_point(self):
        frame = precise_localizer_frame(2)
        params = make_params()
        d, e = params.delta, params.eps
        q = np.array([-d, e * d])  # eta = -delta, omega = (eps*delta)^2
        assert eval_phi(q, frame, params) == pytest.approx(0.0, abs=1e-15)

    def test_a_at_base_point(self):
        frame = precise_localizer_frame(3)
        params = make_params()
        expected = chi0(2 * params.beta / params.F)
        assert eval_a(np.zeros(3), frame, params) == pytest.approx(expected, rel=1e-13)
        assert expected > 0

    def test_a_vanishes_at_chi0_boundary(self):
        frame = precise_localizer_frame(2)
        params = make_params()
        d, e, b = params.delta, params.eps, params.beta
        # choose eta with omega so that phi = 2*beta*delta exactly
        q = np.array([2 * b * d, 0.0])
        assert eval_a(q, frame, params) == 0.0

    def test_a_vanishes_at_chi1_boundary(self):
        frame = precise_localizer_frame(2)
        params = make_params()
        d, e = params.delta, params.eps
        q = np.array([-d - e * d, 0.0])
        assert eval_a(q, frame, params) == 0.0

    def test_a_nonnegative_everywhere(self):
        frame = smooth_frame(3)
        params = make_params()
        pts = sample_chart(params, frame, n_grid=4000, n_quasi=1000)
        assert np.all(eval_a(pts, frame, params) >= 0)


class TestSupport:
    def test_grid_no_violations(self):
        frame = precise_localizer_frame(3)
        params = make_params()
        pts = sample_chart(params, frame, n_grid=10_000, n_quasi=2_000)
        rep = check_support_estimates(pts, frame, params)
        assert rep.n_support > 100
        assert rep.ok

    def test_adversarial_eta(self):
        frame = precise_localizer_frame(2)
        params = make_params()
        d, b = params.delta, params.beta
        q = np.array([[2.5 * b * d, 0.0]])
        assert eval_a(q, frame, params)[0] == 0.0

    def test_adversarial_omega(self):
        frame = precise_localizer_frame(2)
        params = make_params()
        d, e = params.delta, params.eps
        q = np.array([[0.0, 3 * e * d]])
        # phi/delta = 9 > 2*beta for beta <= 1, so outside the chi0 support
        assert eval_phi(q, frame, params)[0] / d == pytest.approx(9.0)
        assert eval_a(q, frame, params)[0] == 0.0

    def test_support_shrinks_with_delta(self):
        frame = precise_localizer_frame(3)
        alpha, C_prime = 0.5, 1.0
        max_dist = []
        max_om = []
        deltas = [2.0**-j for j in (3, 5, 7)]
        for d in deltas:
            eps = epsilon_schedule(d, alpha, C_prime)
            params = EscapeParams(delta=d, eps=eps, beta=1.0)
            pts = sample_chart(params, frame, n_grid=8000, n_quasi=1000)
            a = eval_a(pts, frame, params)
            on = a > 0
            assert np.any(on)
            dist = np.linalg.norm(pts[on], axis=1)
            max_dist.append(dist.max())
            max_om.append(np.sqrt(frame.omega(pts[on])).max())
        assert max_dist[0] > max_dist[1] > max_dist[2]
        # transverse size obeys omega^{1/2} <= 2 eps delta = O(delta^{1+alpha})
        for d, om in zip(deltas, max_om):
            assert om <= 2 * epsilon_schedule(d, alpha, C_prime) * d + 1e-15


class TestDecomposition:
    def test_outside_support_all_zero(self):
        frame = precise_localizer_frame(3)
        params = make_params()
        q = np.array([[0.9, 0.5, 0.5]])
        parts = decompose_commutator(q, frame, params)
        assert parts.a[0] == 0 and parts.b[0] == 0 and parts.e[0] == 0
        assert parts.residual[0] == 0

    def test_chi1_flat_region_e_zero_residual_tiny(self):
        frame = precise_localizer_frame(3)
        params = make_params()
        pts = sample_chart(params, frame, n_grid=8000, n_quasi=2000)
        parts = decompose_commutator(pts, frame, params)
        u1 = (np.asarray(frame.eta(pts)) + params.delta) / (params.eps * params.delta) + 1.0
        flat = (u1 >= 1.0) & (parts.a > 0)
        assert np.any(flat)
        assert np.all(parts.e[flat] == 0)
        scale = np.max(np.abs(parts.hp_a))
        assert np.max(np.abs(parts.residual)) <= 1e-10 * scale

    def test_e_positive_on_chi1_edge(self):
        frame = precise_localizer_frame(2)
        params = make_params()
        d, e = params.delta, params.eps
        # eta in (-delta - eps*delta, -delta): chi1' active
        q = np.array([[-d - 0.5 * e * d, 0.0]])
        parts = decompose_commutator(q, frame, params)
        assert parts.a[0] > 0
        assert parts.e[0] > 0

    def test_smooth_frame_analytic_residual(self):
        frame = smooth_frame(4)
        params = make_params()
        pts = sample_chart(params, frame, n_grid=6000, n_quasi=1000)
        parts = decompose_commutator(pts, frame, params)
        scale = np.max(np.abs(parts.hp_a))
        assert np.max(np.abs(parts.residual)) <= 1e-12 * scale


class TestSchedule:
    def test_lipschitz_case(self):
        assert epsilon_schedule(0.25, 1.0, 1.0) == 0.25

    def test_sqrt_case(self):
        assert epsilon_schedule(0.25, 0.5, 1.0) == 0.5

    def test_clamp(self):
        assert epsilon_schedule(0.9, 0.5, 2.0) == 1.0


class TestPositivity:
    def test_precise_localizer_any_eps(self):
        # flow-box frame: H_p phi = H_p eta everywhere, so any eps works
        frame = precise_localizer_frame(3)
        for eps in (1.0, 0.3, 0.01):
            params = EscapeParams(delta=0.125, eps=eps, beta=1.0)
            pts = sample_chart(params, frame, n_grid=5000)
            rep = check_positivity(frame, params, (0.0, 1.0), pts)
            assert rep.passed
            assert rep.min_hp_phi >= params.c0 - 1e-12

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0])
    def test_synthetic_worst_case_scheduled(self, alpha):
        C0, c0 = 0.05, 1.0
        frame = synthetic_hoelder_frame(3, alpha, C0)
        c_prime = derive_c_prime(C0, c0, frame.n_sigma, alpha)
        for j in range(3, 9):
            d = 2.0**-j
            eps = epsilon_schedule(d, alpha, c_prime)
            params = EscapeParams(delta=d, eps=eps, beta=1.0, c0=c0)
            pts = sample_chart(params, frame, n_grid=6000, n_quasi=2000, seed=j)
            rep = check_positivity(frame, params, (C0, alpha), pts)
            assert rep.schedule_valid
            assert rep.passed, (alpha, d, rep.min_hp_phi)

    def test_negative_control(self):
        # eps tied to delta while the field is only Hoelder-0.3: bound fails
        alpha, C0, c0 = 0.3, 0.05, 1.0
        frame = synthetic_hoelder_frame(3, alpha, C0)
        d = 2.0**-8
        params = EscapeParams(delta=d, eps=d, beta=1.0, c0=c0)
        pts = sample_chart(params, frame, n_grid=8000, n_quasi=2000)
        rep = check_positivity(frame, params, (C0, alpha), pts)
        assert not rep.schedule_valid
        assert not rep.passed


class TestAbsorption:
    def test_large_F_limit(self):
        psi2 = absorption_factor(
            s=0.5, r_weight=1.0, M=1.0, F=1e12, beta=1.0, delta=0.1,
            phi_over_delta=0.0, hp_phi=1.0, rho_bound=1.0, c0=1.0,
        )
        assert psi2 == pytest.approx(1.0 - 0.25, abs=1e-10)

    def test_threshold_finite_and_affine(self):
        # factor positive iff F exceeds the explicit affine threshold
        s, r_w, M, rho, c0, beta, delta = 0.5, 0.0, 1.0, 1.0, 1.0, 1.0, 0.1
        hp_phi = c0
        pod = 0.0
        arg = 2 * beta - pod
        psi2 = hp_phi - c0 / 4.0  # = 3*c0/4
        coeff = ((2 * s - 1) - r_w) * rho + M * M
        f_star = coeff * delta * arg**2 / psi2
        assert 0 < f_star < np.inf
        for F in (f_star * 1.01, f_star * 10):
            assert absorption_factor(s, r_w, M, F, beta, delta, pod, hp_phi, rho, c0) > 0
        assert absorption_factor(s, r_w, M, f_star * 0.99, beta, delta, pod, hp_phi, rho, c0) < 0

    def test_worst_case_dominates_grid_search(self):
        s, M, rho, c0, beta, delta = 1.0, 2.0, 1.5, 1.0, 1.0, 0.05
        pods = np.array([2 * beta - 4.0, 2 * beta - 1.0, 2 * beta, 2 * beta + 3.0])
        hp = np.full_like(pods, 1.0)
        f_all = find_F_threshold(s, 1.0, M, beta, delta, pods, hp, rho, c0)
        f_worst = find_F_threshold(
            s, 1.0, M, beta, delta, np.array([2 * beta - 4.0]), hp[:1], rho, c0
        )
        assert f_all == f_worst

    def test_precondition(self):
        with pytest.raises(ValueError):
            absorption_factor(0.5, 1.0, 1.0, 8.0, 1.0, 0.1, 2.0 + 4.5, 1.0, 1.0)


class TestScenarioRunner:
    @pytest.mark.parametrize("kind", sorted(FRAMES))
    def test_report(self, kind):
        # the smooth frame's mixing shifts H_p phi by O(delta/eps), so delta is
        # small enough for its margin to clear c0/2
        rep = run_commutant_check(
            kind, delta=2.0**-5, eps=0.5, beta=1.0, F=8.0, c0=1.0,
            grid=4000, quasi=500,
        )
        assert rep["violations"] == []
        assert rep["residual_max_relative"] <= 1e-10
        assert rep["positivity_passed"]
        assert rep["F_threshold"] is not None


class TestHalton:
    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("seed", [0, 1234, 2**32 - 1])
    @pytest.mark.parametrize("n", [1, 7, 2000])
    def test_bit_identical_to_scipy(self, n, seed, d):
        assert np.array_equal(halton(n, d, seed), scipy_halton(n, d, seed))

    def test_bundled_commutant_check_unchanged(self, monkeypatch):
        cfg = load_config(SCENARIO)
        kw = dict(cfg.commutant, seed=cfg.seed)
        kind = kw.pop("frame")
        rep = run_commutant_check(kind, **kw)
        monkeypatch.setattr(escape, "halton", scipy_halton)
        assert run_commutant_check(kind, **kw) == rep
