import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from wavediff import tracer
from wavediff.config import load_config
from wavediff.metric import ConormalMetric, PhasePoint
from wavediff.probe import window_plan
from wavediff.tracer import (
    CurveSample,
    EventType,
    GlancingHalt,
    OracleContractViolation,
    _FloorHit,
    dyadic_construct,
    gbb_trace,
    ray_on_characteristic,
    transversal_integrate,
)


def holder_field(alpha):
    def V(x):
        x = np.asarray(x, float)
        return np.array([np.abs(x[-1]) ** alpha, 1.0])

    return V


def holder_antiderivative(alpha):
    def F(u):
        return np.sign(u) * np.abs(u) ** (1.0 + alpha) / (1.0 + alpha)

    return F


class TestTransversalIntegrate:
    def test_constant_field_straight_line(self):
        samples = transversal_integrate(lambda x: np.array([0.0, 1.0]), [2.0, 0.0], 1.0, 1e-2)
        end = samples[-1]
        assert end.q[0] == pytest.approx(2.0, abs=1e-12)
        assert end.q[1] == pytest.approx(end.t, abs=1e-12)
        ts = [s.t for s in samples]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    @pytest.mark.parametrize("alpha", [0.5, 0.3])
    def test_holder_closed_form(self, alpha):
        F = holder_antiderivative(alpha)
        samples = transversal_integrate(holder_field(alpha), [0.0, 0.0], 1.0, 1e-4)
        for s in samples[:: len(samples) // 7]:
            assert s.q[0] == pytest.approx(F(s.t), abs=1e-6)
        assert samples[-1].q[0] == pytest.approx(F(samples[-1].t), abs=1e-6)

    def test_richardson_order(self):
        # curves at h and h/2 differ by O(h^{1+alpha}) on a Hoelder field
        alpha = 0.5
        diffs = []
        hs = [4e-3, 2e-3, 1e-3]
        for h in hs:
            a = transversal_integrate(holder_field(alpha), [0.0, 0.0], 0.5, h)
            b = transversal_integrate(holder_field(alpha), [0.0, 0.0], 0.5, h / 2)
            ta = np.array([s.t for s in a])
            qa = np.array([s.q[0] for s in a])
            tb = np.array([s.t for s in b])
            qb = np.array([s.q[0] for s in b])
            qb_on_a = np.interp(ta, tb, qb)
            diffs.append(np.max(np.abs(qa - qb_on_a)))
        rates = np.diff(np.log(diffs)) / np.diff(np.log(hs))
        assert np.all(np.asarray(rates) >= 1.0 + alpha - 0.35)

    def test_uniqueness_restart(self):
        alpha = 0.5
        full = transversal_integrate(holder_field(alpha), [-0.3, -0.4], 1.0, 1e-4)
        mid = len(full) // 3
        tail = transversal_integrate(
            holder_field(alpha), full[mid].q, 1.0 - full[mid].t, 1e-4
        )
        # endpoint of the restarted curve matches the original tail
        assert tail[-1].q[0] == pytest.approx(full[-1].q[0], abs=1e-9)
        assert tail[-1].q[1] == pytest.approx(full[-1].q[1], abs=1e-12)

    def test_forward_backward_through_interface(self):
        # direction of approach to the interface does not matter: forward from
        # below and backward from above agree to 1e-8
        alpha = 0.5
        fwd = transversal_integrate(holder_field(alpha), [0.1, -0.5], 1.0, 1e-4)
        end = fwd[-1]
        back = transversal_integrate(holder_field(alpha), end.q, -1.0, 1e-4)
        start = back[0]
        assert start.q[0] == pytest.approx(0.1, abs=1e-8)
        assert start.q[1] == pytest.approx(-0.5, abs=1e-10)

    def test_glancing_halt(self):
        # transversal component decays to zero: the march halts with samples
        def V(x):
            return np.array([1.0, -x[-1]])

        with pytest.raises(GlancingHalt) as ei:
            transversal_integrate(V, [0.0, 1.0], 50.0, 1e-2)
        assert len(ei.value.samples) > 10
        assert ei.value.samples[-1].q[-1] > 0


class TestGBBTrace:
    def test_flat_metric_single_leg(self):
        m = ConormalMetric(s0=2.5, amp=0.0)
        q0 = PhasePoint([-1.0, 0.0], [-1.0, 1.0])  # rightward at speed 1
        paths = gbb_trace(m, q0, t_span=2.0)
        assert len(paths) == 1
        assert paths[0].events == []
        for s in paths[0].legs[0]:
            x, t = s.q[0], s.q[1]
            assert x == pytest.approx(-1.0 + (t - 0.0), abs=1e-9)

    def test_normal_incidence_two_branches(self):
        m = ConormalMetric(s0=2.5, amp=0.4)
        q0 = PhasePoint([-1.0, 0.0], [-1.0, 1.0])
        paths = gbb_trace(m, q0, t_span=2.5)
        kinds = {p.events[0].kind for p in paths if p.events}
        assert kinds == {EventType.REFLECTION, EventType.TRANSMISSION}
        for p in paths:
            ev = p.events[0]
            out, inc = ev.outgoing, ev.incoming
            # tangential (time-dual) component conserved exactly
            assert out[1] == inc[1]
            # normal momentum magnitude conserved exactly after projection
            assert abs(out[0]) == pytest.approx(abs(inc[0]), rel=1e-10)
            if ev.kind is EventType.REFLECTION:
                assert np.sign(out[0]) == -np.sign(inc[0])
            else:
                assert np.sign(out[0]) == np.sign(inc[0])

    def test_event_time_matches_travel_time(self):
        m = ConormalMetric(s0=2.5, amp=0.4)
        q0 = PhasePoint([-2.0, 0.0], [-1.0, 1.0])
        paths = gbb_trace(m, q0, t_span=4.0)
        ev = next(p.events[0] for p in paths if p.events[0].kind is EventType.REFLECTION)
        # travel time = integral of 1/c from -2 to 0
        xs = np.linspace(-2.0, 0.0, 20001)
        expected = np.trapezoid(1.0 / m.speed(xs), xs)
        assert ev.time == pytest.approx(expected, rel=1e-5)

    def test_characteristic_set_conserved_along_legs(self):
        m = ConormalMetric(s0=2.5, amp=0.4)
        q0 = PhasePoint([-1.5, 0.0], [-1.0, 1.0])
        paths = gbb_trace(m, q0, t_span=3.0)
        for p in paths:
            for leg in p.legs:
                for s in leg[:: max(1, len(leg) // 50)]:
                    q = PhasePoint(s.q[:2], s.q[2:])
                    xi_sq = float(np.dot(s.q[2:], s.q[2:]))
                    assert abs(m.dual_hamiltonian(q)) <= 1e-8 * xi_sq

    def test_tau_conserved(self):
        m = ConormalMetric(s0=2.5, amp=0.4)
        q0 = PhasePoint([-1.0, 0.0], [-2.0, 2.0])
        paths = gbb_trace(m, q0, t_span=2.5)
        for p in paths:
            taus = np.array([s.q[3] for leg in p.legs for s in leg])
            assert np.max(np.abs(taus - taus[0])) <= 1e-10 * abs(taus[0])

    def test_glancing_initial_point_rejected(self):
        m = ConormalMetric(s0=2.5, amp=0.4)
        with pytest.raises(GlancingHalt):
            gbb_trace(m, PhasePoint([-1.0, 0.0], [0.0, 1.0]), 1.0)

    def test_ray_constructor_on_sigma(self):
        m = ConormalMetric(s0=2.5, amp=0.4)
        q = ray_on_characteristic(m, -1.0, 0.0, direction=+1)
        assert m.on_characteristic_set(q)
        assert m.hamilton_field(np.concatenate([q.x, q.xi]))[0] > 0


SCENARIO = Path(__file__).resolve().parents[1] / "src/wavediff/scenarios/reflection-gain-s0-2.5.ini"


@pytest.fixture(scope="module")
def bundled():
    """The bundled scenario and the traced tree of its packet."""
    sc = load_config(SCENARIO).build_scenario()
    q0 = ray_on_characteristic(sc.metric, sc.source.center, 0.0, +1)
    return sc, gbb_trace(sc.metric, q0, t_span=sc.duration)


class TestStraightSteps:
    """Outside the core the field is constant: one exact RK4 step crosses
    it, to the core's edge or on to the end of the run."""

    def test_one_step_outside_the_core(self, bundled):
        sc, paths = bundled
        core = sc.metric.core_radius
        for p in paths:
            for leg in p.legs:
                outside = [abs(a.q[0]) >= core and abs(b.q[0]) >= core
                           for a, b in zip(leg, leg[1:])]
                assert not any(a and b for a, b in zip(outside, outside[1:]))
                assert any(outside)

    def test_paths_end_on_t_end(self, bundled):
        # the straight step aims at t_end, lengthened by T_END_MARGIN so it
        # never lands short; the overshoot is a few roundings
        sc, paths = bundled
        t_end = sc.duration
        for p in paths:
            t = p.legs[-1][-1].q[1]
            assert t_end <= t <= t_end + 16 * math.ulp(t_end)

    def test_reflection_time_is_the_travel_time(self, bundled):
        sc, paths = bundled
        m = sc.metric
        ev = next(p.events[0] for p in paths if p.events[0].kind is EventType.REFLECTION)
        core_time, _ = quad(lambda x: 1.0 / m.speed(x), -m.core_radius, 0.0,
                            epsabs=0.0, epsrel=1e-13, limit=200)
        expected = (-m.core_radius - sc.source.center) / m.c_bg + core_time
        assert ev.time == pytest.approx(expected, rel=1e-11)

    def test_incident_window_ends_on_the_straight_line(self, bundled):
        sc, paths = bundled
        clear = max(10 * sc.dx, 1.1 * sc.metric.core_radius)
        edge = -(clear + 3.0 * sc.source.width + 2 * sc.dx)
        incident = next(w for w in window_plan(sc, paths) if w.label == "incident")
        expected = (edge - sc.source.center) / sc.metric.c_bg
        assert incident.t_hi == pytest.approx(expected, rel=1e-12)

    def test_time_must_run_forward(self):
        m = ConormalMetric(s0=2.5, amp=0.4)
        with pytest.raises(ValueError, match="forward in time"):
            gbb_trace(m, PhasePoint([-1.5, 0.0], [1.0, -1.0]), 1.0)
        with pytest.raises(ValueError, match="forward in time"):
            gbb_trace(m, ray_on_characteristic(m, -1.5, 0.0, +1), -1.0)


class TestDyadic:
    def test_zero_noise_constant_field(self):
        field = lambda q: np.array([1.0, 0.5])

        def oracle(q, d):
            return q - d * field(q)

        run = dyadic_construct(oracle, field, [0.0, 0.0], eps_span=1.0, N=5, C0=1.0, alpha=0.5)
        inc = np.diff(run.points, axis=0)
        assert np.allclose(inc, inc[0])
        assert run.check_lipschitz()
        assert run.points.shape == (33, 2)

    @pytest.mark.parametrize("direction", [-1, +1])
    def test_exact_holder_flow_within_contract(self, direction):
        alpha = 0.5
        F = holder_antiderivative(alpha)
        V = holder_field(alpha)

        def oracle(q, d):
            dt = direction * d
            return np.array([q[0] + F(q[1] + dt) - F(q[1]), q[1] + dt])

        run = dyadic_construct(
            oracle, V, [0.2, -0.5], eps_span=1.0, N=6, C0=1.0, alpha=alpha,
            direction=direction,
        )
        assert run.check_lipschitz()
        # endpoint agrees with the closed-form flow over the full span
        tend = direction * 1.0
        q_exact = np.array([0.2 + F(-0.5 + tend) - F(-0.5), -0.5 + tend])
        assert np.linalg.norm(run.points[-1] - q_exact) < 0.2

    def test_noisy_oracle_rate(self):
        alpha = 0.5
        F = holder_antiderivative(alpha)
        V = holder_field(alpha)
        rng = np.random.default_rng(42)
        sups = []
        Ns = [4, 6, 8, 10]
        for N in Ns:
            delta = 2.0**-N

            def oracle(q, d):
                exact = np.array([q[0] + F(q[1] - d) - F(q[1]), q[1] - d])
                noise = rng.normal(size=2)
                noise *= 0.4 * d ** (1 + alpha) / np.linalg.norm(noise)
                return exact + noise

            run = dyadic_construct(
                oracle, V, [0.0, 0.3], eps_span=1.0, N=N, C0=1.5, alpha=alpha
            )
            # reference from the fine transversal integration, backward span
            ref = transversal_integrate(V, [0.0, 0.3], -1.0, 1e-4)
            tr = np.array([s.t for s in ref])
            qr = np.stack([s.q for s in ref])
            sup = 0.0
            for tj, pj in zip(run.times, run.points):
                interp = np.array(
                    [np.interp(tj, tr, qr[:, 0]), np.interp(tj, tr, qr[:, 1])]
                )
                sup = max(sup, float(np.linalg.norm(pj - interp)))
            sups.append(sup)
        rate = -np.polyfit(Ns, np.log2(sups), 1)[0]
        assert rate >= alpha - 0.15

    def test_contract_violation_detected(self):
        field = lambda q: np.array([1.0, 0.0])

        def cheat(q, d):
            return q - d * field(q) + 10 * d  # way outside the ball

        with pytest.raises(OracleContractViolation):
            dyadic_construct(cheat, field, [0.0, 0.0], 1.0, 4, C0=1.0, alpha=0.5)

    def test_forward_mirrors_backward(self):
        field = lambda q: np.array([0.3, 1.0])

        def oracle_b(q, d):
            return q - d * field(q)

        def oracle_f(q, d):
            return q + d * field(q)

        rb = dyadic_construct(oracle_b, field, [0.0, 0.0], 1.0, 5, 1.0, 0.5, direction=-1)
        rf = dyadic_construct(oracle_f, field, [0.0, 0.0], 1.0, 5, 1.0, 0.5, direction=+1)
        assert np.allclose(rb.points, -rf.points)
        assert np.allclose(rb.times, -rf.times)


# ---------------------------------------------------------------------------
# the float RK4 loop against the ndarray loop it replaced


def reference_reparam_leg(
    V,
    x0,
    j,
    h,
    s_target=None,
    t_limit=None,
    stop_state=None,
    v_floor=tracer.GLANCING_FLOOR,
    max_steps=2_000_000,
    step_control=None,
):
    """tracer._reparam_leg on ndarrays (verbatim)."""
    x0 = np.asarray(x0, float)
    d = x0.size

    def rhs(x):
        v = np.asarray(V(x), float)
        vj = v[j]
        if abs(vj) < v_floor * max(float(np.linalg.norm(v)), 1e-300):
            raise _FloorHit()
        out = np.empty(d + 1)
        out[:d] = v / vj
        out[j] = 1.0
        out[d] = 1.0 / vj
        return out

    def f(z, _s):
        return rhs(z[:-1])

    v0 = np.asarray(V(x0), float)
    if abs(v0[j]) < v_floor * max(float(np.linalg.norm(v0)), 1e-300):
        raise GlancingHalt([CurveSample(0.0, x0.copy())])
    backward = t_limit is not None and t_limit < 0
    ds = abs(h) * (1.0 if (v0[j] > 0) != backward else -1.0)

    z = np.concatenate([x0, [0.0]])  # state plus accumulated curve parameter
    s = x0[j]
    samples = [CurveSample(0.0, x0.copy())]
    reason = "steps"
    for _ in range(max_steps):
        step = ds if step_control is None else step_control(z[:d], ds)
        if s_target is not None:
            remaining = s_target - s
            if remaining == 0.0:
                reason = "target"
                break
            if (step > 0) == (remaining > 0) and abs(step) > abs(remaining):
                step = remaining
        try:
            k1 = f(z, s)
            k2 = f(z + 0.5 * step * k1, s + 0.5 * step)
            k3 = f(z + 0.5 * step * k2, s + 0.5 * step)
            k4 = f(z + step * k3, s + step)
        except _FloorHit:
            raise GlancingHalt(samples)
        z = z + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        s += step
        z[j] = s  # keep the redundant clock coordinate exact
        samples.append(CurveSample(float(z[d]), z[:d].copy()))
        if s_target is not None and s == s_target:
            reason = "target"
            break
        if t_limit is not None and abs(z[d]) >= abs(t_limit):
            reason = "t_limit"
            break
        if stop_state is not None and stop_state(z[:d]):
            reason = "state"
            break
    return samples, reason


def assert_same_samples(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert type(a.t) is float
        assert a.t == b.t and np.array_equal(a.q, b.q), (a, b)


class TestFloatLoop:
    def test_gbb_trace_matches_array_loop(self, monkeypatch):
        # the bundled metric and packet, both branches of the tree
        m = ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0)
        q0 = ray_on_characteristic(m, -2.2, 0.0, +1)
        paths = gbb_trace(m, q0, t_span=6.6)
        monkeypatch.setattr(tracer, "_reparam_leg", reference_reparam_leg)
        ref = gbb_trace(m, q0, t_span=6.6)
        assert len(paths) == len(ref) == 2
        for p, r in zip(paths, ref):
            assert len(p.legs) == len(r.legs) == 2
            for leg, ref_leg in zip(p.legs, r.legs):
                assert_same_samples(leg, ref_leg)
            assert [(e.kind, e.time) for e in p.events] == [(e.kind, e.time) for e in r.events]

    @pytest.mark.parametrize("x0, span", [([0.0, 0.0], 1.0), ([0.1, 0.5], -1.0)],
                             ids=["forward", "backward"])
    def test_transversal_integrate_matches_array_loop(self, monkeypatch, x0, span):
        got = transversal_integrate(holder_field(0.5), x0, span, 1e-3)
        monkeypatch.setattr(tracer, "_reparam_leg", reference_reparam_leg)
        assert_same_samples(got, transversal_integrate(holder_field(0.5), x0, span, 1e-3))

    def test_glancing_halt_matches_array_loop(self, monkeypatch):
        def V(x):
            return np.array([1.0, -x[-1]])

        with pytest.raises(GlancingHalt) as got:
            transversal_integrate(V, [0.0, 1.0], 50.0, 1e-2)
        monkeypatch.setattr(tracer, "_reparam_leg", reference_reparam_leg)
        with pytest.raises(GlancingHalt) as ref:
            transversal_integrate(V, [0.0, 1.0], 50.0, 1e-2)
        assert_same_samples(got.value.samples, ref.value.samples)

