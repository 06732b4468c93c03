import numpy as np
import pytest

from wavediff.metric import ConormalMetric, PhasePoint


def holder_estimate(field, ball, probe_scales):
    """Fit a Hoelder exponent from sup difference quotients at dyadic scales.

    ``field`` maps arrays of points (N, d) or (N,) to scalar or vector values;
    ``ball`` is (center, radius).  For each scale h the sup over base points
    (400 drawn with seed 0) and directions of |f(x + h u) - f(x)| is
    recorded, and the slope of log(sup) against log(h) is the exponent
    estimate.  Returns (alpha_hat, C_hat).
    """
    probe_scales = np.asarray(sorted(probe_scales), float)
    if probe_scales.size < 3:
        raise ValueError("need at least 3 probe scales")
    center, radius = ball
    center = np.atleast_1d(np.asarray(center, float))
    d = center.size
    rng = np.random.default_rng(0)
    base = center + (rng.uniform(-1, 1, size=(400, d))) * radius
    # include points straddling the origin-distance extremes of the ball
    base = np.vstack([base, center, np.zeros((1, d))])
    base = base[np.max(np.abs(base - center), axis=1) <= radius]

    sups = []
    for h in probe_scales:
        if d == 1:
            dirs = np.array([[1.0], [-1.0]])
        else:
            dirs = rng.normal(size=(16, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        best = 0.0
        for u in dirs:
            shifted = base + h * u
            f0 = np.asarray(field(base.squeeze(-1) if d == 1 else base), float)
            f1 = np.asarray(field(shifted.squeeze(-1) if d == 1 else shifted), float)
            diff = np.abs(f1 - f0)
            if diff.ndim > 1:
                diff = diff.max(axis=-1)
            best = max(best, float(diff.max()))
        sups.append(best)
    sups = np.asarray(sups)
    if np.any(sups <= 0):
        # flat field: report Lipschitz-or-better with zero constant
        return float("inf"), 0.0
    slope, intercept = np.polyfit(np.log(probe_scales), np.log(sups), 1)
    return float(slope), float(np.exp(intercept))


def flat_metric():
    return ConormalMetric(s0=2.5, amp=0.0)


def conormal_metric(s0=2.5, amp=0.4):
    return ConormalMetric(s0=s0, amp=amp)


class TestDualHamiltonian:
    def test_flat_null_covector(self):
        m = flat_metric()
        q = PhasePoint([0.3, 0.0], [1.0, 1.0])
        assert m.dual_hamiltonian(q) == pytest.approx(0.0, abs=1e-15)
        assert m.on_characteristic_set(q)

    def test_speed_scaling(self):
        m = conormal_metric()
        x = 0.2
        c = m.speed(x)
        # float in gives float out, array in gives array out
        assert type(c) is float and type(m.dspeed(x)) is float
        assert m.speed(np.array([x])).shape == m.dspeed(np.array([x])).shape == (1,)
        q = PhasePoint([x, 0.0], [1.0, c])  # tau = c * xi
        assert m.dual_hamiltonian(q) == pytest.approx(0.0, abs=1e-12)

    def test_profile_regularity_at_interface(self):
        # s0 = 5/2, k = 1: speed is differentiable at 0 with derivative 0,
        # second difference quotient blows up like h^{-1/2}
        m = conormal_metric(s0=2.5, amp=1.0)
        hs = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        first = (m.speed(hs) - m.speed(-hs)) / (2 * hs)
        assert np.all(np.abs(first) < 10 * hs**0.5)  # -> 0 like h^{1/2}
        second = (m.speed(hs) - 2 * m.speed(0.0) + m.speed(-hs)) / hs**2
        ratio = second[1:] / second[:-1]
        # h -> h/10 should multiply the second quotient by ~ 10^{1/2}
        assert np.allclose(ratio, 10**0.5, rtol=0.05)

    def test_outside_core_exactly_homogeneous(self):
        m = conormal_metric()
        xs = np.linspace(m.core_radius, 3.0, 50)
        assert np.all(m.speed(xs) == m.c_bg)

    def test_tau_slot_and_char_set(self):
        m = conormal_metric()
        q = PhasePoint([0.1, 1.7], [2.0, m.speed(0.1) * 2.0])
        assert m.on_characteristic_set(q)


class TestHolderEstimate:
    def test_sqrt_profile(self):
        alpha, C = holder_estimate(
            lambda x: np.abs(x) ** 0.5, (0.0, 1.0), [2.0**-j for j in range(4, 12)]
        )
        assert alpha == pytest.approx(0.5, abs=0.05)

    def test_smooth_field(self):
        alpha, _ = holder_estimate(
            lambda x: np.sin(x), (0.0, 1.0), [2.0**-j for j in range(4, 12)]
        )
        assert alpha >= 0.95  # Lipschitz-or-better

    def test_needs_three_scales(self):
        with pytest.raises(ValueError):
            holder_estimate(lambda x: x, (0.0, 1.0), [0.1, 0.01])

    def test_speed_derivative_of_profile(self):
        # first derivative of the s0 = 5/2 profile is Hoelder-1/2
        m = conormal_metric(s0=2.5, amp=1.0)
        alpha, _ = holder_estimate(
            m.dspeed, (0.0, 0.2), [2.0**-j for j in range(6, 14)]
        )
        assert alpha == pytest.approx(0.5, abs=0.1)

    def test_generated_metrics_meet_class(self):
        for s0 in (2.2, 2.5, 2.8):
            m = conormal_metric(s0=s0, amp=0.7)
            alpha, _ = holder_estimate(
                m.dspeed, (0.0, 0.2), [2.0**-j for j in range(6, 14)]
            )
            assert alpha >= (s0 - 2.0) - 0.1


class TestHamiltonField:
    def test_flat_rays_speed(self):
        m = flat_metric()
        state = np.array([0.0, 0.0, -0.5, 0.5])  # xi=-1/2, tau=1/2: rightward
        v = m.hamilton_field(state)
        dx, dt = v[0], v[1]
        assert dx / dt == pytest.approx(1.0)  # speed c = 1
        assert np.allclose(v[2:], 0.0)

    def test_tau_conserved_always(self):
        m = conormal_metric()
        state = np.array([0.2, 0.1, -0.8, 0.9])
        v = m.hamilton_field(state)
        assert v[3] == 0.0

    def test_p_invariant_direction(self):
        # dp along the field vanishes: grad p . X_p = 0 by antisymmetry
        m = conormal_metric()
        state = np.array([0.17, 0.3, -1.1, m.speed(0.17) * 1.1])
        v = np.array(m.hamilton_field(state))
        h = 1e-6

        def p_of(s):
            return m.dual_hamiltonian(PhasePoint(s[:2], s[2:]))

        dp = (p_of(state + h * v) - p_of(state - h * v)) / (2 * h)
        assert abs(dp) < 1e-8


# ---------------------------------------------------------------------------
# the float kernel against the 0-d array code it replaced

_PLATEAU = 0.3


def reference_chi0(t):
    """escape.chi0 before its float branch (verbatim)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out if out.ndim else float(out)


def reference_profile(self, x, slope: bool):
    """ConormalMetric._profile as it ran a scalar through 0-d arrays (verbatim)."""
    x = np.asarray(x, float)
    r = np.abs(x)
    u = r / self.core_radius
    t = np.asarray((u - _PLATEAU) / (1.0 - _PLATEAU))
    s = np.asarray(1.0 - t)
    f, g = np.asarray(reference_chi0(t)), np.asarray(reference_chi0(s))
    bump = 1.0 - f / (f + g)
    e = self.exponent
    c = self.c_bg + self.amp * r**e * bump
    if not slope:
        return c if c.ndim else float(c)
    fp, gp = np.zeros_like(f), np.zeros_like(g)
    fp[t > 0] = f[t > 0] / (t[t > 0] * t[t > 0])
    gp[s > 0] = g[s > 0] / (s[s > 0] * s[s > 0])
    dbump = -((fp * g + f * gp) / (f + g) ** 2) / (1.0 - _PLATEAU)
    dc = self.amp * (e * r ** (e - 1.0) * bump + r**e * dbump / self.core_radius)
    dc = dc * np.sign(x)
    return (c, dc) if c.ndim else (float(c), float(dc))


def reference_hamilton_field(self, state):
    """ConormalMetric.hamilton_field on ndarrays (verbatim, on the reference profile)."""
    state = np.asarray(state, float)
    n = 2
    x, xi = state[:n], state[n:]
    spatial = xi[:-1]
    kin = float(np.dot(spatial, spatial))
    c, dc = reference_profile(self, float(x[0]), slope=True)
    dx = np.empty(n)
    dxi = np.zeros(n)
    dxi[0] = 2.0 * c * dc * kin
    dx[:-1] = -2.0 * c**2 * spatial
    dx[-1] = 2.0 * xi[-1]
    return np.concatenate([dx, dxi])


def reference_split(q):
    """ConormalMetric.split before the 1+1D cut (verbatim, k = 1)."""
    k = 1
    return (
        q.x[:k],
        q.x[k:-1],
        q.x[-1],
        q.xi[:k],
        q.xi[k:-1],
        q.xi[-1],
    )


def reference_dual_hamiltonian(self, q):
    """ConormalMetric.dual_hamiltonian through split and np.dot (verbatim)."""
    xp, _, _, xip, eta, tau = reference_split(q)
    c = self.speed(float(xp[0]))
    return float(tau**2 - c**2 * (np.dot(xip, xip) + np.dot(eta, eta)))


def profile_inputs(core, rng):
    """About 10^4 floats over every branch of the profile, both signs."""
    half = [
        [0.0, 0.3 * core, core],
        rng.uniform(0.0, 0.3 * core, 2000),  # plateau
        rng.uniform(0.3 * core, core, 2000),  # bump transition
        rng.uniform(core, 3.0 * core, 500),  # homogeneous outside the core
        rng.uniform(0.0, 1e-3, 500),  # within 1e-3 of the interface
    ]
    xs = np.concatenate(half)
    return np.concatenate([xs, -xs]).tolist()


KERNEL_METRICS = pytest.mark.parametrize(
    "metric",
    [
        ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0),
        ConormalMetric(s0=2.2, amp=0.7, core_radius=0.5),
    ],
    ids=["bundled", "s0-2.2"],
)


class TestFloatKernel:
    @KERNEL_METRICS
    def test_profile_matches_array_code(self, metric):
        xs = profile_inputs(metric.core_radius, np.random.default_rng(3))
        assert len(xs) > 10_000
        for x in xs:
            got = metric._profile(x, slope=True)
            assert type(got[0]) is float and type(got[1]) is float
            assert got == reference_profile(metric, x, slope=True), x
            assert metric.speed(x) == reference_profile(metric, x, slope=False), x

    def test_hamilton_field_matches_array_code(self):
        metric = ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0)
        rng = np.random.default_rng(5)
        for x in profile_inputs(1.0, rng)[::10]:
            state = np.array([x, rng.uniform(0, 6), rng.uniform(-2, 2), rng.uniform(0.5, 2)])
            got = metric.hamilton_field(state)
            assert type(got) is tuple and all(type(v) is float for v in got)
            assert np.array_equal(got, reference_hamilton_field(metric, state)), state
            assert metric.hamilton_field(state.tolist()) == got

    def test_hamilton_field_reuses_the_last_profile(self, monkeypatch):
        metric = ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0)
        fresh = ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0)
        profile, calls = metric._profile, []
        monkeypatch.setattr(metric, "_profile",
                            lambda x, slope: calls.append(x) or profile(x, slope=slope))
        for x, xi in [(0.25, -1.0), (0.25, 2.0), (0.5, -1.0), (0.25, -1.0), (-0.0, 1.0), (0.0, 1.0)]:
            state = [x, 1.0, xi, 1.1]
            assert metric.hamilton_field(state) == fresh.hamilton_field(state), state
        assert calls == [0.25, 0.5, 0.25, -0.0]

    @KERNEL_METRICS
    def test_dual_hamiltonian_matches_array_code(self, metric):
        # p feeds trace.csv's p_residual column and the manifest's
        # p_residual_max; near-null covectors are the rows the trace writes
        rng = np.random.default_rng(6)
        for x in profile_inputs(metric.core_radius, rng):
            xi = rng.uniform(-2, 2)
            null_tau = metric.speed(x) * abs(xi) * (1 + rng.uniform(-1e-9, 1e-9))
            for tau in (rng.uniform(0.5, 2), null_tau):
                q = PhasePoint([x, rng.uniform(0, 6)], [xi, tau])
                got = metric.dual_hamiltonian(q)
                assert type(got) is float
                assert got == reference_dual_hamiltonian(metric, q), (x, xi, tau)
