"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with -s to see them)."""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from wavediff.cli import plan_spectra
from wavediff.escape import (
    EscapeParams,
    check_positivity,
    check_support_estimates,
    decompose_commutator,
    derive_c_prime,
    epsilon_schedule,
    precise_localizer_frame,
    sample_chart,
    synthetic_hoelder_frame,
)
from wavediff.metric import ConormalMetric, PiecewiseSpeed
from wavediff.orders import (
    PairOrder,
    Side,
    bounded_diag_flowout,
    bounded_one_sided,
    compose_au,
    embed_lambda0,
    hyperbolic_window,
    mult_bounded_range,
    mult_decompose,
    psdo_shift,
    verify_constraint_chain,
)
from wavediff.probe import (
    ProbeWindow,
    WindowSpectrum,
    decay_fit,
    default_oracle_scan,
    gain_report,
)
from wavediff.tracer import dyadic_construct, gbb_trace, ray_on_characteristic, transversal_integrate
from wavediff.wave import PulseSpec, SpongeSpec, WaveScenario, make_pulse, stream

F = Fraction


def _report(criterion, passed, detail=""):
    print("ACCEPTANCE %-2s: %s  %s" % (criterion, "PASS" if passed else "FAIL", detail))
    assert passed, detail


# ---------------------------------------------------------------------------
# shared experiment machinery (criteria 7 and 9)


def experiment_scenario(metric, nx=2**14):
    return WaveScenario(
        metric=metric,
        x_lo=-4.0,
        x_hi=4.0,
        duration=6.6,
        nx=nx,
        source=PulseSpec(center=-2.2, width=0.06, s_in=-0.5),
        sponge=SpongeSpec(cells=600, strength=60.0),
        store_stride=16,
    )


def streamed_fits(scenario, spectra):
    """Solve ``scenario`` into the planned window spectra, as the pipeline
    does, and fit each one."""
    stream(scenario, spectra)
    return {spec.window.label: decay_fit(spec) for spec in spectra}


def run_experiment(s0, with_oracle=True):
    m = ConormalMetric(s0=s0, amp=0.4, core_radius=1.0)
    sc = experiment_scenario(m)
    q0 = ray_on_characteristic(m, sc.source.center, 0.0, direction=+1)
    paths = gbb_trace(m, q0, t_span=sc.duration)
    fits = streamed_fits(sc, plan_spectra(sc, paths))
    oracle = None
    if with_oracle:
        oracle = default_oracle_scan(m, fits["incident"].band)
    window = hyperbolic_window(Fraction(str(s0)), Fraction(1, 20), 1)
    return gain_report(fits, window, oracle=oracle)


@pytest.fixture(scope="module")
def experiments():
    cache = {}
    t0 = time.time()
    cache[2.5] = run_experiment(2.5)
    cache["t_main"] = time.time() - t0
    cache[2.2] = run_experiment(2.2)
    cache[2.8] = run_experiment(2.8)
    return cache


# ---------------------------------------------------------------------------


def test_criterion_1_order_calculus_chain():
    t0 = time.time()
    rng = random.Random(20120403)
    n_samples = 10_000
    count = 0
    n_choices = {1: (2, 3, 4), 2: (3, 4), 3: (4,)}
    while count < n_samples:
        k = rng.choice((1, 2, 3))
        n = rng.choice(n_choices[k])
        s0 = F(k + 1) + F(rng.randrange(1, 128), 64)  # (k+1, k+3)
        eps_max = (s0 - k - 1) / 2
        eps0 = eps_max * F(rng.randrange(1, 32), 32)
        win = hyperbolic_window(s0, eps0, k)
        assert win.admissible
        lo, hi = win.theorem.lo, win.theorem.hi
        s = lo + (hi - lo) * F(rng.randrange(1, 64), 64)
        count += 1

        # constraint chain and its implications
        rep = verify_constraint_chain(s0, eps0, s, k, n)
        assert rep.all_prelim and rep.all_reduced and rep.all_reduction
        assert rep.prelim_matches_reduced
        assert rep.reduced_implies_reduction and rep.second_automatic

        m_level = s - eps0  # mapping H^{s-eps0} -> H^{-(s-eps0)}
        # commutator terms: coefficient multiplication against order 2s-1,
        # one derivative landing outside
        dec = mult_decompose(s0, 2 * s - 1, k, n)
        diag, con = dec.paired[0].order, dec.paired[1].order
        one = embed_lambda0(1, k)
        good_diag = compose_au(one, diag)  # (2s, -s0+k/2)
        raw_bad = compose_au(one, good_diag)  # (2s+1, -s0+k/2)
        e_term = PairOrder(raw_bad.p - 1, raw_bad.l + 1, k)  # symbol cancellation
        if count <= 100:  # construction identities, checked on a subsample
            assert good_diag == PairOrder(2 * s, -s0 + F(k, 2), k)
            assert e_term == PairOrder(2 * s, -s0 + 1 + F(k, 2), k)

        # flow-out content of the diagonal-pair terms, via the embedding with
        # the full codimension
        for term in (good_diag, e_term):
            p_tilde = term.p + term.l
            emb = PairOrder(p_tilde - F(n, 2), F(n, 2), k)
            assert bounded_one_sided(emb, n, m_level, m_level, Side.LEFT)
            assert bounded_one_sided(emb, n, m_level, m_level, Side.RIGHT)

        # one-sided error terms (both factor orders)
        f_good = psdo_shift(con, 1, Side.LEFT)
        f_bad = psdo_shift(f_good, 1, Side.RIGHT)
        if count <= 100:
            assert f_bad == PairOrder(-s0 + 1 - F(n - k, 2), 2 * s + F(n, 2), k)
        for term in (f_good, f_bad):
            assert bounded_one_sided(term, n, m_level, m_level, Side.LEFT)
            assert bounded_one_sided(term, n, m_level, m_level, Side.RIGHT)

        # reduction to divergence form: multiplication bounded on H^{s-1}
        dec0 = mult_decompose(s0, 0, k, n)
        diag0, con0 = dec0.paired[0].order, dec0.paired[1].order
        assert bounded_diag_flowout(diag0, s - 1, s - 1)
        assert bounded_one_sided(con0, n, -(s - 1), s - 1, Side.LEFT)
        assert bounded_one_sided(con0, n, -(s - 1), s - 1, Side.RIGHT)
        p0 = diag0.p + diag0.l
        emb0 = PairOrder(p0 - F(n, 2), F(n, 2), k)
        assert bounded_one_sided(emb0, n, -(s - 1), s - 1, Side.LEFT)
        assert bounded_one_sided(emb0, n, -(s - 1), s - 1, Side.RIGHT)
    elapsed = time.time() - t0
    _report(1, count == n_samples and elapsed < 5.0,
            "%d exact samples, %.2fs" % (count, elapsed))


def test_criterion_2_mult_window_instance():
    w = mult_bounded_range(F(5, 2), 1)
    exact = w.admissible and w.lo == -2 and w.hi == 2
    n = 2
    p_tilde = -F(5, 2) + F(1, 2)  # flow-out content order of the diagonal term
    emb = PairOrder(p_tilde - F(n, 2), F(n, 2), 1)
    con = mult_decompose(F(5, 2), 0, 1, n).paired[1].order
    # s = +2: the intersection content must land strictly below m = -s
    fail_hi = not bounded_one_sided(emb, n, m=F(-2), m_src=F(2), side=Side.LEFT)
    # s = -2: the right-factor conditions fail at equality
    fail_lo = not bounded_one_sided(emb, n, m=F(2), m_src=F(-2), side=Side.RIGHT)
    fail_lo_con = not bounded_one_sided(con, n, m=F(2), m_src=F(-2), side=Side.RIGHT)
    # strictly inside the window everything holds
    inside = all(
        bounded_one_sided(emb, n, m=-s, m_src=s, side=side)
        for s in (F(-39, 20), F(0), F(39, 20))
        for side in (Side.LEFT, Side.RIGHT)
    )
    _report(2, exact and fail_hi and fail_lo and fail_lo_con and inside,
            "window=(%s,%s), boundary failures confirmed" % (w.lo, w.hi))


def test_criterion_3_commutant_identity():
    frame = precise_localizer_frame(3)
    params = EscapeParams(delta=0.125, eps=0.5, beta=1.0, F=8.0, c0=1.0)
    pts = sample_chart(params, frame, n_grid=10_000, n_quasi=2_000, seed=1)
    parts = decompose_commutator(pts, frame, params)
    scale = float(np.max(np.abs(parts.hp_a)))
    resid = float(np.max(np.abs(parts.residual)))
    support = check_support_estimates(pts, frame, params)
    ok = resid <= 1e-10 * scale and support.ok and support.n_support > 500
    _report(3, ok, "residual %.2e (scale %.2e), %d support points, %d violations"
            % (resid, scale, support.n_support, len(support.violations)))


def test_criterion_4_positivity_schedule():
    C0, c0 = 0.05, 1.0
    all_ok = True
    detail = []
    for alpha in (0.3, 0.5, 1.0):
        frame = synthetic_hoelder_frame(3, alpha, C0)
        c_prime = derive_c_prime(C0, c0, frame.n_sigma, alpha)
        for j in range(3, 9):
            delta = 2.0**-j
            eps = epsilon_schedule(delta, alpha, c_prime)
            params = EscapeParams(delta=delta, eps=eps, beta=1.0, c0=c0)
            pts = sample_chart(params, frame, n_grid=6000, n_quasi=2000, seed=j)
            rep = check_positivity(frame, params, (C0, alpha), pts)
            if not (rep.schedule_valid and rep.passed):
                all_ok = False
                detail.append("alpha=%.1f delta=2^-%d margin=%.3f" % (alpha, j, rep.min_hp_phi))
    # negative control
    frame = synthetic_hoelder_frame(3, 0.3, C0)
    delta = 2.0**-8
    params = EscapeParams(delta=delta, eps=delta, beta=1.0, c0=c0)
    pts = sample_chart(params, frame, n_grid=8000, n_quasi=2000, seed=99)
    neg = check_positivity(frame, params, (C0, 0.3), pts)
    control_violated = (not neg.schedule_valid) and (not neg.passed)
    _report(4, all_ok and control_violated,
            "18 scheduled runs ok, negative-control margin %.3f < %.3f"
            % (neg.min_hp_phi, neg.threshold))


def test_criterion_5_tracer_closed_form():
    alpha = 0.5

    def V(x):
        x = np.asarray(x, float)
        return np.array([np.abs(x[-1]) ** alpha, 1.0])

    def exact(t):
        return np.sign(t) * np.abs(t) ** (1 + alpha) / (1 + alpha)

    samples = transversal_integrate(V, [0.0, 0.0], 1.0, 1e-4)
    err = max(abs(s.q[0] - exact(s.t)) for s in samples[:: len(samples) // 50])
    err = max(err, abs(samples[-1].q[0] - exact(samples[-1].t)))

    fwd = transversal_integrate(V, [0.1, -0.5], 1.0, 1e-4)
    back = transversal_integrate(V, fwd[-1].q, -1.0, 1e-4)
    uniq = abs(back[0].q[0] - 0.1)
    ok = err <= 1e-6 and uniq <= 1e-8
    _report(5, ok, "closed-form err %.2e (tol 1e-6), forward/backward gap %.2e (tol 1e-8)"
            % (err, uniq))


def test_criterion_6_dyadic_convergence():
    alpha = 0.5

    def V(q):
        q = np.asarray(q, float)
        return np.array([np.abs(q[-1]) ** alpha, 1.0])

    def Fa(u):
        return np.sign(u) * np.abs(u) ** (1 + alpha) / (1 + alpha)

    rng = np.random.default_rng(8)
    ref = transversal_integrate(V, [0.0, 0.3], -1.0, 1e-4)
    tr = np.array([s.t for s in ref])
    qr = np.stack([s.q for s in ref])
    sups = []
    Ns = list(range(4, 11))
    lipschitz_ok = True
    for N in Ns:

        def oracle(q, d):
            exact = np.array([q[0] + Fa(q[1] - d) - Fa(q[1]), q[1] - d])
            noise = rng.normal(size=2)
            noise *= 0.4 * d ** (1 + alpha) / np.linalg.norm(noise)
            return exact + noise

        run_ = dyadic_construct(oracle, V, [0.0, 0.3], eps_span=1.0, N=N, C0=1.5, alpha=alpha)
        lipschitz_ok &= run_.check_lipschitz()
        sup = 0.0
        for tj, pj in zip(run_.times, run_.points):
            interp = np.array([np.interp(tj, tr, qr[:, 0]), np.interp(tj, tr, qr[:, 1])])
            sup = max(sup, float(np.linalg.norm(pj - interp)))
        sups.append(sup)
    rate = -np.polyfit(Ns, np.log2(sups), 1)[0]
    ok = rate >= alpha - 0.15 and lipschitz_ok
    _report(6, ok, "fitted rate %.3f (needs >= %.2f), uniform Lipschitz on every run"
            % (rate, alpha - 0.15))


def test_criterion_7_regularity_gain(experiments):
    rep = experiments[2.5]
    t_main = experiments["t_main"]

    # negative control: jump interface probed with the same geometry
    jump = PiecewiseSpeed(1.0, 1.3)
    scj = experiment_scenario(jump)
    m_ref = ConormalMetric(s0=2.5, amp=0.4, core_radius=1.0)
    sc_ref = experiment_scenario(m_ref)
    q0 = ray_on_characteristic(m_ref, sc_ref.source.center, 0.0, direction=+1)
    paths = gbb_trace(m_ref, q0, t_span=scj.duration)
    spectra = plan_spectra(sc_ref, paths)  # the reference's windows on the jump's run
    repj = gain_report(streamed_fits(scj, spectra), hyperbolic_window(1, Fraction(1, 20), 1))

    ok = (
        rep.verdict == "pass"
        and abs(rep.oracle_mismatch) <= 0.25
        and abs(rep.gain_transmitted) <= 0.25
        and abs(repj.gain_reflected) <= 0.1
        and t_main < 120.0
    )
    _report(7, ok,
            "oracle mismatch %.3f (tol 0.25), transmitted drift %.3f (tol 0.25), "
            "jump-control gain %.3f (tol 0.1), runtime %.1fs"
            % (rep.oracle_mismatch, rep.gain_transmitted, repj.gain_reflected, t_main))


def test_criterion_8_calibration_closure():
    m = ConormalMetric(s0=2.5, amp=0.0)
    errs = {}
    for s_in in (-0.5, 0.0, 1.0, 2.0):
        sc = WaveScenario(
            metric=m, x_lo=-8.0, x_hi=8.0, duration=0.1, nx=2**15,
            source=PulseSpec(center=0.0, width=1.0, s_in=s_in),
            sponge=SpongeSpec(cells=600), store_stride=16,
        )
        spec = WindowSpectrum(ProbeWindow(-4.8, 4.8, -1, 1, "cal"), sc.grid())
        spec(0.0, make_pulse(sc))
        fit = decay_fit(spec)
        errs[s_in] = fit.r_hat - (s_in + 0.55)
    worst = max(abs(e) for e in errs.values())
    _report(8, worst <= 0.05,
            "recovery errors " + ", ".join("%+.3f" % errs[s] for s in sorted(errs)))


def test_criterion_9_monotonicity(experiments):
    r22 = experiments[2.2].fits["reflected"].r_hat
    r25 = experiments[2.5].fits["reflected"].r_hat
    r28 = experiments[2.8].fits["reflected"].r_hat
    ok = r22 < r25 < r28
    _report(9, ok, "reflected exponents %.3f < %.3f < %.3f across s0=2.2/2.5/2.8"
            % (r22, r25, r28))
