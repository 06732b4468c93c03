import os
import zipfile

import numpy as np
import pytest

from wavediff import wave
from wavediff.cli import _sha256_file, stage_wave
from wavediff.metric import ConormalMetric, PiecewiseSpeed
from wavediff.probe import ProbeWindow, WindowSpectrum, window_spectrum
from wavediff.wave import (
    CFLViolation,
    FieldBlowup,
    PulseSpec,
    SpongeSpec,
    WaveScenario,
    _one_way_previous,
    discrete_energy,
    make_pulse,
    run,
    smooth_envelope,
    stored_slices,
    stream,
)


def flat_scenario(**kw):
    defaults = dict(
        metric=ConormalMetric(s0=2.5, amp=0.0),
        x_lo=-2.0,
        x_hi=2.0,
        duration=1.0,
        nx=4000,
        source=PulseSpec(center=-0.5, width=0.04),
        sponge=SpongeSpec(cells=200),
        store_stride=4,
    )
    defaults.update(kw)
    return WaveScenario(**defaults)


class TestSolverBasics:
    def test_cfl_guard(self):
        with pytest.raises(CFLViolation):
            flat_scenario(cfl=0.95)

    def test_sponge_minimum_width(self):
        with pytest.raises(ValueError):
            SpongeSpec(cells=10)

    def test_source_distance_guard(self):
        m = ConormalMetric(s0=2.5, amp=0.4)
        with pytest.raises(ValueError):
            flat_scenario(metric=m, source=PulseSpec(center=-0.1, width=0.04))

    def test_deterministic(self):
        a = run(flat_scenario(duration=0.2))
        b = run(flat_scenario(duration=0.2))
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.ts, b.ts)
        assert np.array_equal(a.energy, b.energy)

    def test_translating_pulse_matches_dalembert(self):
        sc = flat_scenario()
        fld = run(sc)
        xs = fld.xs
        t_final = fld.ts[-1]
        u0 = make_pulse(sc)
        exact = np.interp(xs - t_final, xs, u0, left=0.0, right=0.0)
        err = np.sqrt(np.sum((fld.u[-1] - exact) ** 2) * fld.dx)
        assert err <= 1e-3

    def test_jump_interface_reflection_ratio(self):
        jump = PiecewiseSpeed(1.0, 1.3)
        sc = WaveScenario(
            metric=jump,
            x_lo=-3.0,
            x_hi=3.0,
            duration=2.0,
            nx=6000,
            source=PulseSpec(center=-1.0, width=0.05),
            sponge=SpongeSpec(cells=200),
            store_stride=4,
        )
        fld = run(sc)
        u0 = np.abs(make_pulse(sc)).max()
        # at T = 2 the reflected packet sits near x = -1 on the left side
        i_final = -1
        left = fld.xs < -0.3
        measured = np.abs(fld.u[i_final][left]).max() / u0
        expected = abs(jump.reflection_coefficient())
        assert measured == pytest.approx(expected, rel=0.02)

    def test_refinement_second_order_for_smooth_speed(self):
        # halving the grid shrinks the final-time error by ~4
        errs = []
        m = ConormalMetric(s0=2.5, amp=0.0, c_bg=1.0)
        for nx in (1000, 2000, 4000):
            sc = flat_scenario(metric=m, nx=nx, duration=0.5, store_stride=1000000)
            fld = run(sc)
            u0 = make_pulse(sc)
            exact = np.interp(fld.xs - fld.ts[-1], fld.xs, u0, left=0.0, right=0.0)
            errs.append(np.sqrt(np.sum((fld.u[-1] - exact) ** 2) * fld.dx))
        rates = np.diff(np.log(errs)) / np.log(0.5)
        assert np.all(rates >= 1.7)

    def test_refinement_order_reported_for_conormal_speed(self):
        # with a Hoelder coefficient the refinement order is measured and
        # reported, asserted positive but not pinned to 2
        m = ConormalMetric(s0=2.5, amp=0.4, core_radius=0.3)
        t_probe = 0.85

        def field_at(nx):
            sc = WaveScenario(
                metric=m, x_lo=-2.0, x_hi=2.0, duration=1.0, nx=nx,
                source=PulseSpec(center=-0.9, width=0.07),
                sponge=SpongeSpec(cells=60), store_stride=1,
            )
            fld = run(sc)
            j = int(np.searchsorted(fld.ts, t_probe)) - 1
            w = (t_probe - fld.ts[j]) / (fld.ts[j + 1] - fld.ts[j])
            return fld.xs, (1 - w) * fld.u[j] + w * fld.u[j + 1]

        grids = {nx: field_at(nx) for nx in (1000, 2000, 4000)}
        diffs = []
        for a, b in ((1000, 2000), (2000, 4000)):
            xa, ua = grids[a]
            xb, ub = grids[b]
            diffs.append(np.sqrt(np.mean((ua - np.interp(xa, xb, ub)) ** 2)))
        rate = np.log(diffs[0] / diffs[1]) / np.log(2.0)
        print("conormal-speed refinement order: %.2f" % rate)
        assert rate > 0.5


def reference_energy(u_new, u_old, c_half, dt, dx):
    """The allocating staggered energy: a new array per term."""
    ut = (u_new - u_old) / dt
    gx_new = np.diff(u_new) / dx
    gx_old = np.diff(u_old) / dx
    return 0.5 * dx * (np.sum(ut * ut) + np.sum(c_half**2 * gx_new * gx_old))


def reference_leapfrog(sc, dt):
    """The allocating leapfrog: a new array per term, full-grid damping."""
    xs, dx = sc.grid(), sc.dx
    c_half = np.asarray(sc.metric.speed(0.5 * (xs[1:] + xs[:-1])), float)
    u_curr = make_pulse(sc) if sc.source is not None else np.zeros(xs.size)
    u_prev = _one_way_previous(u_curr, sc, dt) if sc.source is not None else np.zeros(xs.size)
    cells, strength = sc.sponge.cells, sc.sponge.strength
    damp = np.ones(xs.size)
    damp[:cells] = np.exp(-strength * dt * np.linspace(1.0, 0.0, cells) ** 2)
    damp[-cells:] = np.exp(-strength * dt * np.linspace(0.0, 1.0, cells) ** 2)
    lam2, c2h = (dt / dx) ** 2, c_half**2
    n_steps = int(np.ceil(sc.duration / dt))
    us, ts, es = [u_curr.copy()], [0.0], [reference_energy(u_curr, u_prev, c_half, dt, dx)]
    for m in range(1, n_steps + 1):
        flux = c2h * np.diff(u_curr)
        u_next = 2.0 * u_curr - u_prev
        u_next[1:-1] += lam2 * (flux[1:] - flux[:-1])
        u_next[0] = u_next[-1] = 0.0
        if sc.forcing is not None:
            u_next[1:-1] += dt * dt * np.asarray(sc.forcing(xs, (m - 1) * dt), float)[1:-1]
        u_next *= damp
        u_prev, u_curr = u_curr * damp, u_next
        if m % sc.store_stride == 0 or m == n_steps:
            us.append(u_curr.copy())
            ts.append(m * dt)
            es.append(reference_energy(u_curr, u_prev, c_half, dt, dx))
    return np.asarray(us), np.asarray(ts), np.asarray(es), n_steps


def forcing_at(x0):
    """Ricker wavelet in time on a gaussian bump at ``x0``."""

    def f(xs, t):
        bump = np.exp(-0.5 * ((xs - x0) / 0.05) ** 2)
        wavelet = (1 - 2 * (np.pi * 2.0 * (t - 0.3)) ** 2) * np.exp(
            -((np.pi * 2.0 * (t - 0.3)) ** 2)
        )
        return bump * wavelet

    return f


INPLACE_CASES = pytest.mark.parametrize(
    "kw, ragged",
    [
        (dict(), False),
        (dict(source=None, forcing=forcing_at(1.0)), False),
        (dict(store_stride=7), True),
        (dict(nx=200, store_stride=4), False),
        (dict(metric=ConormalMetric(s0=2.5, amp=0.4, core_radius=0.3, c_bg=1.3)), True),
        (dict(metric=ConormalMetric(s0=2.5, amp=0.0, core_radius=0.3)), True),
        (dict(store_stride=1), False),
        (dict(sponge=SpongeSpec(cells=500)), False),
        (dict(metric=ConormalMetric(s0=2.5, amp=0.4, core_radius=0.8)), True),
    ],
    ids=["sponges", "forcing", "ragged-stride", "overlapping-sponges",
         "speed-varies-everywhere", "uniform-unit-speed", "ghost-width-1",
         "cut-in-sponge-ramp", "cut-in-speed-span"],
)


def use_parts(monkeypatch, parts):
    """Make ``stream`` solve in ``parts`` parts (1 or 2) on any grid here:
    report that many usable CPUs and drop the minimum part size."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(parts)))
    monkeypatch.setattr(wave, "MIN_PART_NODES", 1)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def inplace_scenario(**kw):
    # the packet and its reflection reach both sponges within the duration
    defaults = dict(
        metric=ConormalMetric(s0=2.5, amp=0.4, core_radius=0.3),
        x_lo=-1.5, x_hi=1.5, duration=2.0, nx=1500,
        source=PulseSpec(center=-0.6, width=0.04, s_in=0.0),
        sponge=SpongeSpec(cells=150), store_stride=5,
    )
    defaults.update(kw)
    return WaveScenario(**defaults)


class TestInPlaceLeapfrog:
    """``run`` updates three levels in place, damps only the sponge cells and
    computes the staggered energy in its scratch arrays; its stored slices,
    times and energies carry the allocating loop's bits."""

    @pytest.fixture(autouse=True)
    def parts(self, monkeypatch):
        use_parts(monkeypatch, 1)
        return 1

    @INPLACE_CASES
    def test_matches_reference(self, kw, ragged, parts):
        sc = inplace_scenario(**kw)
        fld = run(sc)
        u, ts, energy, n_steps = reference_leapfrog(sc, fld.dt)
        assert (n_steps % sc.store_stride != 0) == ragged
        assert np.array_equal(fld.u, u)
        assert np.array_equal(fld.ts, ts)
        assert np.array_equal(fld.energy, energy)

    @INPLACE_CASES
    def test_streamed_spectra_match_stored_field(self, kw, ragged, parts):
        # window spectra fed by the solver equal those of the stored field
        sc = inplace_scenario(**kw)
        windows = [ProbeWindow(-1.4, -0.1, 0.0, 0.9, "left"),
                   ProbeWindow(0.1, 1.4, 0.6, 2.0, "right")]
        spectra = [WindowSpectrum(w, sc.grid()) for w in windows]
        rec = stream(sc, spectra)
        assert rec.processes == parts
        fld = run(sc)
        assert np.array_equal(rec.ts, fld.ts) and np.array_equal(rec.energy, fld.energy)
        assert rec.steps == round(fld.ts[-1] / fld.dt) and rec.ts.size == stored_slices(sc)
        for spec, w in zip(spectra, windows):
            stored = window_spectrum(fld, w)
            assert spec.n_slices == stored.n_slices > 0
            assert np.array_equal(spec.peak, stored.peak)


class TestInPlaceLeapfrogSplit(TestInPlaceLeapfrog):
    """The same cases with the grid split between this process and a forked
    child at node 450 of the 1501: inside the left sponge ramp of
    ``cut-in-sponge-ramp`` and inside the span of ``c2h != 1`` of
    ``cut-in-speed-span`` and ``speed-varies-everywhere``."""

    @pytest.fixture(autouse=True)
    def parts(self, monkeypatch):
        use_parts(monkeypatch, 2)
        return 2


def savez_of_stack(path, fld):
    """The archive as written from the whole slice stack."""
    np.savez(
        path,
        u=fld.u.astype(np.float32),
        ts=fld.ts,
        xs=fld.xs,
        c=fld.c,
        energy=fld.energy,
        dt=fld.dt,
        max_trust_freq=fld.max_trust_freq,
    )


class TestFieldArchive:
    @pytest.fixture(autouse=True)
    def parts(self, monkeypatch):
        use_parts(monkeypatch, 1)

    def test_stage_wave_writes_stored_repeatable_npz(self, tmp_path):
        sc = flat_scenario(duration=0.2)
        fld = run(sc)
        stage_wave(sc, [], tmp_path / "a.npz")
        stage_wave(sc, [], tmp_path / "b.npz")
        with zipfile.ZipFile(tmp_path / "a.npz") as zf:
            assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
        with np.load(tmp_path / "a.npz") as z:
            assert sorted(z.files) == ["c", "dt", "energy", "max_trust_freq", "ts", "u", "xs"]
            assert z["u"].dtype == np.float32
            assert np.array_equal(z["u"], fld.u.astype(np.float32))
            for key in ("ts", "xs", "c", "energy", "dt", "max_trust_freq"):
                assert np.array_equal(z[key], getattr(fld, key)), key
        assert _sha256_file(tmp_path / "a.npz") == _sha256_file(tmp_path / "b.npz")

    @pytest.mark.parametrize("kw", [dict(duration=0.2), dict(duration=0.3, store_stride=7)],
                             ids=["even", "ragged"])
    def test_streamed_archive_is_savez_of_the_stack(self, tmp_path, kw):
        sc = flat_scenario(**kw)
        stage_wave(sc, [], tmp_path / "streamed.npz")
        savez_of_stack(tmp_path / "stacked.npz", run(sc))
        streamed = (tmp_path / "streamed.npz").read_bytes()
        assert streamed == (tmp_path / "stacked.npz").read_bytes()

    def test_failed_solve_leaves_no_archive(self, tmp_path):
        def nan_forcing(xs, t):
            return np.full(xs.size, np.nan)

        sc = flat_scenario(duration=0.2, source=None, forcing=nan_forcing)
        with pytest.raises(FieldBlowup):
            stage_wave(sc, [], tmp_path / "f.npz")
        assert not (tmp_path / "f.npz").exists()
        assert_no_child()


class TestFieldArchiveSplit(TestFieldArchive):
    """The same archives, and the same failed solve, with the grid split
    between this process and a forked child."""

    @pytest.fixture(autouse=True)
    def parts(self, monkeypatch):
        use_parts(monkeypatch, 2)


class TestSolverChild:
    """The forked child ends with every solve, however the solve ends."""

    def test_observer_failure_leaves_no_child(self, tmp_path, monkeypatch):
        use_parts(monkeypatch, 2)
        calls = []

        def third_fails(t, u):
            calls.append(t)
            if len(calls) == 3:
                raise RuntimeError("observer failed")

        with pytest.raises(RuntimeError, match="observer failed"):
            stage_wave(flat_scenario(duration=0.2), [third_fails], tmp_path / "f.npz")
        assert len(calls) == 3
        assert not (tmp_path / "f.npz").exists()
        assert_no_child()

    def test_child_failure_stops_the_solve(self, tmp_path, monkeypatch):
        use_parts(monkeypatch, 2)
        parent = os.getpid()

        def fails_in_child(xs, t):
            if os.getpid() != parent and t > 0.05:
                raise RuntimeError("forcing failed")
            return np.zeros(xs.size)

        sc = flat_scenario(duration=0.2, forcing=fails_in_child)
        with pytest.raises(RuntimeError, match="child process ended early"):
            stage_wave(sc, [], tmp_path / "f.npz")
        assert not (tmp_path / "f.npz").exists()
        assert_no_child()

    def test_split_time_sliced_on_one_core(self, monkeypatch):
        # the two processes share one core, so the scheduler interleaves the
        # exchange of every block (one per step here) in ever new orders
        cpus = os.sched_getaffinity(0)
        use_parts(monkeypatch, 2)
        sc = inplace_scenario(store_stride=1, duration=1.0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            fld = run(sc)
        finally:
            os.sched_setaffinity(0, cpus)
        u, ts, energy, _ = reference_leapfrog(sc, fld.dt)
        assert np.array_equal(fld.u, u) and np.array_equal(fld.energy, energy)
        assert_no_child()

    def test_one_usable_cpu_solves_in_one_part(self, monkeypatch):
        use_parts(monkeypatch, 1)
        assert stream(flat_scenario(duration=0.2)).processes == 1

    def test_split_needs_parts_of_minimum_size(self, monkeypatch):
        use_parts(monkeypatch, 2)
        assert stream(flat_scenario(duration=0.05)).processes == 2
        monkeypatch.setattr(wave, "MIN_PART_NODES", 1201)  # the parent's part holds 1200
        assert stream(flat_scenario(duration=0.05)).processes == 1


class TestEnergy:
    def test_zero_field(self):
        sc = flat_scenario(source=None, duration=0.1)
        fld = run(sc)
        assert np.allclose(fld.energy, 0.0)

    def test_staggered_energy_conserved(self):
        sc = flat_scenario(duration=0.8, store_stride=8)
        fld = run(sc)
        e = fld.energy
        assert np.max(np.abs(e - e[0])) <= 1e-10 * e[0]

    def test_centered_energy_nearly_constant(self):
        sc = flat_scenario(duration=0.8, store_stride=1)
        fld = run(sc)
        n = fld.u.shape[0]
        vals = [discrete_energy(fld, i) for i in range(n // 8, 7 * n // 8, n // 16)]
        vals = np.asarray(vals)
        assert np.max(np.abs(vals - vals[0])) <= 1e-3 * vals[0]

    def test_conormal_energy_budget(self):
        m = ConormalMetric(s0=2.5, amp=0.4)
        sc = WaveScenario(
            metric=m,
            x_lo=-3.0,
            x_hi=3.0,
            duration=1.5,
            nx=6000,
            source=PulseSpec(center=-1.0, width=0.05),
            sponge=SpongeSpec(cells=200),
            store_stride=8,
        )
        fld = run(sc)
        e = fld.energy
        assert np.all(e <= 1.01 * e[0])
        assert e[-1] >= 0.99 * e[0]  # nothing reached the sponge yet

    def test_sponge_absorbs(self):
        # calibration run with a zero-mean packet whose wavelengths fit well
        # inside the sponge; reflections off the ramp stay tiny
        sc = flat_scenario(
            duration=3.5,
            store_stride=8,
            source=PulseSpec(center=-0.5, width=0.05, carrier=120.0),
        )
        fld = run(sc)
        assert fld.energy[-1] <= 0.01 * fld.energy[0]


class TestPulse:
    def test_near_delta_decay_exponent(self):
        sc = flat_scenario(source=PulseSpec(center=-0.5, width=0.04, s_in=-0.5))
        u0 = make_pulse(sc)
        assert np.max(np.abs(u0)) > 0
        spec = np.abs(np.fft.rfft(u0))
        k = 2 * np.pi * np.fft.rfftfreq(u0.size, d=sc.dx)
        band = (k > 50) & (k < 700)
        slope = np.polyfit(np.log(k[band]), np.log(spec[band] + 1e-300), 1)[0]
        assert abs(slope + 0.05) < 0.15  # near-flat spectrum

    def test_width_controls_support(self):
        sc1 = flat_scenario(source=PulseSpec(center=-0.5, width=0.04, s_in=0.0))
        sc2 = flat_scenario(source=PulseSpec(center=-0.8, width=0.08, s_in=0.0))
        u1, u2 = make_pulse(sc1), make_pulse(sc2)
        w1 = np.ptp(sc1.grid()[np.abs(u1) > 1e-12])
        w2 = np.ptp(sc2.grid()[np.abs(u2) > 1e-12])
        assert w2 == pytest.approx(2 * w1, rel=0.1)

    def test_envelope_plateau(self):
        xs = np.linspace(-1, 1, 2001)
        env = smooth_envelope(xs, 0.0, 0.1)
        assert np.all(env[np.abs(xs) <= 0.1] == 1.0)
        assert np.all(env[np.abs(xs) >= 0.3] == 0.0)

    def test_order_range_guard(self):
        with pytest.raises(ValueError):
            flat_scenario(source=PulseSpec(center=-0.5, width=0.04, s_in=5.0))


class TestStructure:
    def test_reciprocity(self):
        # swap source and receiver: traces agree (self-adjoint operator,
        # symmetric scheme)
        m = ConormalMetric(s0=2.5, amp=0.4)
        x_a, x_b = -1.0, 0.8

        traces = {}
        for src, rec in ((x_a, x_b), (x_b, x_a)):
            sc = WaveScenario(
                metric=m,
                x_lo=-3.0,
                x_hi=3.0,
                duration=2.5,
                nx=3000,
                source=None,
                sponge=SpongeSpec(cells=150),
                store_stride=2,
                forcing=forcing_at(src),
            )
            fld = run(sc)
            idx = int(np.argmin(np.abs(fld.xs - rec)))
            traces[(src, rec)] = fld.u[:, idx]
        a = traces[(x_a, x_b)]
        b = traces[(x_b, x_a)]
        assert np.max(np.abs(a - b)) <= 1e-6 * max(np.max(np.abs(a)), 1e-30)

    def test_finite_propagation_speed(self):
        # compactly supported standing start: exactly zero outside the
        # scheme's stencil cone, and tiny just beyond the physical cone
        sc = flat_scenario(source=None, duration=0.6, nx=3000, store_stride=8)
        xs = sc.grid()
        u0 = smooth_envelope(xs, -0.5, 0.05)
        dx = sc.dx
        c_half = sc.metric.speed(0.5 * (xs[1:] + xs[:-1]))
        dt = 0.9 * dx / 1.0
        lam2 = (dt / dx) ** 2
        u_prev = u0.copy()
        u_curr = u0.copy()
        n_steps = int(0.5 / dt)
        for _ in range(n_steps):
            flux = c_half**2 * np.diff(u_curr)
            u_next = 2 * u_curr - u_prev
            u_next[1:-1] += lam2 * (flux[1:] - flux[:-1])
            u_next[0] = u_next[-1] = 0.0
            u_prev, u_curr = u_curr, u_next
        t_final = n_steps * dt
        support = np.abs(xs + 0.5) <= 0.15  # envelope support radius 3*width
        lo, hi = xs[support].min(), xs[support].max()
        # numerical (stencil) light cone: one cell per step, widened 5 cells
        num_out = (xs < lo - (n_steps + 5) * dx) | (xs > hi + (n_steps + 5) * dx)
        assert np.max(np.abs(u_curr[num_out])) <= 1e-10
        # physical cone + 5 cells: evanescent precursor only
        phys_out = (xs < lo - t_final - 5 * dx) | (xs > hi + t_final + 5 * dx)
        assert np.max(np.abs(u_curr[phys_out])) <= 1e-7
