import ctypes
import itertools
import os
import re
import subprocess
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest

from wavediff import wave
from wavediff.cli import _sha256_file, stage_wave
from wavediff.metric import ConormalMetric, PiecewiseSpeed
from wavediff.probe import ProbeWindow, WindowSpectrum
from wavediff.wave import (
    CFLViolation,
    FieldBlowup,
    KernelBuildError,
    PulseSpec,
    SpongeSpec,
    WaveField,
    WaveScenario,
    _one_way_previous,
    make_pulse,
    run,
    smooth_envelope,
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
        err = np.sqrt(np.sum((fld.u[-1] - exact) ** 2) * sc.dx)
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
            errs.append(np.sqrt(np.sum((fld.u[-1] - exact) ** 2) * sc.dx))
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


def reference_energy(u_new, u_old, c2h, dt, dx):
    """The allocating staggered energy: a new array per term; ``c2h`` is
    the squared half-cell speed."""
    ut = (u_new - u_old) / dt
    gx_new = np.diff(u_new) / dx
    gx_old = np.diff(u_old) / dx
    return 0.5 * dx * (np.sum(ut * ut) + np.sum(c2h * gx_new * gx_old))


def reference_step(u_prev, u_curr, c2h, lam2, damp):
    """One step of the allocating leapfrog: the new previous and current
    levels."""
    flux = c2h * np.diff(u_curr)
    u_next = 2.0 * u_curr - u_prev
    u_next[1:-1] += lam2 * (flux[1:] - flux[:-1])
    u_next[0] = u_next[-1] = 0.0
    u_next *= damp
    return u_curr * damp, u_next


def reference_leapfrog(sc, dt):
    """The allocating leapfrog: a new array per term, full-grid damping."""
    xs, dx = sc.grid(), sc.dx
    c_half = np.asarray(sc.metric.speed(0.5 * (xs[1:] + xs[:-1])), float)
    u_curr = make_pulse(sc)
    u_prev = _one_way_previous(u_curr, sc, dt)
    cells, strength = sc.sponge.cells, sc.sponge.strength
    damp = np.ones(xs.size)
    damp[:cells] = np.exp(-strength * dt * np.linspace(1.0, 0.0, cells) ** 2)
    damp[-cells:] = np.exp(-strength * dt * np.linspace(0.0, 1.0, cells) ** 2)
    lam2, c2h = (dt / dx) ** 2, c_half**2
    n_steps = int(np.ceil(sc.duration / dt))
    us, ts, es = [u_curr.copy()], [0.0], [reference_energy(u_curr, u_prev, c2h, dt, dx)]
    for m in range(1, n_steps + 1):
        u_prev, u_curr = reference_step(u_prev, u_curr, c2h, lam2, damp)
        if m % sc.store_stride == 0 or m == n_steps:
            us.append(u_curr.copy())
            ts.append(m * dt)
            es.append(reference_energy(u_curr, u_prev, c2h, dt, dx))
    return np.asarray(us), np.asarray(ts), np.asarray(es), n_steps


INPLACE_CASES = pytest.mark.parametrize(
    "kw, ragged",
    [
        (dict(), False),
        (dict(store_stride=7), True),
        (dict(nx=200, store_stride=4), False),
        (dict(metric=ConormalMetric(s0=2.5, amp=0.4, core_radius=0.3, c_bg=1.3)), True),
        (dict(metric=ConormalMetric(s0=2.5, amp=0.0, core_radius=0.3)), True),
        (dict(store_stride=1), False),
        (dict(sponge=SpongeSpec(cells=500)), False),
        (dict(metric=ConormalMetric(s0=2.5, amp=0.4, core_radius=0.8)), True),
    ],
    ids=["sponges", "ragged-stride", "overlapping-sponges",
         "speed-varies-everywhere", "uniform-unit-speed", "ghost-width-1",
         "cut-in-sponge-ramp", "cut-in-speed-span"],
)


@pytest.fixture(autouse=True)
def own_cpu_mask():
    """Give every test this process's CPU mask, whatever a failed solve
    before it left pinned."""
    mask = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, mask)


def usable_split():
    """A CPU split of CPUs this process may run on: the real one, or one CPU
    for both sides where there is only one."""
    cpu = [min(os.sched_getaffinity(0))]
    return wave._cpu_split() or (cpu, cpu)


def use_parts(monkeypatch, parts):
    """Make ``stream`` solve in one process, or in a forked producer and
    this process as its consumer (``parts`` 1 or 2)."""
    split = usable_split() if parts == 2 else None
    monkeypatch.setattr(wave, "_cpu_split", lambda: split)


def archive(sc, observers, out_npz):
    """``cli.stage_wave`` of a solve of ``sc`` with no side job: the
    ``field.npz`` that ``wavediff wave run`` writes."""
    with wave.Solve(sc) as solve:
        return stage_wave(solve, observers, out_npz)


def stored_slices(sc):
    """Number of slices a solve of ``sc`` hands to its observers, counted
    from the scenario's clock without starting a solve."""
    _, c_nodes, c_half = wave._speeds(sc)
    return len(wave._clock(sc, c_nodes, c_half)[1])


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def wrap_kernel(monkeypatch, fault):
    """Make ``stream`` call the real kernel through a proxy that first runs
    ``fault(j, curr)`` on call ``j`` (0 checks the launch levels, ``j >= 1``
    steps to stored block ``j``), where ``curr`` is the current level the
    call starts from; in the forked child when there is one.  A nan written
    there reaches block ``j``'s newest level, so the kernel's own flag
    reports it."""
    lib, _ = wave._kernel()
    calls = itertools.count()

    class Faulty:
        def leapfrog(self, prev, curr, nxt, n, *rest):
            fault(next(calls), np.ctypeslib.as_array((ctypes.c_double * n).from_address(curr)))
            return lib.leapfrog(prev, curr, nxt, n, *rest)

    monkeypatch.setattr(wave, "_kernel", lambda: (Faulty(), 0.0))


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
    """``run`` updates three levels in place and damps only the sponge
    cells, and the kernel writes the staggered energy's densities; its
    stored slices, times and energies carry the allocating loop's bits."""

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
            stored = WindowSpectrum(w, fld.xs)
            for t, u in zip(fld.ts, fld.u):
                stored(t, u)
            assert spec.n_slices == stored.n_slices > 0
            assert np.array_equal(spec.peak, stored.peak)


class TestInPlaceLeapfrogSplit(TestInPlaceLeapfrog):
    """The same cases with a forked child running the kernel and this
    process consuming the slices it hands over in the shared map."""

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
        archive(sc, [], tmp_path / "a.npz")
        archive(sc, [], tmp_path / "b.npz")
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
        archive(sc, [], tmp_path / "streamed.npz")
        savez_of_stack(tmp_path / "stacked.npz", run(sc))
        streamed = (tmp_path / "streamed.npz").read_bytes()
        assert streamed == (tmp_path / "stacked.npz").read_bytes()

    def test_failed_solve_leaves_no_archive(self, tmp_path, monkeypatch):
        # one process or two, the solve stops on the first non-finite slice
        # with the same message, before any observer sees it
        sc = flat_scenario(duration=0.2)
        dt = stream(sc).dt
        seen = []

        def nan_on_block_3(j, curr):
            if j == 3:
                curr[:] = np.nan

        wrap_kernel(monkeypatch, nan_on_block_3)
        with pytest.raises(FieldBlowup) as info:
            archive(sc, [lambda t, u: seen.append(t)], tmp_path / "f.npz")
        assert str(info.value) == "non-finite field at t=%g" % (3 * sc.store_stride * dt)
        assert len(seen) == 3  # the initial slice and blocks 1 and 2
        assert not (tmp_path / "f.npz").exists()
        assert_no_child()


class TestFieldArchiveSplit(TestFieldArchive):
    """The same archives, and the same failed solve, with a forked child
    running the kernel."""

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
            archive(flat_scenario(duration=0.2), [third_fails], tmp_path / "f.npz")
        assert len(calls) == 3
        assert not (tmp_path / "f.npz").exists()
        assert_no_child()

    def test_child_failure_stops_the_solve(self, tmp_path, monkeypatch):
        use_parts(monkeypatch, 2)
        parent = os.getpid()

        def fails_in_child(j, curr):
            if os.getpid() != parent and j == 3:
                raise RuntimeError("kernel failed")

        wrap_kernel(monkeypatch, fails_in_child)
        with pytest.raises(RuntimeError, match="child process ended early"):
            archive(flat_scenario(duration=0.2), [], tmp_path / "f.npz")
        assert not (tmp_path / "f.npz").exists()
        assert_no_child()

    def test_split_time_sliced_on_one_core(self, monkeypatch):
        # the two processes share one core, so the scheduler interleaves the
        # exchange of every block (one per step here) in ever new orders
        cpu = [min(os.sched_getaffinity(0))]
        monkeypatch.setattr(wave, "_cpu_split", lambda: (cpu, cpu))
        sc = inplace_scenario(store_stride=1, duration=1.0)
        fld = run(sc)
        assert fld.processes == 2 and fld.cpus == (cpu, cpu)
        u, ts, energy, _ = reference_leapfrog(sc, fld.dt)
        assert np.array_equal(fld.u, u) and np.array_equal(fld.energy, energy)
        assert_no_child()

    def test_one_usable_cpu_solves_in_one_part(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        rec = stream(flat_scenario(duration=0.2))
        assert rec.processes == 1 and rec.cpus is None

    def test_split_gives_the_child_one_cpu(self, monkeypatch):
        # asks the kernel for no mask: the split is read off a faked one
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 0, 2, 7})
        assert wave._cpu_split() == ([0, 2, 5], [7])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 4})
        assert wave._cpu_split() == ([1], [4])

    def test_sides_run_on_disjoint_cpus(self, monkeypatch):
        # read on every slice: the child has pinned itself before it sends
        # the first one
        if wave._cpu_split() is None:
            pytest.skip("this process may run on one CPU only")
        mask = os.sched_getaffinity(0)
        parent_cpus, child_cpus = wave._cpu_split()
        fork, pids, seen = os.fork, [], []

        def recording_fork():
            pids.append(fork())
            return pids[-1]

        def masks(t, u):
            seen.append((os.sched_getaffinity(0), os.sched_getaffinity(pids[0])))

        monkeypatch.setattr(os, "fork", recording_fork)
        sc = flat_scenario(duration=0.2)
        rec = stream(sc, [masks])
        assert rec.cpus == (parent_cpus, child_cpus)
        assert len(seen) == stored_slices(sc)
        assert all(mine == set(parent_cpus) and child == set(child_cpus)
                   for mine, child in seen)
        assert not set(parent_cpus) & set(child_cpus)
        assert set(parent_cpus) | set(child_cpus) == mask
        assert os.sched_getaffinity(0) == mask
        assert_no_child()

    @pytest.mark.parametrize("ending", ["success", "blowup", "observer", "child"])
    def test_caller_mask_is_restored(self, monkeypatch, ending):
        # the parent runs on its side's CPUs during the solve and on its own
        # mask again after it, however the solve ends
        use_parts(monkeypatch, 2)
        parent_cpus = set(wave._cpu_split()[0])
        mask, parent, during = os.sched_getaffinity(0), os.getpid(), []

        def fault(j, curr):
            if j == 3 and ending == "blowup":
                curr[:] = np.nan
            if j == 3 and ending == "child" and os.getpid() != parent:
                raise RuntimeError("kernel failed")

        def observer(t, u):
            during.append(os.sched_getaffinity(0))
            if len(during) == 3 and ending == "observer":
                raise RuntimeError("observer failed")

        wrap_kernel(monkeypatch, fault)
        error = {"success": None, "blowup": FieldBlowup,
                 "observer": RuntimeError, "child": RuntimeError}[ending]
        if error is None:
            assert stream(flat_scenario(duration=0.2), [observer]).processes == 2
        else:
            with pytest.raises(error):
                stream(flat_scenario(duration=0.2), [observer])
        assert during and all(cpus == parent_cpus for cpus in during)
        assert os.sched_getaffinity(0) == mask
        assert_no_child()

    def test_slow_consumer_reads_every_set_whole(self, monkeypatch):
        # the observer sleeps before it copies the first slices, so a child
        # that wrote a set the parent still reads would change the copy; it
        # also sleeps on the last ones, so a child that exited after its last
        # block would meet the parent's acknowledgements with a closed pipe
        use_parts(monkeypatch, 2)
        sc = inplace_scenario(store_stride=2, duration=0.5)
        n_slices = stored_slices(sc)
        kept = []

        def slow(t, u):
            if len(kept) < 6 or len(kept) >= n_slices - 3:
                time.sleep(0.05)
            kept.append(u.copy())

        rec = stream(sc, [slow])
        assert rec.processes == 2
        u, ts, energy, _ = reference_leapfrog(sc, rec.dt)
        assert np.array_equal(np.asarray(kept), u)
        assert np.array_equal(rec.ts, ts) and np.array_equal(rec.energy, energy)
        assert_no_child()


class TestKernel:
    """The kernel is compiled on the first solve into its cache and loaded
    from there after; a compiler that fails is a named error before any
    step, and the kernel takes only arrays that fit one grid."""

    @pytest.fixture
    def cold(self, monkeypatch, tmp_path):
        monkeypatch.setattr(wave, "_kernel_lib", None)
        monkeypatch.setattr(wave, "KERNEL_CACHE", tmp_path / "cache")
        return tmp_path / "cache"

    def test_warm_cache_runs_no_compiler(self, cold, monkeypatch):
        _, build_s = wave._kernel()
        assert build_s > 0
        built = list(cold.iterdir())  # the library alone: no temporary name is left
        assert len(built) == 1 and built[0].match("_leapfrog.*.so")
        assert wave._kernel()[1] == 0.0  # loaded in this process already

        def no_compiler(*args, **kwargs):
            raise AssertionError("the cached library was compiled again")

        monkeypatch.setattr(subprocess, "run", no_compiler)
        monkeypatch.setattr(wave, "_kernel_lib", None)
        assert wave._kernel()[1] == 0.0
        assert stream(flat_scenario(duration=0.05)).kernel_build_s == 0.0

    def test_build_deletes_stale_libraries(self, cold):
        cold.mkdir()
        (cold / "_leapfrog.0123456789abcdef.so").write_bytes(b"an older kernel")
        (cold / "unrelated.so").write_bytes(b"")
        lib, build_s = wave._kernel()
        assert build_s > 0
        left = sorted(p.name for p in cold.iterdir())
        assert left == [Path(lib._name).name, "unrelated.so"]
        assert left[0].startswith("_leapfrog.") and left[0] != "_leapfrog.0123456789abcdef.so"

    def test_unwritable_cache_builds_in_a_private_directory(self, cold, monkeypatch, tmp_path):
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(wave, "KERNEL_CACHE", tmp_path / "file" / "cache")
        monkeypatch.setattr(wave, "_private_cache", None)
        rec = stream(flat_scenario(duration=0.05))
        assert rec.kernel_build_s > 0
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    @pytest.mark.parametrize("parts", [1, 2])
    def test_missing_compiler_is_a_named_error(self, cold, monkeypatch, tmp_path, parts):
        use_parts(monkeypatch, parts)
        monkeypatch.setattr(wave, "CC", ("wavediff-no-such-cc", *wave.CC[1:]))
        with pytest.raises(KernelBuildError) as info:
            archive(flat_scenario(duration=0.05), [], tmp_path / "f.npz")
        err = info.value
        assert err.command[0] == "wavediff-no-such-cc" and "wavediff-no-such-cc" in err.stderr
        assert "wavediff-no-such-cc" in str(err) and "\n" not in str(err)
        assert not (tmp_path / "f.npz").exists()
        assert not cold.exists() or not list(cold.iterdir())
        assert_no_child()

    def test_failed_compile_carries_its_stderr(self, cold, monkeypatch):
        monkeypatch.setattr(wave, "CC", (*wave.CC, "-fwavediff-no-such-option"))
        with pytest.raises(KernelBuildError) as info:
            wave._kernel()
        assert "wavediff-no-such-option" in info.value.stderr
        assert "wavediff-no-such-option" in str(info.value) and "\n" not in str(info.value)
        assert not list(cold.iterdir())  # the temporary output is removed

    def test_kernel_takes_contiguous_float64_grids_only(self):
        lib, _ = wave._kernel()
        n = 101
        ramps, c2h, good = (np.ones(20), np.ones(20)), np.ones(n - 1), np.zeros((3, n))
        for levels, half in [(np.zeros((3, n), np.float32), c2h),
                             (np.zeros((3, 2 * n))[:, ::2], c2h),
                             (good, c2h.astype(np.float32))]:
            with pytest.raises(TypeError, match="contiguous float64"):
                next(wave._leapfrog(lib, 0.09, 0.1, [1], half, ramps, levels))
        for levels, half, damp in [(good, np.ones(n), ramps),
                                   (np.zeros((3, n - 1)), c2h, ramps),
                                   (good, c2h, (np.ones(60), np.ones(60)))]:
            with pytest.raises(ValueError, match="do not fit"):
                next(wave._leapfrog(lib, 0.09, 0.1, [1], half, damp, levels))

    def test_one_kernel_call_per_stored_block(self, monkeypatch):
        # a ragged stride: one call checks the launch levels, every later
        # block but the last is 7 steps, and each is one call, however many
        # steps it holds, that also returns the slice's energy
        use_parts(monkeypatch, 1)
        lib, _ = wave._kernel()
        steps = []

        class Counting:
            def leapfrog(self, *args):
                steps.append(args[-1])
                return lib.leapfrog(*args)

        monkeypatch.setattr(wave, "_kernel", lambda: (Counting(), 0.0))
        sc = inplace_scenario(store_stride=7)
        fld = run(sc)
        u, ts, energy, n_steps = reference_leapfrog(sc, fld.dt)
        assert n_steps % 7 and steps == [0] + [7] * (n_steps // 7) + [n_steps % 7]
        assert len(steps) == fld.ts.size
        assert np.array_equal(fld.u, u) and np.array_equal(fld.energy, energy)


GUARD = 4  # values on each side of a grid that the kernel must not touch


def guarded(rng, n):
    """A grid of n random values inside sentinels: the view and its buffer."""
    buf = np.full(n + 2 * GUARD, -7.25)
    buf[GUARD:-GUARD] = rng.standard_normal(n)
    return buf[GUARD:-GUARD], buf


def untouched(buf):
    return np.all(buf[:GUARD] == -7.25) and np.all(buf[-GUARD:] == -7.25)


def check_kernel_call(lib, n, n_lo, n_hi, steps, rng):
    """One ``leapfrog`` call of ``steps`` steps on random levels of n nodes
    with sponge ramps of n_lo and n_hi nodes, against ``reference_step`` and
    ``reference_energy``: all three level buffers, both density arrays, the
    flag and the summed energy bit for bit, and the guard values around
    every array untouched."""
    c2h, dt, dx = rng.uniform(0.5, 2.0, n - 1), 0.013, 0.021
    lam2 = (dt / dx) ** 2
    damp_lo, damp_hi = rng.uniform(0.9, 1.0, n_lo), rng.uniform(0.9, 1.0, n_hi)
    damp = np.ones(n)
    damp[:n_lo], damp[n - n_hi :] = damp_lo, damp_hi
    levels = [guarded(rng, n) for _ in range(3)]
    levels[2][0][:] = np.nan  # every node is written
    (kinetic, kin_buf), (potential, pot_buf) = guarded(rng, n), guarded(rng, n - 1)
    want_old, want_new, want_older = (u.copy() for u, _ in levels)
    for _ in range(steps):
        want_older = want_old
        want_old, want_new = reference_step(want_old, want_new, c2h, lam2, damp)
    finite = lib.leapfrog(*(u.ctypes.data for u, _ in levels), n, c2h.ctypes.data,
                          lam2, damp_lo.ctypes.data, n_lo, damp_hi.ctypes.data, n_hi,
                          dt, dx, kinetic.ctypes.data, potential.ctypes.data, steps)
    new, old = levels[(1 + steps) % 3][0], levels[steps % 3][0]
    older = levels[(2 + steps) % 3][0]
    where = (n, n_lo, n_hi, steps)
    assert finite == 1, where
    assert np.array_equal(old, want_old) and np.array_equal(new, want_new), where
    assert np.array_equal(older, want_older, equal_nan=True), where
    ut = (want_new - want_old) / dt
    assert np.array_equal(kinetic, ut * ut), where
    assert np.array_equal(potential, (c2h * (np.diff(want_new) / dx))
                          * (np.diff(want_old) / dx)), where
    assert (0.5 * dx * (np.sum(kinetic) + np.sum(potential))
            == reference_energy(want_new, want_old, c2h, dt, dx)), where
    assert all(untouched(buf) for _, buf in levels), where
    assert untouched(kin_buf) and untouched(pot_buf), where


class TestKernelSmallGrids:
    """The compiled loops against numpy on grids of 2 to 40 nodes, so every
    remainder of a vector loop's tail runs on its own, with sponge ramps
    that are empty, apart and meeting (n_lo + n_hi == n), and with 0, 1 and
    2 steps per call, so the energy densities are those of the two newest
    levels after the last rotation."""

    @pytest.mark.parametrize("n", range(2, 41))
    def test_step_matches_reference_step(self, n):
        lib, _ = wave._kernel()
        rng = np.random.default_rng(n)
        for (n_lo, n_hi), steps in itertools.product(
                [(0, 0), (n // 3, n // 3), (n // 2, n - n // 2)], [0, 1, 2]):
            check_kernel_call(lib, n, n_lo, n_hi, steps, rng)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_densities_match_staggered_energy(self, n):
        # through wave._leapfrog: its energy at stops 0, 1 and 3 (blocks of
        # 0, 1 and 2 steps) is the reference energy of the reference levels
        lib, _ = wave._kernel()
        rng = np.random.default_rng(100 + n)
        c2h, dt, dx = rng.uniform(0.5, 2.0, n - 1), 0.013, 0.021
        ramps = (rng.uniform(0.9, 1.0, n // 3), rng.uniform(0.9, 1.0, n // 3))
        damp = np.ones(n)
        damp[: n // 3], damp[n - n // 3 :] = ramps
        levels = rng.standard_normal((3, n))
        want_old, want_new = levels[0].copy(), levels[1].copy()
        done = 0
        for m, finite, energy, curr in wave._leapfrog(lib, dt, dx, [0, 1, 3], c2h, ramps, levels):
            for _ in range(m - done):
                want_old, want_new = reference_step(want_old, want_new, c2h, (dt / dx) ** 2, damp)
            done = m
            assert finite and np.array_equal(curr, want_new), m
            assert energy == reference_energy(want_new, want_old, c2h, dt, dx), m
        assert done == 3

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 40])
    def test_densities_flag_a_non_finite_current_level(self, n):
        lib, _ = wave._kernel()
        rng = np.random.default_rng(n)
        c2h, u_new, u_old = np.ones(n - 1), rng.standard_normal(n), rng.standard_normal(n)
        no_ramps = (np.empty(0), np.empty(0))

        def checked(old, new):
            # the launch check: no steps, so ``new`` is the newest level
            return next(wave._leapfrog(lib, 0.1, 0.1, [0], c2h, no_ramps,
                                       (old, new, np.empty(n))))

        for j in range(n):
            for bad in (np.inf, -np.inf, np.nan):
                new, old = u_new.copy(), u_old.copy()
                new[j] = bad
                _, finite, energy, _ = checked(old, new)
                assert not finite and np.isnan(energy)
                old[j], new[j] = bad, u_new[j]  # the previous level is not checked
                with np.errstate(invalid="ignore"):  # its energy is not finite
                    assert checked(old, new)[1]


# the kernel's tile width in nodes, read from its source
TILE = int(re.search(r"^#define TILE (\d+)$", wave.KERNEL_SOURCE.read_text(), re.M)[1])


class TestKernelTiles:
    """The space-time tiles of the kernel's sweep against numpy on grids
    around one, two and about four tiles wide, so levels are computed and
    damped across tile edges: sponge ramps that are empty, that span a tile
    edge (the left one on the widest grid, the right one on every grid) and
    that meet, and calls of 15, 16 and 17 steps, around the bundled 16 per
    stored slice, and of 33 and 48."""

    @pytest.mark.parametrize("n", [TILE - 1, TILE, TILE + 1, 2 * TILE, 2 * TILE + 1,
                                   4 * TILE + 52])
    def test_step_matches_reference_step(self, n):
        lib, _ = wave._kernel()
        rng = np.random.default_rng(n)
        for (n_lo, n_hi), steps in itertools.product(
                [(0, 0), (min(TILE + 9, n // 2), 60), (n // 2, n - n // 2)],
                [15, 16, 17, 33, 48]):
            check_kernel_call(lib, n, n_lo, n_hi, steps, rng)

    def test_skew_wider_than_a_tile(self):
        # with more steps than a tile has nodes, a tile's last steps update
        # nodes left of its first step's range, done by earlier tiles' steps
        lib, _ = wave._kernel()
        n = 2 * TILE + 1
        check_kernel_call(lib, n, 40, n // 2, TILE + 37, np.random.default_rng(7))


def discrete_energy(fld: WaveField, t_index: int) -> float:
    """Energy from stored slices with centered time differences."""
    dx = float(fld.xs[1] - fld.xs[0])
    dt_eff = float(fld.ts[t_index + 1] - fld.ts[t_index - 1])
    ut = (fld.u[t_index + 1] - fld.u[t_index - 1]) / dt_eff
    ux = np.diff(fld.u[t_index]) / dx
    c_half = 0.5 * (fld.c[1:] + fld.c[:-1])
    return float(0.5 * dx * (np.sum(ut * ut) + np.sum(c_half**2 * ux * ux)))


class TestEnergy:
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
        # symmetric scheme).  Each run starts at rest from a gaussian bump at
        # its source, and its trace reads the field at the receiver's node
        m = ConormalMetric(s0=2.5, amp=0.4)
        x_a, x_b = -1.0, 0.8
        sc = WaveScenario(
            metric=m, x_lo=-3.0, x_hi=3.0, duration=2.5, nx=3000,
            source=PulseSpec(center=x_a, width=0.05),
            sponge=SpongeSpec(cells=150), store_stride=2,
        )
        xs, c_nodes, c_half = wave._speeds(sc)
        dt, stops = wave._clock(sc, c_nodes, c_half)
        cells, strength = sc.sponge.cells, sc.sponge.strength
        ramps = (np.exp(-strength * dt * np.linspace(1.0, 0.0, cells) ** 2),
                 np.exp(-strength * dt * np.linspace(0.0, 1.0, cells) ** 2))
        lib, _ = wave._kernel()

        traces = {}
        for src, rec in ((x_a, x_b), (x_b, x_a)):
            levels = np.zeros((3, xs.size))
            levels[0] = levels[1] = np.exp(-0.5 * ((xs - src) / 0.05) ** 2)
            idx = int(np.argmin(np.abs(xs - rec)))
            blocks = wave._leapfrog(lib, dt, sc.dx, range(2, stops[-1] + 1, 2),
                                    c_half**2, ramps, levels)
            traces[(src, rec)] = np.array([curr[idx] for *_, curr in blocks])
        a = traces[(x_a, x_b)]
        b = traces[(x_b, x_a)]
        assert np.max(np.abs(a - b)) <= 1e-6 * max(np.max(np.abs(a)), 1e-30)

    def test_finite_propagation_speed(self):
        # compactly supported standing start: exactly zero outside the
        # scheme's stencil cone, and tiny just beyond the physical cone
        sc = flat_scenario(duration=0.6, nx=3000, store_stride=8)
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
