"""1+1D variable-coefficient wave solver in divergence form.

Leapfrog time stepping of  u_tt = d/dx( c(x)^2 du/dx )  with the squared
speed sampled at half cells, which keeps a discrete energy conserved and
never differentiates the merely-Hoelder coefficient.  Absorption at the
domain ends uses an exponential damping sponge whose leakage is measured in
calibration rather than assumed.  Sobolev-calibrated initial pulses are
synthesized in frequency space with fixed-seed random phases and launched
rightward using the exact discrete dispersion relation.

Every scenario launches its packet from two initial levels, with no
source term, so there is one time loop and one kernel.  ``Solve.stream`` is
that loop: it hands each stored slice to observers (the probe's window
spectra in ``pipeline`` and ``probe``, the ``field.npz`` writer in ``wave
run``) and keeps only the times, energies and grid.  ``stream`` is a solve
with nothing beside it; ``run`` streams into a stack of every slice for the
tests that read the whole history, and the pipeline never calls it.

Each stored slice is one call of one C function over the whole grid
(``_leapfrog.c``, loaded through ``ctypes``): it takes the steps from the
previous stored slice (none for the initial one), flags a non-finite field
and writes the staggered energy's per-node terms, which ``np.sum`` adds.
The library is compiled with ``cc`` on the first solve of a process, never
at import, and cached under the package's ``__pycache__``.  It sweeps a call's
steps in skewed space-time tiles that keep the levels in cache, with AVX2
and AVX-512 clones on x86-64.  Per node it performs the IEEE operations of
the tests' allocating numpy reference step and energy in their order,
whatever the tile or the clone, so the fields and the energies are
bit-identical to them.  Without a compiler a ``Solve`` raises
``KernelBuildError``.

When ``os.fork`` exists and the process may run on two CPUs, a ``Solve``
forks the run's one child, which runs the side jobs (the oracle scan and,
in the pipeline, the commutant check) and then the kernel on the highest
CPU of the caller's mask (``_cpu_split``); this process runs the observers
on the rest until it has reaped the child and restored its mask.  Left to
the scheduler, the two sides were found time-sliced on one CPU on every
slice, most likely because each pipe write wakes the reader on the
writer's CPU.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import mmap
import os
import pickle
import signal
import struct
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .escape import chi1
from .metric import ConormalMetric


class CFLViolation(ValueError):
    pass


class FieldBlowup(RuntimeError):
    pass


class SolverChildError(RuntimeError):
    """The solve's forked child failed: a side job raised or the child
    ended early.  The message is one line."""


@dataclass(frozen=True)
class PulseSpec:
    """Initial packet: either Sobolev-calibrated random-phase synthesis
    (``s_in`` set) or an analytic gaussian profile (``s_in`` None), optionally
    modulated by a carrier wavenumber to suppress long-wavelength content."""

    center: float
    width: float
    s_in: float | None = None
    seed: int = 1234
    carrier: float = 0.0


@dataclass(frozen=True)
class SpongeSpec:
    cells: int = 400
    strength: float = 60.0

    def __post_init__(self):
        if self.cells < 20:
            raise ValueError("sponge must be at least 20 cells wide")
        # a negative strength amplifies and an infinite one makes 0 * inf = nan
        # at the ramp's inner end; nan fails too
        if not 0 <= self.strength < math.inf:
            raise ValueError("sponge strength must not be negative or infinite, got %g"
                             % self.strength)


@dataclass(frozen=True)
class WaveScenario:
    metric: ConormalMetric
    x_lo: float
    x_hi: float
    duration: float
    nx: int
    source: PulseSpec
    cfl: float = 0.9
    sponge: SpongeSpec = field(default_factory=SpongeSpec)
    store_stride: int = 8

    def __post_init__(self):
        for name, value in (("x_lo", self.x_lo), ("x_hi", self.x_hi),
                            ("pulse_center", self.source.center)):
            if not math.isfinite(value):
                raise ValueError("%s must be finite, got %g" % (name, value))
        if self.nx < 1:
            raise ValueError("nx must be at least 1, got %d" % self.nx)
        if not self.x_hi > self.x_lo:
            raise ValueError("x_hi must exceed x_lo, got [%g, %g]" % (self.x_lo, self.x_hi))
        if self.sponge.cells > self.nx + 1:
            raise ValueError("sponge of %d cells does not fit the %d grid nodes"
                             % (self.sponge.cells, self.nx + 1))
        if not 0 < self.duration < math.inf:  # written so that nan fails too
            raise ValueError("duration must be positive and finite, got %g" % self.duration)
        if not 0 < self.source.width < math.inf:
            raise ValueError("pulse width must be positive and finite, got %g"
                             % self.source.width)
        if self.store_stride < 1:
            raise ValueError("store_stride must be at least 1, got %d" % self.store_stride)
        if not self.cfl > 0:
            raise ValueError("CFL factor must be positive, got %g" % self.cfl)
        if self.cfl > 0.9 + 1e-12:
            raise CFLViolation("CFL factor must not exceed 0.9")
        if self.source.s_in is not None:
            if not -1.0 <= self.source.s_in <= 4.0:
                raise ValueError("pulse order must lie in [-1, 4]")
        if self.metric.amp != 0.0:
            # keep the packet's full envelope well clear of the interface
            if abs(self.source.center) < 10 * self.source.width:
                raise ValueError("source must sit at least 10 pulse widths from the interface")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.nx

    def grid(self) -> np.ndarray:
        return self.x_lo + self.dx * np.arange(self.nx + 1)


def smooth_envelope(x, center, width):
    """Compactly supported plateau bump: 1 within |x-c| <= width, 0 beyond
    3*width, smooth in between."""
    u = (np.abs(np.asarray(x, float) - center) - width) / (2.0 * width)
    return 1.0 - np.asarray(chi1(u))


def make_pulse(scenario: WaveScenario) -> np.ndarray:
    """Initial displacement profile on the scenario grid.

    For Sobolev-calibrated pulses the spatial spectrum magnitude is
    <xi>^-(s_in + 0.55) with fixed-seed random phases, band-tapered above a
    quarter of the grid Nyquist, then localized by a smooth compact envelope;
    the result lies in H^s exactly for s < s_in + 0.05.
    """
    src = scenario.source
    xs = scenario.grid()
    if src.s_in is None:
        prof = np.exp(-0.5 * ((xs - src.center) / src.width) ** 2)
        if src.carrier:
            prof = prof * np.cos(src.carrier * (xs - src.center))
        return prof
    n = xs.size
    dx = scenario.dx
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=dx)
    nyq = np.pi / dx
    decay = src.s_in + 0.5 + 0.05
    mag = (1.0 + k**2) ** (-decay / 2.0)
    # roll off between Nyquist/4 and Nyquist/2.8 so the top probe band stays clean
    k_top = nyq / 4.0
    roll = 1.0 - np.asarray(chi1((k - 1.02 * k_top) / (0.35 * k_top)))
    rng = np.random.default_rng(src.seed)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=k.size))
    spec = mag * roll * phases
    spec[0] = 0.0
    raw = np.fft.irfft(spec, n=n)
    raw /= np.max(np.abs(raw))
    env = smooth_envelope(xs, src.center, src.width)
    return raw * env


def _discrete_omega(k, c_ref, dt, dx):
    """Leapfrog dispersion relation on a uniform-speed patch."""
    s = np.clip(c_ref * dt / dx * np.abs(np.sin(k * dx / 2.0)), -1.0, 1.0)
    return (2.0 / dt) * np.arcsin(s)


def _one_way_previous(u0, scenario: WaveScenario, dt: float) -> np.ndarray:
    """Field one step in the past for a purely rightward packet.

    Uses the exact discrete dispersion relation of the scheme at the local
    (constant) speed around the source, so the launched packet has no
    backward-running residual beyond rounding.
    """
    src = scenario.source
    xs = scenario.grid()
    c_ref = scenario.metric.speed(src.center)
    n = xs.size
    spec = np.fft.rfft(u0)
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=scenario.dx)
    omega = _discrete_omega(k, c_ref, dt, scenario.dx)
    # rightward packet u(x, t) = sum spec exp(i(kx - wt)); previous step t=-dt
    return np.fft.irfft(spec * np.exp(1j * omega * dt), n=n)


def _speeds(scenario: WaveScenario):
    """The grid, the speed at its nodes and at its half cells."""
    xs = scenario.grid()
    c_nodes = np.asarray(scenario.metric.speed(xs), float)
    c_half = np.asarray(scenario.metric.speed(0.5 * (xs[1:] + xs[:-1])), float)
    return xs, c_nodes, c_half


def _clock(scenario: WaveScenario, c_nodes, c_half):
    """Time step and stored steps.  The step is the CFL factor times dx over
    the largest speed at the nodes and half cells; the stored steps are the
    initial one, every ``store_stride``-th and the last, which is the step
    count."""
    dx = scenario.dx
    c_max = float(max(c_nodes.max(), c_half.max()))
    dt = scenario.cfl * dx / c_max
    n_steps = int(np.ceil(scenario.duration / dt))
    if c_max * dt / dx > 0.9 + 1e-12:
        raise CFLViolation("effective CFL number exceeds 0.9")
    stride = scenario.store_stride
    return dt, [0, *range(stride, n_steps, stride), n_steps]


@dataclass
class WaveRecord:
    """What ``stream`` keeps of a run: everything but the slices."""

    ts: np.ndarray
    xs: np.ndarray
    c: np.ndarray           # speed at the nodes
    dt: float
    energy: np.ndarray      # staggered discrete energy per stored slice
    max_trust_freq: float   # dispersion-limited wavenumber for probing
    steps: int              # leapfrog steps taken
    cpus: tuple | None      # the CPUs of this process and of the forked child
                            # that ran the kernel; None when no child ran
    kernel_build_s: float   # compiling the kernel; 0 when it was loaded or cached

    @property
    def processes(self) -> int:
        """2 when a forked child ran the kernel, else 1."""
        return 1 if self.cpus is None else 2


class KernelBuildError(RuntimeError):
    """The leapfrog kernel could not be compiled: ``command`` is the compiler
    command that failed and ``stderr`` what it printed, or why it could not
    start."""

    def __init__(self, command, stderr: str):
        self.command, self.stderr = list(command), stderr
        lines = stderr.strip().splitlines() or ["no output"]
        why = next((line for line in lines if "error" in line), lines[-1])
        super().__init__("cannot build the leapfrog kernel: `%s` failed: %s"
                         % (" ".join(self.command), why.strip()))


# -ffp-contract=off keeps the compiler from fusing a multiply and an add
# (aarch64 gcc and clang do by default), which would change the bits; -O3
# runs the loops on vector registers, lane by lane the same operations;
# never -ffast-math or -march=native
CC = ("cc", "-O3", "-ffp-contract=off", "-fPIC", "-shared")
KERNEL_SOURCE = Path(__file__).with_name("_leapfrog.c")
# built libraries, named by a hash of the source and the compiler command
KERNEL_CACHE = Path(__file__).with_name("__pycache__")

_kernel_lib = None  # the library once loaded in this process
_private_cache = None  # a TemporaryDirectory when KERNEL_CACHE cannot be written


def _build(path: Path) -> None:
    """Compile the kernel to ``path`` through a temporary name in its
    directory, so a process that loads it sees the whole file or none."""
    import subprocess  # only a cold cache compiles: kept off the import path

    tmp = path.with_name("%s.%d.tmp" % (path.name, os.getpid()))
    command = [*CC, "-o", str(tmp), str(KERNEL_SOURCE)]
    try:
        done = subprocess.run(command, capture_output=True, text=True)
    except OSError as err:  # the compiler does not exist or cannot start
        raise KernelBuildError(command, str(err)) from None
    if done.returncode:
        tmp.unlink(missing_ok=True)
        raise KernelBuildError(command, done.stderr)
    os.replace(tmp, path)


def _kernel():
    """The leapfrog library and the seconds this call spent compiling it.

    It is compiled on the first solve of a process, never at import, into
    ``KERNEL_CACHE`` as ``_leapfrog.<hash>.so``, or into a private temporary
    directory of the process when that one cannot be written.  A build into
    ``KERNEL_CACHE`` deletes every other ``_leapfrog.*.so`` there.  The
    seconds are 0 when the library was loaded already or came from the cache.
    """
    global _kernel_lib, _private_cache
    if _kernel_lib is not None:
        return _kernel_lib, 0.0
    key = KERNEL_SOURCE.read_bytes() + "\0".join(CC).encode()
    path = KERNEL_CACHE / ("_leapfrog.%s.so" % hashlib.sha256(key).hexdigest()[:16])
    build_s = 0.0
    if not path.is_file():
        t0 = time.perf_counter()
        try:
            KERNEL_CACHE.mkdir(exist_ok=True)
            writable = os.access(KERNEL_CACHE, os.W_OK)
        except OSError:
            writable = False
        if not writable:
            if _private_cache is None:
                _private_cache = tempfile.TemporaryDirectory(prefix="wavediff-")
            path = Path(_private_cache.name) / path.name
        _build(path)
        if writable:  # the libraries of older sources or compilers are dead
            for stale in KERNEL_CACHE.glob("_leapfrog.*.so"):
                if stale != path:
                    stale.unlink(missing_ok=True)  # another process may clean up too
        build_s = time.perf_counter() - t0
    lib = ctypes.CDLL(str(path))
    ptr, size, real = ctypes.c_void_p, ctypes.c_long, ctypes.c_double
    lib.leapfrog.argtypes = [ptr, ptr, ptr, size, ptr, real, ptr, size, ptr, size,
                             real, real, ptr, ptr, size]
    lib.leapfrog.restype = ctypes.c_int
    _kernel_lib = lib
    return lib, build_s


def _leapfrog(lib, dt, dx, stops, c2h, ramps, levels):
    """Advance the three ``levels`` (previous, current, next) in place with
    the compiled kernel: one call per stored step ``m`` of ``stops``, an
    increasing sequence, that takes the steps up to it (none for step 0).
    Yield ``(m, finite, energy, u_curr)``: whether the newest level
    ``u_curr`` is finite, and the staggered energy of the two newest levels
    (nan when not), whose per-node terms the kernel writes and ``np.sum``
    adds.  ``ramps`` are the sponge's damping factors on the first and on
    the last nodes.  Every length the kernel sees is taken from the arrays
    handed to it, after they are checked to be contiguous ``float64``.
    """
    damp_lo, damp_hi = ramps
    for a in (*levels, c2h, damp_lo, damp_hi):
        if not (a.dtype == np.float64 and a.ndim == 1 and a.flags.c_contiguous):
            raise TypeError("the leapfrog kernel takes 1-d contiguous float64 arrays")
    n = levels[0].size
    if not (n >= 2 and all(u.size == n for u in levels) and c2h.size == n - 1
            and damp_lo.size + damp_hi.size <= n):
        raise ValueError("the leapfrog's arrays do not fit one grid of %d nodes" % n)
    kinetic, potential = np.empty(n), np.empty(n - 1)
    fixed = (n, c2h.ctypes.data, (dt / dx) ** 2, damp_lo.ctypes.data, damp_lo.size,
             damp_hi.ctypes.data, damp_hi.size, dt, dx, kinetic.ctypes.data,
             potential.ctypes.data)
    rows = list(levels)
    addresses = [u.ctypes.data for u in rows]  # each read costs about 1.4 us
    m = 0
    for stop in stops:
        k, m = stop - m, stop
        finite = lib.leapfrog(*addresses, *fixed, k)
        r = k % 3  # the kernel rotated the levels k times
        rows, addresses = rows[r:] + rows[:r], addresses[r:] + addresses[:r]
        energy = 0.5 * dx * (np.sum(kinetic) + np.sum(potential)) if finite else math.nan
        yield m, bool(finite), energy, rows[1]


def _cpu_split():
    """The CPU sets of a ``Solve``'s two processes, this one's and its
    forked child's: the child takes the highest CPU of this process's mask
    and this process keeps the rest.  None, and no child, when ``os.fork``
    is missing or fewer than two CPUs are usable."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[:-1], cpus[-1:]) if len(cpus) >= 2 else None


# the child's report of one slice: its finiteness flag and its energy, in
# one write under PIPE_BUF, so the parent reads the whole message or none
REPORT = struct.Struct("=?d")


def timed(job):
    """``job()`` and its wall time in seconds."""
    t0 = time.perf_counter()
    return job(), time.perf_counter() - t0


class Solve:
    """One leapfrog solve of a scenario and its side jobs, run by a forked
    child on a CPU of its own when ``_cpu_split`` allows.

    Creating it loads the kernel, so a missing compiler raises
    ``KernelBuildError`` before anything runs.  With a split it then forks
    one child onto the split's second CPU set and moves this process onto
    the first, where it may work meanwhile (the pipeline traces).  The child
    runs the ``sides``, a mapping of names to jobs, in their order, and
    sends each job's pickled ``(result, seconds)`` up a pipe, or one line
    saying why it failed and nothing more.  Then it builds the launch levels
    and runs the kernel, writes each stored field into one of two rows of a
    shared map and sends the slice's ``REPORT``; it overwrites a row only
    once this process has acknowledged the slice two back.  Without a split
    nothing forks, and ``stream`` and ``side_result`` run their jobs inline.

    ``stream`` reaps the child when the slices end, and leaving the solve's
    ``with`` block kills and reaps one still running; either restores this
    process's CPU mask.  A side job that fails in the child raises a
    ``SolverChildError`` naming it, and is not retried inline.
    """

    def __init__(self, scenario: WaveScenario, sides=()):
        self.scenario, self.sides = scenario, dict(sides)
        self.lib, self.build_s = _kernel()  # before the fork, so the child never compiles
        self.xs, self.c_nodes, c_half = _speeds(scenario)
        self.c2h = c_half**2
        self.dt, self.stops = _clock(scenario, self.c_nodes, c_half)
        self.cpus = _cpu_split()
        self._outcomes = {}  # name -> (result, seconds, child cpus or None)
        self._pid = self._down = self._up = self._mask = None
        if self.cpus is None:
            return
        self._mask = os.sched_getaffinity(0)
        # two rows, so one is read while the next is written
        n = self.xs.size
        self._shared = np.frombuffer(mmap.mmap(-1, 2 * n * 8), float).reshape(2, n)
        down, up = os.pipe(), os.pipe()  # to the child, from the child
        self._down, self._up = down[1], open(up[0], "rb")
        try:
            self._pid = os.fork()
            if not self._pid:
                self._child(down[0], up[1])  # never returns
            os.sched_setaffinity(0, self.cpus[0])
        except BaseException:
            self.close()
            raise
        finally:
            os.close(down[0])
            os.close(up[1])

    def _child(self, down, up):
        """The child's part, as the class describes it; never returns.  It
        exits only when ``down`` reads end of file, so this process's last
        acknowledgement never meets a closed pipe."""
        status = 1
        try:
            os.sched_setaffinity(0, self.cpus[1])
            os.close(self._down)
            self._up.close()
            for job in self.sides.values():
                try:
                    outcome = timed(job)
                except Exception as err:
                    outcome = ("%s: %s" % (type(err).__name__, err)).splitlines()[0]
                with open(up, "wb", closefd=False) as fh:
                    pickle.dump(outcome, fh)
                if isinstance(outcome, str):
                    return  # the finally exits with status 1
            for j, (_, finite, energy, curr) in enumerate(self._blocks()):
                if j >= 2 and not os.read(down, 1):
                    break  # the parent has stopped
                self._shared[j % 2] = curr
                os.write(up, REPORT.pack(finite, energy))
            while os.read(down, 1):
                pass
            status = 0
        finally:
            # never unwind into the caller, which may hold open files
            os._exit(status)

    def _blocks(self):
        """The kernel's stored slices, from launch levels built here: in the
        child when there is one, so this process never holds them."""
        sc, dt, n = self.scenario, self.dt, self.xs.size
        # three rotating time levels, updated in place
        levels = np.zeros((3, n))
        levels[1] = make_pulse(sc)
        levels[0] = _one_way_previous(levels[1], sc, dt)
        # sponge: exponential damping ramp applied multiplicatively to both levels;
        # damp is exactly 1.0 between the two ramps, so only their cells are touched;
        # on a grid narrower than two ramps the right one starts where the left ends
        sp = sc.sponge
        damp = np.ones(n)
        damp[: sp.cells] = np.exp(-sp.strength * dt * np.linspace(1.0, 0.0, sp.cells) ** 2)
        damp[-sp.cells :] = np.exp(-sp.strength * dt * np.linspace(0.0, 1.0, sp.cells) ** 2)
        ramps = (damp[: sp.cells], damp[max(sp.cells, n - sp.cells) :])
        return _leapfrog(self.lib, dt, sc.dx, self.stops, self.c2h, ramps, levels)

    def _received(self):
        """Yield ``(m, finite, energy, u_curr)`` of each stored step ``m`` once
        the child reports it, and acknowledge the slice when the consumer
        asks for the next one."""
        for j, m in enumerate(self.stops):
            report = self._up.read(REPORT.size)
            if len(report) != REPORT.size:
                raise SolverChildError("the solver's child process ended early")
            yield (m, *REPORT.unpack(report), self._shared[j % 2])
            try:
                os.write(self._down, b"\0")
            except BrokenPipeError:
                raise SolverChildError("the solver's child process ended early") from None

    def _take_outcomes(self):
        """Take the outcome of every side job the child has not yet sent,
        in the jobs' order."""
        for name in list(self.sides)[len(self._outcomes) :]:
            try:
                outcome = pickle.load(self._up)
            except (EOFError, pickle.UnpicklingError):
                outcome = None
            if not isinstance(outcome, tuple):
                status = os.waitpid(self._pid, 0)[1]
                self._pid = None
                # a job that raised sent one line; a child that died sent none
                why = outcome or "exit code %d" % os.waitstatus_to_exitcode(status)
                raise SolverChildError("the %s's child process failed: %s" % (name, why))
            self._outcomes[name] = (*outcome, self.cpus[1])

    def side_result(self, name):
        """The side job ``name``'s result, its wall time where it ran and
        the CPUs of the child that ran it, None when it ran inline: the
        outcome the child sends before its slices, or, when no child runs
        the jobs, the job run inline now; either is taken once."""
        if self._pid is not None:
            self._take_outcomes()
        if name not in self._outcomes:
            self._outcomes[name] = (*timed(self.sides[name]), None)
        return self._outcomes[name]

    def stream(self, observers=()) -> WaveRecord:
        """Leapfrog-integrate the scenario; deterministic for fixed inputs.

        At each stored slice every observer is called as ``observer(t, u)``,
        where ``u`` is the solver's live level: an observer that keeps it must
        copy it.  No slice stack is held, so the memory is a few grid arrays
        whatever the duration.

        The kernel checks each stored slice as it computes it: a non-finite
        slice raises ``FieldBlowup`` before any observer sees it, and the
        others add their energy to the record.  When the child runs the
        kernel, this process first takes every side job's outcome and then
        runs the observers on the slices the child hands over; else the
        kernel runs here.  The record's ``cpus`` says which path ran.  The
        solve is closed when the stream returns or raises.
        """
        ts = np.empty(len(self.stops))
        energy = np.empty(len(self.stops))
        forked = self._pid is not None
        try:
            if forked:
                self._take_outcomes()
            for j, (m, finite, e, curr) in enumerate(
                    self._received() if forked else self._blocks()):
                t = m * self.dt
                if not finite:
                    raise FieldBlowup("non-finite field at t=%g" % t)
                for obs in observers:
                    obs(t, curr)
                ts[j] = t
                energy[j] = e
        finally:
            self.close()

        # trustworthy wavenumber: group-velocity error under 2 percent
        dx = self.scenario.dx
        k_probe = np.linspace(1e-3, np.pi / dx * 0.5, 2048)
        cfl_eff = self.c_nodes.min() * self.dt / dx
        vg = np.cos(k_probe * dx / 2.0) / np.sqrt(
            np.clip(1.0 - (cfl_eff * np.sin(k_probe * dx / 2.0)) ** 2, 1e-12, None)
        )
        ok = np.abs(vg - 1.0) < 0.02
        max_trust = float(k_probe[ok].max()) if np.any(ok) else float(k_probe[0])

        return WaveRecord(ts=ts, xs=self.xs, c=self.c_nodes, dt=self.dt, energy=energy,
                          max_trust_freq=max_trust, steps=self.stops[-1],
                          cpus=self.cpus if forked else None, kernel_build_s=self.build_s)

    def close(self):
        """Close the pipes, kill and reap a child still running and restore
        this process's CPU mask; calling it again does nothing."""
        if self._up is not None:
            os.close(self._down)
            self._up.close()
            self._down = self._up = None
        if self._pid is not None:
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None
        if self._mask is not None:
            os.sched_setaffinity(0, self._mask)
            self._mask = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def stream(scenario: WaveScenario, observers=()) -> WaveRecord:
    """``Solve.stream`` of a solve with no side job."""
    return Solve(scenario).stream(observers)


@dataclass
class WaveField(WaveRecord):
    """A run's record with every stored slice."""

    u: np.ndarray           # (n_slices, nx + 1)


def run(scenario: WaveScenario) -> WaveField:
    """``stream`` into a stack of every stored slice: the whole field
    history, for the tests that read it."""
    with Solve(scenario) as solve:
        u = np.empty((len(solve.stops), scenario.nx + 1))
        rows = iter(u)

        def keep(t, u_curr):
            next(rows)[:] = u_curr

        return WaveField(**vars(solve.stream([keep])), u=u)
