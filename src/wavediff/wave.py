"""1+1D variable-coefficient wave solver in divergence form.

Leapfrog time stepping of  u_tt = d/dx( c(x)^2 du/dx )  with the squared
speed sampled at half cells, which keeps a discrete energy conserved and
never differentiates the merely-Hoelder coefficient.  Absorption at the
domain ends uses an exponential damping sponge whose leakage is measured in
calibration rather than assumed.  Sobolev-calibrated initial pulses are
synthesized in frequency space with fixed-seed random phases and launched
one-directionally using the exact discrete dispersion relation.

``stream`` is the one time loop: it hands each stored slice to observers
(the probe's window spectra, the ``field.npz`` writer) and keeps only the
times, energies and grid.  ``run`` streams into a stack of every slice, for
tests and callers that want the whole history.

When ``os.fork`` exists, the process may run on two CPUs and each part
would hold at least ``MIN_PART_NODES`` nodes, ``stream`` forks one child
after building the launch levels.  The parent advances the left
``PARENT_SHARE`` of the grid (the smaller part, since it also runs the
observers and the energy) and the child the rest.  Each part keeps
``store_stride`` ghost nodes on its inner side, so the two meet once per
stored slice, not once per step: both write their owned nodes of both
levels into a double-buffered shared map, swap one byte over a pair of
pipes and refresh their ghosts from it, and the parent reads the full
level while the child already runs the next block.  Every node sees the
operations of the one-part loop in the same order, so the values are
bit-identical to it whichever path runs.
"""

from __future__ import annotations

import mmap
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .escape import chi1
from .metric import ConormalMetric


# the split pays for its block exchange only when each part holds this many nodes
MIN_PART_NODES = 2048
# the parent's share of the grid is the smaller one: it also runs the observers
PARENT_SHARE = 0.30


class CFLViolation(ValueError):
    pass


class FieldBlowup(RuntimeError):
    pass


@dataclass(frozen=True)
class PulseSpec:
    """Initial packet: either Sobolev-calibrated random-phase synthesis
    (``s_in`` set) or an analytic gaussian profile (``s_in`` None), optionally
    modulated by a carrier wavenumber to suppress long-wavelength content."""

    center: float
    width: float
    s_in: float | None = None
    seed: int = 1234
    direction: int = +1  # +1 launches rightward
    carrier: float = 0.0


@dataclass(frozen=True)
class SpongeSpec:
    cells: int = 400
    strength: float = 60.0

    def __post_init__(self):
        if self.cells < 20:
            raise ValueError("sponge must be at least 20 cells wide")


@dataclass(frozen=True)
class WaveScenario:
    metric: ConormalMetric
    x_lo: float
    x_hi: float
    duration: float
    nx: int
    cfl: float = 0.9
    source: PulseSpec | None = None
    sponge: SpongeSpec = field(default_factory=SpongeSpec)
    store_stride: int = 8
    forcing: Callable | None = None  # f(x_array, t) -> array, optional

    def __post_init__(self):
        if self.cfl > 0.9 + 1e-12:
            raise CFLViolation("CFL factor must not exceed 0.9")
        if self.source is not None and self.source.s_in is not None:
            if not -1.0 <= self.source.s_in <= 4.0:
                raise ValueError("pulse order must lie in [-1, 4]")
        if self.source is not None and self.metric.amp != 0.0:
            # keep the packet's full envelope well clear of the interface
            if abs(self.source.center) < 10 * self.source.width:
                raise ValueError("source must sit at least 10 pulse widths from the interface")

    @property
    def dx(self) -> float:
        return (self.x_hi - self.x_lo) / self.nx

    def grid(self) -> np.ndarray:
        return self.x_lo + self.dx * np.arange(self.nx + 1)


@dataclass
class WaveField:
    u: np.ndarray           # (n_slices, nx + 1)
    ts: np.ndarray
    xs: np.ndarray
    c: np.ndarray           # speed at the nodes
    dt: float
    energy: np.ndarray      # staggered discrete energy per stored slice
    max_trust_freq: float   # dispersion-limited wavenumber for probing

    @property
    def dx(self) -> float:
        return float(self.xs[1] - self.xs[0])

    def slice_at(self, t: float) -> int:
        return int(np.argmin(np.abs(self.ts - t)))


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
    if src is None:
        raise ValueError("scenario has no source")
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
    """Field one step in the past for a purely one-directional packet.

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
    sgn = 1.0 if src.direction > 0 else -1.0
    prev = np.fft.irfft(spec * np.exp(sgn * 1j * omega * dt), n=n)
    return prev


def staggered_energy(u_new, u_old, c2h, dt, dx, work, grad):
    """Discrete energy conserved by the interior scheme.

    ``c2h`` is the squared half-cell speed; ``work`` (n values) and ``grad``
    (n - 1) are scratch arrays that are overwritten.
    """
    ut = np.subtract(u_new, u_old, out=work)
    np.divide(ut, dt, out=ut)
    kinetic = np.sum(np.multiply(ut, ut, out=ut))
    flux = np.subtract(u_new[1:], u_new[:-1], out=grad)
    np.divide(flux, dx, out=flux)
    np.multiply(c2h, flux, out=flux)
    gx_old = np.subtract(u_old[1:], u_old[:-1], out=work[:-1])
    np.divide(gx_old, dx, out=gx_old)
    return 0.5 * dx * (kinetic + np.sum(np.multiply(flux, gx_old, out=flux)))


def discrete_energy(fld: WaveField, t_index: int) -> float:
    """Energy from stored slices with centered time differences."""
    if not 0 < t_index < fld.u.shape[0] - 1:
        raise IndexError("need an interior stored slice")
    dt_eff = float(fld.ts[t_index + 1] - fld.ts[t_index - 1])
    ut = (fld.u[t_index + 1] - fld.u[t_index - 1]) / dt_eff
    ux = np.diff(fld.u[t_index]) / fld.dx
    c_half = 0.5 * (fld.c[1:] + fld.c[:-1])
    return float(0.5 * fld.dx * (np.sum(ut * ut) + np.sum(c_half**2 * ux * ux)))


def _speeds(scenario: WaveScenario):
    """The grid, the speed at its nodes and at its half cells."""
    xs = scenario.grid()
    c_nodes = np.asarray(scenario.metric.speed(xs), float)
    c_half = np.asarray(scenario.metric.speed(0.5 * (xs[1:] + xs[:-1])), float)
    return xs, c_nodes, c_half


def _clock(scenario: WaveScenario, c_nodes, c_half):
    """Time step, step count and stored-slice count: the CFL factor times dx
    over the largest speed at the nodes and half cells."""
    dx = scenario.dx
    c_max = float(max(c_nodes.max(), c_half.max()))
    dt = scenario.cfl * dx / c_max
    n_steps = int(np.ceil(scenario.duration / dt))
    if c_max * dt / dx > 0.9 + 1e-12:
        raise CFLViolation("effective CFL number exceeds 0.9")
    stride = max(1, scenario.store_stride)
    return dt, n_steps, 1 + n_steps // stride + (n_steps % stride != 0)


def stored_slices(scenario: WaveScenario) -> int:
    """Number of slices ``stream`` hands to its observers: the initial one,
    every ``store_stride``-th step and the last step."""
    _, c_nodes, c_half = _speeds(scenario)
    return _clock(scenario, c_nodes, c_half)[2]


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
    processes: int          # 2 when a forked child advanced part of the grid


def _cut(n: int, ghost: int):
    """Node where the forked child's part of the grid starts, or None to
    solve in one part: without ``fork``, on one usable CPU, or when either
    part would hold fewer than ``MIN_PART_NODES`` nodes or fewer nodes than
    its ghost width."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return None
    if len(os.sched_getaffinity(0)) < 2:
        return None
    cut = round(PARENT_SHARE * n)
    return cut if min(cut, n - cut) >= max(MIN_PART_NODES, ghost) else None


def _leapfrog(
    scenario, xs, dt, n_steps, c2h, span, damp, ramps, levels, flux, work, ghost, lo, hi
):
    """Advance the owned nodes [lo, hi) of the grid and up to ``ghost`` nodes
    on either side, in place in those columns of the three ``levels``
    (previous, current, next); after a fork each process has its own copy.

    Yields ``(m, a, u_prev, u_curr)`` after every block that ends on a stored
    step ``m``: the levels hold nodes [a, a + size), and their nodes outside
    [lo, hi) go stale as the block runs; the consumer refreshes them in place
    before the next block.  The scratch arrays ``flux`` (n - 1 values) and
    ``work`` (n) are free for the consumer between blocks.  Every node sees
    the operations of the one-part loop in the same order, so the owned nodes
    carry its bits.
    """
    n, dx = xs.size, scenario.dx
    a, e = max(0, lo - ghost), min(n, hi + ghost)
    u_prev, u_curr, u_next = levels[:, a:e]
    flux, lap = flux[: e - a - 1], work[: e - a - 2]
    # the sponge ramps (node ranges) and the span of half cells with c2h != 1,
    # clipped to the part's nodes [a, e) and half cells [a, e - 1)
    clipped = [(max(r0, a), min(r1, e)) for r0, r1 in ramps]
    ramps = [(slice(r0 - a, r1 - a), damp[r0:r1]) for r0, r1 in clipped if r0 < r1]
    s0 = max(span[0], a)
    s1 = max(s0, min(span[1], e - 1))
    c2h_span, flux_span = c2h[s0:s1], flux[s0 - a : s1 - a]
    lam2 = (dt / dx) ** 2
    stride = max(1, scenario.store_stride)
    forcing, inner = scenario.forcing, slice(a + 1, e - 1)
    for m in range(1, n_steps + 1):
        np.subtract(u_curr[1:], u_curr[:-1], out=flux)
        np.multiply(c2h_span, flux_span, out=flux_span)
        np.multiply(2.0, u_curr, out=u_next)
        np.subtract(u_next, u_prev, out=u_next)
        np.subtract(flux[1:], flux[:-1], out=lap)
        np.multiply(lam2, lap, out=lap)
        np.add(u_next[1:-1], lap, out=u_next[1:-1])
        # only the part that holds a grid end zeroes it
        if a == 0:
            u_next[0] = 0.0
        if e == n:
            u_next[-1] = 0.0
        if forcing is not None:
            u_next[1:-1] += dt * dt * np.asarray(forcing(xs, (m - 1) * dt), float)[inner]
        for s, d in ramps:
            # damp the views in place; ``u[s] *= d`` would also copy them back
            for v in (u_next[s], u_curr[s]):
                np.multiply(v, d, out=v)
        u_prev, u_curr, u_next = u_curr, u_next, u_prev
        if m % stride == 0 or m == n_steps:
            yield m, a, u_prev, u_curr


def _fork_part(part, shared, cut, down, up) -> int:
    """Fork a child that runs ``part``, the blocks of the nodes right of
    ``cut``, and return its pid; the child never returns.

    After each block the child writes its owned nodes of both levels into
    the shared set of that block, sends one byte up, waits for the parent's
    byte on ``down`` and refreshes its ghost nodes from the same set.  It
    exits when ``down`` reads end of file.
    """
    pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        os.close(down[1])
        os.close(up[0])
        for j, (_, a, prev, curr) in enumerate(part, start=1):
            level = shared[j % 2]
            level[0, cut:], level[1, cut:] = prev[cut - a :], curr[cut - a :]
            os.write(up[1], b"\0")
            if not os.read(down[0], 1):
                break  # the parent has stopped
            prev[: cut - a], curr[: cut - a] = level[0, a:cut], level[1, a:cut]
        status = 0
    finally:
        # never unwind into the caller, which may hold open files
        os._exit(status)


def stream(scenario: WaveScenario, observers=()) -> WaveRecord:
    """Leapfrog-integrate the scenario; deterministic for fixed inputs.

    At each stored slice every observer is called as ``observer(t, u)``,
    where ``u`` is the solver's live level: an observer that keeps it must
    copy it.  No slice stack is held, so the memory is a few grid arrays
    whatever the duration.

    When ``_cut`` allows, a forked child advances the nodes right of the cut
    while this process advances the rest, runs the observers and computes
    the energy; the record's ``processes`` says which path ran.
    """
    xs, c_nodes, c_half = _speeds(scenario)
    n = xs.size
    dx = scenario.dx
    dt, n_steps, n_store = _clock(scenario, c_nodes, c_half)

    # three rotating time levels, updated in place
    levels = np.zeros((3, n))
    u_prev, u_curr = levels[0], levels[1]
    if scenario.source is not None:
        u_curr[:] = make_pulse(scenario)
        u_prev[:] = _one_way_previous(u_curr, scenario, dt)

    # sponge: exponential damping ramp applied multiplicatively to both levels;
    # damp is exactly 1.0 between the two ramps, so only their cells are touched;
    # on a grid narrower than two ramps the right slice starts where the left ends
    sp = scenario.sponge
    damp = np.ones(n)
    damp[: sp.cells] = np.exp(-sp.strength * dt * np.linspace(1.0, 0.0, sp.cells) ** 2)
    damp[-sp.cells :] = np.exp(-sp.strength * dt * np.linspace(0.0, 1.0, sp.cells) ** 2)
    ramps = [(0, sp.cells), (max(sp.cells, n - sp.cells), n)]

    c2h = c_half**2
    # x * 1.0 == x bit for bit, so the flux is scaled only over the span of
    # half cells whose squared speed is not exactly 1.0 (empty if none is)
    varied = np.flatnonzero(c2h != 1.0)
    span = (varied[0], varied[-1] + 1) if varied.size else (0, 0)
    # the leapfrog's scratch, and between blocks the staggered energy's
    flux, work = np.empty(n - 1), np.empty(n)
    ts = np.empty(n_store)
    energy = np.empty(n_store)
    for obs in observers:
        obs(0.0, u_curr)
    ts[0] = 0.0
    energy[0] = staggered_energy(u_curr, u_prev, c2h, dt, dx, work, flux)

    ghost = min(max(1, scenario.store_stride), n_steps)
    cut = _cut(n, ghost)
    part = partial(_leapfrog, scenario, xs, dt, n_steps, c2h, span, damp, ramps, levels, flux, work,
                   ghost)
    blocks = part(0, n if cut is None else cut)
    pid = None
    if cut is not None:
        # both levels of two sets, so one set is read while the next is written
        shared = np.frombuffer(mmap.mmap(-1, 4 * n * 8), float).reshape(2, 2, n)
        down, up = os.pipe(), os.pipe()  # parent -> child, child -> parent
        pid = _fork_part(part(cut, n), shared, cut, down, up)
    try:
        if pid is not None:
            os.close(down[0])
            os.close(up[1])
        for j, (m, a, prev, curr) in enumerate(blocks, start=1):
            if pid is not None:
                level = shared[j % 2]
                level[0, :cut], level[1, :cut] = prev[:cut], curr[:cut]
                # the child's byte first: a child that died leaves end of file
                if not os.read(up[0], 1):
                    raise RuntimeError("the solver's child process ended early")
                os.write(down[1], b"\0")
                e = a + prev.size
                prev[cut:], curr[cut:] = level[0, cut:e], level[1, cut:e]
                prev, curr = level
            t = m * dt
            if not np.all(np.isfinite(curr)):
                raise FieldBlowup("non-finite field at t=%g" % t)
            for obs in observers:
                obs(t, curr)
            ts[j] = t
            energy[j] = staggered_energy(curr, prev, c2h, dt, dx, work, flux)
    finally:
        if pid is not None:
            os.close(down[1])
            os.close(up[0])
            os.waitpid(pid, 0)

    # trustworthy wavenumber: group-velocity error under 2 percent
    k_probe = np.linspace(1e-3, np.pi / dx * 0.5, 2048)
    cfl_eff = c_nodes.min() * dt / dx
    vg = np.cos(k_probe * dx / 2.0) / np.sqrt(
        np.clip(1.0 - (cfl_eff * np.sin(k_probe * dx / 2.0)) ** 2, 1e-12, None)
    )
    ok = np.abs(vg - 1.0) < 0.02
    max_trust = float(k_probe[ok].max()) if np.any(ok) else float(k_probe[0])

    return WaveRecord(
        ts=ts,
        xs=xs,
        c=c_nodes,
        dt=dt,
        energy=energy,
        max_trust_freq=max_trust,
        steps=n_steps,
        processes=1 if cut is None else 2,
    )


def run(scenario: WaveScenario) -> WaveField:
    """``stream`` into a stack of every stored slice: the whole field
    history, for tests and for callers that need more than the probe's
    window spectra."""
    u = np.empty((stored_slices(scenario), scenario.nx + 1))
    rows = iter(u)

    def keep(t, u_curr):
        next(rows)[:] = u_curr

    rec = stream(scenario, [keep])
    return WaveField(
        u=u,
        ts=rec.ts,
        xs=rec.xs,
        c=rec.c,
        dt=rec.dt,
        energy=rec.energy,
        max_trust_freq=rec.max_trust_freq,
    )
