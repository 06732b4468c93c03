"""Bicharacteristic integration for Hoelder Hamilton fields.

Integral curves are computed by trading the curve parameter for a coordinate
along which the field is transversal: with that coordinate as the clock the
right-hand side is Lipschitz in the remaining state (the roughness rides in
the clock variable only), so classical Runge-Kutta applies and the curve
through a point is unique.  Interface crossings land exactly on the clock
origin, which turns event detection into a step-size clamp instead of a root
search.  ``gbb_trace`` branches both ways at every crossing: one traced tree
holds the reflected and the transmitted continuations of the packet's ray.
It grades its steps inside the conormal core only; outside it the field is
constant, so one RK4 step, exact up to rounding, crosses to the core's edge
or on to the end of the run.

The module also builds the dyadic polygon vertices: the 2^N + 1 points
chosen by an oracle within C0 * delta^{1+alpha} of the Euler predictor at
scale delta = 2^-N, each run checked against the uniform Lipschitz bound
that lets the polygons converge and carry the propagation statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .metric import ConormalMetric, PhasePoint

GLANCING_FLOOR = 1e-6

# gbb_trace's clock-step cap inside the core, its floor at the interface,
# and the most interface events one path may carry
CORE_STEP = 1e-3
MIN_STEP = 1e-6
MAX_EVENTS = 4
# relative lengthening of a straight step aimed at t_end: the few roundings
# of one RK4 step on a constant field cannot then land it short
T_END_MARGIN = 2.0**-49


class GlancingHalt(RuntimeError):
    """Transversality lost: the clock component of the field hit the floor."""

    def __init__(self, samples, message="glancing halt"):
        super().__init__(message)
        self.samples = samples


class OracleContractViolation(RuntimeError):
    """Dyadic oracle returned a point outside its contracted ball."""


class _FloorHit(Exception):
    pass


@dataclass(frozen=True)
class CurveSample:
    t: float
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, float))


class EventType(Enum):
    REFLECTION = "reflection"
    TRANSMISSION = "transmission"
    GLANCING_HALT = "glancing_halt"


@dataclass(frozen=True)
class Event:
    time: float                  # physical time coordinate at the event
    point: np.ndarray            # position on the interface
    kind: EventType
    incoming: np.ndarray         # covector arriving at the interface
    outgoing: np.ndarray | None  # covector leaving (None for halts)


@dataclass
class GBBPath:
    legs: list
    events: list


def _glancing(v, j: int, v_floor: float) -> bool:
    """The clock component of the field ``v`` is below the floor."""
    return abs(v[j]) < v_floor * max(math.hypot(*v), 1e-300)


def _reparam_leg(
    V: Callable,
    x0: np.ndarray,
    j: int,
    h: float,
    s_target: float | None = None,
    t_limit: float | None = None,
    stop_state: Callable | None = None,
    v_floor: float = GLANCING_FLOOR,
    max_steps: int = 2_000_000,
    step_control: Callable | None = None,
):
    """March the reparameterized system with coordinate ``j`` as the clock.

    Stops when the clock reaches ``s_target``, the accumulated curve
    parameter passes ``t_limit``, or ``stop_state(x)`` fires.  Returns
    (samples, reason) with reason in {"target", "t_limit", "state", "steps"};
    loss of transversality raises GlancingHalt with the samples so far.

    The state is a list of Python floats, the accumulated curve parameter
    last; ``V`` is called on the first ``d`` entries and returns a tuple of
    floats (taken as it is) or anything else ``np.asarray`` makes floats of.
    Each RK4 stage is formed elementwise in the order of the vector form
    z + (step / 6) ((k1 + 2 k2) + 2 k3 + k4).
    """
    x0 = np.asarray(x0, float)
    d = x0.size

    def rhs(x):
        v = V(x)
        if type(v) is not tuple:
            v = np.asarray(v, float).tolist()
        if _glancing(v, j, v_floor):
            raise _FloorHit()
        vj = v[j]
        out = [vi / vj for vi in v]
        out[j] = 1.0
        out.append(1.0 / vj)
        return out

    v0 = np.asarray(V(x0), float).tolist()
    if _glancing(v0, j, v_floor):
        raise GlancingHalt([CurveSample(0.0, x0.copy())])
    backward = t_limit is not None and t_limit < 0
    ds = abs(h) * (1.0 if (v0[j] > 0) != backward else -1.0)

    z = x0.tolist() + [0.0]  # state plus accumulated curve parameter
    s = z[j]
    samples = [CurveSample(0.0, x0.copy())]
    reason = "steps"
    for _ in range(max_steps):
        x = z[:d]
        step = ds if step_control is None else step_control(x, ds)
        if s_target is not None:
            remaining = s_target - s
            if remaining == 0.0:
                reason = "target"
                break
            if (step > 0) == (remaining > 0) and abs(step) > abs(remaining):
                step = remaining
        half = 0.5 * step
        try:
            k1 = rhs(x)
            k2 = rhs([xi + half * k for xi, k in zip(x, k1)])
            k3 = rhs([xi + half * k for xi, k in zip(x, k2)])
            k4 = rhs([xi + step * k for xi, k in zip(x, k3)])
        except _FloorHit:
            raise GlancingHalt(samples)
        w = step / 6.0
        z = [zi + w * (((a + 2 * b) + 2 * c) + e) for zi, a, b, c, e in zip(z, k1, k2, k3, k4)]
        s += step
        z[j] = s  # keep the redundant clock coordinate exact
        samples.append(CurveSample(z[d], z[:d]))
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


def transversal_integrate(
    V: Callable,
    x0,
    span: float,
    h: float,
    v_floor: float = GLANCING_FLOOR,
) -> list:
    """Integrate dx/dt = V(x) using the last coordinate as the clock.

    ``V`` must be transversal in its last component on the tube of
    integration (continuous in it, Lipschitz in the rest).  ``span`` is the
    curve-parameter extent (negative integrates backward), ``h`` the clock
    step.  Returns CurveSamples of the unique C^1 curve, increasing in t.
    """
    x0 = np.asarray(x0, float)
    samples, _ = _reparam_leg(
        V, x0, j=x0.size - 1, h=h, s_target=None, t_limit=span, v_floor=v_floor
    )
    if span < 0:
        samples = samples[::-1]
    return samples


# ---------------------------------------------------------------------------
# generalized broken bicharacteristics for the k = 1 product metric


def ray_on_characteristic(metric: ConormalMetric, x: float, t: float, direction: int) -> PhasePoint:
    """Point of the characteristic set over (x, t) with unit normal momentum,
    moving toward +x (direction=+1) or -x, with positive time dual so physical
    time increases along the flow."""
    return PhasePoint([x, t], [-direction, metric.speed(x)])


def _project_to_sigma(metric: ConormalMetric, state):
    """Rescale the normal momentum so the state sits exactly on the
    characteristic set."""
    state = np.asarray(state, float).copy()
    x, _t, xi, tau = state
    target = abs(tau) / metric.speed(x)
    state[2] = np.copysign(target, xi) if xi != 0 else target
    return state


def gbb_trace(metric: ConormalMetric, q0: PhasePoint, t_span: float) -> list:
    """Trace broken bicharacteristics of the 1+1D product metric.

    Legs use the space coordinate as the clock (transversal away from
    glancing).  Inside the core, |x| < core_radius, steps are graded
    geometrically toward the interface, where the field is merely Hoelder.
    Outside it the speed is exactly c_bg and the field constant, so a leg
    takes one straight RK4 step there: to the core's edge when it moves
    toward the core, else on to t_end, which its last sample passes by a
    few roundings at most.  Time runs forward: tau > 0 and t_span > 0.  At
    a crossing the arriving state is projected onto the characteristic set
    and both a reflected and a transmitted branch spawn, so the tree holds
    every reflect-only and transmit-only path.  Returns one GBBPath per
    branch.
    """
    if abs(q0.xi[0]) < GLANCING_FLOOR * np.linalg.norm(q0.xi):
        raise GlancingHalt([], "initial point is glancing")
    if not metric.on_characteristic_set(q0, tol=1e-9):
        raise ValueError("initial point must lie on the characteristic set")
    if not (q0.xi[-1] > 0 and t_span > 0):
        raise ValueError("the trace runs forward in time: need tau > 0 and t_span > 0")
    state0 = np.concatenate([q0.x, q0.xi])
    t_end = q0.x[-1] + t_span
    core = metric.core_radius

    def step_control(x, ds):
        # inside the core, geometric grading toward the interface keeps the
        # quadrature of the Hoelder coefficient accurate at a few hundred
        # steps per leg, and the cap rides the bump-transition derivatives;
        # outside it the field is constant and one RK4 step is exact up to
        # rounding: straight to the core's edge, or straight on to t_end; a
        # leg moving in from within MIN_STEP of the edge takes a graded step
        # across it, so an edge missed by a rounding costs no extra step
        r = abs(x[0])
        toward = (x[0] < 0) == (ds > 0)
        if r < core or (toward and r - core <= MIN_STEP):
            return math.copysign(max(MIN_STEP, min(CORE_STEP, r / 8.0)), ds)
        v = metric.hamilton_field(x)
        mag = (t_end - x[1]) * abs(v[0] / v[1]) * (1.0 + T_END_MARGIN)
        return math.copysign(min(mag, r - core) if toward else mag, ds)

    # a metric without singular part has nothing to reflect from
    has_interface = metric.amp != 0.0

    def integrate_leg(state):
        moving_right = metric.hamilton_field(state)[0] > 0
        x = state[0]
        crosses = has_interface and (
            (x < 0 and moving_right) or (x > 0 and not moving_right)
        )
        target = 0.0 if crosses else None
        try:
            return _reparam_leg(
                metric.hamilton_field,
                state,
                j=0,
                h=1.0,  # step_control sets every step, reading only the sign
                s_target=target,
                stop_state=lambda q: q[1] >= t_end,
                step_control=step_control,
                max_steps=5_000_000,
            )
        except GlancingHalt as halt:
            return halt.samples, "glancing"

    paths = []
    stack = [(state0, [], [], 0)]
    while stack:
        state, legs_acc, events_acc, n_events = stack.pop()
        samples, reason = integrate_leg(state)
        legs = legs_acc + [samples]
        if reason == "glancing":
            last = samples[-1].q if samples else state
            paths.append(
                GBBPath(
                    legs=legs,
                    events=events_acc
                    + [
                        Event(
                            time=float(last[1]),
                            point=last[:2].copy(),
                            kind=EventType.GLANCING_HALT,
                            incoming=last[2:].copy(),
                            outgoing=None,
                        )
                    ],
                )
            )
            continue
        if reason != "target" or n_events >= MAX_EVENTS:
            paths.append(GBBPath(legs=legs, events=events_acc))
            continue
        hit = _project_to_sigma(metric, samples[-1].q)
        incoming = hit[2:].copy()
        refl = hit.copy()
        refl[2] = -refl[2]
        branches = ((EventType.REFLECTION, refl), (EventType.TRANSMISSION, hit.copy()))
        for kind, out_state in branches:
            ev = Event(
                time=float(hit[1]),
                point=hit[:2].copy(),
                kind=kind,
                incoming=incoming,
                outgoing=out_state[2:].copy(),
            )
            stack.append((out_state, list(legs), events_acc + [ev], n_events + 1))
    return paths


# ---------------------------------------------------------------------------
# dyadic construction


@dataclass
class DyadicRun:
    N: int
    eps_span: float
    points: np.ndarray  # (2^N + 1, d)
    C0: float
    alpha: float
    delta: float
    direction: int
    field_bound: float

    @property
    def times(self):
        """Curve parameter of each point, negative for a backward run."""
        return np.arange(self.points.shape[0]) * self.delta * self.direction

    @property
    def lipschitz_bound(self) -> float:
        return self.field_bound + self.C0 * self.eps_span**self.alpha

    def check_lipschitz(self) -> bool:
        inc = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        return bool(np.all(inc <= self.lipschitz_bound * self.delta * (1 + 1e-9)))


def dyadic_construct(
    flow_oracle: Callable,
    field: Callable,
    q0,
    eps_span: float,
    N: int,
    C0: float,
    alpha: float,
    direction: int = -1,
) -> DyadicRun:
    """Build the 2^N + 1 dyadic points at scale delta = 2^-N * eps_span.

    ``flow_oracle(q, delta)`` must return a point within C0 * delta^{1+alpha}
    of the Euler predictor q + direction * delta * field(q); a miss raises
    OracleContractViolation.  The backward convention (direction = -1)
    matches the construction of limit curves from propagation neighborhoods;
    the forward variant mirrors it.  Every run is checked against the uniform
    Lipschitz bound (|field| sup + C0 * eps_span^alpha).
    """
    if direction not in (-1, +1):
        raise ValueError("direction must be -1 or +1")
    delta = eps_span * 2.0 ** (-N)
    q = np.asarray(q0, float)
    pts = [q.copy()]
    fbound = 0.0
    tol = C0 * delta ** (1.0 + alpha)
    for _ in range(2**N):
        v = np.asarray(field(q), float)
        fbound = max(fbound, float(np.linalg.norm(v)))
        predictor = q + direction * delta * v
        nxt = np.asarray(flow_oracle(q, delta), float)
        err = float(np.linalg.norm(nxt - predictor))
        if err > tol * (1 + 1e-9):
            raise OracleContractViolation(
                "oracle point misses the predictor ball: %.3e > %.3e" % (err, tol)
            )
        pts.append(nxt.copy())
        q = nxt
    run = DyadicRun(
        N=N,
        eps_span=eps_span,
        points=np.asarray(pts),
        C0=C0,
        alpha=alpha,
        delta=delta,
        direction=direction,
        field_bound=fbound,
    )
    if not run.check_lipschitz():
        raise OracleContractViolation("dyadic polygon violates the uniform Lipschitz bound")
    return run
