"""Escape-function commutants and their sign decomposition.

The central object is a two-cutoff symbol family

    a = chi0(F^-1 (2 beta - phi/delta)) * chi1((eta + delta)/(eps delta) + 1),
    phi = eta + omega / (eps^2 delta),

built in a flow-box chart around a base point: ``eta`` is the flow coordinate
(``H_p eta = 1``) and ``omega = sum sigma_j^2`` is the quadratic localizer in
the transverse coordinates; frames differ only in ``H_p sigma``.
Differentiating along the flow splits ``H_p a`` into ``-b^2 + e`` with ``b``
square-root factors and ``e`` supported where the second cutoff is active;
positivity of ``H_p phi`` on the support of ``a`` is what makes the sign work,
and for localizers whose flow derivatives are merely Hoelder of exponent
``alpha`` it is bought by coupling the two localization scales through
``eps >= min(1, C' delta^alpha)`` (``epsilon_schedule``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


# ---------------------------------------------------------------------------
# cutoffs


def chi0(t):
    """exp(-1/t) for t > 0, zero otherwise: float in, float out.

    A float takes ``np.exp``, not ``math.exp``: on a scalar it rounds like the
    array loop below, and ``math.exp`` differs in the last bit on a few
    percent of inputs.
    """
    if isinstance(t, float):
        return float(np.exp(-1.0 / t)) if t > 0 else 0.0
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out if out.ndim else float(out)


def chi0_prime(t):
    """Derivative of chi0; satisfies chi0(t) = t^2 chi0'(t) for all t."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = np.exp(-1.0 / tp) / (tp * tp)
    return out if out.ndim else float(out)


def chi1(t):
    """Smooth step: 0 on (-inf,0], 1 on [1,inf), monotone, smooth square root."""
    t = np.asarray(t, dtype=float)
    num = chi0(t)
    den = num + chi0(1.0 - t)
    out = np.asarray(num / den)
    return out if out.ndim else float(out)


def chi1_prime(t):
    """Derivative of chi1, supported in [0, 1], nonnegative."""
    t = np.asarray(t, dtype=float)
    f = np.asarray(chi0(t))
    g = np.asarray(chi0(1.0 - t))
    fp = np.asarray(chi0_prime(t))
    gp = np.asarray(chi0_prime(1.0 - t))
    out = (fp * g + f * gp) / (f + g) ** 2
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# parameters and frames


@dataclass(frozen=True)
class EscapeParams:
    """Constants of the commutant family.

    delta localizes along the flow, eps transverse to it, beta caps the
    forward endpoint, F absorbs weights and regularizers.  c0 is the lower
    bound for the flow derivative of eta near the base point.  The scale
    coupling eps >= min(1, C' delta^alpha) is a property of the frame's
    Hoelder data, so ``check_positivity`` reports it as ``schedule_valid``.
    """

    delta: float
    eps: float
    beta: float
    F: float = 8.0
    c0: float = 1.0

    def __post_init__(self):
        if not 0 < self.delta < 1:
            raise ValueError("need delta in (0, 1)")
        if not (0 < self.eps <= 1 and 0 < self.beta <= 1):
            raise ValueError("need eps, beta in (0, 1]")
        if self.F <= 0 or self.c0 <= 0:
            raise ValueError("need positive F and c0")


def epsilon_schedule(delta: float, alpha: float, C_prime: float) -> float:
    """Transverse scale for a given flow scale: min(1, C_prime * delta^alpha)."""
    if not 0 < delta < 1:
        raise ValueError("need delta in (0,1)")
    if not 0 < alpha <= 1:
        raise ValueError("need alpha in (0,1]")
    return min(1.0, C_prime * delta**alpha)


class EscapeFrame:
    """A flow-box chart around the base point 0.

    eta = q_0 is the flow coordinate with H_p eta = 1, the sigma_j = q_1..
    are the transverse coordinates and omega = sum sigma_j^2.  A frame is
    therefore fixed by the flow derivatives ``hp_sigmas(q) -> (..., dim - 1)``
    of its transverse coordinates.  Points are arrays of shape (d,) or (N, d).
    """

    def __init__(self, dim: int, hp_sigmas: Callable):
        self.dim = dim
        self.n_sigma = dim - 1
        self._hp_sigmas = hp_sigmas

    def eta(self, q):
        return np.asarray(q, float)[..., 0]

    def sigmas(self, q):
        return np.asarray(q, float)[..., 1:]

    def omega(self, q):
        s = self.sigmas(q)
        return np.sum(s * s, axis=-1)

    def hp_eta(self, q):
        return np.ones(np.asarray(q, float).shape[:-1])

    def hp_sigmas(self, q):
        return np.asarray(self._hp_sigmas(np.asarray(q, float)))

    def hp_omega(self, q):
        return 2.0 * np.sum(self.sigmas(q) * self.hp_sigmas(q), axis=-1)


def precise_localizer_frame(dim: int) -> EscapeFrame:
    """The flow kills every sigma_j identically."""

    def hp_sigmas(q):
        return np.zeros(q.shape[:-1] + (q.shape[-1] - 1,))

    return EscapeFrame(dim, hp_sigmas)


def smooth_frame(dim: int) -> EscapeFrame:
    """The flow tilts into the sigma directions at a rate vanishing linearly
    at the base point (Lipschitz case), with mixing constant 0.3."""

    def hp_sigmas(q):
        return 0.3 * (q[..., :1] - q[..., 1:])

    return EscapeFrame(dim, hp_sigmas)


def synthetic_hoelder_frame(dim: int, alpha: float, C0: float) -> EscapeFrame:
    """Worst case saturating |H_p sigma_j| <= C0 (omega^{1/2}+|eta|)^alpha
    with the sign that drives H_p omega as negative as possible."""

    def hp_sigmas(q):
        envelope = (np.sqrt(np.sum(q[..., 1:] ** 2, axis=-1)) + np.abs(q[..., 0])) ** alpha
        return -C0 * np.sign(q[..., 1:]) * envelope[..., None]

    return EscapeFrame(dim, hp_sigmas)


# frame name -> builder(dim, alpha, C0); the names [commutant] frame accepts
FRAMES = {
    "precise-localizer": lambda dim, alpha, C0: precise_localizer_frame(dim),
    "smooth": lambda dim, alpha, C0: smooth_frame(dim),
    "synthetic-hoelder": synthetic_hoelder_frame,
}


# ---------------------------------------------------------------------------
# symbol family


def eval_phi(q, frame: EscapeFrame, params: EscapeParams):
    return np.asarray(frame.eta(q)) + frame.omega(q) / (params.eps**2 * params.delta)


def eval_hp_phi(q, frame: EscapeFrame, params: EscapeParams):
    """Flow derivative H_p phi = H_p eta + H_p omega / (eps^2 delta)."""
    return np.asarray(frame.hp_eta(q)) + frame.hp_omega(q) / (params.eps**2 * params.delta)


def _chi_args(q, frame, params):
    eta = np.asarray(frame.eta(q))
    phi = eval_phi(q, frame, params)
    t0 = (2.0 * params.beta - phi / params.delta) / params.F
    u1 = (eta + params.delta) / (params.eps * params.delta) + 1.0
    return eta, phi, t0, u1


def eval_a(q, frame: EscapeFrame, params: EscapeParams):
    _, _, t0, u1 = _chi_args(q, frame, params)
    return np.asarray(chi0(t0)) * np.asarray(chi1(u1))


@dataclass
class SupportReport:
    n_samples: int
    n_support: int
    violations: list
    eta_range: tuple
    omega_sqrt_max: float

    @property
    def ok(self) -> bool:
        return not self.violations


def check_support_estimates(samples, frame: EscapeFrame, params: EscapeParams) -> SupportReport:
    """Verify the support bounds of the symbol on a sample set.

    Wherever a > 0:  -delta - eps*delta <= eta <= 2*beta*delta and
    omega^{1/2} <= 2*eps*delta; where additionally the chi1-derivative factor
    is active, eta <= -delta.
    """
    samples = np.asarray(samples, float)
    eta, _, t0, u1 = _chi_args(samples, frame, params)
    a = np.asarray(chi0(t0)) * np.asarray(chi1(u1))
    om_sqrt = np.sqrt(frame.omega(samples))
    d, e, b = params.delta, params.eps, params.beta

    sup = a > 0
    violations = []
    lo, hi = -d - e * d, 2 * b * d
    bad_eta = sup & ((eta < lo - 1e-15) | (eta > hi + 1e-15))
    bad_om = sup & (om_sqrt > 2 * e * d + 1e-15)
    edge = sup & (np.asarray(chi1_prime(u1)) > 0)
    bad_edge = edge & ((eta < lo - 1e-15) | (eta > -d + 1e-15))
    for name, mask in (("eta", bad_eta), ("omega", bad_om), ("chi1_edge", bad_edge)):
        for idx in np.nonzero(mask)[0]:
            violations.append((name, int(idx), samples[idx].tolist()))
    violations.sort(key=lambda v: v[1])
    eta_sup = eta[sup]
    return SupportReport(
        n_samples=samples.shape[0],
        n_support=int(np.count_nonzero(sup)),
        violations=violations,
        eta_range=(float(eta_sup.min()), float(eta_sup.max())) if eta_sup.size else (0.0, 0.0),
        omega_sqrt_max=float(om_sqrt[sup].max()) if eta_sup.size else 0.0,
    )


@dataclass
class CommutatorParts:
    a: np.ndarray
    hp_a: np.ndarray
    b: np.ndarray
    e: np.ndarray
    residual: np.ndarray
    positivity_failed: np.ndarray  # mask: hp_phi < 0 on supp a


def decompose_commutator(q, frame: EscapeFrame, params: EscapeParams) -> CommutatorParts:
    """Split the flow derivative of the symbol as H_p a = -b^2 + e.

    The three returned fields are assembled independently (hp_a by the chain
    rule on the composite symbol, b and e from their own closed forms), so the
    residual hp_a + b^2 - e is an exact identity check that vanishes to
    rounding.  Weight-free version (unit weight).
    """
    q = np.asarray(q, float)
    eta, phi, t0, u1 = _chi_args(q, frame, params)
    d, e_, F = params.delta, params.eps, params.F

    c0v = np.asarray(chi0(t0))
    c0p = np.asarray(chi0_prime(t0))
    c1v = np.asarray(chi1(u1))
    c1p = np.asarray(chi1_prime(u1))

    hp_eta = np.asarray(frame.hp_eta(q))
    hp_phi = eval_hp_phi(q, frame, params)

    a = c0v * c1v
    hp_a = -c0p * hp_phi / (F * d) * c1v + c0v * c1p * hp_eta / (e_ * d)
    e_term = c0v * c1p * hp_eta / (e_ * d)
    b = np.sqrt(np.clip(hp_phi, 0.0, None) * c0p * c1v / (F * d))
    residual = hp_a + b * b - e_term
    positivity_failed = (a > 0) & (hp_phi < 0)
    # where positivity fails, b^2 misses the hp_phi part entirely
    residual = np.where(positivity_failed, 0.0, residual)
    return CommutatorParts(
        a=a, hp_a=hp_a, b=b, e=e_term, residual=residual, positivity_failed=positivity_failed
    )


# ---------------------------------------------------------------------------
# sampling and positivity


def halton(n: int, d: int, seed: int) -> np.ndarray:
    """The first ``n`` points of Owen's randomized Halton sequence in [0, 1)^d
    (arXiv 1706.02808), bit for bit those of scipy's
    ``qmc.Halton(d=d, seed=seed).random(n)``.

    Column j is the van der Corput sequence in the j-th prime base with its
    own random digit permutation at each digit position a double resolves
    (base^-k > 2^-54).  The permutations come from ``default_rng(seed)``,
    base by base in column order.
    """
    rng = np.random.default_rng(seed)
    out = np.zeros((n, d))
    base = 1
    for j in range(d):
        base += 1
        while any(base % p == 0 for p in range(2, base)):
            base += 1
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        q = np.arange(n)
        b2r = 1.0 / base
        for perm in perms:  # least significant digit first
            out[:, j] += perm[q % base] * b2r
            q //= base
            b2r /= base
    return out


def sample_chart(params: EscapeParams, frame: EscapeFrame, n_grid: int, n_quasi: int = 0, seed: int = 0):
    """Sample a box around the base point sized 3*delta along eta and
    3*eps*delta per transverse coordinate; uniform grid plus an optional
    low-discrepancy batch.  Covers the support of the symbol with margin."""
    d = frame.dim
    m = d - 1
    half = np.array([3.0 * params.delta] + [3.0 * params.eps * params.delta] * m)
    per_axis = max(2, int(round(n_grid ** (1.0 / d))))
    axes = [np.linspace(-h, h, per_axis) for h in half]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=-1)
    if n_quasi:
        extra = (halton(n_quasi, d, seed) * 2.0 - 1.0) * half
        pts = np.vstack([pts, extra])
    return pts


def derive_c_prime(C0: float, c0: float, n_sigma: int, alpha: float) -> float:
    """Constant in the scale schedule from the Hoelder data of the frame.

    On the support of the symbol, omega^{1/2} <= 2 eps delta and |eta| <= 2
    delta, so |H_p omega| <= 2 sqrt(m) C0 (2 eps delta)(2 eps delta + 2
    delta)^alpha <= 4 sqrt(m) C0 4^alpha eps delta^{1+alpha}; requiring this
    to stay below (c0/2) eps^2 delta gives eps >= C' delta^alpha with
    C' = 8 sqrt(m) C0 4^alpha / c0.
    """
    return 8.0 * math.sqrt(n_sigma) * C0 * 4.0**alpha / c0


@dataclass
class PositivityReport:
    min_hp_phi: float
    threshold: float
    passed: bool
    schedule_valid: bool
    C_prime_derived: float
    n_support: int
    delta: float
    eps: float


def check_positivity(
    frame: EscapeFrame,
    params: EscapeParams,
    hoelder: tuple[float, float],
    samples,
) -> PositivityReport:
    """Minimum of H_p phi over the sampled support of the symbol.

    With the frame's flow derivatives obeying the Hoelder bound with constants
    ``hoelder = (C0, alpha)`` and the scale schedule in force, the minimum is
    guaranteed >= c0/2.  ``schedule_valid`` is the one check of that schedule,
    eps >= ``epsilon_schedule(delta, alpha, C')`` = min(1, C' delta^alpha)
    with C' derived from C0 and c0.  The report records the margin either way,
    so undersized eps shows up as a negative control rather than an exception.
    """
    C0, alpha = hoelder
    samples = np.asarray(samples, float)
    a = eval_a(samples, frame, params)
    sup = a > 0
    hp_phi = eval_hp_phi(samples, frame, params)
    c_prime = derive_c_prime(C0, params.c0, frame.n_sigma, alpha)
    schedule_valid = params.eps >= epsilon_schedule(params.delta, alpha, c_prime) - 1e-12
    min_val = float(hp_phi[sup].min()) if np.any(sup) else float("inf")
    threshold = params.c0 / 2.0
    return PositivityReport(
        min_hp_phi=min_val,
        threshold=threshold,
        passed=min_val >= threshold,
        schedule_valid=schedule_valid,
        C_prime_derived=c_prime,
        n_support=int(np.count_nonzero(sup)),
        delta=params.delta,
        eps=params.eps,
    )


# ---------------------------------------------------------------------------
# weight / regularizer absorption


def absorption_factor(
    s: float,
    r_weight: float,
    M: float,
    F: float,
    beta: float,
    delta: float,
    phi_over_delta: float,
    hp_phi: float,
    rho_bound: float,
    c0: float = 1.0,
):
    """Bracketed coefficient whose positivity lets the weight and regularizer
    terms be absorbed into the square: psi2 minus the weight term, where
    psi2 = hp_phi - c0/4 after splitting off the constant part psi1 = c0/4.

    Requires |2*beta - phi/delta| <= 4, which holds on the symbol support.
    """
    arg = 2.0 * beta - np.asarray(phi_over_delta, float)
    if np.any(np.abs(arg) > 4.0 + 1e-12):
        raise ValueError("|2*beta - phi/delta| must not exceed 4 on the support")
    psi2 = np.asarray(hp_phi, float) - c0 / 4.0
    weight_term = (((2.0 * s - 1.0) - r_weight) * rho_bound + M * M) * delta * arg**2 / F
    out = psi2 - weight_term
    return out if out.ndim else float(out)


# the F values find_F_threshold tries, in increasing order
F_GRID = [2.0**j for j in range(-2, 42)]


def find_F_threshold(
    s: float,
    r_weight: float,
    M: float,
    beta: float,
    delta: float,
    phi_over_delta,
    hp_phi,
    rho_bound: float,
    c0: float = 1.0,
):
    """Least F of ``F_GRID`` making the absorption factor >= c0/8 at every
    supplied support sample; None if the grid is exhausted."""
    phi_over_delta = np.asarray(phi_over_delta, float)
    hp_phi = np.asarray(hp_phi, float)
    for F in F_GRID:
        vals = absorption_factor(
            s, r_weight, M, F, beta, delta, phi_over_delta, hp_phi, rho_bound, c0
        )
        if np.all(np.asarray(vals) >= c0 / 8.0):
            return F
    return None


# ---------------------------------------------------------------------------
# scenario-level check used by the CLI


def commutant_setup(frame_kind: str, delta: float, eps: float | None, beta: float, F: float,
                    c0: float, alpha: float = 1.0, C0: float = 0.05, dim: int = 3):
    """The frame, the symbol constants and C' of one commutant check; ``eps``
    None takes the scale schedule.  A value out of range raises ValueError."""
    if frame_kind not in FRAMES:
        raise ValueError("frame must be one of %s, got %r" % (", ".join(FRAMES), frame_kind))
    frame = FRAMES[frame_kind](dim, alpha, C0)
    c_prime = derive_c_prime(C0, c0, dim - 1, alpha)
    if eps is None:
        eps = epsilon_schedule(delta, alpha, c_prime)
    return frame, EscapeParams(delta=delta, eps=eps, beta=beta, F=F, c0=c0), c_prime


def run_commutant_check(
    frame_kind: str,
    delta: float,
    eps: float | None,
    beta: float,
    F: float,
    c0: float,
    alpha: float = 1.0,
    C0: float = 0.05,
    dim: int = 3,
    grid: int = 10_000,
    quasi: int = 2_000,
    seed: int = 0,
) -> dict:
    """Build a frame, sample its chart, and report support violations,
    decomposition residual, positivity margin, and the absorption threshold."""
    frame, params, c_prime = commutant_setup(frame_kind, delta, eps, beta, F, c0, alpha, C0, dim)
    pts = sample_chart(params, frame, n_grid=grid, n_quasi=quasi, seed=seed)
    support = check_support_estimates(pts, frame, params)
    parts = decompose_commutator(pts, frame, params)
    scale = float(np.max(np.abs(parts.hp_a))) or 1.0
    positivity = check_positivity(frame, params, (C0, alpha), pts)
    on_sup = parts.a > 0
    phi_over_delta = eval_phi(pts, frame, params) / delta
    hp_phi_sup = eval_hp_phi(pts, frame, params)[on_sup]
    f_thresh = find_F_threshold(
        s=0.5,
        r_weight=1.0,
        M=1.0,
        beta=beta,
        delta=delta,
        phi_over_delta=phi_over_delta[on_sup],
        hp_phi=hp_phi_sup,
        rho_bound=1.0,
        c0=c0,
    ) if np.any(on_sup) else None
    return {
        "frame": frame_kind,
        "delta": delta,
        "eps": params.eps,
        "beta": beta,
        "F": F,
        "c0": c0,
        "alpha": alpha,
        "C0": C0,
        "C_prime_derived": c_prime,
        "n_samples": support.n_samples,
        "n_support": support.n_support,
        "violations": support.violations,
        "residual_max": float(np.max(np.abs(parts.residual))),
        "residual_max_relative": float(np.max(np.abs(parts.residual))) / scale,
        "min_margin": positivity.min_hp_phi,
        "margin_threshold": positivity.threshold,
        "positivity_passed": positivity.passed,
        "schedule_valid": positivity.schedule_valid,
        "F_threshold": f_thresh,
    }
