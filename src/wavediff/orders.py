"""Exact order algebra for cleanly intersecting Lagrangian pairs.

A space attached to a Lagrangian pair carries two rational orders: ``p`` on
the main (second-listed) Lagrangian and a relative order ``l`` at the other
one, with the intersection having codimension ``k`` inside each Lagrangian.
Away from the intersection the space looks like order ``p`` on the main
Lagrangian and order ``p + l`` on the other.

Everything in this module is exact: orders are ``fractions.Fraction``,
predicates are decided with zero tolerance, and the strict / non-strict
distinctions between the various Sobolev boundedness criteria are preserved
exactly as they come out of the underlying kernel estimates.  No floating
point enters any code path here.  Predicates scale their rational inputs to
one integer lattice (``_lattice``) and compare ``int``s; results that are
orders stay ``Fraction``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Union

Rational = Union[Fraction, int, str]


def frac(x: Rational) -> Fraction:
    """Coerce to an exact rational; floats are rejected."""
    if type(x) is Fraction:
        return x
    _reject_float(x)
    return Fraction(x)


def _reject_float(*xs) -> None:
    for x in xs:
        if isinstance(x, float):
            raise TypeError("floating point not allowed in exact order arithmetic: %r" % (x,))


@functools.lru_cache(maxsize=128, typed=True)
def _half(j: int) -> Fraction:
    """``Fraction(j, 2)``, built once per ``j``: every rule needs ``k/2`` or ``n/2``."""
    return Fraction(j, 2)


def _lattice(*xs: Fraction) -> tuple[int, list[int]]:
    """Scale exact rationals to integers over one even common denominator ``2h``.

    Returns ``(h, [x * 2h for x in xs])``.  A half-integer ``j/2`` scales to
    ``j * h``, so any (in)equality among the ``xs`` and half-integers is the
    same (in)equality among ``int``s.
    """
    d = math.lcm(2, *[x.denominator for x in xs])
    return d // 2, [x.numerator * (d // x.denominator) for x in xs]


class OrderError(ValueError):
    """Base error for ill-posed order-algebra requests."""


class IncomparableOrdersError(OrderError):
    """Raised when two pair orders live on pairs of different codimension."""


class Tag(Enum):
    """Model Lagrangians appearing in the calculus."""

    DIAG = "diag"                    # conormal bundle of the diagonal
    FLOW_OUT = "flow_out"            # flow-out of the boundary conormal, N*(diag cap (Y x X)) type
    LEFT_CONORMAL = "left_conormal"  # N*(Y x X): conormal in the left factor
    RIGHT_CONORMAL = "right_conormal"  # N*(X x Y): conormal in the right factor
    CONORMAL_Y = "conormal_y"        # N*Y on a single factor


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


# Pair combinations (relative-carrier tag, main tag) that the generating rules
# below actually produce.
ALLOWED_PAIRS = frozenset(
    {
        (Tag.FLOW_OUT, Tag.DIAG),
        (Tag.DIAG, Tag.FLOW_OUT),
        (Tag.FLOW_OUT, Tag.LEFT_CONORMAL),
        (Tag.FLOW_OUT, Tag.RIGHT_CONORMAL),
    }
)


@dataclass(frozen=True)
class PairOrder:
    """Orders ``(p, l)`` on a Lagrangian pair with codimension-``k`` intersection.

    ``p`` is the order on the main (second-listed) Lagrangian; ``p + l`` is the
    order on the other one.
    """

    p: Fraction
    l: Fraction
    k: int

    def __post_init__(self):
        object.__setattr__(self, "p", frac(self.p))
        object.__setattr__(self, "l", frac(self.l))
        if not isinstance(self.k, int) or self.k < 1:
            raise OrderError("codimension k must be a positive integer, got %r" % (self.k,))

    def __str__(self):
        return "(p=%s, l=%s, k=%d)" % (self.p, self.l, self.k)


@dataclass(frozen=True)
class SpaceTerm:
    """One paired term of a decomposition; ``pair`` lists (other, main)."""

    pair: tuple[Tag, Tag]
    order: PairOrder

    def __post_init__(self):
        if self.pair not in ALLOWED_PAIRS:
            raise OrderError("pair %r is not produced by any generating rule" % (self.pair,))


@dataclass(frozen=True)
class LagrangianTerm:
    """A pure Lagrangian term of a decomposition."""

    tag: Tag
    order: Fraction

    def __post_init__(self):
        object.__setattr__(self, "order", frac(self.order))


@dataclass(frozen=True)
class SpaceDecomposition:
    paired: tuple[SpaceTerm, ...]
    pure: tuple[LagrangianTerm, ...] = ()

    def __post_init__(self):
        if not self.paired and not self.pure:
            raise OrderError("decomposition must be nonempty")


@dataclass(frozen=True)
class RegularityWindow:
    """An admissibility-gated open interval of Sobolev orders."""

    lo: Fraction
    hi: Fraction
    admissible: bool
    s0: Fraction
    k: int
    eps0: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "lo", frac(self.lo))
        object.__setattr__(self, "hi", frac(self.hi))
        object.__setattr__(self, "s0", frac(self.s0))
        if self.eps0 is not None:
            object.__setattr__(self, "eps0", frac(self.eps0))

    @property
    def empty(self) -> bool:
        return (not self.admissible) or self.lo >= self.hi

    def contains(self, s: Rational) -> bool:
        s = frac(s)
        return self.admissible and self.lo < s < self.hi


@dataclass(frozen=True)
class HyperbolicWindow:
    """Both forms of the propagation window: raw theorem bounds and the
    version intersected with the derived lower bound (which sits below the
    raw one whenever the gate holds, so the two intervals coincide then)."""

    theorem: RegularityWindow
    derived_lo: Fraction
    intersected: RegularityWindow

    @property
    def admissible(self) -> bool:
        return self.theorem.admissible


class FlowoutCompositionError(OrderError):
    """Composition rejected because the relative orders do not sum below zero.

    The rejected composition still lands in a pair space if one trades
    relative order for main order; ``fallback(ell)`` constructs that space for
    any ``ell`` exceeding ``a.l + b.l``.  The trade-off is opt-in because the
    increase of the main order makes the result far weaker.
    """

    def __init__(self, a: PairOrder, b: PairOrder):
        self.a = a
        self.b = b
        super().__init__(
            "flow-out composition needs l + l' < 0; got l + l' = %s" % (a.l + b.l,)
        )

    def fallback(self, ell: Rational) -> PairOrder:
        ell = frac(ell)
        a, b = self.a, self.b
        if ell <= a.l + b.l:
            raise OrderError("fallback shift must exceed l + l' = %s" % (a.l + b.l,))
        half_k = _half(a.k)
        big_l = max(a.l - ell, b.l, a.l - ell + b.l + half_k)
        return PairOrder(a.p + b.p + ell, big_l, a.k)


def _check_same_k(a: PairOrder, b: PairOrder) -> int:
    if a.k != b.k:
        raise IncomparableOrdersError(
            "orders live on pairs of different codimension: %d vs %d" % (a.k, b.k)
        )
    return a.k


def include_filter(a: PairOrder, b: PairOrder) -> bool:
    """Inclusion of pair spaces: needs p1 <= p2 and p1 + l1 <= p2 + l2."""
    _check_same_k(a, b)
    _, (ap, al, bp, bl) = _lattice(a.p, a.l, b.p, b.l)
    return ap <= bp and ap + al <= bp + bl


def embed_lambda0(p: Rational, k: int) -> PairOrder:
    """Embed a pure order-``p`` space on the other Lagrangian into the pair.

    The result is ``(p - k/2, k/2)``; the first component cannot be lowered
    even at the cost of raising the second, because the growth rate at the
    front face of the underlying blow-up is pinned by ``p`` alone.
    """
    p = frac(p)
    if not isinstance(k, int) or k < 1:
        raise OrderError("codimension k must be a positive integer")
    half_k = _half(k)
    return PairOrder(p - half_k, half_k, k)


def reverse_pair(o: PairOrder, eps: Rational) -> SpaceDecomposition:
    """Exchange the roles of the two Lagrangians.

    For ``l < -k/2`` the result is a pure main-Lagrangian term of order ``p``
    plus a reversed pair term ``(p + l + eps, -l - eps)``; for ``l > -k/2`` a
    single reversed term ``(p + l, k/2)``.  At ``l == -k/2`` exactly, a
    logarithmic loss appears, handled by perturbing ``l`` to ``l + eps`` and
    applying the second branch.
    """
    eps = frac(eps)
    if eps <= 0:
        raise OrderError("eps must be positive")
    half_k = _half(o.k)
    reversed_pair = (Tag.DIAG, Tag.FLOW_OUT)
    if o.l < -half_k:
        return SpaceDecomposition(
            paired=(SpaceTerm(reversed_pair, PairOrder(o.p + o.l + eps, -o.l - eps, o.k)),),
            pure=(LagrangianTerm(Tag.DIAG, o.p),),
        )
    if o.l > -half_k:
        return SpaceDecomposition(
            paired=(SpaceTerm(reversed_pair, PairOrder(o.p + o.l, half_k, o.k)),)
        )
    # boundary case: perturb l upward by eps, then the l > -k/2 branch applies
    return SpaceDecomposition(
        paired=(SpaceTerm(reversed_pair, PairOrder(o.p + o.l + eps, half_k, o.k)),)
    )


def compose_au(a: PairOrder, b: PairOrder) -> PairOrder:
    """Flow-out composition rule with the diagonal conormal listed first."""
    k = _check_same_k(a, b)
    half_k = _half(k)
    return PairOrder(a.p + b.p + half_k, a.l + b.l - half_k, k)


def compose_flowout(a: PairOrder, b: PairOrder) -> PairOrder:
    """Composition with the diagonal conormal as the main Lagrangian.

    Valid only when ``a.l + b.l < 0``; the main orders add exactly and the
    relative order is ``max(l, l', l + l' + k/2)``.  The constraint is sharp:
    at ``l + l' = 0`` the off-diagonal symbols are marginally non-multipliable,
    so the rejection is an error (carrying the opt-in fallback), never a
    silent relaxation.
    """
    k = _check_same_k(a, b)
    if a.l + b.l >= 0:
        raise FlowoutCompositionError(a, b)
    half_k = _half(k)
    return PairOrder(a.p + b.p, max(a.l, b.l, a.l + b.l + half_k), k)


def bounded_gu(o: PairOrder, m_src: Rational, m_dst: Rational) -> bool:
    """Sobolev boundedness H^{m_src} -> H^{m_dst} with the flow-out listed second.

    Both conditions are non-strict.  The published proof's reduction to the
    equality case needs a small repair (when the sum condition binds with the
    main order strictly below -k/2, one first raises it to -k/2 by the
    inclusion filter), but the stated criterion itself is unchanged, so this
    predicate implements it as printed.
    """
    h, (p, l, src, dst) = _lattice(o.p, o.l, frac(m_src), frac(m_dst))
    gap = src - dst
    return p + o.k * h <= gap and p + l <= gap


def bounded_diag_flowout(o: PairOrder, m_src: Rational, m_dst: Rational) -> bool:
    """Boundedness H^{m_src} -> H^{m_dst} with the diagonal conormal as main.

    First condition is non-strict, second strict; the distinction is meaningful
    and preserved exactly.
    """
    h, (p, l, src, dst) = _lattice(o.p, o.l, frac(m_src), frac(m_dst))
    gap = src - dst
    return p <= gap and p + l < gap - o.k * h


def bounded_one_sided(
    o: PairOrder, n: int, m: Rational, m_src: Rational, side: Side
) -> bool:
    """Boundedness H^{m_src} -> H^{-m} for one-sided conormal pairs.

    ``side`` selects which factor carries the conormal main Lagrangian:
    LEFT for N*{x'=0} (kernel singular in the left variables), RIGHT for
    N*{y'=0}.  Both conditions are strict.
    """
    _reject_float(n)
    h, (p, l, dst, src) = _lattice(o.p, o.l, frac(m), frac(m_src))
    first = p + l < dst + src - o.k * h
    if side is Side.LEFT:
        second = p < dst - n * h
    elif side is Side.RIGHT:
        second = p < src - n * h
    else:
        raise OrderError("side must be Side.LEFT or Side.RIGHT")
    return first and second


def psdo_shift(o: PairOrder, s: Rational, side: Side) -> PairOrder:
    """Compose a one-sided conormal pair with an order-``s`` operator.

    Left composition raises the main order, right composition the relative
    one.
    """
    s = frac(s)
    if side is Side.LEFT:
        return PairOrder(o.p + s, o.l, o.k)
    if side is Side.RIGHT:
        return PairOrder(o.p, o.l + s, o.k)
    raise OrderError("side must be Side.LEFT or Side.RIGHT")


def mult_decompose(
    s0: Rational, op_order: Rational, k: int, n: int, side: Side = Side.LEFT
) -> SpaceDecomposition:
    """Kernel of (singular coefficient) x (order ``op_order`` operator).

    The coefficient is conormal of order ``s0`` below a delta layer on a
    codimension-``k`` submanifold of an ``n``-dimensional space.  The result
    splits into a diagonal-main pair term ``(op_order, -s0 + k/2)`` and a
    one-sided conormal term ``(-s0 - (n-k)/2, op_order + n/2)``.  ``side``
    records whether the coefficient multiplies from the left or the right
    factor.
    """
    s0, op_order = frac(s0), frac(op_order)
    if not (isinstance(k, int) and isinstance(n, int) and n > k >= 1):
        raise OrderError("need integers n > k >= 1")
    half_k = _half(k)
    conormal_tag = Tag.LEFT_CONORMAL if side is Side.LEFT else Tag.RIGHT_CONORMAL
    diag_term = SpaceTerm(
        (Tag.FLOW_OUT, Tag.DIAG), PairOrder(op_order, -s0 + half_k, k)
    )
    dim_y = n - k
    conormal_term = SpaceTerm(
        (Tag.FLOW_OUT, conormal_tag),
        PairOrder(-s0 - _half(dim_y), op_order + _half(n), k),
    )
    return SpaceDecomposition(paired=(diag_term, conormal_term))


def mult_bounded_range(s0: Rational, k: int) -> RegularityWindow:
    """Orders ``s`` for which multiplication by the singular coefficient
    preserves H^s: admissible iff ``s0 > k``, window ``(-s0 + k/2, s0 - k/2)``."""
    s0 = frac(s0)
    half_k = _half(k)
    return RegularityWindow(
        lo=-s0 + half_k, hi=s0 - half_k, admissible=s0 > k, s0=s0, k=k
    )


def elliptic_window(s0: Rational, eps0: Rational, k: int) -> RegularityWindow:
    """Window for the elliptic interaction estimates: gate ``k + 2*eps0 < s0``,
    window ``(-s0 + eps0 + 1 + k/2, s0 - eps0 - k/2)``."""
    s0, eps0 = frac(s0), frac(eps0)
    if eps0 <= 0:
        raise OrderError("eps0 must be positive")
    half_k = _half(k)
    return RegularityWindow(
        lo=-s0 + eps0 + 1 + half_k,
        hi=s0 - eps0 - half_k,
        admissible=k + 2 * eps0 < s0,
        s0=s0,
        k=k,
        eps0=eps0,
    )


def hyperbolic_window(s0: Rational, eps0: Rational, k: int) -> HyperbolicWindow:
    """Window for propagation across the singular interface.

    Gate ``k + 1 + 2*eps0 < s0``.  The theorem window is
    ``(-k/2, s0 - eps0 - 1 - k/2)``; the derived lower bound
    ``-s0 + eps0 + 1 + k/2`` sits strictly below ``-k/2`` whenever the gate
    holds, so intersecting changes nothing then.  Both are exposed and the
    caller chooses which one gates downstream work.
    """
    s0, eps0 = frac(s0), frac(eps0)
    if eps0 <= 0:
        raise OrderError("eps0 must be positive")
    half_k = _half(k)
    admissible = k + 1 + 2 * eps0 < s0
    hi = s0 - eps0 - 1 - half_k
    theorem = RegularityWindow(
        lo=-half_k, hi=hi, admissible=admissible, s0=s0, k=k, eps0=eps0
    )
    derived_lo = -s0 + eps0 + 1 + half_k
    intersected = RegularityWindow(
        lo=max(-half_k, derived_lo), hi=hi, admissible=admissible, s0=s0, k=k, eps0=eps0
    )
    return HyperbolicWindow(theorem=theorem, derived_lo=derived_lo, intersected=intersected)


@dataclass(frozen=True)
class ConstraintChainReport:
    """Truth values of the interface-interaction constraint chain.

    ``prelim`` are the three raw inequalities of the commutator boundedness
    computation (with dim Y = n - k); ``reduced`` their simplified equivalent;
    ``reduction`` the constraints under which the problem reduces to the
    self-adjoint divergence form.  The report also carries instance-level
    checks of the asserted implications.
    """

    s0: Fraction
    eps0: Fraction
    s: Fraction
    k: int
    n: int
    prelim: tuple[bool, bool, bool]
    reduced: tuple[bool, bool, bool]
    reduction: tuple[bool, bool, bool]
    prelim_matches_reduced: bool
    reduced_implies_reduction: bool
    second_automatic: bool

    @property
    def all_prelim(self) -> bool:
        return all(self.prelim)

    @property
    def all_reduced(self) -> bool:
        return all(self.reduced)

    @property
    def all_reduction(self) -> bool:
        return all(self.reduction)


def verify_constraint_chain(
    s0: Rational, eps0: Rational, s: Rational, k: int, n: int
) -> ConstraintChainReport:
    """Evaluate the full constraint chain at one exact-rational sample.

    Every inequality is decided on the integer lattice of ``_lattice``: the
    scaled ``s0, eps0, s`` against ``1 -> 2h`` and ``j/2 -> j*h``.
    """
    s0, eps0, s = frac(s0), frac(eps0), frac(s)
    _reject_float(k, n)
    h, (S0, E, S) = _lattice(s0, eps0, s)
    one, half_k, half_n, half_y = 2 * h, k * h, n * h, (n - k) * h

    prelim = (
        -S0 + 2 * S + one + half_k < 2 * S - 2 * E - half_k,
        -S0 + one - half_y < S - E - half_n,
        -S0 + 2 * S + one + half_k < S - E,
    )
    reduced = (
        k * one + one + 2 * E < S0,
        S > -S0 + E + one + half_k,
        S < S0 - E - one - half_k,
    )
    reduction = (
        S0 > k * one,
        -S0 + half_k < S - one,
        S - one < S0 - half_k,
    )
    prelim_matches_reduced = all(a == b for a, b in zip(prelim, reduced))
    reduced_implies_reduction = (not all(reduced)) or all(reduction)
    second_automatic = (not (reduced[0] and S > -half_k)) or reduced[1]
    return ConstraintChainReport(
        s0=s0,
        eps0=eps0,
        s=s,
        k=k,
        n=n,
        prelim=prelim,
        reduced=reduced,
        reduction=reduction,
        prelim_matches_reduced=prelim_matches_reduced,
        reduced_implies_reduction=reduced_implies_reduction,
        second_automatic=second_automatic,
    )


def bootstrap_schedule(
    s_target: Rational, eps0: Rational, s_prior: Rational | None = None
) -> list[Fraction]:
    """Increasing ladder of orders for the elliptic bootstrap.

    Starts at ``min(s_target - eps0 + 1/2, s_target)`` and climbs by ``1/2``
    per step, clamped at ``s_target``.  ``s_prior`` (the a-priori order,
    defaulting to ``s_target - eps0``) must not exceed the target.
    """
    s_target, eps0 = frac(s_target), frac(eps0)
    if eps0 <= 0:
        raise OrderError("eps0 must be positive")
    if s_prior is None:
        s_prior = s_target - eps0
    else:
        s_prior = frac(s_prior)
    if s_prior > s_target:
        raise OrderError("a-priori order exceeds the target")
    half = Fraction(1, 2)
    steps = [min(s_target - eps0 + half, s_target)]
    while steps[-1] < s_target:
        steps.append(min(steps[-1] + half, s_target))
    return steps


def schedule_length(eps0: Rational) -> int:
    """Closed-form length of the bootstrap ladder: 1 + max(0, ceil(2(eps0 - 1/2)))."""
    eps0 = frac(eps0)
    return 1 + max(0, math.ceil(2 * (eps0 - Fraction(1, 2))))
