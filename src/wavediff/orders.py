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
point enters any code path here.  The composition, embedding and
decomposition rules, the windows, the constraint chain and the boundedness
predicates scale their rational inputs once to one integer lattice (see
``_lattice``), decide their branches and gates on ``int``s, and build each
order they return once as a ``Fraction`` over that lattice.
"""

from __future__ import annotations

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


def _lattice(*xs: Fraction) -> list[int]:
    """Scale exact rationals to integers over one even common denominator ``2h``.

    Returns ``[h, x_1 * 2h, x_2 * 2h, ...]``.  A half-integer ``j/2`` scales
    to ``j * h``, so any (in)equality among the ``xs`` and half-integers is
    the same (in)equality among ``int``s, and ``Fraction(x, 2 * h)`` maps a
    lattice ``int`` back to its order.  Plain loops, not comprehensions: this
    runs in every rule.  The four-operand predicates (``include_filter`` and
    the ``bounded_*`` family), which run most often, spell the same scaling
    out inline.
    """
    scaled, dens = [0], []
    for x in xs:
        num, den = x.as_integer_ratio()
        scaled.append(num)
        dens.append(den)
    d = math.lcm(2, *dens)
    scaled[0] = d // 2
    for i, den in enumerate(dens, 1):
        scaled[i] *= d // den
    return scaled


def _check_codim(k) -> None:
    if not isinstance(k, int) or k < 1:
        raise OrderError("codimension k must be a positive integer, got %r" % (k,))


def _check_dim(n, k: int) -> None:
    if not (isinstance(n, int) and n > k):
        _reject_float(n)
        raise OrderError("need integers n > k >= 1")


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
        if type(self.p) is not Fraction:
            object.__setattr__(self, "p", frac(self.p))
        if type(self.l) is not Fraction:
            object.__setattr__(self, "l", frac(self.l))
        _check_codim(self.k)

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
        if type(self.order) is not Fraction:
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
        if type(self.lo) is not Fraction:
            object.__setattr__(self, "lo", frac(self.lo))
        if type(self.hi) is not Fraction:
            object.__setattr__(self, "hi", frac(self.hi))
        if type(self.s0) is not Fraction:
            object.__setattr__(self, "s0", frac(self.s0))
        if self.eps0 is not None and type(self.eps0) is not Fraction:
            object.__setattr__(self, "eps0", frac(self.eps0))

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
        h, ap, al, bp, bl, e = _lattice(a.p, a.l, b.p, b.l, ell)
        two_h = 2 * h
        if e <= al + bl:
            raise OrderError("fallback shift must exceed l + l' = %s" % (Fraction(al + bl, two_h),))
        big_l = max(al - e, bl, al - e + bl + a.k * h)
        return PairOrder(Fraction(ap + bp + e, two_h), Fraction(big_l, two_h), a.k)


def _check_same_k(a: PairOrder, b: PairOrder) -> int:
    if a.k != b.k:
        raise IncomparableOrdersError(
            "orders live on pairs of different codimension: %d vs %d" % (a.k, b.k)
        )
    return a.k


def include_filter(a: PairOrder, b: PairOrder, conditions: bool = False):
    """Inclusion of pair spaces: needs p1 <= p2 and p1 + l1 <= p2 + l2.

    Like the ``bounded_*`` predicates, it returns whether both conditions
    hold, or with ``conditions`` the pair of them, in the docstring's order.
    """
    _check_same_k(a, b)
    (ap, apd), (al, ald) = a.p.as_integer_ratio(), a.l.as_integer_ratio()
    (bp, bpd), (bl, bld) = b.p.as_integer_ratio(), b.l.as_integer_ratio()
    d = math.lcm(apd, ald, bpd, bld)
    ap, bp = ap * (d // apd), bp * (d // bpd)
    first, second = ap <= bp, ap + al * (d // ald) <= bp + bl * (d // bld)
    return (first, second) if conditions else first and second


def embed_lambda0(p: Rational, k: int) -> PairOrder:
    """Embed a pure order-``p`` space on the other Lagrangian into the pair.

    The result is ``(p - k/2, k/2)``; the first component cannot be lowered
    even at the cost of raising the second, because the growth rate at the
    front face of the underlying blow-up is pinned by ``p`` alone.
    """
    p = frac(p)
    _check_codim(k)
    h, P = _lattice(p)
    kh, two_h = k * h, 2 * h
    return PairOrder(Fraction(P - kh, two_h), Fraction(kh, two_h), k)


def reverse_pair(o: PairOrder, eps: Rational) -> SpaceDecomposition:
    """Exchange the roles of the two Lagrangians.

    For ``l < -k/2`` the result is a pure main-Lagrangian term of order ``p``
    plus a reversed pair term ``(p + l + eps, -l - eps)``; for ``l > -k/2`` a
    single reversed term ``(p + l, k/2)``.  At ``l == -k/2`` exactly, a
    logarithmic loss appears, handled by perturbing ``l`` to ``l + eps`` and
    applying the second branch.
    """
    eps = frac(eps)
    h, p, l, e = _lattice(o.p, o.l, eps)
    if e <= 0:
        raise OrderError("eps must be positive")
    kh, two_h = o.k * h, 2 * h
    reversed_pair = (Tag.DIAG, Tag.FLOW_OUT)
    if l < -kh:
        return SpaceDecomposition(
            paired=(SpaceTerm(reversed_pair, PairOrder(
                Fraction(p + l + e, two_h), Fraction(-l - e, two_h), o.k)),),
            pure=(LagrangianTerm(Tag.DIAG, o.p),),
        )
    if l > -kh:
        return SpaceDecomposition(
            paired=(SpaceTerm(reversed_pair, PairOrder(
                Fraction(p + l, two_h), Fraction(kh, two_h), o.k)),)
        )
    # boundary case: perturb l upward by eps, then the l > -k/2 branch applies
    return SpaceDecomposition(
        paired=(SpaceTerm(reversed_pair, PairOrder(
            Fraction(p + l + e, two_h), Fraction(kh, two_h), o.k)),)
    )


def compose_au(a: PairOrder, b: PairOrder) -> PairOrder:
    """Flow-out composition rule with the diagonal conormal listed first."""
    k = _check_same_k(a, b)
    h, ap, al, bp, bl = _lattice(a.p, a.l, b.p, b.l)
    kh, two_h = k * h, 2 * h
    return PairOrder(Fraction(ap + bp + kh, two_h), Fraction(al + bl - kh, two_h), k)


def compose_flowout(a: PairOrder, b: PairOrder) -> PairOrder:
    """Composition with the diagonal conormal as the main Lagrangian.

    Valid only when ``a.l + b.l < 0``; the main orders add exactly and the
    relative order is ``max(l, l', l + l' + k/2)``.  The constraint is sharp:
    at ``l + l' = 0`` the off-diagonal symbols are marginally non-multipliable,
    so the rejection is an error (carrying the opt-in fallback), never a
    silent relaxation.
    """
    k = _check_same_k(a, b)
    h, ap, al, bp, bl = _lattice(a.p, a.l, b.p, b.l)
    if al + bl >= 0:
        raise FlowoutCompositionError(a, b)
    two_h = 2 * h
    return PairOrder(Fraction(ap + bp, two_h), Fraction(max(al, bl, al + bl + k * h), two_h), k)


def bounded_gu(o: PairOrder, m_src: Rational, m_dst: Rational, conditions: bool = False):
    """Sobolev boundedness H^{m_src} -> H^{m_dst} with the flow-out listed second.

    With gap = m_src - m_dst, the conditions are p + k/2 <= gap and
    p + l <= gap; both are non-strict.  The published proof's reduction to the
    equality case needs a small repair (when the sum condition binds with the
    main order strictly below -k/2, one first raises it to -k/2 by the
    inclusion filter), but the stated criterion itself is unchanged, so this
    predicate implements it as printed.
    """
    (p, pd), (l, ld) = o.p.as_integer_ratio(), o.l.as_integer_ratio()
    (src, sd), (dst, dd) = frac(m_src).as_integer_ratio(), frac(m_dst).as_integer_ratio()
    d = math.lcm(2, pd, ld, sd, dd)
    p, gap = p * (d // pd), src * (d // sd) - dst * (d // dd)
    first, second = p + o.k * (d // 2) <= gap, p + l * (d // ld) <= gap
    return (first, second) if conditions else first and second


def bounded_diag_flowout(
    o: PairOrder, m_src: Rational, m_dst: Rational, conditions: bool = False
):
    """Boundedness H^{m_src} -> H^{m_dst} with the diagonal conormal as main.

    With gap = m_src - m_dst, the conditions are p <= gap and
    p + l < gap - k/2: the first non-strict, the second strict; the
    distinction is meaningful and preserved exactly.
    """
    (p, pd), (l, ld) = o.p.as_integer_ratio(), o.l.as_integer_ratio()
    (src, sd), (dst, dd) = frac(m_src).as_integer_ratio(), frac(m_dst).as_integer_ratio()
    d = math.lcm(2, pd, ld, sd, dd)
    p, gap = p * (d // pd), src * (d // sd) - dst * (d // dd)
    first, second = p <= gap, p + l * (d // ld) < gap - o.k * (d // 2)
    return (first, second) if conditions else first and second


def bounded_one_sided(
    o: PairOrder, n: int, m: Rational, m_src: Rational, side: Side, conditions: bool = False
):
    """Boundedness H^{m_src} -> H^{-m} for one-sided conormal pairs.

    ``side`` selects which factor carries the conormal main Lagrangian:
    LEFT for N*{x'=0} (kernel singular in the left variables), RIGHT for
    N*{y'=0}.  The conditions are p + l < m + m_src - k/2 and
    p < m - n/2 (LEFT) or p < m_src - n/2 (RIGHT); both are strict.
    """
    _check_dim(n, o.k)
    (p, pd), (l, ld) = o.p.as_integer_ratio(), o.l.as_integer_ratio()
    (dst, dd), (src, sd) = frac(m).as_integer_ratio(), frac(m_src).as_integer_ratio()
    d = math.lcm(2, pd, ld, dd, sd)
    h = d // 2
    p, dst, src = p * (d // pd), dst * (d // dd), src * (d // sd)
    first = p + l * (d // ld) < dst + src - o.k * h
    if side is Side.LEFT:
        second = p < dst - n * h
    elif side is Side.RIGHT:
        second = p < src - n * h
    else:
        raise OrderError("side must be Side.LEFT or Side.RIGHT")
    return (first, second) if conditions else first and second


def psdo_shift(o: PairOrder, s: Rational, side: Side) -> PairOrder:
    """Compose a one-sided conormal pair with an order-``s`` operator.

    Left composition raises the main order, right composition the relative
    one.
    """
    s = frac(s)
    if side is Side.LEFT:
        h, p, t = _lattice(o.p, s)
        return PairOrder(Fraction(p + t, 2 * h), o.l, o.k)
    if side is Side.RIGHT:
        h, l, t = _lattice(o.l, s)
        return PairOrder(o.p, Fraction(l + t, 2 * h), o.k)
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
    h, S0, OP = _lattice(s0, op_order)
    two_h = 2 * h
    conormal_tag = Tag.LEFT_CONORMAL if side is Side.LEFT else Tag.RIGHT_CONORMAL
    diag_term = SpaceTerm(
        (Tag.FLOW_OUT, Tag.DIAG), PairOrder(op_order, Fraction(-S0 + k * h, two_h), k)
    )
    conormal_term = SpaceTerm(
        (Tag.FLOW_OUT, conormal_tag),
        PairOrder(Fraction(-S0 - (n - k) * h, two_h), Fraction(OP + n * h, two_h), k),
    )
    return SpaceDecomposition(paired=(diag_term, conormal_term))


def mult_bounded_range(s0: Rational, k: int) -> RegularityWindow:
    """Orders ``s`` for which multiplication by the singular coefficient
    preserves H^s: admissible iff ``s0 > k``, window ``(-s0 + k/2, s0 - k/2)``."""
    s0 = frac(s0)
    _check_codim(k)
    h, S0 = _lattice(s0)
    kh, two_h = k * h, 2 * h
    return RegularityWindow(
        lo=Fraction(-S0 + kh, two_h), hi=Fraction(S0 - kh, two_h),
        admissible=S0 > 2 * kh, s0=s0, k=k,
    )


def elliptic_window(s0: Rational, eps0: Rational, k: int) -> RegularityWindow:
    """Window for the elliptic interaction estimates: gate ``k + 2*eps0 < s0``,
    window ``(-s0 + eps0 + 1 + k/2, s0 - eps0 - k/2)``."""
    s0, eps0 = frac(s0), frac(eps0)
    h, S0, E = _lattice(s0, eps0)
    if E <= 0:
        raise OrderError("eps0 must be positive")
    _check_codim(k)
    kh, two_h = k * h, 2 * h
    return RegularityWindow(
        lo=Fraction(-S0 + E + two_h + kh, two_h),
        hi=Fraction(S0 - E - kh, two_h),
        admissible=2 * kh + 2 * E < S0,
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
    h, S0, E = _lattice(s0, eps0)
    if E <= 0:
        raise OrderError("eps0 must be positive")
    _check_codim(k)
    kh, two_h = k * h, 2 * h
    admissible = 2 * kh + two_h + 2 * E < S0
    hi = Fraction(S0 - E - two_h - kh, two_h)
    lo = Fraction(-kh, two_h)
    derived = -S0 + E + two_h + kh
    derived_lo = Fraction(derived, two_h)
    theorem = RegularityWindow(
        lo=lo, hi=hi, admissible=admissible, s0=s0, k=k, eps0=eps0
    )
    intersected = RegularityWindow(
        lo=derived_lo if derived > -kh else lo, hi=hi, admissible=admissible,
        s0=s0, k=k, eps0=eps0,
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
    _check_codim(k)
    _check_dim(n, k)
    h, S0, E, S = _lattice(s0, eps0, s)
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
    prelim_matches_reduced = prelim == reduced
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


def bootstrap_schedule(s_target: Rational, eps0: Rational) -> list[Fraction]:
    """Increasing ladder of orders for the elliptic bootstrap from the
    a-priori order ``s_target - eps0``.

    Starts at ``min(s_target - eps0 + 1/2, s_target)`` and climbs by ``1/2``
    per step, clamped at ``s_target``.
    """
    s_target, eps0 = frac(s_target), frac(eps0)
    if eps0 <= 0:
        raise OrderError("eps0 must be positive")
    half = Fraction(1, 2)
    steps = [min(s_target - eps0 + half, s_target)]
    while steps[-1] < s_target:
        steps.append(min(steps[-1] + half, s_target))
    return steps
