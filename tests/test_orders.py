import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from wavediff.orders import (
    FlowoutCompositionError,
    HyperbolicWindow,
    IncomparableOrdersError,
    LagrangianTerm,
    OrderError,
    PairOrder,
    RegularityWindow,
    Side,
    SpaceDecomposition,
    SpaceTerm,
    Tag,
    bootstrap_schedule,
    bounded_diag_flowout,
    bounded_gu,
    bounded_one_sided,
    compose_au,
    compose_flowout,
    elliptic_window,
    embed_lambda0,
    hyperbolic_window,
    include_filter,
    mult_bounded_range,
    mult_decompose,
    psdo_shift,
    reverse_pair,
    verify_constraint_chain,
)
from wavediff.orders import Rational, _check_same_k, _reject_float, frac

F = Fraction


def po(p, l, k=1):
    return PairOrder(F(p), F(l), k)


# small rational grid used by the brute-force property checks
GRID = [F(n, d) for d in (1, 2, 4) for n in range(-8, 9)]


class TestExactness:
    def test_floats_rejected_everywhere(self):
        # nothing in this module may introduce rounding
        with pytest.raises(TypeError):
            PairOrder(0.5, 0, 1)
        with pytest.raises(TypeError):
            embed_lambda0(0.25, 1)
        with pytest.raises(TypeError):
            bounded_gu(po(0, 0), 0.1, 0)
        with pytest.raises(TypeError):
            hyperbolic_window(2.5, F(1, 20), 1)

    def test_string_rationals_accepted(self):
        assert PairOrder("1/2", "-3/4", 1) == po(F(1, 2), F(-3, 4))


class TestIncludeFilter:
    def test_reflexive_instance(self):
        assert include_filter(po(0, 0), po(0, 0))

    def test_direct_inequality_false(self):
        assert not include_filter(po(0, 0), po(1, -2))

    def test_sum_inequality_false(self):
        assert not include_filter(po(-1, 3), po(0, 1))

    def test_k_mismatch_raises(self):
        with pytest.raises(IncomparableOrdersError):
            include_filter(po(0, 0, 1), po(0, 0, 2))

    def test_preorder_reflexive(self):
        for p in GRID[::5]:
            for l in GRID[::5]:
                assert include_filter(po(p, l), po(p, l))

    def test_preorder_transitive(self):
        pts = [po(p, l) for p in GRID[::7] for l in GRID[::7]]
        for a, b, c in itertools.product(pts, repeat=3):
            if include_filter(a, b) and include_filter(b, c):
                assert include_filter(a, c)


class TestEmbed:
    def test_formula_k1(self):
        assert embed_lambda0(0, 1) == po(F(-1, 2), F(1, 2), 1)

    def test_formula_k2(self):
        assert embed_lambda0(0, 2) == po(-1, 1, 2)

    def test_roundtrip_monotone(self):
        # inclusion of embedded spaces is exactly the order comparison
        for k in (1, 2, 3):
            for p in GRID[::4]:
                for q in GRID[::4]:
                    assert include_filter(embed_lambda0(p, k), embed_lambda0(q, k)) == (p <= q)


class TestReversePair:
    def test_low_relative_order_branch(self):
        dec = reverse_pair(po(0, -1), F(1, 4))
        assert len(dec.pure) == 1
        assert dec.pure[0].tag is Tag.DIAG and dec.pure[0].order == 0
        (term,) = dec.paired
        assert term.pair == (Tag.DIAG, Tag.FLOW_OUT)
        assert term.order == po(F(-3, 4), F(3, 4))

    def test_high_relative_order_branch(self):
        for eps in (F(1, 10), F(1, 3)):
            dec = reverse_pair(po(0, 0), eps)
            assert not dec.pure
            assert dec.paired[0].order == po(0, F(1, 2))

    def test_boundary_branch(self):
        dec = reverse_pair(po(0, F(-1, 2)), F(1, 10))
        assert dec.paired[0].order == po(F(-2, 5), F(1, 2))

    def test_boundary_monotone_against_neighbors(self):
        # the boundary rule sits between the values the two open branches give
        # at relative orders just below and just above -k/2
        eps = F(1, 16)
        h = F(1, 64)
        below = reverse_pair(po(0, F(-1, 2) - h), eps).paired[0].order
        at = reverse_pair(po(0, F(-1, 2)), eps).paired[0].order
        above = reverse_pair(po(0, F(-1, 2) + h), eps).paired[0].order
        # main-Lagrangian orders are monotone across the three regimes
        assert below.p <= at.p <= above.p + eps

    def test_preserves_main_order_in_low_branch(self):
        # the reversed pair term carries order p on the old main Lagrangian
        o = po(F(3, 2), -2)
        dec = reverse_pair(o, F(1, 8))
        term = dec.paired[0].order
        assert term.p + term.l == o.p


class TestComposeAu:
    def test_formula(self):
        assert compose_au(po(0, 0), po(0, 0)) == po(F(1, 2), F(-1, 2))

    def test_embedded_idempotent(self):
        e = embed_lambda0(0, 1)
        assert compose_au(e, e) == e

    def test_formula_k2(self):
        assert compose_au(po(1, -1, 2), po(0, 0, 2)) == po(2, -2, 2)

    def test_embed_homomorphism(self):
        # composing embedded operator classes matches embedding the summed order
        import random

        rng = random.Random(7)
        for _ in range(1000):
            k = rng.choice((1, 2, 3))
            p = F(rng.randrange(-40, 40), rng.choice((1, 2, 4, 8)))
            q = F(rng.randrange(-40, 40), rng.choice((1, 2, 4, 8)))
            assert compose_au(embed_lambda0(p, k), embed_lambda0(q, k)) == embed_lambda0(p + q, k)


class TestComposeFlowout:
    def test_formula(self):
        a = po(F(1, 2), F(-8, 5))
        assert compose_flowout(a, a) == po(1, F(-8, 5))

    def test_rejects_nonnegative_sum_with_fallback(self):
        with pytest.raises(FlowoutCompositionError) as ei:
            compose_flowout(po(0, F(1, 2)), po(0, F(-1, 2)))
        fb = ei.value.fallback(F(1, 4))
        # l result: max(l - ell, l', l - ell + l' + k/2)
        assert fb == po(F(1, 4), max(F(1, 2) - F(1, 4), F(-1, 2), F(1, 2) - F(1, 4) + F(-1, 2) + F(1, 2)))
        with pytest.raises(Exception):
            ei.value.fallback(0)

    def test_interface_second_power_orders(self):
        # symbol-squared term built from the interaction orders at s=1,
        # s0=11/5, k=1, eps1=1/20: composing reproduces the product orders
        # up to the eps1 loss in the relative slot
        s, s0, k, eps1 = F(1), F(11, 5), 1, F(1, 20)
        b = po(s, -s0 + F(k, 2) + eps1, k)
        bb = compose_flowout(b, b)
        assert bb.p == 2 * s
        assert bb.l == -s0 + F(k, 2) + eps1
        product_orders = po(2 * s, -s0 + F(k, 2), k)
        assert bb.p == product_orders.p
        assert bb.l == product_orders.l + eps1

    def test_main_order_additive_never_exceeded(self):
        pts = [po(p, l) for p in GRID[::6] for l in GRID[::6]]
        for a, b in itertools.product(pts, repeat=2):
            if a.l + b.l < 0:
                c = compose_flowout(a, b)
                assert c.p == a.p + b.p
            else:
                with pytest.raises(FlowoutCompositionError):
                    compose_flowout(a, b)


class TestBoundedness:
    def test_gu_identity_boundary(self):
        assert bounded_gu(po(F(-1, 2), F(1, 2)), 0, 0)

    def test_gu_violations(self):
        assert not bounded_gu(po(0, 0), 0, 0)
        assert bounded_gu(po(-1, 1, 2), 0, 0)

    def test_diag_flowout_mult_term(self):
        # multiplication diagonal part (0, -s0 + k/2), s0 = 5/2, k = 1 is
        # bounded on every H^s
        o = po(0, F(-5, 2) + F(1, 2))
        for s in GRID[::3]:
            assert bounded_diag_flowout(o, s, s)

    def test_diag_flowout_strictness(self):
        assert not bounded_diag_flowout(po(0, 0), 0, 0)
        assert bounded_diag_flowout(po(-1, 0), 0, 0)

    def test_one_sided_mult_instance(self):
        # conormal summand of the multiplication kernel at s0=5/2, k=1, n=2,
        # acting H^s -> H^s with s=1 (so m = -s, m_src = s)
        o = po(F(-5, 2) - F(1, 2), 1)
        assert o.p + o.l == -2
        assert bounded_one_sided(o, 2, m=F(-1), m_src=F(1), side=Side.RIGHT)

    def test_one_sided_violation(self):
        assert not bounded_one_sided(po(0, 0), 2, 0, 0, Side.LEFT)

    def test_pure_flowout_corollary_equivalence(self):
        # boundedness of a pure flow-out order p operator: conditions
        # p < m + m' - k/2 and p < m; recovered by embedding with the
        # full codimension n and applying the one-sided predicate
        for k in (1, 2):
            n = k + 1
            for p in GRID[::5]:
                for m in GRID[::7]:
                    for m_src in GRID[::7]:
                        direct = (p < m + m_src - F(k, 2)) and (p < m)
                        emb = PairOrder(p - F(n, 2), F(n, 2), k)
                        via_embed = bounded_one_sided(emb, n, m, m_src, Side.LEFT)
                        assert direct == via_embed


class TestMultDecompose:
    def test_instance(self):
        dec = mult_decompose(F(5, 2), 0, 1, 2)
        diag, con = dec.paired
        assert diag.pair == (Tag.FLOW_OUT, Tag.DIAG)
        assert diag.order == po(0, -2)
        assert con.pair == (Tag.FLOW_OUT, Tag.LEFT_CONORMAL)
        assert con.order == po(-3, 1)

    def test_shifted_instance(self):
        s = F(1)
        dec = mult_decompose(F(5, 2), 2 * s - 2, 1, 2)
        diag, con = dec.paired
        assert diag.order == po(2 * s - 2, -2)
        assert con.order == po(-3, 2 * s - 1)

    def test_derivative_shifts_reach_commutator_orders(self):
        # one derivative on each side lifts the multiplication kernel to the
        # product orders (2s, -s0+k/2) and (-s0+1-(n-k)/2, 2s-1+n/2)
        s0, k, n = F(5, 2), 1, 2
        for s in (F(0), F(1), F(3, 2)):
            dec = mult_decompose(s0, 2 * s - 2, k, n)
            diag, con = dec.paired
            # diagonal-main pair: operator composition from either side adds
            # to the main order, realized through the embedded classes
            one = embed_lambda0(1, k)
            diag2 = compose_au(one, compose_au(diag.order, one))
            assert diag2 == po(2 * s, -s0 + F(k, 2))
            # one-sided pair: left composition raises the main order, right
            # composition the relative one
            con2 = psdo_shift(psdo_shift(con.order, 1, Side.LEFT), 1, Side.RIGHT)
            assert con2 == po(-s0 + 1 - F(n - k, 2), 2 * s - 1 + F(n, 2))


class TestPsdoShift:
    def test_left(self):
        assert psdo_shift(po(0, 0), 1, Side.LEFT) == po(1, 0)

    def test_right(self):
        assert psdo_shift(po(0, 0), 1, Side.RIGHT) == po(0, 1)

    def test_commute(self):
        o = po(F(1, 3), F(-2, 5))
        s, t = F(3, 4), F(-1, 2)
        a = psdo_shift(psdo_shift(o, s, Side.LEFT), t, Side.RIGHT)
        b = psdo_shift(psdo_shift(o, t, Side.RIGHT), s, Side.LEFT)
        assert a == b


class TestWindows:
    def test_mult_window_instance(self):
        w = mult_bounded_range(F(5, 2), 1)
        assert w.admissible and w.lo == -2 and w.hi == 2

    def test_mult_window_gate(self):
        assert not mult_bounded_range(1, 1).admissible
        w = mult_bounded_range(3, 2)
        assert w.admissible and (w.lo, w.hi) == (-2, 2)

    def test_elliptic_instance(self):
        w = elliptic_window(F(5, 2), F(1, 4), 1)
        assert w.admissible and w.lo == F(-3, 4) and w.hi == F(7, 4)

    def test_elliptic_gate(self):
        assert not elliptic_window(1, F(1, 10), 1).admissible

    def test_elliptic_lower_endpoint_property(self):
        # whenever admissible, lower endpoint < 1 - k/2, so orders at or
        # above 1 - k/2 automatically satisfy the lower constraint
        for k in (1, 2, 3):
            for s0 in [F(k) + F(i, 8) for i in range(1, 33)]:
                for eps0 in [F(j, 16) for j in range(1, 17)]:
                    w = elliptic_window(s0, eps0, k)
                    if w.admissible:
                        assert w.lo < 1 - F(k, 2)

    def test_hyperbolic_instance(self):
        w = hyperbolic_window(F(11, 5), F(1, 20), 1)
        assert w.admissible
        assert w.theorem.lo == F(-1, 2) and w.theorem.hi == F(13, 20)
        assert w.intersected.lo == F(-1, 2)
        assert w.derived_lo < w.theorem.lo

    def test_hyperbolic_gate(self):
        for eps0 in (F(1, 100), F(1, 4)):
            assert not hyperbolic_window(2, eps0, 1).admissible

    def test_hyperbolic_limiting_sup(self):
        # with s0 slightly above 1 + k the attainable orders top out just
        # above k/2 as eps0 shrinks
        for k in (1, 2):
            eta = F(1, 10)
            s0 = 1 + k + eta
            sups = []
            for eps0 in (F(1, 50), F(1, 200), F(1, 1000)):
                w = hyperbolic_window(s0, eps0, k)
                assert w.admissible
                sups.append(w.theorem.hi)
            limit = F(k, 2) + eta
            assert sups[0] < sups[1] < sups[2] < limit
            assert limit - sups[2] == F(1, 1000)

    def test_windows_monotone_in_s0_antitone_in_eps0(self):
        for k in (1, 2):
            for builder in (elliptic_window, hyperbolic_window):
                w_small = builder(F(k) + F(3, 2), F(1, 8), k)
                w_big = builder(F(k) + 2, F(1, 8), k)
                w_eps = builder(F(k) + F(3, 2), F(1, 4), k)
                for a, b in ((w_small, w_big), (w_eps, w_small)):
                    ta = getattr(a, "theorem", a)
                    tb = getattr(b, "theorem", b)
                    if ta.admissible:
                        assert tb.admissible
                        assert tb.lo <= ta.lo and ta.hi <= tb.hi


class TestConstraintChain:
    def test_sample_all_hold(self):
        rep = verify_constraint_chain(F(11, 5), F(1, 20), F(1, 2), 1, 2)
        assert rep.all_prelim and rep.all_reduced and rep.all_reduction
        assert rep.prelim_matches_reduced
        assert rep.reduced_implies_reduction
        assert rep.second_automatic

    def test_implications_brute_force(self):
        import random

        rng = random.Random(12345)
        for _ in range(10_000):
            k = rng.choice((1, 2, 3))
            n = rng.choice([m for m in (2, 3, 4) if m > k])
            s0 = F(rng.randrange(1, 64), 8)
            eps0 = F(rng.randrange(1, 32), 32)
            s = F(rng.randrange(-48, 48), 8)
            rep = verify_constraint_chain(s0, eps0, s, k, n)
            assert rep.prelim_matches_reduced
            assert rep.reduced_implies_reduction
            assert rep.second_automatic


def schedule_length(eps0: Rational) -> int:
    """Closed-form length of the bootstrap ladder: 1 + max(0, ceil(2(eps0 - 1/2)))."""
    eps0 = frac(eps0)
    return 1 + max(0, math.ceil(2 * (eps0 - Fraction(1, 2))))


class TestBootstrap:
    def test_single_step(self):
        assert bootstrap_schedule(1, F(3, 10)) == [F(1)]

    def test_two_steps(self):
        assert bootstrap_schedule(1, F(4, 5)) == [F(7, 10), F(1)]

    def test_lengths_and_monotone(self):
        for num in range(1, 41):
            eps0 = F(num, 10)
            for s_target in (F(0), F(1), F(-3, 2), F(7, 4)):
                sched = bootstrap_schedule(s_target, eps0)
                assert sched[-1] == s_target
                assert len(sched) == schedule_length(eps0)
                assert all(b > a for a, b in zip(sched, sched[1:]))
                if len(sched) > 1:
                    assert all(
                        b - a == F(1, 2) for a, b in zip(sched[:-1], sched[1:-1])
                    )
                    assert sched[-1] - sched[-2] <= F(1, 2)


# ---------------------------------------------------------------------------
# Reference bodies: the Fraction-chain rules and the list-based lattice
# predicates as they stood before every order was built once from lattice
# integers, kept verbatim apart from their names.  ``TestLatticeConstructors``
# pins the lattice code to them value for value, type for type and string for
# string, errors included.


def _half(j: int) -> Fraction:
    return Fraction(j, 2)


def _lattice(*xs: Fraction) -> tuple[int, list[int]]:
    d = math.lcm(2, *[x.denominator for x in xs])
    return d // 2, [x.numerator * (d // x.denominator) for x in xs]


def ref_fallback(self, ell: Rational) -> PairOrder:
    ell = frac(ell)
    a, b = self.a, self.b
    if ell <= a.l + b.l:
        raise OrderError("fallback shift must exceed l + l' = %s" % (a.l + b.l,))
    half_k = _half(a.k)
    big_l = max(a.l - ell, b.l, a.l - ell + b.l + half_k)
    return PairOrder(a.p + b.p + ell, big_l, a.k)


def ref_include_filter(a: PairOrder, b: PairOrder) -> bool:
    _check_same_k(a, b)
    _, (ap, al, bp, bl) = _lattice(a.p, a.l, b.p, b.l)
    return ap <= bp and ap + al <= bp + bl


def ref_embed_lambda0(p: Rational, k: int) -> PairOrder:
    p = frac(p)
    if not isinstance(k, int) or k < 1:
        raise OrderError("codimension k must be a positive integer")
    half_k = _half(k)
    return PairOrder(p - half_k, half_k, k)


def ref_reverse_pair(o: PairOrder, eps: Rational) -> SpaceDecomposition:
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


def ref_compose_au(a: PairOrder, b: PairOrder) -> PairOrder:
    k = _check_same_k(a, b)
    half_k = _half(k)
    return PairOrder(a.p + b.p + half_k, a.l + b.l - half_k, k)


def ref_compose_flowout(a: PairOrder, b: PairOrder) -> PairOrder:
    k = _check_same_k(a, b)
    if a.l + b.l >= 0:
        raise FlowoutCompositionError(a, b)
    half_k = _half(k)
    return PairOrder(a.p + b.p, max(a.l, b.l, a.l + b.l + half_k), k)


def ref_bounded_gu(o: PairOrder, m_src: Rational, m_dst: Rational) -> bool:
    h, (p, l, src, dst) = _lattice(o.p, o.l, frac(m_src), frac(m_dst))
    gap = src - dst
    return p + o.k * h <= gap and p + l <= gap


def ref_bounded_diag_flowout(o: PairOrder, m_src: Rational, m_dst: Rational) -> bool:
    h, (p, l, src, dst) = _lattice(o.p, o.l, frac(m_src), frac(m_dst))
    gap = src - dst
    return p <= gap and p + l < gap - o.k * h


def ref_bounded_one_sided(
    o: PairOrder, n: int, m: Rational, m_src: Rational, side: Side
) -> bool:
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


def ref_psdo_shift(o: PairOrder, s: Rational, side: Side) -> PairOrder:
    s = frac(s)
    if side is Side.LEFT:
        return PairOrder(o.p + s, o.l, o.k)
    if side is Side.RIGHT:
        return PairOrder(o.p, o.l + s, o.k)
    raise OrderError("side must be Side.LEFT or Side.RIGHT")


def ref_mult_decompose(
    s0: Rational, op_order: Rational, k: int, n: int, side: Side = Side.LEFT
) -> SpaceDecomposition:
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


def ref_mult_bounded_range(s0: Rational, k: int) -> RegularityWindow:
    s0 = frac(s0)
    half_k = _half(k)
    return RegularityWindow(
        lo=-s0 + half_k, hi=s0 - half_k, admissible=s0 > k, s0=s0, k=k
    )


def ref_elliptic_window(s0: Rational, eps0: Rational, k: int) -> RegularityWindow:
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


def ref_hyperbolic_window(s0: Rational, eps0: Rational, k: int) -> HyperbolicWindow:
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


def ref_bootstrap_schedule(s_target: Rational, eps0: Rational) -> list[Fraction]:
    s_target, eps0 = frac(s_target), frac(eps0)
    if eps0 <= 0:
        raise OrderError("eps0 must be positive")
    half = Fraction(1, 2)
    steps = [min(s_target - eps0 + half, s_target)]
    while steps[-1] < s_target:
        steps.append(min(steps[-1] + half, s_target))
    return steps


DENOMS = (1, 2, 3, 4, 6, 8, 12, 16, 64, 128)
DIMS = [(k, n) for k in (1, 2, 3) for n in range(k + 1, 7)]


def shape(x):
    """Type and ``str`` of ``x`` and, recursively, of its dataclass fields."""
    if dataclasses.is_dataclass(x):
        return type(x), str(x), tuple(shape(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, tuple):
        return tuple(shape(v) for v in x)
    return type(x), str(x)


def outcome(fn, *args):
    """The value and its shape, or the error type and message."""
    try:
        got = fn(*args)
    except Exception as err:
        return type(err), str(err)
    return got, shape(got)


def rat(rng, lo=-400, hi=400):
    return F(rng.randrange(lo, hi), rng.choice(DENOMS))


def pos(rng):
    return rat(rng, 1, 400)


def spelled(rng, x):
    """``x`` as a Fraction, a string or (when integral) an int."""
    form = rng.randrange(3)
    if form == 1:
        return str(x)
    if form == 2 and x.denominator == 1:
        return int(x)
    return x


class TestLatticeConstructors:
    """Every rule and predicate built on lattice integers returns exactly what
    the Fraction-chain bodies above return: equal values, equal types, equal
    ``str()`` (which ``calc --batch`` writes) and the same error first."""

    def same(self, fn, ref, *args):
        got, want = outcome(fn, *args), outcome(ref, *args)
        assert got == want, args
        return got

    def test_pair_rules(self):
        rng = random.Random(1204)
        for k, n in DIMS:
            for _ in range(60):
                a = PairOrder(spelled(rng, rat(rng)), spelled(rng, rat(rng)), k)
                b = PairOrder(rat(rng), rat(rng), k)
                self.same(embed_lambda0, ref_embed_lambda0, spelled(rng, rat(rng)), k)
                self.same(compose_au, ref_compose_au, a, b)
                self.same(compose_flowout, ref_compose_flowout, a, b)
                self.same(include_filter, ref_include_filter, a, b)
                for side in (Side.LEFT, Side.RIGHT, "left"):
                    self.same(psdo_shift, ref_psdo_shift, a, spelled(rng, rat(rng)), side)
                    self.same(bounded_one_sided, ref_bounded_one_sided,
                              a, n, spelled(rng, rat(rng)), rat(rng), side)
                m_src, m_dst = spelled(rng, rat(rng)), spelled(rng, rat(rng))
                self.same(bounded_gu, ref_bounded_gu, a, m_src, m_dst)
                self.same(bounded_diag_flowout, ref_bounded_diag_flowout, a, m_src, m_dst)
                # each condition of each predicate on its boundary in turn,
                # where strictness decides
                shift = abs(b.p)
                for c in (PairOrder(a.p + shift, a.l - shift, k), PairOrder(a.p, a.l + shift, k)):
                    self.same(include_filter, ref_include_filter, a, c)
                for gap in (a.p + F(k, 2), a.p + a.l):
                    self.same(bounded_gu, ref_bounded_gu, a, gap, 0)
                for gap in (a.p, a.p + a.l + F(k, 2)):
                    self.same(bounded_diag_flowout, ref_bounded_diag_flowout, a, gap, 0)
                edge, far = a.p + F(n, 2), abs(a.p) + abs(a.l) + n + 1
                rest = a.p + a.l + F(k, 2) - edge - 1
                for side, m, m_src in ((Side.LEFT, edge, far), (Side.RIGHT, far, edge),
                                       (Side.LEFT, edge + 1, rest), (Side.RIGHT, rest, edge + 1)):
                    self.same(bounded_one_sided, ref_bounded_one_sided, a, n, m, m_src, side)

    def test_reverse_pair_branches(self):
        rng = random.Random(1205)
        seen = set()
        for k, _ in DIMS:
            for _ in range(60):
                l = rng.choice((-F(k, 2), rat(rng), -F(k, 2) + F(1, 128), -F(k, 2) - F(1, 128)))
                o = PairOrder(rat(rng), l, k)
                eps = rng.choice((pos(rng), rat(rng), 0))
                got = self.same(reverse_pair, ref_reverse_pair, o, spelled(rng, eps))
                if isinstance(got[0], SpaceDecomposition):
                    seen.add((len(got[0].pure), l == -F(k, 2)))
        assert seen == {(1, False), (0, False), (0, True)}

    def test_flowout_rejection_and_fallback(self):
        rng = random.Random(1206)
        for k, _ in DIMS:
            for _ in range(60):
                a = PairOrder(rat(rng), rat(rng), k)
                total = rng.choice((F(0), pos(rng)))
                b = PairOrder(rat(rng), total - a.l, k)
                with pytest.raises(FlowoutCompositionError) as got:
                    compose_flowout(a, b)
                with pytest.raises(FlowoutCompositionError) as want:
                    ref_compose_flowout(a, b)
                assert str(got.value) == str(want.value)
                for shift in (-pos(rng), F(0), pos(rng)):
                    ell = spelled(rng, total + shift)
                    self.same(got.value.fallback, lambda e: ref_fallback(want.value, e), ell)

    def test_windows(self):
        rng = random.Random(1207)
        for k, _ in DIMS:
            for _ in range(80):
                eps0 = rng.choice((pos(rng) / 16, pos(rng), rat(rng), 0))
                # s0 on, just off and far from each gate
                near = rng.choice((F(0), F(1, 128), -F(1, 128), rat(rng)))
                for s0 in (k + 1 + 2 * eps0 + near, k + 2 * eps0 + near, k + near):
                    s0, e = spelled(rng, s0), spelled(rng, eps0)
                    self.same(hyperbolic_window, ref_hyperbolic_window, s0, e, k)
                    self.same(elliptic_window, ref_elliptic_window, s0, e, k)
                    self.same(mult_bounded_range, ref_mult_bounded_range, s0, k)

    def test_mult_decompose(self):
        rng = random.Random(1208)
        for k, n in DIMS:
            for _ in range(60):
                for side in (Side.LEFT, Side.RIGHT):
                    self.same(mult_decompose, ref_mult_decompose, spelled(rng, pos(rng)),
                              spelled(rng, rat(rng)), k, n, side)
            # the dimension gate, with its message
            self.same(mult_decompose, ref_mult_decompose, F(5, 2), 0, k, k)

    def test_bootstrap_schedule(self):
        # every (s_target, eps0) on a grid of small rationals, eps0 <= 0 included,
        # so the ladders run from one rung (eps0 <= 1/2) to a dozen
        grid = sorted({F(j, d) for j in range(-12, 13) for d in (1, 2, 3, 4, 6, 10)})
        for s_target in grid:
            for eps0 in grid:
                self.same(bootstrap_schedule, ref_bootstrap_schedule, s_target, eps0)
        rng = random.Random(1209)
        for _ in range(300):
            s_target = spelled(rng, rat(rng))
            eps0 = spelled(rng, rng.choice((pos(rng) / 16, pos(rng) / 64, rat(rng) / 64)))
            self.same(bootstrap_schedule, ref_bootstrap_schedule, s_target, eps0)

    def test_float_argument_on_every_entry_point(self):
        o = PairOrder(F(1, 3), F(-1, 2), 1)
        calls = [
            (embed_lambda0, ref_embed_lambda0, (0.5, 1)),
            (reverse_pair, ref_reverse_pair, (o, 0.25)),
            (bounded_gu, ref_bounded_gu, (o, 0.5, 0)),
            (bounded_gu, ref_bounded_gu, (o, 0, 0.5)),
            (bounded_diag_flowout, ref_bounded_diag_flowout, (o, 0.5, 0)),
            (bounded_diag_flowout, ref_bounded_diag_flowout, (o, 0, 0.5)),
            (bounded_one_sided, ref_bounded_one_sided, (o, 2.0, 0, 0, Side.LEFT)),
            (bounded_one_sided, ref_bounded_one_sided, (o, 2, 0.5, 0, Side.LEFT)),
            (bounded_one_sided, ref_bounded_one_sided, (o, 2, 0, 0.5, Side.RIGHT)),
            (psdo_shift, ref_psdo_shift, (o, 0.5, Side.LEFT)),
            (psdo_shift, ref_psdo_shift, (o, 0.5, "neither")),
            (mult_decompose, ref_mult_decompose, (2.5, 0, 1, 2)),
            (mult_decompose, ref_mult_decompose, (F(5, 2), 0.5, 1, 2)),
            (mult_bounded_range, ref_mult_bounded_range, (2.5, 1)),
            (elliptic_window, ref_elliptic_window, (2.5, F(1, 4), 1)),
            (elliptic_window, ref_elliptic_window, (F(5, 2), 0.25, 1)),
            (hyperbolic_window, ref_hyperbolic_window, (2.5, F(1, 4), 1)),
            (hyperbolic_window, ref_hyperbolic_window, (F(5, 2), 0.25, 1)),
            (bootstrap_schedule, ref_bootstrap_schedule, (1.0, F(1, 4))),
            (bootstrap_schedule, ref_bootstrap_schedule, (1, 0.25)),
            (PairOrder, PairOrder, (0.5, 0, 1)),
            (PairOrder, PairOrder, (0, 0.5, 1)),
            (LagrangianTerm, LagrangianTerm, (Tag.DIAG, 0.5)),
            (RegularityWindow, RegularityWindow, (0, 1, True, 3, 1, 0.5)),
        ]
        for fn, ref, args in calls:
            got = self.same(fn, ref, *args)
            assert got[0] is TypeError, (fn.__name__, args)
        with pytest.raises(FlowoutCompositionError) as err:
            compose_flowout(o, PairOrder(0, F(1, 2), 1))
        assert self.same(err.value.fallback, lambda e: ref_fallback(err.value, e), 0.5)[0] is TypeError
        for args in ((2.5, F(1, 20), F(1, 2), 1, 2), (F(5, 2), 0.05, F(1, 2), 1, 2),
                     (F(5, 2), F(1, 20), 0.5, 1, 2), (F(5, 2), F(1, 20), F(1, 2), 1.0, 2),
                     (F(5, 2), F(1, 20), F(1, 2), 1, 2.0)):
            with pytest.raises(TypeError):
                verify_constraint_chain(*args)


class TestPredicateConditions:
    """With ``conditions`` each predicate returns its two conditions, which
    ``calc --batch`` writes as the witness column: they are the criteria of
    the docstrings, restated here in Fraction arithmetic, and the predicate
    is their ``and``.  Each condition is also put on its boundary."""

    @staticmethod
    def check(pred, want, *args):
        assert pred(*args, conditions=True) == want, args
        assert pred(*args) is all(want), args

    def test_conditions_are_the_criteria(self):
        rng = random.Random(1208)
        for k, n in DIMS:
            half_k, half_n = F(k, 2), F(n, 2)
            for _ in range(60):
                a, b = PairOrder(rat(rng), rat(rng), k), PairOrder(rat(rng), rat(rng), k)
                shift = abs(b.p)
                edges = (PairOrder(a.p + shift, a.l - shift, k), PairOrder(a.p, a.l + shift, k))
                for c in (b, *edges):
                    self.check(include_filter, (a.p <= c.p, a.p + a.l <= c.p + c.l), a, c)
                for gap in (rat(rng), a.p + half_k, a.p + a.l):
                    self.check(bounded_gu, (a.p + half_k <= gap, a.p + a.l <= gap), a, gap, 0)
                for gap in (rat(rng), a.p, a.p + a.l + half_k):
                    self.check(bounded_diag_flowout, (a.p <= gap, a.p + a.l < gap - half_k),
                               a, gap, 0)
                edge = a.p + half_n
                for m, m_src in ((rat(rng), rat(rng)), (edge, rat(rng)), (rat(rng), edge),
                                 (edge, a.p + a.l + half_k - edge)):
                    for side, own in ((Side.LEFT, m), (Side.RIGHT, m_src)):
                        want = (a.p + a.l < m + m_src - half_k, a.p < own - half_n)
                        self.check(bounded_one_sided, want, a, n, m, m_src, side)


class TestCodimensionChecked:
    """Every entry point that takes the codimension ``k`` refuses anything but
    a positive ``int`` with ``PairOrder``'s error, and every one that takes
    the dimension ``n`` refuses ``n <= k``."""

    @pytest.mark.parametrize("k", [0, -1])
    @pytest.mark.parametrize(
        "call",
        [
            lambda k: PairOrder(0, 0, k),
            lambda k: embed_lambda0(0, k),
            lambda k: mult_bounded_range(5, k),
            lambda k: elliptic_window(5, F(1, 20), k),
            lambda k: hyperbolic_window(5, F(1, 20), k),
            lambda k: verify_constraint_chain(5, F(1, 20), F(1, 2), k, 2),
        ],
        ids=["PairOrder", "embed_lambda0", "mult_bounded_range", "elliptic_window",
             "hyperbolic_window", "verify_constraint_chain"],
    )
    def test_nonpositive_k(self, call, k):
        with pytest.raises(OrderError, match="codimension k must be a positive integer, got %d" % k):
            call(k)

    @pytest.mark.parametrize("k", [0, -1])
    def test_nonpositive_k_mult_decompose(self, k):
        with pytest.raises(OrderError, match="need integers n > k >= 1"):
            mult_decompose(F(5, 2), 0, k, 2)

    def test_non_int_k(self):
        for call in (lambda: hyperbolic_window(5, F(1, 20), "1"),
                     lambda: mult_bounded_range(5, F(1)),
                     lambda: embed_lambda0(0, 1.0)):
            with pytest.raises(OrderError, match="codimension k"):
                call()

    def test_dimension_above_codimension(self):
        with pytest.raises(OrderError, match="need integers n > k >= 1"):
            verify_constraint_chain(5, F(1, 20), F(1, 2), 2, 2)
        with pytest.raises(OrderError, match="need integers n > k >= 1"):
            bounded_one_sided(po(0, 0, 2), 2, 0, 0, Side.LEFT)
        assert verify_constraint_chain(5, F(1, 20), F(1, 2), 2, 3).k == 2
