"""Monomial orders: base kinds and weight refinement."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewgb import (
    KINDS,
    MonomialOrder,
    SkewGbError,
    WeightVector,
    commutative_presentation,
    rees_presentation,
    sl2_presentation,
    validate_order,
    weyl_presentation,
)

A1 = weyl_presentation(1)
A2 = weyl_presentation(2)
SL2 = sl2_presentation()


def mono(a, b):
    return (tuple(a), tuple(b))


class TestBaseOrders:
    def test_lex(self):
        o = MonomialOrder("lex")
        assert o.less(mono([0, 1], []), mono([1, 0], []))
        assert o.less(mono([1, 0], []), mono([1, 1], []))

    def test_grlex_degree_first(self):
        o = MonomialOrder("grlex")
        assert o.less(mono([2, 0], []), mono([1, 1, ], []) ) is False
        assert o.less(mono([1, 0], []), mono([0, 2], []))

    def test_grevlex_classic_distinction(self):
        # x^2 y z vs x y^3: grevlex compares total degree 4 = 4 then
        # reversed-exponent; classic example x1^1x2^1x3^2 < x1^2x2^2
        o = MonomialOrder("grevlex")
        a = mono([1, 1, 2], [])
        b = mono([2, 2, 0], [])
        assert o.less(a, b)

    def test_grlex_grevlex_differ(self):
        o1, o2 = MonomialOrder("grlex"), MonomialOrder("grevlex")
        a = mono([0, 2, 0], [])
        b = mono([1, 0, 1], [])
        assert o1.less(a, b) != o2.less(a, b)

    def test_unknown_kind(self):
        with pytest.raises(SkewGbError):
            MonomialOrder("mystery")


class TestRefinement:
    def test_weight_comparison_first(self):
        w = WeightVector.for_ring(A1, [1, 3])
        o = MonomialOrder("grevlex").refine(w)
        assert o.less(mono([2], [0]), mono([0], [1]))  # weight 2 < 3
        assert o.is_term_order

    def test_negative_weight_is_not_term_order(self):
        w = WeightVector.for_ring(A1, [3, -1])
        o = MonomialOrder("grevlex").refine(w)
        assert not o.is_term_order
        # 1 > y1 under this order
        assert o.less(mono([0], [1]), mono([0], [0]))

    def test_sort_terms_deterministic(self):
        f = A2.x(1) * A2.y(1) + A2.y(2) + A2.one()
        o = MonomialOrder("grevlex")
        assert o.sort_terms(f) == o.sort_terms(f)


class TestMultiplicativeValidity:
    def test_term_orders_valid_on_weyl_and_sl2(self):
        for kind in KINDS:
            for P in (A1, A2, SL2):
                assert validate_order(P, MonomialOrder(kind))

    def test_weight_refinement_valid_iff_in_pr_spirit(self):
        # (3,-1) in PR(A1): in_w relations still drop; order valid
        assert validate_order(A1, MonomialOrder("grevlex").refine(
            WeightVector.for_ring(A1, [3, -1])
        ))
        # (-1,-1) not in PR: x1*y1 vs 1 has weight -2 < 0: invalid
        assert not validate_order(A1, MonomialOrder("grevlex").refine(
            WeightVector.for_ring(A1, [-1, -1])
        ))

    def test_sl2_weight_order(self):
        assert validate_order(SL2, MonomialOrder("grevlex").refine(
            WeightVector.for_ring(SL2, [-1, 1, 3])
        ))

    def test_rees_shifted_weight_order(self):
        w = WeightVector.for_ring(A2, [2, 2, -1, -1])
        rz = rees_presentation(A2, WeightVector.for_ring(A2, [1, 1, 1, 1]))
        from skewgb.groebner import _rees_weight_order

        shifted = _rees_weight_order(rz, w)
        assert shifted.is_positive()
        order = MonomialOrder("grevlex").refine(shifted)
        assert order.is_term_order
        assert validate_order(rz.ring, order)


class TestLeadingData:
    def test_leading_monomial(self):
        f = A1.y(1) ** 2 - A1.x(1)
        o = MonomialOrder("grevlex")
        assert o.leading_monomial(f) == mono([0], [2])
        wo = o.refine(WeightVector.for_ring(A1, [3, 1]))
        assert wo.leading_monomial(f) == mono([1], [0])

    def test_zero_has_no_lead(self):
        with pytest.raises(SkewGbError):
            MonomialOrder("lex").leading_monomial(A1.zero())

    def test_total_order_random(self):
        rng = random.Random(1)
        o = MonomialOrder("grevlex").refine(WeightVector.for_ring(A2, [1, 2, 3, 1]))
        monos = [
            mono(
                [rng.randrange(4) for _ in range(2)],
                [rng.randrange(4) for _ in range(2)],
            )
            for _ in range(30)
        ]
        keys = [o.key(x) for x in monos]
        # keys induce a total order consistent with equality of monomials
        for mi, ki in zip(monos, keys):
            for mj, kj in zip(monos, keys):
                assert (ki == kj) == (mi == mj)


def reference_key(kind, weight, mono):
    """The order spelled out on Fractions: the rational weight, then the
    base term order."""
    a, b = mono
    head = ()
    if weight is not None:
        dot = sum(Fraction(u) * e for u, e in zip(weight.u, a)) + sum(
            Fraction(v) * e for v, e in zip(weight.v, b)
        )
        head = (dot,)
    exps = a + b
    if kind == "lex":
        return head + exps
    if kind == "grlex":
        return head + (sum(exps),) + exps
    return head + (sum(exps),) + tuple(-e for e in reversed(exps))


@st.composite
def orders_and_monomials(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(KINDS))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    weight = draw(
        st.none() | st.builds(WeightVector, st.lists(entry, min_size=m, max_size=m),
                              st.lists(entry, min_size=n, max_size=n))
    )
    exps = st.integers(0, 4)
    monomial = st.builds(
        mono,
        st.lists(exps, min_size=m, max_size=m),
        st.lists(exps, min_size=n, max_size=n),
    )
    monos = draw(st.lists(monomial, min_size=2, max_size=6))
    return kind, weight, monos


class TestCompiledKey:
    @given(orders_and_monomials())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_fraction_reference(self, case):
        kind, weight, monos = case
        order = MonomialOrder(kind, weight)
        for m1 in monos:
            r1 = reference_key(kind, weight, m1)
            for m2 in monos:
                r2 = reference_key(kind, weight, m2)
                assert order.less(m1, m2) == (r1 < r2)
                assert (order.key(m1) == order.key(m2)) == (r1 == r2)

    @given(orders_and_monomials())
    @settings(max_examples=50, deadline=None)
    def test_repeated_calls_are_stable(self, case):
        kind, weight, monos = case
        order = MonomialOrder(kind, weight)
        first = [order.key(x) for x in monos]
        fresh = MonomialOrder(kind, weight)
        assert [order.key(x) for x in monos] == first
        assert [fresh.key(x) for x in reversed(monos)] == first[::-1]

    @given(orders_and_monomials())
    @settings(max_examples=50, deadline=None)
    def test_memo_is_not_part_of_equality(self, case):
        kind, weight, monos = case
        used = MonomialOrder(kind, weight)
        for x in monos:
            used.key(x)
        fresh = MonomialOrder(kind, weight)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)

    def test_derived_orders_do_not_share_keys(self):
        base = MonomialOrder("grevlex")
        x1_sq, y1 = mono([2], [0]), mono([0], [1])
        assert base.less(y1, x1_sq)
        refined = base.refine(WeightVector.for_ring(A1, [Fraction(1, 2), 3]))
        assert refined == MonomialOrder("grevlex", weight=refined.weight)
        assert refined.less(x1_sq, y1)
        assert base.less(y1, x1_sq)

    def test_weight_scale_does_not_change_comparisons(self):
        w = WeightVector.for_ring(A2, [Fraction(1, 2), Fraction(-2, 3), 1, Fraction(5, 4)])
        o1 = MonomialOrder("grlex").refine(w)
        o2 = MonomialOrder("grlex").refine(w.scale(12))
        rng = random.Random(7)
        monos = [
            mono([rng.randrange(4) for _ in range(2)], [rng.randrange(4) for _ in range(2)])
            for _ in range(40)
        ]
        assert sorted(monos, key=o1.key) == sorted(monos, key=o2.key)
