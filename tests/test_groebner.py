"""Buchberger completion, normal forms, weighted Groebner bases."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skewgb import (
    BudgetExceeded,
    MonomialOrder,
    RegionError,
    SkewGbError,
    WeightVector,
    buchberger,
    commutative_presentation,
    groebner_wrt_weight,
    initial_ideal_weight,
    multiply,
    normal_form,
    pr_contains,
    sl2_presentation,
    universal_gb,
    weyl_presentation,
)
from skewgb import groebner
from skewgb.groebner import ideals_equal_comm
from skewgb.ring import SkewPoly

from corpus import CORPUS

A1 = weyl_presentation(1)
A2 = weyl_presentation(2)


def _to_sympy(S, f, syms):
    expr = 0
    for (a, b), c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, a + b):
            term *= s ** e
        expr += term
    return expr


def _from_sympy(S, expr, syms):
    poly = sympy.Poly(expr, *syms)
    terms = {}
    for monom, coeff in poly.terms():
        a = tuple(monom[: S.m])
        b = tuple(monom[S.m:])
        terms[(a, b)] = Fraction(int(sympy.numer(coeff)), int(sympy.denom(coeff)))
    return SkewPoly(S, terms)


class TestCommutativeAgainstSympy:
    @pytest.mark.parametrize("seed", range(8))
    def test_reduced_gb_matches_sympy(self, seed):
        rng = random.Random(seed)
        S = commutative_presentation(3)
        syms = sympy.symbols("s0 s1 s2")

        def rand():
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                a = tuple(rng.randrange(3) for _ in range(3))
                terms[(a, ())] = Fraction(rng.randrange(-4, 5) or 1)
            return SkewPoly(S, terms)

        gens = [rand() for _ in range(rng.randrange(1, 4))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            return
        ours = buchberger(S, gens, MonomialOrder("lex"))
        theirs = sympy.groebner(
            [_to_sympy(S, g, syms) for g in gens], *syms, order="lex"
        )
        order = MonomialOrder("lex")
        expected = set()
        for e in theirs.exprs:
            p = _from_sympy(S, e, syms)
            lead = order.leading_monomial(p)
            expected.add(p.scale(1 / p.terms[lead]))
        assert set(ours.elements) == expected


class TestNormalForm:
    def test_weyl_reduction(self):
        o = MonomialOrder("grevlex")
        g = [A1.y(1)]
        # x1*y1 reduces to 0; y1*x1 = x1*y1 + 1 reduces to 1
        assert normal_form(A1, A1.x(1) * A1.y(1), g, o).is_zero()
        assert normal_form(A1, A1.y(1) * A1.x(1), g, o) == A1.one()

    def test_difference_in_ideal(self):
        o = MonomialOrder("grevlex")
        gens = [A2.y(1) ** 2 - A2.y(2), A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)]
        gb = buchberger(A2, gens, o)
        f = A2.x(1) * A2.y(2) ** 2 + A2.y(1)
        r = normal_form(A2, f, list(gb.elements), o)
        # remainder monomials are not divisible by any leading monomial
        for mono in r.terms:
            assert not gb.initial_ideal(A2.m, A2.n).contains_monomial(mono)

    def test_budget_raises(self):
        o = MonomialOrder("grevlex")
        with pytest.raises(BudgetExceeded):
            normal_form(
                A2,
                (A2.x(1) * A2.y(1)) ** 4,
                [A2.y(1) - A2.one()],
                o,
                max_steps=2,
            )


class TestBuchberger:
    def test_single_generator(self):
        gb = buchberger(A1, [2 * A1.y(1)], MonomialOrder("grevlex"))
        assert list(gb.elements) == [A1.y(1)]

    def test_commutative_classic(self):
        S = commutative_presentation(2)
        x, y = S.x(1), S.x(2)
        gb = buchberger(S, [x * x - y, x], MonomialOrder("lex"))
        assert set(gb.elements) == {x, y}

    def test_unit_ideal(self):
        gb = buchberger(A2, [A2.y(1), A2.y(1) - A2.one()], MonomialOrder("grevlex"))
        assert list(gb.elements) == [A2.one()]

    def test_reduced_property(self):
        gens = [A2.y(1) ** 2 - A2.y(2), A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)]
        o = MonomialOrder("grlex")
        gb = buchberger(A2, gens, o)
        leads = [o.leading_monomial(g) for g in gb.elements]
        for i, g in enumerate(gb.elements):
            assert g.terms[leads[i]] == 1  # monic
            for mono in g.terms:
                for j, lead in enumerate(leads):
                    if i == j and mono == leads[i]:
                        continue
                    assert not all(
                        x >= y for x, y in zip(mono[0] + mono[1], lead[0] + lead[1])
                    )

    def test_exact_coefficients_throughout(self, monkeypatch):
        # y1*x1^3 - x1^3*y1 = 3*x1^2: made monic, its lead is exactly 1
        o = MonomialOrder("grevlex")
        x, y = A1.x(1), A1.y(1)
        lead = ((2,), (0,))
        spair = groebner._s_pair(A1, x ** 3, ((3,), (0,)), y, ((0,), (1,)))
        assert spair.terms == {lead: 3}
        assert type(spair.terms[lead]) is Fraction
        made_monic = []

        def spy(f, order):
            g = monic(f, order)
            made_monic.append(g)
            return g

        monic = groebner._monic
        monkeypatch.setattr(groebner, "_monic", spy)
        gb = buchberger(A1, [x ** 3, y], o)
        assert any(set(g.terms) == {lead} for g in made_monic)
        for g in made_monic + list(gb.elements):
            assert type(g.terms[o.leading_monomial(g)]) is Fraction
            assert g.terms[o.leading_monomial(g)] == 1
            assert all(type(c) is Fraction for c in g.terms.values())
        r = normal_form(A1, y * x ** 3, [y * x], o)
        assert r.terms == {lead: Fraction(2)}
        assert all(type(c) is Fraction for c in r.terms.values())

    def test_ideal_membership_preserved(self):
        # every returned element reduces to zero against the generators'
        # completed basis, and vice versa generators reduce to zero
        o = MonomialOrder("grevlex")
        gens = [A1.y(1) ** 2 - A1.x(1), A1.x(1) * A1.y(1)]
        gb = buchberger(A1, gens, o)
        for g in gens:
            assert normal_form(A1, g, list(gb.elements), o).is_zero()

    def test_non_term_order_refused(self):
        # under weight -1, x1 - x1^2 has lead x1 and reduction never ends
        S = commutative_presentation(1)
        x = S.x(1)
        order = MonomialOrder("grevlex").refine(WeightVector.for_ring(S, [-1]))
        with pytest.raises(SkewGbError, match="term order"):
            buchberger(S, [x - x * x, x ** 3], order, max_steps=1000)


class TestWeightedGroebner:
    def test_outside_pr_rejected(self):
        with pytest.raises(RegionError):
            groebner_wrt_weight(
                A1, [A1.y(1)], WeightVector.for_ring(A1, [-1, -1])
            )

    def test_example_a_unit(self):
        w = WeightVector.for_ring(A2, [2, 2, -1, -1])
        init = initial_ideal_weight(
            A2, [A2.y(1) - A2.one(), A2.y(2) - A2.one()], w
        )
        assert [str(h) for h in init] == ["1"]

    def test_example_b_initial(self):
        w = WeightVector.for_ring(A2, [1, 1, 1, 3])
        gens = [A2.y(1) ** 2 - A2.y(2), A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)]
        init = initial_ideal_weight(A2, gens, w)
        assert sorted(str(h) for h in init) == ["x2*y1^2", "y2"]

    def test_initial_forms_of_basis_generate_initial_ideal(self):
        # corpus spot check: the initial ideal from the weighted basis
        # contains the initial form of random ideal elements
        rng = random.Random(9)
        for entry in CORPUS[:6]:
            P = entry["ring"]
            gens = entry["gens"]
            if not gens:
                continue
            S = P.graded()
            for w in entry["weights"][:3]:
                init = initial_ideal_weight(P, gens, w)
                from skewgb.weights import initial_form

                # random combination h = sum c_i * m_i * g_i
                for _ in range(3):
                    h = P.zero()
                    for g in gens:
                        a = tuple(rng.randrange(2) for _ in range(P.m))
                        b = tuple(rng.randrange(2) for _ in range(P.n))
                        mono = SkewPoly(P, {(a, b): Fraction(rng.randrange(1, 4))})
                        h = h + mono * g
                    if h.is_zero():
                        continue
                    target = initial_form(P, h, w)
                    gb = buchberger(S, init, MonomialOrder("grevlex"))
                    from skewgb.groebner import ideal_member_comm

                    assert ideal_member_comm(S, target, gb)

    def test_scaling_invariance(self):
        w1 = WeightVector.for_ring(A1, [3, -1])
        w2 = WeightVector.for_ring(A1, [Fraction(3, 2), Fraction(-1, 2)])
        g = [A1.y(1) ** 2 - A1.x(1)]
        assert [str(h) for h in initial_ideal_weight(A1, g, w1)] == [
            str(h) for h in initial_ideal_weight(A1, g, w2)
        ]


SMALL_RINGS = {"A1": A1, "A2": A2, "sl2": sl2_presentation()}


def _monomials_up_to(P, degree):
    """All (a, b) exponent pairs of total degree at most ``degree``."""
    exps = itertools.product(range(degree + 1), repeat=P.m + P.n)
    return [(e[: P.m], e[P.m:]) for e in exps if sum(e) <= degree]


@st.composite
def small_weighted_ideals(draw):
    """An ideal of 1-2 generators of degree <= 2 in A1, A2 or sl2 and a
    positive integer weight in the polynomial region."""
    P = SMALL_RINGS[draw(st.sampled_from(sorted(SMALL_RINGS)))]
    monos = _monomials_up_to(P, 2)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        coeffs = draw(
            st.lists(
                st.integers(-3, 3).filter(bool), min_size=len(support), max_size=len(support)
            )
        )
        gens.append(SkewPoly(P, {mono: Fraction(c) for mono, c in zip(support, coeffs)}))
    dim = P.m + P.n
    w = WeightVector.for_ring(P, draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim)))
    assume(pr_contains(P, w))
    return P, gens, w


def _left_shift(P, f, lead, target, order):
    """The standard monomial of exponent ``target - lead`` times f, made
    monic; its leading monomial is ``target``."""
    a, b = (
        tuple(t - s for t, s in zip(target[0], lead[0])),
        tuple(t - s for t, s in zip(target[1], lead[1])),
    )
    h = multiply(P, P.monomial(a, b), f)
    return h.scale(1 / h.coefficient(order.leading_monomial(h)))


class TestWeightedBasisProperties:
    """Differential checks of ``groebner_wrt_weight`` at positive weights,
    against S-pairs built here from ``multiply``."""

    @given(small_weighted_ideals())
    @settings(max_examples=120, deadline=None)
    def test_reduced_basis_with_reducing_s_pairs(self, case):
        P, gens, w = case
        basis, order = groebner_wrt_weight(P, gens, w)
        leads = [order.leading_monomial(g) for g in basis]
        for g, lead in zip(basis, leads):
            # monic, and reduced: no term of g lies in another's lead ideal
            assert g.coefficient(lead) == 1
            others = [h for h in basis if h is not g]
            assert normal_form(P, g, others, order) == g
        for g in gens:
            assert normal_form(P, g, basis, order).is_zero()
        for i, (f, lf) in enumerate(zip(basis, leads)):
            for g, lg in zip(basis[i + 1:], leads[i + 1:]):
                lcm = (
                    tuple(map(max, lf[0], lg[0])),
                    tuple(map(max, lf[1], lg[1])),
                )
                sf = _left_shift(P, f, lf, lcm, order)
                sg = _left_shift(P, g, lg, lcm, order)
                assert order.leading_monomial(sf) == order.leading_monomial(sg) == lcm
                assert normal_form(P, sf - sg, basis, order).is_zero()


class TestCanonicalInitialIdeal:
    """``initial_ideal_weight`` lists are equal exactly when the ideals
    are; the fan compares initial ideals with ``==`` on this contract."""

    # walls and positive multiples next to the corpus's generic weights
    EXTRA = {
        2: [(2, 1), (4, 2), (Fraction(3, 2), Fraction(-1, 2))],
        4: [(1, 1, 1, 1), (2, 2, 2, 2), (1, 1, 2, 2), (4, 4, -2, -2)],
    }

    def test_list_equality_is_ideal_equality(self):
        verdicts = []
        for entry in CORPUS:
            P, gens = entry["ring"], entry["gens"]
            S = P.graded()
            weights = list(entry["weights"]) + [
                WeightVector.for_ring(P, w) for w in self.EXTRA[P.m + P.n]
            ]
            inits = [initial_ideal_weight(P, gens, w) for w in weights]
            for i, lhs in enumerate(inits):
                for rhs in inits[i + 1:]:
                    equal = ideals_equal_comm(S, lhs, rhs)
                    assert (lhs == rhs) == equal, entry["name"]
                    verdicts.append(equal)
        # both verdicts occur, so neither side of the contract is vacuous
        assert verdicts.count(False) > 100 and verdicts.count(True) > 100

    def test_generating_set_does_not_matter(self):
        gens = [A2.y(1) ** 2 - A2.y(2), A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)]
        other = [gens[1], gens[0] + A2.x(1) * gens[1], gens[0]]
        for entries in ((1, 1, 1, 1), (1, 1, 1, 3), (2, 2, -1, -1)):
            w = WeightVector.for_ring(A2, entries)
            for kind in ("lex", "grlex", "grevlex"):
                assert initial_ideal_weight(A2, gens, w, kind=kind) == (
                    initial_ideal_weight(A2, other, w, kind=kind)
                )


class TestUniversal:
    def test_parabola_universal(self):
        basis = universal_gb(A1, [A1.y(1) ** 2 - A1.x(1)])
        assert [str(g) for g in basis] == ["y1^2 - x1"]

    def test_universal_is_weighted_basis_everywhere(self):
        gens = [A2.y(1) ** 2 - A2.y(2), A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)]
        uni = universal_gb(A2, gens)
        S = A2.graded()
        for entries in ((1, 1, 1, 3), (1, 2, 3, 1), (5, 1, 2, 1), (1, 1, 5, 1)):
            w = WeightVector.for_ring(A2, entries)
            lhs = initial_ideal_weight(A2, gens, w)
            from skewgb.weights import initial_form

            rhs = [initial_form(A2, g, w) for g in uni]
            assert ideals_equal_comm(S, lhs, rhs)
