"""Buchberger completion, normal forms, weighted Groebner bases."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from skewgb import (
    KINDS,
    BudgetExceeded,
    MonomialIdeal,
    MonomialOrder,
    PresentationError,
    RegionError,
    RingPresentation,
    SkewGbError,
    WeightVector,
    buchberger,
    commutative_presentation,
    epsilon_threshold,
    groebner_wrt_weight,
    homogenize,
    initial_ideal_weight,
    multiply,
    normal_form,
    parse_expression,
    parse_problem,
    pr_contains,
    pr_sample_positive,
    rees_presentation,
    sl2_presentation,
    universal_gb,
    validate_order,
    weyl_presentation,
)
from skewgb import groebner
from skewgb.rees import _positive_rees
from skewgb.ring import SkewPoly

from corpus import CORPUS
from oracle import (
    buchberger_all_pairs,
    ideal_member_comm,
    ideals_equal_comm,
    initial_ideal_by_completion,
    rees_basis_by_rounds,
    saturation_by_bayer,
    strip_x0,
)
from test_kernel import vector_fields

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
        assert set(ours) == expected


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
        r = normal_form(A2, f, gb, o)
        # remainder monomials are not divisible by any leading monomial
        leads = MonomialIdeal(A2.m, A2.n, [o.leading_monomial(g) for g in gb])
        for mono in r.terms:
            assert not leads.contains_monomial(mono)

    def test_budget_raises(self, monkeypatch):
        o = MonomialOrder("grevlex")
        monkeypatch.setenv("SKEWGB_MAX_STEPS", "2")
        with pytest.raises(BudgetExceeded):
            normal_form(A2, (A2.x(1) * A2.y(1)) ** 4, [A2.y(1) - A2.one()], o)


class TestForeignElements:
    """An element of another ring is refused before any work is done; the
    commutative ring with A1's shape has x1*y1 + 1 but no y1*x1 = x1*y1 + 1."""

    FOREIGN = commutative_presentation(1, 1)

    def test_normal_form_rejects_a_foreign_divisor(self):
        # read as an element of A1 it would divide y1*x1 exactly
        divisor = self.FOREIGN.x(1) * self.FOREIGN.y(1) + self.FOREIGN.one()
        with pytest.raises(PresentationError):
            normal_form(A1, A1.y(1) * A1.x(1), [divisor], MonomialOrder("grevlex"))

    def test_normal_form_rejects_a_foreign_dividend(self):
        with pytest.raises(PresentationError):
            normal_form(A1, self.FOREIGN.x(1), [A1.y(1)], MonomialOrder("grevlex"))

    def test_buchberger_rejects_before_any_reduction(self, monkeypatch):
        reductions = []
        real = groebner.normal_form

        def counting(*args):
            reductions.append(args)
            return real(*args)

        monkeypatch.setattr(groebner, "normal_form", counting)
        C = self.FOREIGN
        with pytest.raises(PresentationError):
            buchberger(A1, [C.x(1) * C.y(1) + C.one(), C.y(1) ** 2], MonomialOrder("grevlex"))
        assert reductions == []


class TestBuchberger:
    def test_single_generator(self):
        gb = buchberger(A1, [2 * A1.y(1)], MonomialOrder("grevlex"))
        assert gb == [A1.y(1)]

    def test_commutative_classic(self):
        S = commutative_presentation(2)
        x, y = S.x(1), S.x(2)
        gb = buchberger(S, [x * x - y, x], MonomialOrder("lex"))
        assert set(gb) == {x, y}

    def test_unit_ideal(self):
        gb = buchberger(A2, [A2.y(1), A2.y(1) - A2.one()], MonomialOrder("grevlex"))
        assert gb == [A2.one()]

    def test_reduced_property(self):
        gens = [A2.y(1) ** 2 - A2.y(2), A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)]
        o = MonomialOrder("grlex")
        gb = buchberger(A2, gens, o)
        leads = [o.leading_monomial(g) for g in gb]
        for i, g in enumerate(gb):
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
        for g in made_monic + gb:
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
            assert normal_form(A1, g, gb, o).is_zero()

    def test_non_term_order_refused(self, monkeypatch):
        # under weight -1, x1 - x1^2 has lead x1 and reduction never ends
        S = commutative_presentation(1)
        x = S.x(1)
        order = MonomialOrder("grevlex").refine(WeightVector.for_ring(S, [-1]))
        monkeypatch.setenv("SKEWGB_MAX_STEPS", "1000")
        with pytest.raises(SkewGbError, match="term order"):
            buchberger(S, [x - x * x, x ** 3], order)

    def test_order_breaking_m1_m2_refused(self):
        # y1 x1 - x1 y1 = x1^2: grevlex puts x1^2 above the word x1 y1
        P = RingPresentation(1, 1, q1={(1, 1): {(2,): 1}})
        with pytest.raises(SkewGbError, match=r"order violates \(M1\)/\(M2\)"):
            buchberger(P, [P.y(1)], MonomialOrder("grevlex"))


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
                    grevlex = MonomialOrder("grevlex")
                    gb = buchberger(S, init, grevlex)
                    assert ideal_member_comm(S, target, gb, grevlex)

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


def _draw_gens(draw, P, degree, terms, count):
    """1 to ``count`` generators, each of at most ``terms`` terms of
    degree <= ``degree`` with nonzero integer coefficients in [-3, 3]."""
    monos = _monomials_up_to(P, degree)
    gens = []
    for _ in range(draw(st.integers(1, count))):
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=terms, unique=True))
        coeffs = draw(
            st.lists(
                st.integers(-3, 3).filter(bool), min_size=len(support), max_size=len(support)
            )
        )
        gens.append(SkewPoly(P, {mono: Fraction(c) for mono, c in zip(support, coeffs)}))
    return gens


@st.composite
def small_weighted_ideals(draw):
    """An ideal of 1-2 generators of degree <= 2 in A1, A2 or sl2 and a
    positive integer weight in the polynomial region."""
    P = SMALL_RINGS[draw(st.sampled_from(sorted(SMALL_RINGS)))]
    gens = _draw_gens(draw, P, 2, 3, 2)
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
        basis = groebner_wrt_weight(P, gens, w)
        order = MonomialOrder("grevlex", w)
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


# per ring: the largest generator degree and number of terms drawn; beyond
# these the all-pairs oracle can take tens of seconds on one draw
COMPLETION_RINGS = {
    "A1": (A1, 3, 3),
    "A2": (A2, 2, 2),
    "sl2": (sl2_presentation(), 2, 2),
    "comm": (commutative_presentation(3), 2, 3),
    "vector_fields": (vector_fields(), 2, 2),
}
# Rees rings at mixed-sign weights: base ring, degree, terms, generators
REES_BASES = {"A1": (A1, 2, 3, 2), "A2": (A2, 2, 2, 2), "sl2": (sl2_presentation(), 2, 2, 2)}


@st.composite
def completion_cases(draw):
    """(ring, generators, term order): a small ideal of A1, A2, sl2, a
    commutative ring or a custom presentation under grevlex or a positive
    weight refinement of it, or the homogenized generators of a small
    ideal on its Rees ring under the shifted order of a mixed-sign weight."""
    name = draw(st.sampled_from(sorted(COMPLETION_RINGS) + ["rees"]))
    if name == "rees":
        P, degree, terms, count = REES_BASES[draw(st.sampled_from(sorted(REES_BASES)))]
        dim = P.m + P.n
        w = WeightVector.for_ring(P, draw(st.lists(st.integers(-3, 4), min_size=dim, max_size=dim)))
        assume(not w.is_nonnegative() and pr_contains(P, w))
        rz = _positive_rees(P)
        shifted = groebner._rees_weight_order(rz, w)
        gens = [homogenize(rz, g) for g in _draw_gens(draw, P, degree, terms, count)]
        return rz.ring, gens, MonomialOrder("grevlex").refine(shifted)
    P, degree, terms = COMPLETION_RINGS[name]
    order = MonomialOrder("grevlex")
    if draw(st.booleans()):
        dim = P.m + P.n
        w = draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim))
        order = order.refine(WeightVector.for_ring(P, w))
    assume(validate_order(P, order))
    return P, _draw_gens(draw, P, degree, terms, 3), order


def _case(P, gens, w=None):
    order = MonomialOrder("grevlex")
    if w is not None:
        order = order.refine(WeightVector.for_ring(P, w))
    return P, [parse_expression(P, g) for g in gens], order


class TestPairCriteria:
    """``buchberger`` skips S-pairs by the Gebauer-Moller criteria; its
    reduced basis must be the one the plain all-pairs algorithm gives."""

    # ideals on which a B step that drops (i, j) even when
    # lcm(lead_i, lead_h) equals its lcm returns a wrong basis
    @example(_case(A1, ["-3*x1^3", "3*x1*y1^2", "2*x1^2*y1 + x1*y1"], (1, 1)))
    @example(_case(sl2_presentation(), ["-2*y3^2", "3*y1^2 - y2^2"]))
    @example(
        _case(
            commutative_presentation(3),
            ["x1*x2 - 2*x3^2 + 3*x3", "2*x2*x3", "-x1*x3 + 2*x2*x3 - 1"],
            (1, 3, 1),
        )
    )
    @given(completion_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_all_pairs_oracle(self, case):
        P, gens, order = case
        assert buchberger(P, gens, order) == buchberger_all_pairs(P, gens, order)

    @pytest.mark.parametrize(
        "gens, w, budget",
        [
            # 1,378 pairs and 40 s without the pair criteria; 83 pairs with them
            (["x1*x2 - x2*y2 + y1", "-x1*y2 + 2*y1^2 + 1"], (1, 0, 3, 1), 150),
            # 4,950 pairs and 27 s without the pair criteria; 326 with them
            (["3*y1^2 + y1*y2 - 2*x2", "-3*x1*y2 + x2"], (-3, -2, 5, 4), 500),
        ],
    )
    def test_slow_unit_ideals_fit_a_pair_budget(self, gens, w, budget, monkeypatch):
        monkeypatch.setenv("SKEWGB_MAX_PAIRS", str(budget))
        basis = groebner_wrt_weight(
            A2, [parse_expression(A2, g) for g in gens], WeightVector.for_ring(A2, w)
        )
        assert basis == [A2.one()]


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
            assert initial_ideal_weight(A2, gens, w) == initial_ideal_weight(A2, other, w)


# per ring: the ring, the largest generator degree and number of terms
READ_OFF_RINGS = {
    "A1": (A1, 2, 3),
    "A2": (A2, 2, 2),
    "sl2": (sl2_presentation(), 2, 2),
    "custom": (parse_problem("ring: custom 1 1\nq1 1 1: x1^2\n").ring, 2, 3),
}
# per ring: its integral weights in PR(R) with entries in [-3, 5]
PR_WEIGHTS = {
    name: [
        w
        for w in (
            WeightVector.for_ring(P, e)
            for e in itertools.product(range(-3, 6), repeat=P.m + P.n)
        )
        if pr_contains(P, w)
    ]
    for name, (P, _degree, _terms) in READ_OFF_RINGS.items()
}


@st.composite
def read_off_cases(draw, names=tuple(sorted(READ_OFF_RINGS)), mixed=False):
    """A small ideal of one of the rings ``names`` and an integral weight
    of its PR(R); a weight with a negative entry when ``mixed``."""
    name = draw(st.sampled_from(names))
    P, degree, terms = READ_OFF_RINGS[name]
    weights = [w for w in PR_WEIGHTS[name] if not (mixed and w.is_nonnegative())]
    return P, _draw_gens(draw, P, degree, terms, 2), draw(st.sampled_from(weights))


class TestInitialIdealReadOff:
    """``initial_ideal_weight`` interreduces the initial forms of the one
    weighted basis; they must already be a grevlex Groebner basis of the
    ideal they generate, at every sign of the weight."""

    @given(read_off_cases())
    @settings(max_examples=250, deadline=None)
    def test_matches_completion_oracle(self, case):
        P, gens, w = case
        basis = groebner_wrt_weight(P, gens, w)
        assert initial_ideal_weight(P, gens, w) == initial_ideal_by_completion(P, basis, w)

    def test_rees_ring_witness(self):
        # example_b homogenized in the Rees ring of A2 at (1, 1, 1, 1), at a
        # weight universal_gb reaches there; if grevlex over all Rees
        # variables, x0 included, broke the ties of the shifted weight, the
        # forms of the basis would give only the first two generators
        w_plus = WeightVector.for_ring(A2, [1, 1, 1, 1])
        rz = rees_presentation(A2, w_plus)
        gens = [A2.y(1) ** 2 - A2.y(2), A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)]
        hgens = [homogenize(rz, g) for g in gens]
        w = WeightVector.for_ring(rz.ring, [-5, 0, 0, -6, -7])
        init = initial_ideal_weight(rz.ring, hgens, w)
        # S = gr of the Rees ring names x0, x1, x2 as x1, x2, x3
        assert [str(h) for h in init] == ["-x1*y2 + y1^2", "x2*y1", "x1*x2*y2"]
        basis = groebner_wrt_weight(rz.ring, hgens, w)
        assert init == initial_ideal_by_completion(rz.ring, basis, w)


class TestMixedSignMembership:
    """At a weight with a negative entry, the dehomogenized Rees basis
    generates the same ideal as the generators, for every base order."""

    @pytest.mark.parametrize("kind", KINDS)
    @given(case=read_off_cases(("A1", "A2", "sl2"), mixed=True))
    @settings(max_examples=50, deadline=None)
    def test_basis_generates_the_ideal(self, kind, case):
        P, gens, w = case
        basis = groebner_wrt_weight(P, gens, w, kind)
        grevlex = MonomialOrder("grevlex")
        assert buchberger(P, basis, grevlex) == buchberger(P, gens, grevlex)


def _gens(P, text):
    return [parse_expression(P, t) for t in text.split(";")]


# the ideal <2x1^2y1^2 + 2x1^2y1 + 3y1^3, -x1^3y1^2 - 2x1^2y1^2 - 3x1^3>
# of A1 contains a unit, but the homogenized generators do not generate
# their x0-saturation, so completing them without dividing out x0 leaves
# a longer basis with a spurious wall
A1_UNIT = _gens(A1, "2*x1^2*y1^2 + 2*x1^2*y1 + 3*y1^3; -x1^3*y1^2 - 2*x1^2*y1^2 - 3*x1^3")
A1_UNIT_W = WeightVector.for_ring(A1, [3, -2])
# a unit ideal of A2 whose completion from the homogenized generators,
# dividing out x0 as elements joined, left 10 elements at (-3, 5, 4, 5)
A2_UNIT = _gens(A2, "3*x2^2 + 3*x1; x2*y2 + y2^2")
A2_UNIT_W = WeightVector.for_ring(A2, [-3, 5, 4, 5])


class TestReesCompletionByRounds:
    """Completing from the homogenized basis at the positive sample weight
    gives a basis of the same ideal with the same in_w(I) as completing
    the homogenized generators first and stripping x0 between whole
    completions."""

    @given(case=read_off_cases(mixed=True))
    @example(case=(A1, A1_UNIT, A1_UNIT_W))
    @example(case=(A2, A2_UNIT, A2_UNIT_W))
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle(self, case):
        P, gens, w = case
        by_rounds = rees_basis_by_rounds(P, gens, w)
        assert initial_ideal_weight(P, gens, w) == initial_ideal_by_completion(P, by_rounds, w)
        # a term order of every ring here, the custom one included
        order = MonomialOrder("grevlex", pr_sample_positive(P))
        basis = groebner_wrt_weight(P, gens, w)
        assert buchberger(P, basis, order) == buchberger(P, by_rounds, order)


@pytest.fixture
def rees_runs(monkeypatch):
    """The length of the basis each Rees-ring completion returns, in order."""
    runs = []
    real = groebner.buchberger

    def counting(P, gens, order):
        basis = real(P, gens, order)
        if isinstance(order, groebner._ReesOrder):
            runs.append(len(basis))
        return basis

    monkeypatch.setattr(groebner, "buchberger", counting)
    return runs


class TestReesCompletionStartsSaturated:
    """The Rees completion starts from the homogenized basis at the
    positive sample weight, which generates the x0-saturation, so one
    completion gives the reduced basis and nothing is stripped."""

    UNIT_A2 = _gens(A2, "x1*y1 + x2*y2 - 1; y1*y2 - y1^2 + x1")
    BESSEL_A2 = _gens(A2, "x1*y1^2 + y1 - x1*y2; y2^2 - y1")
    W = WeightVector.for_ring(A2, [2, 1, -1, 1])

    def test_unit_ideal_in_one_run(self, rees_runs):
        # completed from the homogenized generators, the first run ended
        # at 20 elements and a second one collapsed them to [1]
        assert groebner_wrt_weight(A2, self.UNIT_A2, self.W) == [A2.one()]
        assert rees_runs == [1]

    def test_bessel_in_one_run(self, rees_runs):
        # completed from the homogenized generators it took three runs,
        # and two while x0 was divided out as elements joined
        basis = groebner_wrt_weight(A2, self.BESSEL_A2, self.W)
        assert [str(g) for g in basis] == ["y1", "y2"]
        assert rees_runs == [2]

    def test_a1_unit_ideal(self):
        assert groebner_wrt_weight(A1, A1_UNIT, A1_UNIT_W) == [A1.one()]
        # stripping x0 only between whole completions leaves this basis,
        # whose second element puts a spurious wall at 2/3 along (-1, 3)
        by_rounds = rees_basis_by_rounds(A1, A1_UNIT, A1_UNIT_W)
        assert [str(g) for g in by_rounds] == ["y1^2", "307/112*y1 + 1", "x1*y1", "x1^3"]
        # a unit ideal has one cone, so no wall bounds any direction
        d = WeightVector.for_ring(A1, [-1, 3])
        assert epsilon_threshold(A1, A1_UNIT, A1_UNIT_W, d) == 1


@st.composite
def saturation_cases(draw):
    """A small ideal of A1, A2 or U(sl2) and three integral weights of its
    PR(R), the first with a negative entry."""
    name = draw(st.sampled_from(["A1", "A2", "sl2"]))
    P, degree, terms = READ_OFF_RINGS[name]
    mixed = [w for w in PR_WEIGHTS[name] if not w.is_nonnegative()]
    weights = [draw(st.sampled_from(mixed))]
    weights += draw(st.lists(st.sampled_from(PR_WEIGHTS[name]), min_size=2, max_size=2))
    return P, _draw_gens(draw, P, degree, terms, 2), weights


class TestSaturatedStartAgainstBayer:
    """The homogenized basis at the positive sample weight generates the
    x0-saturation of the homogenized ideal, and so does every Rees basis
    completed from it; so the reduced bases have no element divisible by
    x0 and do not depend on which weights a ``_Bases`` asked first."""

    @given(case=saturation_cases())
    @example(case=(A2, A2_UNIT, [A2_UNIT_W, pr_sample_positive(A2), A2_UNIT_W]))
    @settings(max_examples=60, deadline=None)
    def test_matches_bayer_saturation(self, case):
        P, gens, weights = case
        rz, order, saturation = saturation_by_bayer(P, gens)
        reference = buchberger(rz.ring, saturation, order)
        w_plus = pr_sample_positive(P)
        start = [homogenize(rz, g) for g in groebner_wrt_weight(P, gens, w_plus)]
        assert buchberger(rz.ring, start, order) == reference
        forward, backward = groebner._Bases(P, gens), groebner._Bases(P, gens)
        for w in weights:
            forward.at(w)
            if not w.is_nonnegative():
                _rz, rees_basis = forward._rees
                assert all(strip_x0(g) == g for g in rees_basis)
                assert buchberger(rz.ring, rees_basis, order) == reference
        for w in reversed(weights):
            backward.at(w)
        for w in weights:
            assert forward.at(w) == backward.at(w)
            assert list(forward.at(w)[0]) == groebner_wrt_weight(P, gens, w)


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
