"""Weight filtrations, initial forms and the polynomial region."""

import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    pr_forms_by_entries,
    pr_sample_positive_by_entries,
    validate_order_by_entries,
)

from skewgb import (
    KINDS,
    HalfspaceSystem,
    MonomialOrder,
    PresentationError,
    RegionError,
    SkewGbError,
    WeightVector,
    commutative_presentation,
    degree,
    initial_form,
    parse_problem,
    parse_problem_file,
    pr_contains,
    pr_halfspaces,
    pr_sample_positive,
    rees_presentation,
    sl2_presentation,
    validate_order,
    weight_degree,
    weyl_presentation,
)
from skewgb import weights
from skewgb.weights import NEG_INF

from test_kernel import heisenberg, vector_fields

A1 = weyl_presentation(1)
A2 = weyl_presentation(2)
SL2 = sl2_presentation()
PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "problems"


class TestWeightVector:
    def test_den_is_lcm_of_denominators(self):
        assert WeightVector([], []).den == 1
        w = WeightVector([Fraction(1, 4), Fraction(-5, 6)], [Fraction(3)])
        assert w.den == 12
        assert w._integral_scale().entries == (3, -10, 36)
        assert WeightVector([Fraction(0)], [2]).den == 1

    def test_shape_check(self):
        with pytest.raises(RegionError):
            WeightVector.for_ring(A2, [1, 1, 1])
        w = WeightVector.for_ring(A2, [1, 2, 3, 4])
        assert w.u == (1, 2) and w.v == (3, 4)

    def test_predicates(self):
        assert WeightVector.for_ring(A1, [1, 1]).is_positive()
        assert not WeightVector.for_ring(A1, [1, -1]).is_positive()
        assert WeightVector.for_ring(A1, [0, 1]).is_nonnegative()
        assert WeightVector.for_ring(A1, [Fraction(1, 2), 1]).is_positive()
        assert not WeightVector.for_ring(A1, [Fraction(1, 2), 1]).is_integral()

    @given(
        st.one_of(
            st.lists(st.integers(-9, 9), min_size=4, max_size=4),
            st.lists(
                st.fractions(min_value=-9, max_value=9, max_denominator=12),
                min_size=4,
                max_size=4,
            ),
        ),
        st.lists(st.integers(0, 6), min_size=4, max_size=4),
    )
    def test_dot_is_the_exact_fraction_sum(self, entries, exps):
        w = WeightVector.for_ring(A2, entries)
        key = (tuple(exps[:2]), tuple(exps[2:]))
        exact = sum(Fraction(x) * e for x, e in zip(entries, exps))
        assert w.dot(key) == exact
        assert type(w.dot(key)) is (int if w.is_integral() else Fraction)
        assert w.scaled_dot(key) == exact * w.den
        assert w.ints == tuple(Fraction(x) * w.den for x in entries)
        assert all(type(x) is int for x in w.ints)

    def test_arithmetic(self):
        a = WeightVector.for_ring(A1, [1, 2])
        b = WeightVector.for_ring(A1, [3, -1])
        assert (a + b).entries == (4, 1)
        assert (a - b).entries == (-2, 3)
        assert a.scale(2).entries == (2, 4)


class TestDegrees:
    def test_filtration_degree_uses_ceiling(self):
        w = WeightVector.for_ring(A1, [Fraction(1, 2), 1])
        f = A1.x(1) ** 2  # raw weight 1, ceiling weight 2
        assert weight_degree(f, w) == 1
        assert degree(A1, f, w) == 2

    def test_degree_of_zero(self):
        w = WeightVector.for_ring(A1, [1, 1])
        assert degree(A1, A1.zero(), w) == NEG_INF
        assert weight_degree(A1.zero(), w) == NEG_INF

    def test_degree_additivity_on_products(self):
        w = WeightVector.for_ring(A2, [1, 2, 3, 1])
        f = A2.x(1) * A2.y(1) + A2.one()
        g = A2.y(2) ** 2
        assert weight_degree(f * g, w) == weight_degree(f, w) + weight_degree(g, w)


class TestInitialForms:
    def test_example_weight_a(self):
        w = WeightVector.for_ring(A2, [2, 2, -1, -1])
        assert str(initial_form(A2, A2.y(1) - A2.one(), w)) == "-1"
        f = A2.x(1) * A2.y(1) + A2.one()
        assert str(initial_form(A2, f, w)) == "x1*y1"

    def test_example_weight_b(self):
        w = WeightVector.for_ring(A2, [1, 1, 1, 3])
        assert str(initial_form(A2, A2.y(1) ** 2 - A2.y(2), w)) == "-y2"
        g = A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)
        assert str(initial_form(A2, g, w)) == "2*x2*y2"

    def test_initial_form_lands_in_graded_ring(self):
        w = WeightVector.for_ring(A1, [1, 1])
        h = initial_form(A1, A1.y(1) * A1.x(1), w)
        assert h.ring.is_commutative
        assert str(h) == "x1*y1"

    def test_initial_form_rejects_an_element_of_another_ring(self):
        # read with A1's weight (1, 1), x1*y1 + y2 of A2 gave x1
        with pytest.raises(PresentationError):
            initial_form(A1, A2.x(1) * A2.y(1) + A2.y(2), WeightVector.for_ring(A1, [1, 1]))

    def test_initial_form_of_zero_refused(self):
        with pytest.raises(SkewGbError, match="zero polynomial"):
            initial_form(A1, A1.zero(), WeightVector.for_ring(A1, [1, 1]))

    def test_initial_form_multiplicative_in_s(self):
        w = WeightVector.for_ring(A1, [1, 1])
        f = A1.y(1) ** 2 - A1.x(1)
        g = A1.x(1) * A1.y(1) + A1.one()
        lhs = initial_form(A1, f * g, w)
        rhs = initial_form(A1, f, w) * initial_form(A1, g, w)
        assert lhs == rhs


class TestPolynomialRegion:
    def test_weyl_halfspaces(self):
        for n in range(1, 5):
            An = weyl_presentation(n)
            hs = pr_halfspaces(An)
            expected = set()
            for i in range(n):
                form = [Fraction(0)] * (2 * n)
                form[i] = Fraction(1)
                form[n + i] = Fraction(1)
                expected.add(tuple(form))
            assert set(hs.strict) == expected

    def test_sl2_halfspaces(self):
        hs = pr_halfspaces(SL2)
        assert set(hs.strict) == {
            (Fraction(1), Fraction(-1), Fraction(1)),  # v1 + v3 > v2
            (Fraction(0), Fraction(1), Fraction(0)),  # v2 > 0
        }

    def test_membership(self):
        assert pr_contains(A2, WeightVector.for_ring(A2, [2, 2, -1, -1]))
        assert not pr_contains(A2, WeightVector.for_ring(A2, [1, 1, -1, -1]))
        assert pr_contains(SL2, WeightVector.for_ring(SL2, [-1, 1, 3]))
        assert not pr_contains(SL2, WeightVector.for_ring(SL2, [2, 1, -1]))

    def test_sample_positive(self):
        for P in (A1, A2, SL2):
            w = pr_sample_positive(P)
            assert w.is_positive()
            assert pr_contains(P, w)

    def test_halfspace_text_is_deterministic(self):
        assert pr_halfspaces(SL2).to_text() == pr_halfspaces(SL2).to_text()
        assert "[0 1 0] > 0" in pr_halfspaces(SL2).to_text()

    def test_halfspaces_built_once_per_presentation(self, monkeypatch):
        P = sl2_presentation()
        builds = []
        build = weights._build_pr_halfspaces

        def counting(Q):
            builds.append(Q)
            return build(Q)

        monkeypatch.setattr(weights, "_build_pr_halfspaces", counting)
        assert pr_halfspaces(P) is pr_halfspaces(P)
        for entries in ([-1, 1, 3], [2, 1, -1], [1, 1, 1]):
            pr_contains(P, WeightVector.for_ring(P, entries))
        assert builds == [P]
        # an equal but distinct presentation carries its own system
        Q = sl2_presentation()
        assert pr_halfspaces(Q) == pr_halfspaces(P)
        assert len(builds) == 2


def _with_rees(bases):
    """The rings, and the Rees ring of each at its sample weight and at up
    to two more integral weights of PR(R), mixed-sign ones included."""
    rng = random.Random(19)
    rings = dict(bases)
    for name, P in bases.items():
        ws = [pr_sample_positive(P)]
        for _ in range(60):
            w = WeightVector.for_ring(P, [rng.randint(-3, 5) for _ in range(P.m + P.n)])
            if len(ws) < 3 and w not in ws and pr_contains(P, w):
                ws.append(w)
        for w in ws:
            rings[f"rees({name}){w}"] = rees_presentation(P, w).ring
    return rings


# shipped, problem-file and test rings, and Rees rings of all of them
RELATION_RINGS = _with_rees(
    {
        "weyl1": A1,
        "weyl2": A2,
        "weyl3": weyl_presentation(3),
        "sl2": SL2,
        "poly2+1": commutative_presentation(2, 1),
        "vector_fields": vector_fields(),
        "heisenberg": heisenberg(),
        "q1=x1": parse_problem("ring: custom 1 1\nq1 1 1: x1\n").ring,
        "q1=x1^2": parse_problem("ring: custom 1 1\nq1 1 1: x1^2\n").ring,
        **{p.stem: parse_problem_file(str(p)).ring for p in sorted(PROBLEMS.glob("*.txt"))},
    }
)


def _weighted_orders(P, w):
    for kind in KINDS:
        yield MonomialOrder(kind)
        yield MonomialOrder(kind, w)
        yield MonomialOrder(kind, w.scale(-1))


class TestRelationTermReaders:
    """PR(R), (M1)/(M2) and the sample weight agree with the table-entry
    oracles on every ring."""

    def test_pr_halfspaces(self):
        for name, P in RELATION_RINGS.items():
            assert pr_halfspaces(P) == HalfspaceSystem(P.m, P.n, pr_forms_by_entries(P)), name

    def test_pr_sample_positive(self):
        for name, P in RELATION_RINGS.items():
            assert pr_sample_positive(P).entries == pr_sample_positive_by_entries(P), name

    def test_validate_order(self):
        for name, P in RELATION_RINGS.items():
            w = pr_sample_positive(P)
            for order in _weighted_orders(P, w):
                assert validate_order(P, order) == validate_order_by_entries(P, order), name
            # w weighs every term below its word, so -w fails whenever a
            # relation has a term
            relations = bool(pr_halfspaces(P).strict)
            for kind in KINDS:
                assert validate_order(P, MonomialOrder(kind, w)), name
                assert validate_order(P, MonomialOrder(kind, w.scale(-1))) is not relations, name

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(RELATION_RINGS)), st.sampled_from(KINDS), st.data())
    def test_validate_order_drawn_weights(self, name, kind, data):
        P = RELATION_RINGS[name]
        entry = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=3)
        entries = data.draw(st.lists(entry, min_size=P.m + P.n, max_size=P.m + P.n))
        order = MonomialOrder(kind, WeightVector.for_ring(P, entries))
        assert validate_order(P, order) == validate_order_by_entries(P, order)
