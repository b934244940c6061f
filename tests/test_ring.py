"""Presentations, standard-form arithmetic, and the multiplication kernel."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewgb import (
    PresentationError,
    RingPresentation,
    SkewPoly,
    WeightVector,
    commutative_presentation,
    multiply,
    rees_presentation,
    sl2_presentation,
    validate_presentation,
    weyl_presentation,
)

from oracle import multiply_naive


A1 = weyl_presentation(1)
A2 = weyl_presentation(2)
SL2 = sl2_presentation()


def random_poly(P, rng, nterms=3, max_exp=2):
    terms = {}
    for _ in range(nterms):
        a = tuple(rng.randrange(max_exp + 1) for _ in range(P.m))
        b = tuple(rng.randrange(max_exp + 1) for _ in range(P.n))
        terms[(a, b)] = Fraction(rng.randrange(-5, 6) or 1)
    return SkewPoly(P, terms)


class TestPresentations:
    def test_weyl_relations(self):
        assert str(A1.y(1) * A1.x(1)) == "x1*y1 + 1"
        assert A1.x(1) * A1.y(1) != A1.y(1) * A1.x(1)
        assert A2.y(1) * A2.x(2) == A2.x(2) * A2.y(1)
        assert A2.y(2) * A2.x(2) - A2.x(2) * A2.y(2) == A2.one()

    def test_weyl_higher_power(self):
        # y x^2 = x^2 y + 2x
        lhs = A1.y(1) * A1.x(1) ** 2
        assert lhs == A1.x(1) ** 2 * A1.y(1) + 2 * A1.x(1)

    def test_sl2_brackets(self):
        e, h, f = SL2.y(1), SL2.y(2), SL2.y(3)
        assert h * f - f * h == 2 * f
        assert h * e - e * h == -2 * e
        assert e * f - f * e == h

    def test_commutative(self):
        C = commutative_presentation(2, 1)
        assert C.is_commutative
        f = C.x(1) + C.y(1)
        g = C.x(2) - C.y(1)
        assert f * g == g * f

    def test_validate(self):
        assert validate_presentation(A2)
        assert validate_presentation(SL2)
        assert validate_presentation(commutative_presentation(3))

    def test_validate_rejects_bad_q2(self):
        # a given Q2 mirror that is not the negation is refused by both
        # constructors, so no ring holds a non-antisymmetric Q2
        q2 = {
            (2, 1): {((), (1, 0)): 1},
            (1, 2): {((), (1, 0)): 1},
        }
        refusal = r"Q2\[1,2\] is not the negation of Q2\[2,1\]"
        for build in (RingPresentation, RingPresentation._unchecked):
            with pytest.raises(PresentationError, match=refusal):
                build(0, 2, q2=q2)
        # a given mirror that is the negation is the ring of the one entry
        q2[(1, 2)] = {((), (1, 0)): -1}
        assert RingPresentation(0, 2, q2=q2) == RingPresentation(0, 2, q2={(2, 1): q2[(2, 1)]})

    def test_constructor_rejects_jacobi_breaking_tables(self):
        # [y2, y1] = y3, [y3, y2] = y1, [y3, y1] = y1 break the Jacobi
        # identity, so these antisymmetric tables define no ring
        e3 = lambda k: ((), tuple(int(t == k) for t in range(3)))
        q2 = {(2, 1): {e3(2): 1}, (3, 2): {e3(0): 1}, (3, 1): {e3(0): 1}}
        assert not validate_presentation(RingPresentation._unchecked(0, 3, q2=q2))
        with pytest.raises(PresentationError, match="non-associative"):
            RingPresentation(0, 3, q2=q2)
        # with [y3, y1] = y2 the tables define a ring and build
        q2[(3, 1)] = {e3(1): 1}
        assert validate_presentation(RingPresentation(0, 3, q2=q2))

    def test_rejects_bad_shapes(self):
        with pytest.raises(PresentationError):
            RingPresentation(-1, 0)
        with pytest.raises(PresentationError):
            weyl_presentation(0)
        with pytest.raises(PresentationError):
            RingPresentation(1, 1, q2={(1, 1): {((0,), (1,)): 1}})
        with pytest.raises(PresentationError, match=r"Q2\[2,1\] has y-degree > 1"):
            RingPresentation(0, 2, q2={(2, 1): {((), (1, 1)): 1}})

    @pytest.mark.parametrize("key", [(2, 1), (1, 2), (0, 1), (1, 0)])
    def test_rejects_out_of_range_q1_index(self, key):
        # a Q1 entry outside 1..n x 1..m names no generator pair; it is
        # refused like an out-of-range Q2 entry, not dropped
        with pytest.raises(PresentationError, match="Q1 index"):
            RingPresentation(1, 1, q1={key: {(0,): 1}})
        with pytest.raises(PresentationError, match="Q2 index"):
            RingPresentation(1, 1, q2={key: {((0,), (0,)): 1}})


class TestRingEquality:
    """Rings compare and hash by their tables alone, read from a key
    fixed when the tables are built."""

    def test_tables_built_twice_are_equal(self):
        q1 = {(1, 1): {(2,): 1}}
        pairs = [
            (weyl_presentation(2), weyl_presentation(2)),
            (sl2_presentation(), sl2_presentation()),
            (RingPresentation(1, 1, q1=q1), RingPresentation(1, 1, q1=q1)),
        ]
        for P, Q in pairs:
            assert P is not Q and P == Q and hash(P) == hash(Q)

    def test_rees_ring_built_again_is_equal(self):
        w = WeightVector.for_ring(A2, [2, 2, -1, -1])
        R, S = rees_presentation(A2, w).ring, rees_presentation(A2, w).ring
        assert R is not S and R == S and hash(R) == hash(S)
        # the names Rees rings give their variables are not compared
        assert R.var_names != RingPresentation(R.m, R.n).var_names

    def test_different_tables_are_unequal(self):
        rings = [A1, A2, SL2, commutative_presentation(1, 1), commutative_presentation(2, 1)]
        for w in ([1, 1], [1, 3]):
            rings.append(rees_presentation(A1, WeightVector.for_ring(A1, w)).ring)
        for i, P in enumerate(rings):
            assert P == P
            for Q in rings[i + 1:]:
                assert P != Q


class TestArithmetic:
    def test_scalar_and_neg(self):
        f = A1.x(1) + 2 * A1.y(1)
        assert f.scale(Fraction(1, 2)) == Fraction(1, 2) * f
        assert -(-f) == f
        assert f - f == A1.zero()
        # scalars scale but do not add: they carry no ring
        with pytest.raises(TypeError):
            f + 1
        with pytest.raises(TypeError):
            f - 1

    def test_pow(self):
        assert A1.y(1) ** 0 == A1.one()
        assert (A1.x(1) + A1.y(1)) ** 2 == (A1.x(1) + A1.y(1)) * (A1.x(1) + A1.y(1))
        with pytest.raises(ValueError):
            A1.x(1) ** -1

    def test_display_deterministic(self):
        f = A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2) - A2.one()
        assert str(f) == str(
            SkewPoly(A2, dict(reversed(list(f.terms.items()))))
        )

    def test_multiply_helper(self):
        f, g = A1.x(1), A1.y(1)
        assert multiply(A1, f, g) == f * g

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_distributivity(self, seed):
        rng = random.Random(seed)
        P = rng.choice([A1, A2, SL2])
        f, g, h = (random_poly(P, rng) for _ in range(3))
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h


class TestAgainstOracle:
    def test_products_match_naive_oracle(self):
        rng = random.Random(7)
        for _ in range(40):
            P = rng.choice([A1, A2, SL2])
            f = random_poly(P, rng, nterms=2, max_exp=2)
            g = random_poly(P, rng, nterms=2, max_exp=2)
            assert (f * g).terms == multiply_naive(P, f, g, rng)
