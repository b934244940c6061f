"""The pure-Python multiplication kernel behind ``RingPresentation``."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

import skewgb
from skewgb import (
    RingPresentation,
    WeightVector,
    rees_presentation,
    sl2_presentation,
    validate_presentation,
    weyl_presentation,
)
from skewgb.kernel import MulKernel

from oracle import multiply_naive
from test_ring import random_poly


def test_backend_is_reported():
    assert skewgb.BACKEND == "python"
    assert isinstance(weyl_presentation(2).kernel(), MulKernel)


def test_normalize_word_identity_cases():
    kern = weyl_presentation(1).kernel()
    # y x -> x y + 1
    assert kern.normalize_word((1, 0)) == {
        ((1,), (1,)): Fraction(1),
        ((0,), (0,)): Fraction(1),
    }
    # already-normal words pass through
    assert kern.normalize_word((0, 0, 1)) == {((2,), (1,)): Fraction(1)}
    assert kern.normalize_word(()) == {((0,), (0,)): Fraction(1)}


def _rees(P, entries):
    return rees_presentation(P, WeightVector.for_ring(P, entries)).ring


def vector_fields():
    """k[x] with y1 = x d/dx and y2 = x^2 d/dx: Q1 and Q2 both depend on x."""
    return RingPresentation(
        1,
        2,
        q1={(1, 1): {(1,): 1}, (2, 1): {(2,): 1}},
        q2={(2, 1): {((0,), (0, 1)): -1}},
        name="vector_fields",
    )


def heisenberg():
    """The Heisenberg algebra with its centre x1: y2 y1 - y1 y2 = x1."""
    return RingPresentation(1, 2, q2={(2, 1): {((1,), (0, 0)): 1}}, name="heisenberg")


# Rings whose Q1 (Rees A2 at a mixed-sign weight, the vector fields) or Q2
# (Rees sl2, the vector fields, Heisenberg) carries powers of an
# x-variable, so the derivation rule's d/dx_j terms and the x parts of Q2
# corrections, with and without a y, are used.
X_DEPENDENT = {
    "heisenberg": heisenberg,
    "rees_a2_mixed": lambda: _rees(weyl_presentation(2), [3, 2, -1, 1]),
    "rees_sl2": lambda: _rees(sl2_presentation(), [1, 2, 3]),
    "vector_fields": vector_fields,
}


@pytest.mark.parametrize("name", sorted(X_DEPENDENT))
def test_products_match_naive_oracle_where_tables_depend_on_x(name):
    P = X_DEPENDENT[name]()
    assert validate_presentation(P)
    entries = [P.q1_entry(i, j) for i in range(1, P.n + 1) for j in range(1, P.m + 1)]
    entries += [P.q2_entry(i, j) for i in range(1, P.n + 1) for j in range(1, i)]
    assert any(any(a) for e in entries for a, _b in e.terms)
    rng = random.Random(7)
    for _ in range(25):
        f = random_poly(P, rng, nterms=2, max_exp=2)
        g = random_poly(P, rng, nterms=2, max_exp=2)
        assert (f * g).terms == multiply_naive(P, f, g, rng)


def test_vector_fields_brackets():
    P = vector_fields()
    x, y1, y2 = P.x(1), P.y(1), P.y(2)
    assert y1 * x - x * y1 == x
    assert y2 * x - x * y2 == x * x
    assert y2 * y1 - y1 * y2 == -y2
    # x^2 d/dx applied to x^3: y2 x^3 = x^3 y2 + 3 x^4
    assert y2 * x**3 == x**3 * y2 + (x**4).scale(3)


def test_weyl_leibniz_closed_form_at_degree_40():
    P = weyl_presentation(1)
    d = 40
    got = P.kernel().mono_mul((0,), (d,), (d,), (0,))
    want = {
        ((d - k,), (d - k,)): Fraction(comb(d, k) * factorial(d) // factorial(d - k))
        for k in range(d + 1)
    }
    assert got == want


def test_sl2_high_degree_matches_naive_oracle():
    P = sl2_presentation()
    f, g = P.y(3) ** 5, P.y(1) ** 5
    assert (f * g).terms == multiply_naive(P, f, g, random.Random(5))
