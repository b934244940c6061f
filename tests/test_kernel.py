"""The pure-Python multiplication kernel behind ``RingPresentation``."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

import skewgb
from skewgb import (
    RingPresentation,
    SkewPoly,
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


def fractional():
    """Q1 with fractional, multi-term entries that depend on x:
    D_1 = (1/2 + 3/4 x1^2) d/dx1 and D_2 = (2/3 x2 - 1/5) d/dx2 commute,
    so the tables are consistent."""
    return RingPresentation(
        2,
        2,
        q1={
            (1, 1): {(0, 0): Fraction(1, 2), (2, 0): Fraction(3, 4)},
            (2, 2): {(0, 1): Fraction(2, 3), (0, 0): Fraction(-1, 5)},
        },
        name="fractional",
    )


def _only_nonzero_fractions(terms):
    return all(type(c) is Fraction and c for c in terms.values())


def test_products_keep_fraction_coefficients():
    # blocks carry int coefficients; a product whose scale is exactly 1
    # must still hand back Fractions
    A1 = weyl_presentation(1)
    x, y = A1.x(1), A1.y(1)
    for f in (x ** 3, y * x ** 3, x * y + y * x, (x * y) * (y * x)):
        assert f.terms
        assert _only_nonzero_fractions(f.terms)
    # (y + x)(y - x) = y^2 - x^2 - 1: the x y terms cancel and leave no entry
    assert A1.kernel().multiply((y + x).terms, (y - x).terms) == {
        ((0,), (2,)): Fraction(1),
        ((2,), (0,)): Fraction(-1),
        ((0,), (0,)): Fraction(-1),
    }


@pytest.mark.parametrize("name", ["A2", "fractional"])
def test_multiply_and_lmul_mono_return_nonzero_fractions(name):
    P = weyl_presentation(2) if name == "A2" else fractional()
    kern = P.kernel()
    rng = random.Random(11)
    for _ in range(10):
        f = random_poly(P, rng, nterms=3, max_exp=2).scale(Fraction(rng.randint(1, 9), 6))
        g = random_poly(P, rng, nterms=3, max_exp=2)
        got = kern.multiply(f.terms, g.terms)
        assert _only_nonzero_fractions(got)
        assert got == multiply_naive(P, f, g, rng)
        (a, b), coeff = next(iter(f.terms.items()))
        assert _only_nonzero_fractions(kern.lmul_mono(coeff, a, b, g.terms))
        assert kern.multiply({}, g.terms) == kern.multiply(f.terms, {}) == {}
        assert kern.lmul_mono(coeff, a, b, {}) == {}
        assert kern.lmul_mono(Fraction(0), a, b, g.terms) == {}


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


@pytest.mark.parametrize("name", sorted(X_DEPENDENT) + ["fractional"])
def test_power_rule_matches_naive_oracle(name):
    # y^b x^c is built from whole powers y_i^p; compare it with word
    # rewriting at every y_i^5 x_j^5 and at mixed exponents
    P = fractional() if name == "fractional" else X_DEPENDENT[name]()
    kern = P.kernel()
    zx, zy = (0,) * P.m, (0,) * P.n
    rng = random.Random(13)
    cases = [
        (zy[:i] + (5,) + zy[i + 1:], zx[:j] + (5,) + zx[j + 1:])
        for i in range(P.n)
        for j in range(P.m)
    ]
    for _ in range(4):
        cases.append(
            (
                tuple(rng.randint(0, 2) for _ in range(P.n)),
                tuple(rng.randint(0, 2) for _ in range(P.m)),
            )
        )
    for b, c in cases:
        yb = SkewPoly(P, {(zx, b): Fraction(1)})
        xc = SkewPoly(P, {(c, zy): Fraction(1)})
        assert kern.mono_mul(zx, b, c, zy) == multiply_naive(P, yb, xc, rng), (b, c)


def test_rees_a1_power_closed_form():
    # Rees ring of A1 at (1, 2): y1 x1 - x1 y1 = x0^3, so
    # y1^12 x1^12 = sum_k C(12, k) 12!/(12 - k)! x0^(3k) x1^(12 - k) y1^(12 - k)
    P = _rees(weyl_presentation(1), [1, 2])
    x0, x1, y1 = P.x(1), P.x(2), P.y(1)
    assert (y1 * x1 - x1 * y1) == x0 ** 3
    want = {
        ((3 * k, 12 - k), (12 - k,)): Fraction(comb(12, k) * factorial(12) // factorial(12 - k))
        for k in range(13)
    }
    assert P.kernel().mono_mul((0, 0), (12,), (0, 12), (0,)) == want
    assert (y1 ** 12 * x1 ** 12).terms == want


SHARED_MEMO = {
    "heisenberg": heisenberg,
    "sl2": sl2_presentation,
    "vector_fields": vector_fields,
}


@pytest.mark.parametrize("name", sorted(SHARED_MEMO))
def test_shared_memo_changes_no_result(name):
    # one primitive memo serves every block of a product, and the block
    # cache outlives it: a warm kernel must give what a fresh one gives,
    # and no stored block or memo value may change afterwards
    rng = random.Random(17)
    P = SHARED_MEMO[name]()
    calls = []
    for _ in range(8):
        f = random_poly(P, rng, nterms=3, max_exp=3)
        g = random_poly(P, rng, nterms=3, max_exp=3)
        (a, b), coeff = next(iter(f.terms.items()))
        calls.append((f.terms, g.terms, coeff, a, b))

    def run(kern):
        return [
            (kern.multiply(ft, gt), kern.lmul_mono(coeff, a, b, gt))
            for ft, gt, coeff, a, b in calls
        ]

    fresh = run(SHARED_MEMO[name]().kernel())
    warm = P.kernel()
    for _ in range(8):
        warm.multiply(
            random_poly(P, rng, nterms=3, max_exp=3).terms,
            random_poly(P, rng, nterms=3, max_exp=3).terms,
        )
    blocks = {key: dict(value) for key, value in warm._blocks.items()}
    memo = {}
    first = warm.mono_mul((0,) * P.m, (2,) * P.n, (0,) * P.m, (3,) * P.n, memo)
    stored = {key: dict(value) for key, value in memo.items()}
    assert run(warm) == fresh
    warm.mono_mul((0,) * P.m, (3,) * P.n, (0,) * P.m, (2,) * P.n, memo)
    assert all(warm._blocks[key] == value for key, value in blocks.items())
    assert all(memo[key] == value for key, value in stored.items())
    assert warm.mono_mul((0,) * P.m, (2,) * P.n, (0,) * P.m, (3,) * P.n) == first
