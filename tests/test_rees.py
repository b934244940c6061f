"""Rees homogenization: ring structure, roundtrips, centrality of x0."""

import random
from fractions import Fraction

import pytest

from skewgb import (
    PresentationError,
    RegionError,
    WeightVector,
    commutative_presentation,
    dehomogenize,
    homogenize,
    pr_contains,
    pr_sample_positive,
    rees_presentation,
    sl2_presentation,
    validate_presentation,
    weight_degree,
    weyl_presentation,
)
from skewgb.rees import _positive_rees
from skewgb.weights import initial_form

from oracle import rees_presentation_by_entries, strip_x0
from test_kernel import fractional, heisenberg, vector_fields
from test_ring import random_poly

A1 = weyl_presentation(1)
A2 = weyl_presentation(2)
SL2 = sl2_presentation()


def _rees(P, entries):
    return rees_presentation(P, WeightVector.for_ring(P, entries))


class TestConstruction:
    def test_weight_must_be_integral_and_in_pr(self):
        with pytest.raises(RegionError):
            _rees(A1, [Fraction(1, 2), 1])
        with pytest.raises(RegionError):
            _rees(A1, [1, -1])

    def test_weyl_relations_homogenized(self):
        rz = _rees(A2, [2, 2, -1, -1])
        R = rz.ring
        # y_i x_i - x_i y_i = x0^{u_i+v_i} = x0 here
        assert R.q1_entry(1, 2) == rz.x0()  # x index shifted by x0
        assert R.q1_entry(2, 3) == rz.x0()
        assert R.q1_entry(1, 3).is_zero()

    def test_sl2_relations_homogenized(self):
        rz = _rees(SL2, [1, 1, 1])
        R = rz.ring
        # [y2, y3] = 2 y3 has degree drop 1: entry is 2 x0 y3
        assert R.q2_entry(3, 2) == -2 * rz.x0() * R.y(3)
        assert R.q2_entry(3, 1) == -rz.x0() * R.y(2)

    def test_rees_ring_is_consistent(self):
        for P, entries in ((A1, [1, 1]), (A2, [2, 2, -1, -1]), (SL2, [-1, 1, 3])):
            rz = _rees(P, entries)
            assert validate_presentation(rz.ring)

    def test_x0_is_central(self):
        rng = random.Random(3)
        rz = _rees(A2, [2, 1, -1, 3])
        for _ in range(10):
            f = random_poly(rz.ring, rng)
            assert rz.x0() * f == f * rz.x0()


class TestTablesFromRelationTerms:
    """The Rees tables built in one pass over the relation terms equal the
    tables built entry by entry, at the sample weight and at further
    positive and mixed-sign integral weights of PR(R)."""

    RINGS = {
        "weyl1": A1,
        "weyl2": A2,
        "weyl3": weyl_presentation(3),
        "sl2": SL2,
        "vector_fields": vector_fields(),
        "heisenberg": heisenberg(),
        "fractional": fractional(),
    }

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_equal_to_the_entry_by_entry_construction(self, name):
        P = self.RINGS[name]
        rng = random.Random(23)
        positive, mixed = [pr_sample_positive(P)], []
        while len(positive) < 2 or len(mixed) < 2:
            w = WeightVector.for_ring(P, [rng.randint(-3, 5) for _ in range(P.m + P.n)])
            if not pr_contains(P, w):
                continue
            if w.is_positive() and w not in positive:
                positive.append(w)
            elif not w.is_nonnegative() and w not in mixed:
                mixed.append(w)
        for w in positive + mixed:
            ring = rees_presentation(P, w).ring
            oracle = rees_presentation_by_entries(P, w)
            assert ring == oracle and ring.var_names == oracle.var_names, w


class TestHomogenize:
    def test_roundtrip(self):
        rng = random.Random(5)
        w = WeightVector.for_ring(A2, [2, 2, -1, 3])
        rz = rees_presentation(A2, w)
        for _ in range(15):
            f = random_poly(A2, rng)
            if f.is_zero():
                continue
            h = homogenize(rz, f)
            assert dehomogenize(rz, h) == f

    def test_result_is_homogeneous(self):
        w = WeightVector.for_ring(A2, [2, 2, -1, -1])
        rz = rees_presentation(A2, w)
        f = A2.x(1) * A2.y(1) + A2.y(2) ** 2 + A2.one()
        h = homogenize(rz, f)
        degs = {rz.extended_weight.dot(key) for key in h.terms}
        assert len(degs) == 1

    def test_homogenize_example_values(self):
        rz = _rees(A2, [2, 2, -1, -1])
        h = homogenize(rz, A2.y(1) - A2.one())
        assert h == rz.x0() * rz.ring.y(1) - rz.ring.one()

    def test_products_of_homogenizations(self):
        # homogenization is multiplicative up to an x0 power
        rng = random.Random(11)
        w = WeightVector.for_ring(A1, [3, -1])
        rz = rees_presentation(A1, w)
        for _ in range(10):
            f = random_poly(A1, rng)
            g = random_poly(A1, rng)
            if f.is_zero() or g.is_zero() or (f * g).is_zero():
                continue
            hf, hg, hfg = (homogenize(rz, p) for p in (f, g, f * g))
            prod = hf * hg
            drop = weight_degree(f, w) + weight_degree(g, w) - weight_degree(
                f * g, w
            )
            assert drop >= 0 and drop == int(drop)
            assert prod == rz.x0() ** int(drop) * hfg

    def test_strip_x0(self):
        rz = _rees(A1, [1, 1])
        R = rz.ring
        f = rz.x0() ** 2 * R.y(1) + rz.x0() ** 3
        assert strip_x0(f) == R.y(1) + rz.x0()
        assert strip_x0(R.zero()).is_zero()

    def test_zero_rejected(self):
        with pytest.raises(RegionError):
            homogenize(_rees(A1, [1, 1]), A1.zero())


class TestRingMismatch:
    """An element of another ring than the Rees ring's base, or than the
    Rees ring itself, is refused, not read as if it matched."""

    def test_rees_ring_of_another_weight_rejected(self):
        f = A1.y(1) ** 2 - A1.x(1)
        rz = _rees(A1, [1, 3])
        R = rz.ring
        h = homogenize(rz, f)
        assert h == R.y(1) ** 2 - rz.x0() ** 5 * R.x(2)
        with pytest.raises(PresentationError):
            dehomogenize(_rees(A1, [1, 1]), h)

    def test_element_of_another_ring_rejected(self):
        rz = _rees(A1, [1, 1])
        f = A2.one() - A2.x(1) * A2.y(2)
        with pytest.raises(PresentationError):
            homogenize(rz, f)

    def test_dehomogenize_into_another_ring_rejected(self):
        rz = _rees(A1, [1, 1])
        h = homogenize(rz, A1.y(1) ** 2 - A1.x(1))
        assert dehomogenize(rz, h) == A1.y(1) ** 2 - A1.x(1)
        with pytest.raises(PresentationError):
            dehomogenize(_rees(A2, [1, 1, 1, 1]), h)
        # the Rees ring of the commutative ring on x1, y1 has the shape of
        # A1's: read by shape alone, x0^2 + x1*y1 would map to x1*y1 + 1
        h = rz.x0() ** 2 + rz.ring.x(2) * rz.ring.y(1)
        with pytest.raises(PresentationError):
            dehomogenize(_rees(commutative_presentation(1, 1), [1, 1]), h)


class TestPositiveRees:
    def test_built_at_the_positive_sample_weight(self):
        for P in (A1, A2, SL2):
            rz = _positive_rees(P)
            assert rz == rees_presentation(P, pr_sample_positive(P))
            assert rz.ring == rees_presentation(P, pr_sample_positive(P)).ring
