"""Groebner cones, epsilon thresholds, walks, fan enumeration."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skewgb import (
    BudgetExceeded,
    MonomialOrder,
    RegionError,
    SkewGbError,
    SkewPoly,
    WeightVector,
    commutative_presentation,
    cone_of,
    enumerate_fan,
    epsilon_threshold,
    gr_region_contains,
    groebner_wrt_weight,
    initial_ideal_weight,
    parse_expression,
    pr_contains,
    pr_halfspaces,
    pr_sample_positive,
    sl2_presentation,
    universal_gb,
    walk,
    weyl_presentation,
)
from skewgb import fan as fan_module
from skewgb import groebner
from skewgb.fan import _generic_seed
from skewgb.groebner import _Bases

A1 = weyl_presentation(1)
A2 = weyl_presentation(2)
A3 = weyl_presentation(3)
SL2 = sl2_presentation()

PARABOLA = [A1.y(1) ** 2 - A1.x(1)]
THREE_CONE = [A2.y(1) + A2.y(2) + A2.x(1)]
# without a seed this fan needs the seed search off a codimension-2 face
A3_GENS = [
    A3.y(1) ** 2 - A3.y(2),
    A3.x(1) * A3.y(1) + 2 * A3.x(2) * A3.y(2),
    A3.y(3) - A3.x(3),
]
A3_SEED = WeightVector.for_ring(A3, [1, 1, 2, 3, 7, 5])
# the GKZ system of the twisted cubic A = [[1,1,1,1],[0,1,2,3]] with beta = 0
A4 = weyl_presentation(4)
GKZ_A4 = [
    A4.x(1) * A4.y(1) + A4.x(2) * A4.y(2) + A4.x(3) * A4.y(3) + A4.x(4) * A4.y(4),
    A4.x(2) * A4.y(2) + 2 * A4.x(3) * A4.y(3) + 3 * A4.x(4) * A4.y(4),
    A4.y(1) * A4.y(3) - A4.y(2) ** 2,
    A4.y(2) * A4.y(4) - A4.y(3) ** 2,
    A4.y(1) * A4.y(4) - A4.y(2) * A4.y(3),
]
GKZ_A4_SEED = WeightVector.for_ring(A4, [2, 3, 5, 7, 11, 13, 17, 19])
# the GKZ system of A = [[1,1,1],[0,1,2]] with beta = (-1/2, 1/3)
GKZ_A3 = [
    A3.x(1) * A3.y(1) + A3.x(2) * A3.y(2) + A3.x(3) * A3.y(3) + Fraction(1, 2) * A3.one(),
    A3.x(2) * A3.y(2) + 2 * A3.x(3) * A3.y(3) - Fraction(1, 3) * A3.one(),
    A3.y(1) * A3.y(3) - A3.y(2) ** 2,
]


def _w(P, entries):
    return WeightVector.for_ring(P, entries)


def _same_class(P, gens, w1, w2):
    """Whether two weights induce the same initial ideal in S."""
    return initial_ideal_weight(P, gens, w1) == initial_ideal_weight(P, gens, w2)


def _example_b_gens():
    return [A2.y(1) ** 2 - A2.y(2), A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)]


def epsilon_identity_holds(P, gens, w, d, eps0):
    """Whether in_{w + eps d}(I) = in_d(in_w(I)) at eps = eps0 / 2, with
    w as given: epsilon_threshold returns eps0 in the units of w."""
    perturbed = w + d.scale(eps0 / 2)
    inner = initial_ideal_weight(P, gens, w)
    lhs = initial_ideal_weight(P, gens, perturbed)
    return lhs == initial_ideal_weight(P.graded(), inner, d)


class TestConeOf:
    def test_parabola_open_cone(self):
        c = cone_of(A1, PARABOLA, _w(A1, [1, 3]))
        assert c.is_maximal()
        assert [str(h) for h in c.initial_gens] == ["y1^2"]
        # 2v > u and u + v > 0 cut out the cone
        assert c.contains(_w(A1, [1, 2]))
        assert not c.contains(_w(A1, [3, 1]))
        assert c.inside_gr

    def test_parabola_other_side(self):
        c = cone_of(A1, PARABOLA, _w(A1, [3, 1]))
        assert [str(h) for h in c.initial_gens] == ["x1"]
        assert c.contains(_w(A1, [5, 2]))
        assert not c.contains(_w(A1, [1, 1]))

    def test_wall_cone(self):
        c = cone_of(A1, PARABOLA, _w(A1, [2, 1]))
        assert not c.is_maximal()
        assert len(c.equalities) == 1
        a, b = c.equalities[0]
        assert 2 * a + b == 0 and (a, b) != (0, 0)  # the hyperplane u = 2v
        assert c.contains(_w(A1, [4, 2]))
        assert not c.contains(_w(A1, [1, 1]))

    def test_cone_contains_own_weight(self):
        for entries in ([1, 3], [3, 1], [2, 1], [3, -1]):
            w = _w(A1, entries)
            assert cone_of(A1, PARABOLA, w).contains(w)

    def test_mixed_sign_weight_certified(self):
        c = cone_of(A1, PARABOLA, _w(A1, [3, -1]))
        assert c.inside_gr
        assert c.positive_rep is not None
        assert all(x > 0 for x in c.positive_rep.entries)
        assert _same_class(A1, PARABOLA, _w(A1, [3, -1]), c.positive_rep)

    def test_outside_pr_rejected(self):
        with pytest.raises(RegionError):
            cone_of(A1, PARABOLA, _w(A1, [-1, -1]))

    def test_cones_of_different_initial_ideals_differ(self):
        # in_w(I) is <x1^2*x3^2 + 1/3, x2^2> at (-1,0,1) and
        # <x1^2*x3^2 + 1/2, x2^2> at (1,0,-1): the same supports
        S = commutative_presentation(3, 0)
        x1, x2, x3 = S.x(1), S.x(2), S.x(3)
        gens = [
            3 * x1**2 * x3**2 - x1 * x2**2 + S.one(),
            2 * x1**2 * x2**2 - 2 * x1 * x2**2 * x3 + x1,
        ]
        w1, w2 = _w(S, [-1, 0, 1]), _w(S, [1, 0, -1])
        c1, c2 = cone_of(S, gens, w1), cone_of(S, gens, w2)
        assert not _same_class(S, gens, w1, w2)
        assert c1 != c2 and c1.key() != c2.key()
        assert len({c1, c2}) == 2

    def test_contains_rejects_weight_of_wrong_length(self):
        # zip would drop the third entry and answer for (1, 3)
        gens = [A1.y(1) - A1.x(1) ** 2]
        bad = WeightVector([1], [3, -100])
        with pytest.raises(RegionError):
            cone_of(A1, gens, _w(A1, [1, 3])).contains(bad)
        with pytest.raises(RegionError):
            enumerate_fan(A1, gens).cone_containing(bad)


class TestMixedSignCones:
    """Cones at weights with a negative entry, read off the basis the Rees
    completion gives; completed from the homogenized generators, that
    basis was not always the one of the x0-saturation, and each cone
    here had a spurious wall."""

    def test_a2_unit_ideal(self):
        gens = [parse_expression(A2, t) for t in ("3*x2^2 + 3*x1", "x2*y2 + y2^2")]
        w = _w(A2, [-3, 5, 4, 5])
        # it was a 10-element list with a codimension-1 cone, not in GR,
        # and thresholds 3 and 13/2
        assert groebner_wrt_weight(A2, gens, w) == [A2.one()]
        cone = cone_of(A2, gens, w)
        assert cone.equalities == () and cone.contains(_w(A2, [1, 1, 1, 1]))
        assert gr_region_contains(A2, gens, w)
        assert epsilon_threshold(A2, gens, w, _w(A2, [1, 0, 0, 0])) == 1
        assert epsilon_threshold(A2, gens, w, _w(A2, [0, -1, 0, 0])) == 10

    def test_a1_cone_holds_a_positive_weight(self):
        # in_w(I) = <y1> at every sampled weight; the cone demanded u1 < 0
        gens = [parse_expression(A1, t) for t in ("-2*y1^3 + 3*y1", "-3*x1*y1 + y1^2")]
        assert cone_of(A1, gens, _w(A1, [-3, 6])).contains(_w(A1, [1, 1]))


def membership_draws(seed, count):
    """Seeded draws of an ideal of A1 or A2 (1-2 generators of 2-3 terms,
    degree <= 3 in A1 and <= 2 in A2, coefficients in +-{1, 2, 3}), an
    integral PR weight with a negative entry and 10 integral PR weights,
    all with entries in [-5, 6]."""
    rng = random.Random(seed)
    for _ in range(count):
        P, degree = rng.choice([(A1, 3), (A2, 2)])
        monos = monomials_up_to(P, degree)
        gens = [
            SkewPoly(
                P,
                {
                    mono: Fraction(rng.choice((-1, 1)) * rng.randint(1, 3))
                    for mono in rng.sample(monos, rng.randint(2, 3))
                },
            )
            for _ in range(rng.randint(1, 2))
        ]

        def weight(mixed):
            while True:
                entries = [rng.randint(-5, 6) for _ in range(P.m + P.n)]
                w = _w(P, entries)
                if pr_contains(P, w) and (min(entries) < 0 or not mixed):
                    return w

        yield P, gens, weight(True), [weight(False) for _ in range(10)]


class TestConeMembership:
    """At a weight with a negative entry, no sampled weight with the same
    in_w(I) lies outside the closure of ``cone_of(w)``, and no weight
    inside the cone has another in_w(I)."""

    def test_seeded_draws(self, monkeypatch):
        # a budget keeps the rare slow draw out; few draws reach it
        monkeypatch.setenv("SKEWGB_MAX_PAIRS", "300")
        monkeypatch.setenv("SKEWGB_MAX_STEPS", "20000")
        over = 0
        for P, gens, w, samples in membership_draws(1, 30):
            try:
                cone = cone_of(P, gens, w)
                init = initial_ideal_weight(P, gens, w)
                inits = [initial_ideal_weight(P, gens, v) for v in samples]
            except BudgetExceeded:
                over += 1
                continue
            for v, other in zip(samples, inits):
                assert other != init or cone.contains(v, closure=True), (gens, w, v)
                assert other == init or not cone.contains(v), (gens, w, v)
        assert over <= 3


class TestGkzA4Seed:
    """The cone system of this seed once kept Fourier-Motzkin busy for
    about 50 s; with merged rows it takes a fraction of a second."""

    def test_cone_of(self):
        cone = cone_of(A4, GKZ_A4, GKZ_A4_SEED)
        assert not cone.is_maximal()
        assert list(cone.equalities) == [(0, 0, 0, 0, 1, -1, -1, 1), (0, 1, -2, 1, 0, 0, 0, 0)]
        assert list(cone.strict) == [
            (-2, 3, -1, 0, -1, 1, 0, 0),
            (0, 0, 0, 0, 2, -3, 0, 1),
            (2, -3, 0, 1, 0, 0, 0, 0),
            (3, -2, 0, 0, 2, 0, -1, 0),
        ]

    def test_enumerate_fan_names_the_wall(self):
        with pytest.raises(SkewGbError, match="seed weight lies on a wall"):
            enumerate_fan(A4, GKZ_A4, GKZ_A4_SEED)


class TestGkzA3:
    """Every cone of a GKZ ideal has a 2-dimensional lineality space, so
    its faces are cut out by dependent exponent differences."""

    def test_face_equalities_independent(self):
        # the six top-term differences at (1,...,1) span a 3-space
        cone = cone_of(A3, GKZ_A3, _w(A3, [1] * 6))
        assert cone.equalities == (
            (0, 0, 0, 1, -2, 1),
            (0, 1, -1, 0, 1, -1),
            (1, 0, -1, 0, 2, -2),
        )

    def test_generic_seed_found(self):
        # freeing one of three independent equalities leaves a direction
        cone = _generic_seed(_Bases(A3, GKZ_A3))
        assert cone.is_maximal() and cone.weight.is_positive()

    @pytest.mark.parametrize("call", [enumerate_fan, universal_gb])
    def test_unseeded_fan_stops_at_a_facet_crossing(self, call):
        # the open crossing defect: the invariant check raises rather than
        # returning a fan with a non-maximal cone
        with pytest.raises(SkewGbError, match="facet crossing landed on a non-maximal cone"):
            call(A3, GKZ_A3)


class TestSameClass:
    def test_parabola_classes(self):
        assert _same_class(A1, PARABOLA, _w(A1, [1, 3]), _w(A1, [1, 2]))
        assert not _same_class(A1, PARABOLA, _w(A1, [1, 3]), _w(A1, [3, 1]))
        assert not _same_class(A1, PARABOLA, _w(A1, [1, 3]), _w(A1, [2, 1]))

    def test_gr_membership(self):
        assert gr_region_contains(A1, PARABOLA, _w(A1, [3, -1]))
        assert gr_region_contains(A1, PARABOLA, _w(A1, [1, 1]))


class TestEpsilonThreshold:
    def test_parabola_exact_value(self):
        w, d = _w(A1, [1, 1]), _w(A1, [1, -1])
        eps0 = epsilon_threshold(A1, PARABOLA, w, d)
        assert eps0 == Fraction(1, 3)
        assert epsilon_identity_holds(A1, PARABOLA, w, d, eps0)

    def test_interior_direction_defaults(self):
        # moving within the same open cone: only PR boundary limits apply
        w, d = _w(A1, [1, 3]), _w(A1, [0, 1])
        eps0 = epsilon_threshold(A1, PARABOLA, w, d)
        assert eps0 > 0
        assert epsilon_identity_holds(A1, PARABOLA, w, d, eps0)
        # nothing limits the direction w itself: the bound is the cap 1,
        # though w + 100*w is still in the class of w
        assert epsilon_threshold(A1, PARABOLA, w, w) == 1
        assert _same_class(A1, PARABOLA, w, w + w.scale(100))

    @pytest.mark.parametrize(
        "v, expected", [(Fraction(3, 2), 1), (Fraction(3, 4), Fraction(1, 2))]
    )
    def test_bound_in_units_of_w(self, v, expected):
        # (0, 3) gives 2: the bound scales with w, not with w made integral
        w, d = _w(A1, [0, v]), _w(A1, [1, -1])
        eps0 = epsilon_threshold(A1, PARABOLA, w, d)
        assert eps0 == expected
        assert epsilon_identity_holds(A1, PARABOLA, w, d, eps0)

    def test_verified_identity_example_b(self):
        gens = _example_b_gens()
        w, d = _w(A2, [1, 1, 1, 3]), _w(A2, [1, 2, 1, 1])
        eps0 = epsilon_threshold(A2, gens, w, d)
        assert eps0 > 0
        assert epsilon_identity_holds(A2, gens, w, d, eps0)


@pytest.fixture
def weighted_calls(monkeypatch):
    """The weights at which ``groebner_wrt_weight`` is called, in order."""
    calls = []
    real = groebner.groebner_wrt_weight

    def counting(P, gens, w, *args, **kw):
        calls.append(tuple(w.entries))
        return real(P, gens, w, *args, **kw)

    monkeypatch.setattr(groebner, "groebner_wrt_weight", counting)
    return calls


class TestOneBasisPerWeight:
    """Each public call computes the basis at a weight at most once."""

    @pytest.mark.parametrize(
        "entries, expected", [((1, 3), 1), ((3, -1), 2)]
    )
    def test_cone_of(self, weighted_calls, entries, expected):
        cone = cone_of(A1, PARABOLA, _w(A1, entries))
        assert cone.inside_gr
        assert len(weighted_calls) == expected
        assert len(set(weighted_calls)) == expected

    def test_gr_region_contains_mixed_sign(self, weighted_calls):
        assert gr_region_contains(A1, PARABOLA, _w(A1, [3, -1]))
        assert len(weighted_calls) <= 2

    def test_gr_region_contains_positive(self, weighted_calls):
        assert gr_region_contains(A1, PARABOLA, _w(A1, [1, 3]))
        assert weighted_calls == []

    @pytest.mark.parametrize(
        "entries, expected", [((0, 1), Fraction(2, 3)), ((1, 0), 1), ((0, 3), 2)]
    )
    def test_epsilon_threshold_at_nonnegative_weight(self, weighted_calls, entries, expected):
        # the basis at a nonnegative weight is already reduced: no search
        # for a positive weight of the class, which computed a second basis
        w, d = _w(A1, entries), _w(A1, [1, -1])
        eps0 = epsilon_threshold(A1, PARABOLA, w, d)
        # exact: an int / int quotient would be a float equal to 1 or 2
        assert eps0 == expected and type(eps0) is Fraction
        assert len(weighted_calls) == 1
        assert epsilon_identity_holds(A1, PARABOLA, w, d, expected)

    def test_epsilon_threshold_verified(self, weighted_calls):
        w, d = _w(A1, [1, 3]), _w(A1, [1, 0])
        eps0 = epsilon_threshold(A1, PARABOLA, w, d)
        assert eps0 > 0
        assert len(weighted_calls) == 1
        assert epsilon_identity_holds(A1, PARABOLA, w, d, eps0)


class TestWalk:
    def test_parabola_walk_two_segments(self):
        segs = walk(A1, PARABOLA, _w(A1, [1, 3]), _w(A1, [3, 1]))
        assert len(segs) == 2
        assert [str(h) for h in segs[0].cone.initial_gens] == ["y1^2"]
        assert [str(h) for h in segs[1].cone.initial_gens] == ["x1"]
        # segments cover [0,1] and abut at the wall crossing
        assert segs[0].t_lo == 0 and segs[1].t_hi == 1
        assert segs[0].t_hi == segs[1].t_lo
        # the crossing happens where 2v = u on the segment
        t = segs[0].t_hi
        mid = _w(A1, [1, 3]).scale(1 - t) + _w(A1, [3, 1]).scale(t)
        u, v = mid.entries
        assert u == 2 * v

    def test_walk_between_weights_of_different_denominators(self):
        # (1-t)(1/2, 3/2) + t(3, 1) meets the wall u = 2v at t = 5/7
        segs = walk(A1, PARABOLA, _w(A1, [Fraction(1, 2), Fraction(3, 2)]), _w(A1, [3, 1]))
        assert _walls_and_ideals(segs) == ([Fraction(5, 7)], [["y1^2"], ["x1"]])

    def test_walk_within_one_cone(self):
        segs = walk(A1, PARABOLA, _w(A1, [1, 3]), _w(A1, [1, 2]))
        assert len(segs) == 1
        assert segs[0].t_lo == 0 and segs[0].t_hi == 1

    def test_walk_example_b(self):
        # the wall at t = 1/2 splits the cones of x2^2*y2^2 and x1^2*y2
        gens = _example_b_gens()
        segs = walk(A2, gens, _w(A2, [1, 1, 1, 3]), _w(A2, [3, 1, 2, 1]))
        for a, b in zip(segs, segs[1:]):
            assert a.cone.key() != b.cone.key()
        assert _walls_and_ideals(segs) == (
            [Fraction(1, 4), Fraction(2, 5), Fraction(1, 2)],
            [
                ["y2", "x2*y1^2"],
                ["y1^2", "x2*y2"],
                ["y1^2", "x2*y1*y2", "x2^2*y2^2", "x1*y1"],
                ["y1^2", "x2*y1*y2", "x1*y1", "x1^2*y2"],
            ],
        )

    @pytest.mark.parametrize(
        "triple, walls, ideals",
        [
            # the thin cone of x1^2*y1^2 on (1/6, 3/10) is not stepped over
            (
                ((5, 0), (2, 2), (0, 3)),
                [Fraction(1, 6), Fraction(3, 10)],
                [["y1^3"], ["x1^2*y1^2"], ["x1^5"]],
            ),
            # (1,3) ties x1^3*y1 with y1^2: the walk leaves that wall at once
            (((4, 0), (3, 1), (0, 2)), [Fraction(1, 2)], [["x1^3*y1"], ["x1^4"]]),
        ],
    )
    def test_every_a1_wall(self, triple, walls, ideals):
        segs = walk(A1, [_a1_poly(triple)], _w(A1, [1, 3]), _w(A1, [3, 1]))
        assert _walls_and_ideals(segs) == (walls, ideals)

    def test_trinomials_match_newton_envelope(self):
        # for a principal ideal in_w<f> = <in_w f>, so the walls of a walk
        # are the breakpoints of the upper envelope of f's exponent lines
        monomials = [(a, b) for a in range(7) for b in range(7) if a or b]
        triples = random.Random(8).sample(list(itertools.combinations(monomials, 3)), 98)
        triples += [((0, 3), (2, 2), (5, 0)), ((0, 2), (3, 1), (4, 0))]
        for triple in triples:
            segs = walk(A1, [_a1_poly(triple)], _w(A1, [1, 3]), _w(A1, [3, 1]))
            assert [s.t_hi for s in segs[:-1]] == _envelope_walls(triple), triple
            for s in segs:
                top = _envelope_top(triple, (s.t_lo + s.t_hi) / 2)
                assert [dict(h.terms) for h in s.cone.initial_gens] == [
                    {((a,), (b,)): 1 for a, b in top}
                ], (triple, s.t_lo)


def _a1_poly(exponents):
    """The sum of x1^a*y1^b over the given (a, b)."""
    return sum((A1.x(1) ** a * A1.y(1) ** b for a, b in exponents), A1.zero())


def _walls_and_ideals(segs):
    assert segs[0].t_lo == 0 and segs[-1].t_hi == 1
    for a, b in zip(segs, segs[1:]):
        assert a.t_hi == b.t_lo
    # breakpoints are exact: no float from an int / int quotient
    assert all(type(t) is Fraction for s in segs for t in (s.t_lo, s.t_hi))
    return (
        [s.t_hi for s in segs[:-1]],
        [[str(h) for h in s.cone.initial_gens] for s in segs],
    )


def _envelope_top(exponents, t):
    """The (a, b) of top degree at the weight (1 + 2t, 3 - 2t)."""
    degree = {e: e[0] * (1 + 2 * t) + e[1] * (3 - 2 * t) for e in exponents}
    top = max(degree.values())
    return sorted(e for e in exponents if degree[e] == top)


def _envelope_walls(exponents):
    """The t in (0, 1) where the top-degree exponents change."""
    roots = set()
    for e, f in itertools.combinations(exponents, 2):
        # e and f tie where (e - f) . (1 + 2t, 3 - 2t) = 0
        slope = 2 * ((e[0] - f[0]) - (e[1] - f[1]))
        if slope:
            t = Fraction(-((e[0] - f[0]) + 3 * (e[1] - f[1])), slope)
            if 0 < t < 1:
                roots.add(t)
    cuts = [Fraction(0)] + sorted(roots) + [Fraction(1)]
    return [
        t
        for lo, t, hi in zip(cuts, cuts[1:], cuts[2:])
        if _envelope_top(exponents, t) != _envelope_top(exponents, (lo + t) / 2)
        or _envelope_top(exponents, t) != _envelope_top(exponents, (t + hi) / 2)
    ]


def sampled_pr_weights(P, seed, count):
    """Seeded rational weights of PR(P), alternately positive and with a
    negative entry."""
    rng = random.Random(seed)
    weights = []
    for k in range(count):
        while True:
            entries = [
                Fraction(rng.randrange(1 if k % 2 == 0 else -5, 6), rng.randrange(1, 5))
                for _ in range(P.m + P.n)
            ]
            if pr_contains(P, _w(P, entries)) and (k % 2 == 0 or min(entries) < 0):
                break
        weights.append(_w(P, entries))
    return weights


def fan_partitions(P, gens, weights):
    """Check that each weight off the walls lies in exactly one cone of
    the fan, the cone of its own initial ideal (a key is the whole
    initial ideal, so equal keys mean one class); returns how many were."""
    fan = enumerate_fan(P, gens)
    assert fan.complete
    checked = 0
    for w in weights:
        own = cone_of(P, gens, w)
        if not own.is_maximal():
            continue
        holders = [c for c in fan.cones if c.contains(w)]
        assert len(holders) == 1, w
        assert holders[0].key() == own.key()
        checked += 1
    return checked


# ideals of U(sl2) whose fans have two or three maximal cones
SL2_FANS = [
    [SL2.y(1) ** 2 - SL2.y(3)],
    [SL2.y(1) ** 3 - SL2.y(2) ** 2 + SL2.y(3) ** 2],
    [SL2.y(1) ** 2 * SL2.y(3) - SL2.y(2) ** 2 - SL2.y(3)],
    [SL2.y(1) ** 2 - SL2.y(2) ** 2 + SL2.y(3) ** 2],
]


@st.composite
def small_ideals(draw, P, monos, max_gens, max_terms):
    """1 to ``max_gens`` generators of P, each of 1 to ``max_terms`` of the
    monomials ``monos`` with nonzero integer coefficients in [-3, 3]."""
    gens = []
    for _ in range(draw(st.integers(1, max_gens))):
        support = draw(
            st.lists(st.sampled_from(monos), min_size=1, max_size=max_terms, unique=True)
        )
        coeffs = draw(
            st.lists(
                st.integers(-3, 3).filter(bool), min_size=len(support), max_size=len(support)
            )
        )
        gens.append(SkewPoly(P, {mono: Fraction(c) for mono, c in zip(support, coeffs)}))
    return gens


def monomials_up_to(P, degree):
    """All (a, b) exponent pairs of total degree at most ``degree``."""
    exps = itertools.product(range(degree + 1), repeat=P.m + P.n)
    return [(e[: P.m], e[P.m:]) for e in exps if sum(e) <= degree]


# x1^a*y1^b with a, b <= 3
A1_MONOS = [((a,), (b,)) for a in range(4) for b in range(4)]


def small_a1_ideals():
    """1-2 generators of A1, each of 1-3 terms from ``A1_MONOS``."""
    return small_ideals(A1, A1_MONOS, 2, 3)


class TestEnumerateFan:
    def test_parabola_fan(self):
        fan = enumerate_fan(A1, PARABOLA)
        maximal = [c for c in fan.cones if c.is_maximal()]
        assert len(maximal) == 2
        assert fan.complete
        keys = {tuple(str(h) for h in c.initial_gens) for c in maximal}
        assert keys == {("y1^2",), ("x1",)}
        # single wall recorded as an adjacency
        assert len(fan.adjacency) == 1

    def test_adjacency_symmetric_and_valid(self):
        gens = _example_b_gens()
        fan = enumerate_fan(A2, gens)
        assert fan.complete
        assert len(fan.cones) == 6
        keys = {c.key() for c in fan.cones}
        for pair in fan.adjacency:
            assert len(pair) == 2 and pair <= keys

    def test_each_cone_contains_its_weight(self):
        fan = enumerate_fan(A2, _example_b_gens())
        for c in fan.cones:
            assert c.contains(c.weight)

    def test_cone_containing_lookup(self):
        fan = enumerate_fan(A1, PARABOLA)
        c = fan.cone_containing(_w(A1, [1, 5]))
        assert c is not None and [str(h) for h in c.initial_gens] == ["y1^2"]

    def test_zero_ideal_single_cone(self):
        fan = enumerate_fan(A2, [])
        assert len(fan.cones) == 1 and fan.complete
        (cone,) = fan.cones
        assert cone.inside_gr and cone.positive_rep.is_positive()

    def test_sl2_single_cone(self):
        fan = enumerate_fan(SL2, [SL2.y(1) * SL2.y(3) - SL2.y(2)])
        maximal = [c for c in fan.cones if c.is_maximal()]
        assert len(maximal) == 1

    def test_determinism(self):
        f1 = enumerate_fan(A2, _example_b_gens())
        f2 = enumerate_fan(A2, _example_b_gens())
        assert [c.key() for c in f1.cones] == [c.key() for c in f2.cones]
        assert f1.adjacency == f2.adjacency

    @pytest.mark.parametrize(
        "gens",
        [_example_b_gens(), [A2.y(1) + A2.y(2) + A2.x(1)]],
        ids=["example_b", "y1+y2+x1"],
    )
    def test_a2_fan_partitions_sampled_weights(self, gens):
        assert fan_partitions(A2, gens, sampled_pr_weights(A2, 2, 15)) >= 10

    @pytest.mark.parametrize("gens", SL2_FANS, ids=[str(g[0]) for g in SL2_FANS])
    def test_sl2_fan_partitions_sampled_weights(self, gens):
        assert fan_partitions(SL2, gens, sampled_pr_weights(SL2, 2, 15)) >= 10

    @given(small_a1_ideals())
    @settings(max_examples=25, deadline=None)
    def test_small_a1_fans_partition_sampled_weights(self, gens):
        fan_partitions(A1, gens, sampled_pr_weights(A1, 2, 6))

    def test_generic_seed_leaves_codimension_two_face(self):
        # the sample weight of this A3 ideal lies on a face of codimension
        # >= 2, where no single nudge reaches a maximal cone
        cone = _generic_seed(_Bases(A3, A3_GENS))
        assert cone.weight.is_positive()
        assert cone_of(A3, A3_GENS, cone.weight).is_maximal()


# (ring, generators, seed) of the fans whose work is pinned below
FANS = {
    "parabola": (A1, PARABOLA, None),
    "example_b": (A2, _example_b_gens(), None),
    "three_cone": (A2, THREE_CONE, None),
    "a3_seeded": (A3, A3_GENS, A3_SEED),
}
SMALL_FANS = ["parabola", "example_b", "three_cone"]


class TestFanComputesEachBasisOnce:
    """A fan, walk or universal basis asks for each weighted basis once."""

    @pytest.mark.parametrize("name", SMALL_FANS)
    def test_enumerate_fan(self, weighted_calls, name):
        P, gens, seed = FANS[name]
        assert enumerate_fan(P, gens, seed=seed).complete
        assert weighted_calls and len(set(weighted_calls)) == len(weighted_calls)

    @pytest.mark.parametrize("name", SMALL_FANS)
    def test_universal_gb(self, weighted_calls, name):
        P, gens, _seed = FANS[name]
        assert universal_gb(P, gens)
        assert weighted_calls and len(set(weighted_calls)) == len(weighted_calls)

    @pytest.mark.parametrize(
        "P, text",
        [
            (A1, "-x1^3*y1^3 + 2*x1^3 + 3; -x1^2*y1^3 + 3*x1^3"),
            (A2, "-x1^2 - x2*y1; -2*x1^2 - 3*y2"),
        ],
    )
    def test_universal_gb_of_a_unit_ideal(self, weighted_calls, P, text):
        # the basis at the positive sample weight is [1], so the fan of the
        # Rees ring is skipped: enumerating it took 52 s for 136 elements
        # on the first, and failed a facet crossing after 23 s on the second
        gens = [parse_expression(P, t) for t in text.split(";")]
        assert universal_gb(P, gens) == [P.one()]
        assert weighted_calls == [pr_sample_positive(P).entries]

    @pytest.mark.parametrize(
        "name, w_from, w_to",
        [
            ("parabola", (1, 3), (3, 1)),
            ("parabola", (-1, 3), (3, -1)),
            ("example_b", (1, 1, 1, 3), (3, 1, 2, 1)),
            ("example_b", (2, 2, -1, 1), (1, 3, 1, -1)),
            ("three_cone", (1, 1, 1, 3), (3, 1, 2, 1)),
            ("three_cone", (2, 1, -1, 1), (-1, 2, 3, 1)),
        ],
    )
    def test_walk(self, weighted_calls, name, w_from, w_to):
        P, gens, _seed = FANS[name]
        segs = walk(P, gens, _w(P, w_from), _w(P, w_to))
        assert len(segs) >= 2
        assert len(set(weighted_calls)) == len(weighted_calls)

    def test_walk_completes_the_positive_sample_once(self, monkeypatch):
        # each Rees completion of a call starts from the Rees basis before
        # it, and the first from the basis at the positive sample weight,
        # so that basis is completed once however many walls are crossed
        orders = []
        real = groebner.buchberger

        def recording(R, gens, order):
            orders.append(order)
            return real(R, gens, order)

        monkeypatch.setattr(groebner, "buchberger", recording)
        P, gens, _seed = FANS["example_b"]
        walk(P, gens, _w(P, (2, 2, -1, 1)), _w(P, (1, 3, 1, -1)))
        assert orders.count(MonomialOrder("grevlex", pr_sample_positive(P))) == 1
        assert sum(isinstance(o, groebner._ReesOrder) for o in orders) > 1

    # before facet crossings stopped searching for a positive weight at
    # nonnegative facet points, these fans made 4, 24, 14 and 67; the
    # parabola's facet point is positive, so it has nothing to save
    @pytest.mark.parametrize(
        "name, count",
        [("parabola", 4), ("example_b", 20), ("three_cone", 11), ("a3_seeded", 54)],
    )
    def test_enumerate_fan_count(self, weighted_calls, name, count):
        P, gens, seed = FANS[name]
        enumerate_fan(P, gens, seed=seed)
        assert len(weighted_calls) <= count

    @pytest.mark.parametrize("name", sorted(FANS))
    def test_each_interior_facet_crossed_once(self, monkeypatch, name):
        # one successful crossing per adjacent pair; crossing from both
        # sides made twice as many
        crossings = []
        real = fan_module._cross_facet

        def counting(*args):
            neighbor = real(*args)
            if neighbor is not None:
                crossings.append(neighbor.key())
            return neighbor

        monkeypatch.setattr(fan_module, "_cross_facet", counting)
        P, gens, seed = FANS[name]
        fan = enumerate_fan(P, gens, seed=seed)
        assert fan.complete and fan.adjacency
        assert len(crossings) == len(fan.adjacency)


@pytest.mark.parametrize("name", sorted(FANS) + ["zero"])
def test_inside_gr_is_a_certified_positive_rep(name):
    P, gens, seed = FANS.get(name, (A2, [], None))
    for cone in enumerate_fan(P, gens, seed=seed).cones:
        assert cone.inside_gr == (cone.positive_rep is not None)
        if cone.inside_gr:
            assert cone.positive_rep.is_positive()
            assert cone.contains(cone.positive_rep)


def test_step_out_of_pr_raises(monkeypatch):
    # the epsilon bound keeps every step inside PR(R); a step outside it
    # would drop a facet from a fan still reported complete
    monkeypatch.setattr(fan_module, "_epsilon_bound", lambda *args: Fraction(1000))
    with pytest.raises(SkewGbError, match="left the polynomial region"):
        enumerate_fan(A1, PARABOLA)


def assert_interior_facets_shared(P, fan):
    """Every facet off the PR boundary is shared with an adjacent cone.

    Crossing a facet once relies on this: the cone C' across the form f
    of C has -f among its strict forms, and {C, C'} is an adjacency.
    """
    assert fan.complete
    pr_forms = set(pr_halfspaces(P).strict)
    for cone in fan.cones:
        for form in cone.strict:
            if form in pr_forms:
                continue
            opposite = tuple(-x for x in form)
            assert any(
                other is not cone
                and opposite in other.strict
                and frozenset((cone.key(), other.key())) in fan.adjacency
                for other in fan.cones
            ), (cone, form)


class TestInteriorFacetsShared:
    @pytest.mark.parametrize("name", sorted(FANS))
    def test_named_fans(self, name):
        P, gens, seed = FANS[name]
        assert_interior_facets_shared(P, enumerate_fan(P, gens, seed=seed))

    @given(small_a1_ideals())
    @settings(max_examples=25, deadline=None)
    def test_small_a1_fans(self, gens):
        assert_interior_facets_shared(A1, enumerate_fan(A1, gens))


def pr_weights(P, denominators):
    """Weights of PR(P) with entries k / den, k in [-3, 5] and one den
    drawn from ``denominators``; PR(P) is an open cone, so the integral
    weight (k) decides membership."""
    grid = [
        e for e in itertools.product(range(-3, 6), repeat=P.m + P.n) if pr_contains(P, _w(P, e))
    ]
    return st.tuples(st.sampled_from(grid), st.sampled_from(denominators)).map(
        lambda pair: _w(P, [Fraction(k, pair[1]) for k in pair[0]])
    )


def directions(P):
    """Integral directions with entries in [-3, 3]."""
    dim = P.m + P.n
    return st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(lambda e: _w(P, e))


class TestEpsilonIdentity:
    """in_{w + eps d}(I) = in_d(in_w(I)) below the threshold, on random
    A1 ideals at nonnegative and mixed-sign integral weights of PR(A1),
    and on random A2 and sl2 ideals at integral and half-integral ones."""

    @staticmethod
    def check(P, gens, w, d):
        eps0 = epsilon_threshold(P, gens, w, d)
        assert eps0 > 0
        assert epsilon_identity_holds(P, gens, w, d, eps0)

    @given(small_ideals(A2, monomials_up_to(A2, 2), 2, 2), pr_weights(A2, (1, 2)), directions(A2))
    @settings(max_examples=25, deadline=None)
    # a bound in the units of 2w put the perturbed weight outside PR(A2)
    @example(
        [
            parse_expression(A2, "-2*x2*y1*y2^2"),
            parse_expression(A2, "-x1*x2^2*y1*y2^2 - x1^2*x2*y2 - 2*x1*y1^2"),
        ],
        _w(A2, [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2), 1]),
        _w(A2, [2, -1, 0, 0]),
    )
    def test_small_a2_ideals(self, gens, w, d):
        self.check(A2, gens, w, d)

    @given(
        small_ideals(SL2, monomials_up_to(SL2, 2), 2, 2), pr_weights(SL2, (1, 2)), directions(SL2)
    )
    @settings(max_examples=25, deadline=None)
    def test_small_sl2_ideals(self, gens, w, d):
        self.check(SL2, gens, w, d)

    @given(
        small_a1_ideals(),
        st.tuples(st.integers(-3, 4), st.integers(-3, 4)).filter(lambda t: sum(t) > 0),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    @settings(max_examples=25, deadline=None)
    def test_small_a1_ideals(self, gens, w_entries, d_entries):
        self.check(A1, gens, _w(A1, w_entries), _w(A1, d_entries))


def reversed_terms(gens):
    """The generators with each one's terms inserted in reverse order."""
    return [SkewPoly(g.ring, dict(reversed(g.terms.items()))) for g in gens]


def fan_texts(P, gens, w_from, w_to):
    """The text of the fan, the universal basis, the cones of two weights
    and the walk between them, or of the error each one raised."""

    def text(call):
        try:
            return call()
        except SkewGbError as exc:
            return f"{type(exc).__name__}: {exc}"

    def walk_text():
        segs = walk(P, gens, w_from, w_to)
        return "\n".join(f"[{s.t_lo}, {s.t_hi}]\n{s.cone.to_text()}" for s in segs)

    return [
        text(lambda: enumerate_fan(P, gens).to_text()),
        text(lambda: "\n".join(str(g) for g in universal_gb(P, gens))),
        text(lambda: cone_of(P, gens, w_from).to_text()),
        text(lambda: cone_of(P, gens, w_to).to_text()),
        text(walk_text),
    ]


class TestTermOrderInvariance:
    """Fans, cones, walks and universal bases depend on the ideal, not on
    the order in which a generator's terms were inserted."""

    @pytest.mark.parametrize(
        "gens",
        [THREE_CONE, [A2.y(1) + A2.y(2) + A2.x(1) + A2.x(2)]],
        ids=["y1+y2+x1", "y1+y2+x1+x2"],
    )
    def test_linear_a2_fans(self, gens):
        w_from, w_to = _w(A2, [1, 1, 1, 3]), _w(A2, [2, -1, 1, 3])
        assert fan_texts(A2, reversed_terms(gens), w_from, w_to) == fan_texts(
            A2, gens, w_from, w_to
        )

    # one generator of three terms, or two of two terms and degree <= 2,
    # and one A2 generator: with two generators of three terms one A1
    # draw spent 53 s in universal_gb, and with two A2 generators one
    # draw took 31 s
    @given(
        st.one_of(
            small_ideals(A1, A1_MONOS, 1, 3),
            small_ideals(A1, monomials_up_to(A1, 2), 2, 2),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_small_a1_ideals(self, gens):
        w_from, w_to = _w(A1, [1, 3]), _w(A1, [3, -1])
        assert fan_texts(A1, reversed_terms(gens), w_from, w_to) == fan_texts(
            A1, gens, w_from, w_to
        )

    @given(small_ideals(A2, monomials_up_to(A2, 2), 1, 3))
    @settings(max_examples=10, deadline=None)
    def test_small_a2_ideals(self, gens):
        w_from, w_to = _w(A2, [1, 1, 1, 3]), _w(A2, [2, -1, 1, 3])
        assert fan_texts(A2, reversed_terms(gens), w_from, w_to) == fan_texts(
            A2, gens, w_from, w_to
        )
