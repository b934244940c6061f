"""Groebner cones, epsilon thresholds, walks, fan enumeration."""

from fractions import Fraction

import pytest

from skewgb import (
    RegionError,
    WeightVector,
    cone_of,
    enumerate_fan,
    epsilon_threshold,
    gr_region_contains,
    same_class,
    sl2_presentation,
    walk,
    weyl_presentation,
)
from skewgb.fan import _generic_seed

A1 = weyl_presentation(1)
A2 = weyl_presentation(2)
SL2 = sl2_presentation()

PARABOLA = [A1.y(1) ** 2 - A1.x(1)]
EXAMPLE_B = None  # constructed below


def _w(P, entries):
    return WeightVector.for_ring(P, entries)


def _example_b_gens():
    return [A2.y(1) ** 2 - A2.y(2), A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)]


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
        assert same_class(A1, PARABOLA, _w(A1, [3, -1]), c.positive_rep)

    def test_outside_pr_rejected(self):
        with pytest.raises(RegionError):
            cone_of(A1, PARABOLA, _w(A1, [-1, -1]))


class TestSameClass:
    def test_parabola_classes(self):
        assert same_class(A1, PARABOLA, _w(A1, [1, 3]), _w(A1, [1, 2]))
        assert not same_class(A1, PARABOLA, _w(A1, [1, 3]), _w(A1, [3, 1]))
        assert not same_class(A1, PARABOLA, _w(A1, [1, 3]), _w(A1, [2, 1]))

    def test_gr_membership(self):
        assert gr_region_contains(A1, PARABOLA, _w(A1, [3, -1]))
        assert gr_region_contains(A1, PARABOLA, _w(A1, [1, 1]))


class TestEpsilonThreshold:
    def test_parabola_exact_value(self):
        eps0 = epsilon_threshold(
            A1, PARABOLA, _w(A1, [1, 1]), _w(A1, [1, -1])
        )
        assert eps0 == Fraction(1, 3)

    def test_interior_direction_defaults(self):
        # moving within the same open cone: only PR boundary limits apply
        eps0 = epsilon_threshold(
            A1, PARABOLA, _w(A1, [1, 3]), _w(A1, [0, 1])
        )
        assert eps0 > 0

    def test_verified_identity_example_b(self):
        gens = _example_b_gens()
        eps0 = epsilon_threshold(
            A2, gens, _w(A2, [1, 1, 1, 3]), _w(A2, [1, 2, 1, 1])
        )
        assert eps0 > 0


class TestOneBasisPerWeight:
    """Each public call computes the basis at a weight at most once."""

    @pytest.fixture
    def weighted_calls(self, monkeypatch):
        import skewgb.fan as fan
        import skewgb.groebner as groebner

        calls = []
        real = groebner.groebner_wrt_weight

        def counting(P, gens, w, *args, **kw):
            calls.append(tuple(w.entries))
            return real(P, gens, w, *args, **kw)

        monkeypatch.setattr(groebner, "groebner_wrt_weight", counting)
        monkeypatch.setattr(fan, "groebner_wrt_weight", counting)
        return calls

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

    def test_epsilon_threshold_verified(self, weighted_calls):
        eps0 = epsilon_threshold(
            A1, PARABOLA, _w(A1, [1, 3]), _w(A1, [1, 0]), verify=True
        )
        assert eps0 > 0
        assert len(weighted_calls) <= 3


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

    def test_walk_within_one_cone(self):
        segs = walk(A1, PARABOLA, _w(A1, [1, 3]), _w(A1, [1, 2]))
        assert len(segs) == 1
        assert segs[0].t_lo == 0 and segs[0].t_hi == 1

    def test_walk_example_b(self):
        gens = _example_b_gens()
        segs = walk(A2, gens, _w(A2, [1, 1, 1, 3]), _w(A2, [3, 1, 2, 1]))
        assert segs[0].t_lo == 0 and segs[-1].t_hi == 1
        for a, b in zip(segs, segs[1:]):
            assert a.t_hi == b.t_lo
            assert a.cone.key() != b.cone.key()


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

    def test_sl2_single_cone(self):
        fan = enumerate_fan(SL2, [SL2.y(1) * SL2.y(3) - SL2.y(2)])
        maximal = [c for c in fan.cones if c.is_maximal()]
        assert len(maximal) == 1

    def test_determinism(self):
        f1 = enumerate_fan(A2, _example_b_gens())
        f2 = enumerate_fan(A2, _example_b_gens())
        assert [c.key() for c in f1.cones] == [c.key() for c in f2.cones]
        assert f1.adjacency == f2.adjacency

    def test_generic_seed_leaves_codimension_two_face(self):
        # the sample weight of this A3 ideal lies on a face of codimension
        # >= 2, where no single nudge reaches a maximal cone
        A3 = weyl_presentation(3)
        gens = [
            A3.y(1) ** 2 - A3.y(2),
            A3.x(1) * A3.y(1) + 2 * A3.x(2) * A3.y(2),
            A3.y(3) - A3.x(3),
        ]
        seed = _generic_seed(A3, gens)
        assert seed.is_positive()
        assert cone_of(A3, gens, seed).is_maximal()
