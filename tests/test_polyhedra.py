"""Exact homogeneous linear feasibility (Fourier-Motzkin)."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import echelon_fm, find_point_fm, irredundant_strict_fm

from skewgb.polyhedra import find_point, irredundant_strict


def _evaluate(form, point):
    return sum(c * x for c, x in zip(form, point))


class TestFindPoint:
    def test_simple_cone(self):
        p = find_point(2, positive=[(1, 1), (1, 0), (0, 1)])
        assert p is not None and all(_evaluate(f, p) > 0 for f in [(1, 1), (1, 0), (0, 1)])

    def test_infeasible_strict(self):
        assert find_point(1, positive=[(1,), (-1,)]) is None

    def test_weak_only_origin(self):
        p = find_point(2, nonneg=[(1, 0), (-1, 0)])
        assert p is not None and p[0] == 0

    def test_equalities(self):
        p = find_point(3, equalities=[(1, -1, 0), (0, 1, -1)], positive=[(1, 1, 1)])
        assert p is not None and p[0] == p[1] == p[2] > 0

    def test_equality_conflict(self):
        assert (
            find_point(2, equalities=[(1, -1)], positive=[(1, 1)], nonneg=[(-2, 1)])
            is None
        )

    def test_pinched_weak(self):
        p = find_point(2, nonneg=[(1, -1), (-1, 1)], positive=[(1, 1)])
        assert p is not None and p[0] == p[1] > 0

    def test_strict_pinch_infeasible(self):
        # x - y >= 0 and y - x > 0
        assert find_point(2, nonneg=[(1, -1)], positive=[(-1, 1), (1, 1), (1, -1)]) is None
        # genuinely pinched strict system: x > y, y > x
        assert find_point(2, positive=[(1, -1), (-1, 1)]) is None


class TestImplication:
    def test_redundancy_removal(self):
        eqs, kept = irredundant_strict(2, [], [(1, 1), (0, 1), (1, 2), (2, 3)])
        assert eqs == []
        assert sorted(kept) == [
            (Fraction(0), Fraction(1)),
            (Fraction(1), Fraction(1)),
        ]


class TestEchelonEqualities:
    """The equalities come back as the reduced echelon basis of their
    span, so two generating sets of one span give the same rows."""

    def test_same_span_same_rows(self):
        # three dependent differences, and two others of the same span
        first = irredundant_strict(3, [(2, -2, 0), (0, 3, -3), (1, 0, -1)], [])[0]
        second = irredundant_strict(3, [(-1, 0, 1), (0, -1, 1)], [])[0]
        assert first == second == [(1, 0, -1), (0, 1, -1)]

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_independent_of_generators(self, seed):
        # every form of a random system as an equality: up to 9, with
        # repeated rows and multiples among them
        dim, eqs, weak, strict = random_system(seed)
        eqs = eqs + weak + strict
        rng = random.Random(seed)
        # a shuffled generating set of the same span, each row a nonzero
        # multiple of itself plus a multiple of the previous one
        scaled = [[rng.choice([-2, -1, 1, 3]), eq] for eq in eqs]
        rng.shuffle(scaled)
        mixed, prev = [], (0,) * dim
        for c, eq in scaled:
            k = rng.randrange(-2, 3)
            mixed.append(tuple(c * a + k * b for a, b in zip(eq, prev)))
            prev = tuple(c * a for a in eq)
        rows = irredundant_strict(dim, eqs, [])[0]
        assert rows == irredundant_strict(dim, mixed, [])[0] == echelon_fm(dim, eqs)


class TestRandomizedSoundness:
    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_witness_satisfies_system(self, seed):
        rng = random.Random(seed)
        dim = rng.randrange(1, 7)

        def rand_form():
            return tuple(Fraction(rng.randrange(-3, 4)) for _ in range(dim))

        eqs = [rand_form() for _ in range(rng.randrange(0, 2))]
        weak = [rand_form() for _ in range(rng.randrange(0, 4))]
        strict = [rand_form() for _ in range(rng.randrange(0, 4))]
        point = find_point(dim, eqs, weak, strict)
        if point is None:
            return
        assert all(_evaluate(f, point) == 0 for f in eqs)
        assert all(_evaluate(f, point) >= 0 for f in weak)
        assert all(_evaluate(f, point) > 0 for f in strict)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_infeasibility_means_no_sampled_solution(self, seed):
        rng = random.Random(seed)
        dim = rng.randrange(1, 7)

        def rand_form():
            return tuple(Fraction(rng.randrange(-2, 3)) for _ in range(dim))

        strict = [rand_form() for _ in range(rng.randrange(1, 4))]
        if find_point(dim, (), (), strict) is not None:
            return
        for _ in range(200):
            cand = tuple(Fraction(rng.randrange(-9, 10)) for _ in range(dim))
            assert not all(_evaluate(f, cand) > 0 for f in strict)


def random_system(seed):
    """A homogeneous system (dim, equalities, nonneg, positive) in at most
    6 variables with int and ``Fraction`` entries, seeded with repeated
    rows, positive multiples and weak/strict copies of one row, which the
    solver merges.  At most 7 inequalities, so that the oracle, which
    keeps every combined row, stays small."""
    rng = random.Random(seed)
    dim = rng.randrange(1, 7)

    def entry():
        if rng.random() < 0.5:
            return rng.randrange(-3, 4)
        return Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))

    def rand_form():
        return tuple(entry() for _ in range(dim))

    eqs = [rand_form() for _ in range(rng.randrange(0, 3))]
    weak = [rand_form() for _ in range(rng.randrange(0, 4))]
    strict = [rand_form() for _ in range(rng.randrange(0, 3))]
    for _ in range(rng.randrange(0, 3)):
        if weak or strict:
            k = rng.choice([1, 2, 3, Fraction(1, 2)])
            copy = tuple(k * x for x in rng.choice(weak + strict))
            rng.choice([weak, strict]).append(copy)
    return dim, eqs, weak, strict


class TestAgreesWithFractionOracle:
    """Merging rows changes no result: the same witness and the same
    kept forms as Fourier-Motzkin over the rationals with every row."""

    def test_merged_copies(self):
        # y - x > 0 with its weak copy and a multiple, x >= 0
        system = (2, [], [(1, 0), (-1, 1)], [(-2, 2), (-1, 1)])
        assert find_point(*system) == find_point_fm(*system) == (0, 1)
        assert irredundant_strict(2, [], [(1, 1), (2, 2), (1, 0)]) == ([], [(2, 2), (1, 0)])

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_find_point_identical(self, seed):
        dim, eqs, weak, strict = random_system(seed)
        assert find_point(dim, eqs, weak, strict) == find_point_fm(dim, eqs, weak, strict)

    @given(st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_irredundant_strict_identical(self, seed):
        dim, eqs, weak, strict = random_system(seed)
        forms = strict + weak
        assert irredundant_strict(dim, eqs, forms)[1] == irredundant_strict_fm(dim, eqs, forms)
