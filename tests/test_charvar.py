"""Characteristic ideals, Hilbert series, dimensions, bound reports."""

import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewgb import (
    HilbertSeries,
    MonomialIdeal,
    QuasiPolynomial,
    RegionError,
    SkewGbError,
    WeightVector,
    char_ideal,
    fit_quasi_polynomial,
    gk_dim,
    hilbert_series_monomial,
    krull_dim_monomial,
    minimal_primes_monomial,
    quasi_poly_degree,
    radical_monomial,
    sl2_presentation,
    verify_component_bound,
    weyl_presentation,
)
from skewgb import charvar, groebner
from skewgb.ring import SkewPoly
from skewgb.weights import NEG_INF, pr_sample_positive

from corpus import CORPUS
from oracle import count_monomials_outside, initial_monomial_ideal_comm

A1 = weyl_presentation(1)
A2 = weyl_presentation(2)
A3 = weyl_presentation(3)
SL2 = sl2_presentation()


def J(m, n, *monos):
    return MonomialIdeal(m, n, [(tuple(a), tuple(b)) for a, b in monos])


def _w(P, entries):
    return WeightVector.for_ring(P, entries)


class TestRadicalAndPrimes:
    def test_radical_caps_exponents(self):
        ideal = J(1, 1, ([2], [0]))
        rad = radical_monomial(ideal)
        assert rad.sorted_gens() == [((1,), (0,))]

    def test_radical_idempotent(self):
        ideal = J(2, 2, ([3, 0], [2, 0]), ([0, 1], [0, 4]))
        rad = radical_monomial(ideal)
        assert radical_monomial(rad).sorted_gens() == rad.sorted_gens()

    def test_primes_of_xy(self):
        ideal = J(1, 1, ([1], [1]))
        primes = minimal_primes_monomial(ideal)
        assert sorted(sorted(p) for p in primes) == [[0], [1]]

    def test_primes_of_intersection(self):
        # <xy, xz> = <x> ∩ <y,z> in 3 variables
        ideal = J(3, 0, ([1, 1, 0], []), ([1, 0, 1], []))
        primes = minimal_primes_monomial(ideal)
        assert sorted(sorted(p) for p in primes) == [[0], [1, 2]]

    def test_zero_and_unit(self):
        assert minimal_primes_monomial(J(2, 0)) == [frozenset()]
        unit = J(2, 0, ([0, 0], []))
        assert minimal_primes_monomial(unit) == []


class TestKrullDim:
    def test_zero_ideal_full_dim(self):
        assert krull_dim_monomial(J(2, 2)) == 4

    def test_unit_ideal(self):
        assert krull_dim_monomial(J(2, 2, ([0, 0], [0, 0]))) == NEG_INF

    def test_hypersurface(self):
        assert krull_dim_monomial(J(2, 2, ([1, 0], [0, 0]))) == 3

    def test_monomial_curve(self):
        ideal = J(1, 1, ([1], [0]), ([0], [1]))
        assert krull_dim_monomial(ideal) == 0


class TestHilbertSeries:
    def test_polynomial_ring_in_two_vars(self):
        h = hilbert_series_monomial(J(2, 0), [1, 1])
        assert h.coefficients(4) == [1, 2, 3, 4, 5]
        # cumulative counts: F(3) = 1 + 2 + 3 + 4 = 10
        assert h.cumulative().coefficients(3)[3] == 10

    def test_xy_with_weights_1_2(self):
        ideal = J(1, 1, ([1], [1]))
        h = hilbert_series_monomial(ideal, [1, 2])
        assert h.numerator == {0: 1, 3: -1}
        assert h.denominator == (1, 2)

    def test_against_bruteforce(self):
        rng = random.Random(7)
        for _ in range(8):
            m, n = rng.randrange(1, 3), rng.randrange(0, 3)
            nv = m + n
            gens = []
            for _ in range(rng.randrange(0, 4)):
                a = tuple(rng.randrange(3) for _ in range(m))
                b = tuple(rng.randrange(3) for _ in range(n))
                if any(a + b):
                    gens.append((a, b))
            ideal = MonomialIdeal(m, n, gens)
            weights = [rng.randrange(1, 4) for _ in range(nv)]
            h = hilbert_series_monomial(ideal, weights)
            got = h.coefficients(10)
            exp_gens = [a + b for a, b in ideal.sorted_gens()]
            assert got == count_monomials_outside(exp_gens, weights, 10)

    def test_pole_order_and_quasi_degree(self):
        h = hilbert_series_monomial(J(2, 0), [1, 1])
        assert h.pole_order_at_one() == 2
        assert quasi_poly_degree(h) == 1
        assert quasi_poly_degree(h, cumulative=True) == 2
        unit = hilbert_series_monomial(J(1, 0, ([0], [])), [1])
        assert quasi_poly_degree(unit) == NEG_INF

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1], "one weight per variable"),
            ([1, 2, 3], "one weight per variable"),
            ([1, Fraction(1, 2)], "positive integers"),
            ([1, 0], "positive integers"),
        ],
    )
    def test_bad_weights_refused(self, weights, message):
        with pytest.raises(SkewGbError, match=message):
            hilbert_series_monomial(J(2, 0), weights)

    def test_nonpositive_denominator_refused(self):
        with pytest.raises(SkewGbError, match="denominator exponents must be positive"):
            HilbertSeries({0: 1}, [0])

    def test_cancellation(self):
        # (1 - t)/(1 - t)^2 has a simple pole
        h = HilbertSeries({0: 1, 1: -1}, (1, 1))
        assert h.pole_order_at_one() == 1


class TestQuasiPolynomial:
    def test_fit_recovers_counts(self):
        ideal = J(1, 1, ([1], [1]))
        h = hilbert_series_monomial(ideal, [1, 2]).cumulative()
        coeffs = h.coefficients(60)
        deg = quasi_poly_degree(h) - 0  # degree of i -> coeffs[i]
        values = {i: coeffs[i] for i in range(30, 61)}
        qp = fit_quasi_polynomial(values, period=2, degree=deg)
        assert qp is not None
        for i in range(30, 61):
            assert qp(i) == coeffs[i]

    def test_fit_rejects_inconsistent(self):
        values = {i: i * i for i in range(10, 30)}
        values[29] += 1
        assert fit_quasi_polynomial(values, period=1, degree=2) is None

    def test_call_periodicity(self):
        qp = QuasiPolynomial(2, [(Fraction(0),), (Fraction(1),)])
        assert qp(4) == 0 and qp(5) == 1


class TestGkDim:
    def test_full_weyl_algebra(self):
        assert gk_dim(A2, [], _w(A2, [1, 1, 1, 1])) == 4

    def test_polynomial_module(self):
        # A1 / A1*y1 is k[x]: dimension 1
        assert gk_dim(A1, [A1.y(1)], _w(A1, [1, 1])) == 1

    def test_requires_positive_weight(self):
        with pytest.raises(RegionError):
            gk_dim(A1, [A1.y(1)], _w(A1, [3, -1]))

    def test_zero_module(self):
        assert gk_dim(A1, [A1.one()], _w(A1, [1, 1])) == NEG_INF


class TestCharIdeal:
    def test_example_b(self):
        gens = [A2.y(1) ** 2 - A2.y(2), A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)]
        ci = char_ideal(A2, gens, _w(A2, [1, 1, 1, 3]))
        assert ci.is_monomial
        assert sorted(str(h) for h in ci.generators) == ["x2*y1^2", "y2"]
        S = A2.graded()
        assert sorted(str(p) for p in ci.radical.polys(S)) == ["x2*y1", "y2"]

    def test_non_monomial_flagged(self):
        ci = char_ideal(A1, [A1.y(1) ** 2 - A1.x(1)], _w(A1, [2, 1]))
        assert not ci.is_monomial and ci.radical is None


class TestComponentReport:
    def test_example_b_report(self):
        gens = [A2.y(1) ** 2 - A2.y(2), A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)]
        rep = verify_component_bound(A2, gens, _w(A2, [1, 1, 1, 3]))
        assert rep.verdict == "PASS"
        comps = {(tuple(c["vars"]), c["dim"]) for c in rep.components}
        assert comps == {(("x2", "y2"), 2), (("y1", "y2"), 2)}
        assert rep.gkdim == 2 and rep.bound == 2

    def test_positive_weight_computes_one_initial_ideal(self, monkeypatch):
        import skewgb.groebner as groebner

        calls = []
        real = groebner.groebner_wrt_weight

        def counting(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(groebner, "groebner_wrt_weight", counting)
        gens = [A2.y(1) ** 2 - A2.y(2), A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)]
        rep = verify_component_bound(A2, gens, _w(A2, [1, 1, 1, 3]))
        assert rep.gkdim == 2
        assert len(calls) == 1

    def test_zero_ideal_report(self):
        rep = verify_component_bound(A2, [], _w(A2, [1, 1, 1, 1]))
        assert rep.verdict == "PASS"
        assert rep.total_dim == 4 and rep.gkdim == 4

    def test_unit_ideal_vacuous(self):
        gens = [A2.y(1) - A2.one(), A2.y(2) - A2.one()]
        rep = verify_component_bound(A2, gens, _w(A2, [2, 2, -1, -1]))
        assert rep.verdict == "VACUOUS-PASS"
        assert rep.components == [] and rep.total_dim == NEG_INF

    def test_report_serialization_stable(self):
        gens = [A2.y(1) ** 2 - A2.y(2), A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)]
        d1 = verify_component_bound(A2, gens, _w(A2, [1, 1, 1, 3])).to_dict()
        d2 = verify_component_bound(A2, gens, _w(A2, [1, 1, 1, 3])).to_dict()
        assert d1 == d2
        assert set(d1) == {
            "weight",
            "charIdeal",
            "radical",
            "components",
            "bound",
            "gkdim",
            "totalDim",
            "verdict",
        }

    def test_sl2_casimir_like(self):
        rep = verify_component_bound(
            SL2, [SL2.y(1) * SL2.y(3) - SL2.y(2)], _w(SL2, [1, 1, 1]), bound=1
        )
        assert rep.verdict in ("PASS", "UNSUPPORTED")


EXAMPLE_B = [A2.y(1) ** 2 - A2.y(2), A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)]
# the GKZ system of A = [[1,1,1],[0,1,2]] with beta = (-1/2, 1/3)
GKZ_A3 = [
    A3.x(1) * A3.y(1) + A3.x(2) * A3.y(2) + A3.x(3) * A3.y(3) + Fraction(1, 2) * A3.one(),
    A3.x(2) * A3.y(2) + 2 * A3.x(3) * A3.y(3) - Fraction(1, 3) * A3.one(),
    A3.y(1) * A3.y(3) - A3.y(2) ** 2,
]


@pytest.fixture
def route_calls(monkeypatch):
    """Counts of weighted bases (``groebner_wrt_weight``, and the Rees
    completions a ``_Bases`` runs itself at weights with a negative entry)
    and of completions on a commutative ring, which for a Weyl algebra is
    its graded ring, wherever the package binds the functions."""
    counts = {"weighted": 0, "commutative": 0}
    real_weighted = groebner.groebner_wrt_weight
    real_completion = groebner.buchberger
    real_rees = groebner._Bases._rees_basis

    def weighted(*args, **kw):
        counts["weighted"] += 1
        return real_weighted(*args, **kw)

    def rees(self, w):
        counts["weighted"] += 1
        return real_rees(self, w)

    def completion(S, *args, **kw):
        if S.is_commutative:
            counts["commutative"] += 1
        return real_completion(S, *args, **kw)

    for name, module in list(sys.modules.items()):
        if name == "skewgb" or name.startswith("skewgb."):
            for attr, real, fake in (
                ("groebner_wrt_weight", real_weighted, weighted),
                ("buchberger", real_completion, completion),
            ):
                if getattr(module, attr, None) is real:
                    monkeypatch.setattr(module, attr, fake)
    monkeypatch.setattr(groebner._Bases, "_rees_basis", rees)
    return counts


class TestSingleRoute:
    """A report reads in_w(I), its monomial ideal and its GK dimension off
    the weighted bases of one call: each basis is completed once, and
    in_w(I) is its interreduced initial forms, with no commutative
    completion."""

    def test_report_ideal_is_the_initial_ideal(self, monkeypatch):
        seen = []
        real = charvar._leading_ideal

        def recording(P, init):
            seen.append(real(P, init))
            return seen[-1]

        monkeypatch.setattr(charvar, "_leading_ideal", recording)
        for entry in CORPUS:
            P, gens = entry["ring"], entry["gens"]
            for w in entry["weights"]:
                seen.clear()
                verify_component_bound(P, gens, w)
                used = seen[0]
                oracle = initial_monomial_ideal_comm(
                    P.graded(), char_ideal(P, gens, w).generators
                )
                assert used == oracle, (entry["name"], w)

    @pytest.mark.parametrize(
        "P, gens, entries, bases",
        [
            (A2, EXAMPLE_B, (1, 1, 1, 3), 1),
            (A2, EXAMPLE_B, (0, 0, 1, 1), 2),
            (A2, EXAMPLE_B, (2, 2, -1, 1), 2),
            (A3, GKZ_A3, (1, 1, 1, 1, 1, 1), 1),
        ],
        ids=["example_b-positive", "example_b-zeros", "example_b-mixed", "gkz_a3-positive"],
    )
    def test_one_completion_per_weighted_basis(self, route_calls, P, gens, entries, bases):
        verify_component_bound(P, gens, _w(P, entries))
        assert route_calls["weighted"] == bases
        assert route_calls["commutative"] == 0


@st.composite
def small_pr_cases(draw):
    """1-2 generators of degree <= 2 in A1 or A2, each of 1-3 terms, and
    an integral weight with u + v > 0 (PR of A_n), of any signs."""
    P = draw(st.sampled_from([A1, A2]))
    monos = [
        (e[: P.m], e[P.m:])
        for e in itertools.product(range(3), repeat=P.m + P.n)
        if sum(e) <= 2
    ]
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        support = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3, unique=True))
        coeffs = draw(
            st.lists(
                st.integers(-3, 3).filter(bool), min_size=len(support), max_size=len(support)
            )
        )
        gens.append(SkewPoly(P, {mono: Fraction(c) for mono, c in zip(support, coeffs)}))
    u = draw(st.lists(st.integers(-3, 3), min_size=P.m, max_size=P.m))
    v = [draw(st.integers(1, 4)) - ui for ui in u]
    return P, gens, WeightVector(u, v)


class TestComponentBoundTheorem:
    """The paper's theorem: at every weight of PR(R), each irreducible
    component of the characteristic variety of R/I has dimension at
    least n, and the GK dimension does not depend on the weight."""

    @given(small_pr_cases())
    @settings(max_examples=40, deadline=None)
    def test_components_reach_n(self, case):
        P, gens, w = case
        rep = verify_component_bound(P, gens, w)
        assert rep.verdict != "FAIL"
        assert all(c["dim"] >= P.n for c in rep.components)
        assert rep.gkdim == gk_dim(P, gens, pr_sample_positive(P))
