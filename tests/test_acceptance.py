"""End-to-end acceptance suite.

Each test prints one summary line ``criterion N (<name>): PASS`` /
``FAIL`` covering one of the nine acceptance checks, at the stated
tolerances and runtimes.  Run with ``pytest -v -s`` to see the lines.
"""

import math
import random
import time
from fractions import Fraction

from skewgb import (
    KINDS,
    MonomialOrder,
    MonomialIdeal,
    WeightVector,
    cone_of,
    enumerate_fan,
    epsilon_threshold,
    fit_quasi_polynomial,
    gk_dim,
    hilbert_series_monomial,
    initial_ideal_order,
    initial_ideal_weight,
    krull_dim_monomial,
    pr_halfspaces,
    sl2_presentation,
    verify_component_bound,
    walk,
    weyl_presentation,
)
from skewgb.weights import NEG_INF

from corpus import CORPUS
from oracle import (
    count_monomials_outside,
    initial_monomial_ideal_comm,
    multiply_naive,
    normalize_word_random,
)
from test_fan import epsilon_identity_holds
from test_ring import random_poly

A1 = weyl_presentation(1)
A2 = weyl_presentation(2)
SL2 = sl2_presentation()


def _report(number, name, ok):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def _w(P, entries):
    return WeightVector.for_ring(P, entries)


def test_criterion_1_empty_characteristic_variety():
    start = time.monotonic()
    gens = [A2.y(1) - A2.one(), A2.y(2) - A2.one()]
    rep = verify_component_bound(A2, gens, _w(A2, [2, 2, -1, -1]))
    elapsed = time.monotonic() - start
    ok = (
        [str(h) for h in rep.char_ideal.generators] == ["1"]
        and rep.verdict == "VACUOUS-PASS"
        and rep.components == []
        and elapsed < 1.0
    )
    _report(1, "empty characteristic variety", ok)


def test_criterion_2_two_component_variety():
    start = time.monotonic()
    gens = [A2.y(1) ** 2 - A2.y(2), A2.x(1) * A2.y(1) + 2 * A2.x(2) * A2.y(2)]
    rep = verify_component_bound(A2, gens, _w(A2, [1, 1, 1, 3]))
    elapsed = time.monotonic() - start
    S = A2.graded()
    radical = sorted(str(p) for p in rep.char_ideal.radical.polys(S))
    comps = {(tuple(c["vars"]), c["dim"]) for c in rep.components}
    ok = (
        radical == ["x2*y1", "y2"]
        and comps == {(("x2", "y2"), 2), (("y1", "y2"), 2)}
        and rep.verdict == "PASS"
        and elapsed < 5.0
    )
    _report(2, "two components of dimension n", ok)


def test_criterion_3_polynomial_regions():
    ok = True
    for n in range(1, 5):
        P = weyl_presentation(n)
        expected = set()
        for i in range(n):
            form = [Fraction(0)] * (2 * n)
            form[i] = Fraction(1)
            form[n + i] = Fraction(1)
            expected.add(tuple(form))
        ok = ok and set(pr_halfspaces(P).strict) == expected
    sl2_expected = {
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(-1), Fraction(1)),
    }
    ok = ok and set(pr_halfspaces(SL2).strict) == sl2_expected
    _report(3, "polynomial region halfspaces", ok)


def test_criterion_4_dimension_bound_suite():
    start = time.monotonic()
    ok = len(CORPUS) >= 12
    checked = 0
    for entry in CORPUS:
        P = entry["ring"]
        ok = ok and len(entry["weights"]) >= 5
        mixed = any(
            any(x < 0 for x in w.entries) for w in entry["weights"]
        )
        ok = ok and mixed
        for w in entry["weights"]:
            rep = verify_component_bound(P, entry["gens"], w)
            # monomial-initial cases only, by corpus construction
            ok = ok and rep.char_ideal.is_monomial
            for comp in rep.components:
                ok = ok and comp["dim"] >= P.n
                ok = ok and (rep.gkdim == NEG_INF or comp["dim"] <= rep.gkdim)
            ok = ok and rep.verdict in ("PASS", "VACUOUS-PASS")
            checked += 1
    elapsed = time.monotonic() - start
    ok = ok and checked >= 12 * 5 and elapsed < 300.0
    _report(4, "component dimension bounds over corpus", ok)


def test_criterion_5_gk_dim_independence_and_walls():
    rng = random.Random(55)
    ok = True
    for entry in CORPUS:
        P = entry["ring"]
        gens = entry["gens"]
        vectors = [
            _w(P, [rng.randrange(1, 7) for _ in range(P.m + P.n)])
            for _ in range(5)
        ]
        dims = {gk_dim(P, gens, w) for w in vectors}
        ok = ok and len(dims) == 1
        # walk between the first two vectors; certify every wall crossing
        w_start, w_end = vectors[0], vectors[1]
        segments = walk(P, gens, w_start, w_end)
        direction = w_end + w_start.scale(-1)
        S = P.graded()
        kdims = []
        for seg in segments:
            kdims.append(
                krull_dim_monomial(initial_monomial_ideal_comm(S, seg.cone.initial_gens))
            )
        ok = ok and len(set(kdims)) <= 1
        for prev, nxt in zip(segments, segments[1:]):
            t = prev.t_hi
            ok = ok and t == nxt.t_lo and 0 < t < 1
            wall = w_start.scale(1 - t) + w_end.scale(t)
            # the epsilon identity on both sides of the wall:
            # in_{wall + eps d}(I) = in_d(in_wall(I)) below the threshold
            for d in (direction, direction.scale(-1)):
                eps0 = epsilon_threshold(P, gens, wall, d)
                ok = ok and epsilon_identity_holds(P, gens, wall, d, eps0)
    _report(5, "GK dimension weight-independence", ok)


def test_criterion_6_order_weight_compatibility():
    rng = random.Random(66)
    ok = True
    done = 0
    while done < 30:
        entry = CORPUS[rng.randrange(len(CORPUS))]
        P = entry["ring"]
        gens = entry["gens"]
        w = _w(P, [rng.randrange(1, 6) for _ in range(P.m + P.n)])
        kind = KINDS[rng.randrange(len(KINDS))]
        order = MonomialOrder(kind)
        inner = initial_ideal_weight(P, gens, w)
        S = P.graded()
        lhs = initial_ideal_order(S, inner, order)
        rhs = initial_ideal_order(P, gens, order.refine(w))
        ok = ok and lhs.sorted_gens() == rhs.sorted_gens()
        done += 1
    _report(6, "initial of initial equals refined-order initial", ok)


_HILBERT_CASES = [
    # (m, n, generators as (xexp, yexp), weights)
    (2, 0, [], [1, 1]),
    (1, 1, [((1,), (1,))], [1, 2]),
    (2, 0, [((2, 0), ())], [1, 1]),
    (2, 1, [((1, 1), (0,)), ((1, 0), (1,))], [1, 1, 1]),
    (1, 1, [((3,), (0,)), ((0,), (2,))], [2, 3]),
    (2, 2, [((1, 0), (1, 0)), ((0, 1), (0, 1))], [1, 1, 1, 1]),
    (2, 1, [((2, 0), (1,))], [1, 2, 3]),
    (1, 2, [((0,), (1, 1))], [2, 1, 1]),
    (2, 0, [((3, 1), ())], [1, 3]),
    (2, 2, [((1, 0), (0, 0)), ((0, 0), (2, 0))], [1, 2, 1, 2]),
]


def test_criterion_7_hilbert_series_and_quasi_polynomials():
    ok = len(_HILBERT_CASES) == 10
    for m, n, gens, weights in _HILBERT_CASES:
        J = MonomialIdeal(m, n, gens)
        h = hilbert_series_monomial(J, weights)
        exp_gens = [a + b for a, b in J.sorted_gens()]
        ok = ok and h.coefficients(12) == count_monomials_outside(
            exp_gens, weights, 12
        )
        period = math.lcm(*h.denominator)
        degree = krull_dim_monomial(J)
        cum = h.cumulative().coefficients(80)
        values = {i: cum[i] for i in range(50, 81)}
        qp = fit_quasi_polynomial(values, period, degree)
        ok = ok and qp is not None
        if qp is not None:
            ok = ok and all(qp(i) == cum[i] for i in range(50, 81))
    _report(7, "Hilbert series against counting oracle", ok)


def test_criterion_8_parabola_fan_partition():
    gens = [A1.y(1) ** 2 - A1.x(1)]
    fan = enumerate_fan(A1, gens)
    maximal = [c for c in fan.cones if c.is_maximal()]
    ok = len(maximal) == 2 and fan.complete
    keys = {tuple(str(h) for h in c.initial_gens) for c in maximal}
    ok = ok and keys == {("y1^2",), ("x1",)}
    # the single wall is 2v = u, inside the region u + v > 0
    wall = cone_of(A1, gens, _w(A1, [2, 1]))
    ok = ok and len(wall.equalities) == 1
    a, b = wall.equalities[0]
    ok = ok and 2 * a + b == 0 and (a, b) != (0, 0)
    ok = ok and set(pr_halfspaces(A1).strict) == {(Fraction(1), Fraction(1))}
    # 200 rational points of PR off the wall: the initial ideal of each
    # point matches exactly one cone of the fan, and that cone contains it
    rng = random.Random(88)
    fan_keys = [c.key() for c in fan.cones]
    sampled = 0
    while sampled < 200:
        u = Fraction(rng.randrange(-20, 21), rng.randrange(1, 8))
        v = Fraction(rng.randrange(-20, 21), rng.randrange(1, 8))
        if u + v <= 0 or u == 2 * v:
            continue
        w = _w(A1, [u, v])
        cone = cone_of(A1, gens, w)
        matches = [i for i, key in enumerate(fan_keys) if key == cone.key()]
        ok = ok and len(matches) == 1
        if matches:
            ok = ok and fan.cones[matches[0]].contains(w)
        sampled += 1
    _report(8, "parabola fan and point partition", ok)


def test_criterion_9_kernel_oracles():
    ok = True
    # 500 associativity triples split across A2 and sl2
    rng = random.Random(99)
    for P in (A2, SL2):
        for _ in range(250):
            f = random_poly(P, rng, nterms=2, max_exp=2)
            g = random_poly(P, rng, nterms=2, max_exp=2)
            h = random_poly(P, rng, nterms=2, max_exp=2)
            ok = ok and (f * g) * h == f * (g * h)
    # 200 normalization-strategy-independence checks
    for P in (A2, SL2):
        nvars = P.m + P.n
        for trial in range(100):
            word = tuple(
                rng.randrange(nvars) for _ in range(rng.randrange(1, 7))
            )
            first = normalize_word_random(P, word, random.Random(trial))
            second = normalize_word_random(P, word, random.Random(trial + 1000))
            ok = ok and first == second
    # random degree-<=4 products against the word-rewriting oracle
    for P in (A2, SL2):
        for _ in range(30):
            f = random_poly(P, rng, nterms=2, max_exp=1)
            g = random_poly(P, rng, nterms=2, max_exp=1)
            ok = ok and (f * g).terms == multiply_naive(P, f, g, rng)
    _report(9, "kernel associativity and oracle parity", ok)
