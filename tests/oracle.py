"""Independent oracles used by the test suite.

``normalize_word_random`` rewrites a generator word by resolving a
*randomly chosen* descent at each step, providing a strategy-independence
oracle; the library kernel rewrites no words, it moves one ``y_i`` at a
time with the derivation rule.  ``multiply_naive`` multiplies standard
expressions by expanding both factors to generator words.
``ideals_equal_comm`` decides equality of two ideals of a commutative
ring by mutual normal-form membership, the reference the canonical
initial-ideal lists are checked against.  ``initial_monomial_ideal_comm``
completes a commutative ideal afresh under grevlex and returns its
initial monomial ideal, the reference for the monomial ideals the
characteristic-variety reports read off.  ``initial_ideal_by_completion``
completes the initial forms of a weighted basis afresh in S, the
reference for the initial ideals read off a basis by interreduction.
``buchberger_all_pairs`` is the plain Buchberger algorithm, every
S-pair reduced and no criterion applied, the reference for the pair
criteria of ``buchberger``.  ``rees_basis_by_rounds`` completes the
homogenized generators in the Rees ring, then strips x0 and completes
again until nothing changes, the reference for the weighted bases of the
Rees route.  ``saturation_by_bayer`` completes the homogenized
generators by weight, then the smaller power of x0, and strips x0
(Bayer's criterion), the reference for the claim that the homogenized
basis at the positive sample weight generates the x0-saturation.
``strip_x0`` divides a Rees-ring element by the largest power of x0
that divides it, for those two oracles and for the tests that check no
basis element is divisible by x0.
``find_point_fm``, ``echelon_fm`` and ``irredundant_strict_fm`` are Gaussian and
Fourier-Motzkin elimination on ``Fraction``s that keep every combined
row, the reference for the merged integer rows of ``skewgb.polyhedra``.  ``pr_forms_by_entries``,
``validate_order_by_entries``, ``pr_sample_positive_by_entries`` and
``rees_presentation_by_entries`` read the relation tables entry by entry
through ``q1_entry`` and ``q2_entry``, the middle two in both
orientations of Q2: the reference for the readers of
``RingPresentation._relation_terms`` (PR(R), (M1)/(M2), the sample
weight and the Rees rings).
The oracles work through the public API only.
"""

import math
from fractions import Fraction

from skewgb import (
    MonomialIdeal,
    MonomialOrder,
    RingPresentation,
    SkewPoly,
    WeightVector,
    buchberger,
    dehomogenize,
    homogenize,
    initial_form,
    multiply,
    normal_form,
    pr_sample_positive,
    rees_presentation,
)


def expand_tokens(m, xexp, yexp):
    toks = []
    for j, e in enumerate(xexp):
        toks.extend([j] * e)
    for i, e in enumerate(yexp):
        toks.extend([m + i] * e)
    return tuple(toks)


def _corrections(P, g1, g2):
    """Correction terms for swapping adjacent generators g1 > g2."""
    m = P.m
    if g1 < m:
        return []  # x generators commute
    if g2 < m:
        entry = P.q1_entry(g1 - m + 1, g2 + 1)
    else:
        entry = P.q2_entry(g1 - m + 1, g2 - m + 1)
    out = []
    for (a, b), c in entry.terms.items():
        out.append((c, expand_tokens(m, a, b)))
    return out


def normalize_word_random(P, word, rng, coeff=Fraction(1)):
    """Standard expression of a word, resolving random descents."""
    m, n = P.m, P.n
    out = {}
    stack = [(coeff, tuple(word))]
    while stack:
        c, w = stack.pop(rng.randrange(len(stack)))
        descents = [k for k in range(len(w) - 1) if w[k] > w[k + 1]]
        if not descents:
            a = [0] * m
            b = [0] * n
            for t in w:
                if t < m:
                    a[t] += 1
                else:
                    b[t - m] += 1
            key = (tuple(a), tuple(b))
            acc = out.get(key, Fraction(0)) + c
            if acc:
                out[key] = acc
            elif key in out:
                del out[key]
            continue
        p = rng.choice(descents)
        g1, g2 = w[p], w[p + 1]
        pre, post = w[:p], w[p + 2:]
        stack.append((c, pre + (g2, g1) + post))
        for kappa, toks in _corrections(P, g1, g2):
            stack.append((c * kappa, pre + toks + post))
    return out


def multiply_naive(P, f, g, rng):
    """Product of two ring elements via full word expansion."""
    out = {}
    for (a, b), cf in f.terms.items():
        for (c, d), cg in g.terms.items():
            word = (
                expand_tokens(P.m, a, b) + expand_tokens(P.m, c, d)
            )
            for key, val in normalize_word_random(P, word, rng, cf * cg).items():
                acc = out.get(key, Fraction(0)) + val
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
    return out


def count_monomials_outside(gens, weights, upto):
    """Brute-force weighted count of monomials not divisible by any
    generator, per degree 0..upto.  ``gens`` are exponent tuples over
    all variables; ``weights`` positive integers."""
    nvars = len(weights)
    counts = [0] * (upto + 1)

    def rec(idx, exps, deg):
        if idx == nvars:
            if not any(
                all(e >= ge for e, ge in zip(exps, g)) for g in gens
            ):
                counts[deg] += 1
            return
        e = 0
        while deg + e * weights[idx] <= upto:
            rec(idx + 1, exps + (e,), deg + e * weights[idx])
            e += 1

    rec(0, (), 0)
    return counts


def ideal_member_comm(S, f, gb, order):
    """Whether f lies in the ideal of S with Groebner basis gb under order."""
    return normal_form(S, f, gb, order).is_zero()


def initial_monomial_ideal_comm(S, gens):
    """The grevlex initial monomial ideal of the S-ideal of gens, by a
    fresh Buchberger completion."""
    order = MonomialOrder("grevlex")
    gb = buchberger(S, list(gens), order)
    return MonomialIdeal(S.m, S.n, [order.leading_monomial(g) for g in gb])


def initial_ideal_by_completion(P, basis, w):
    """The S-ideal generated by the initial forms at w of a basis of R,
    as its reduced grevlex basis sorted by support, by a fresh Buchberger
    completion of the forms."""
    forms = [initial_form(P, g, w) for g in basis]
    if not forms:
        return []
    gb = buchberger(P.graded(), forms, MonomialOrder("grevlex"))
    return sorted(gb, key=lambda h: sorted(h.terms))


def ideals_equal_comm(S, gens_a, gens_b):
    """Equality of two S-ideals by mutual normal-form membership."""
    gens_a = [g for g in gens_a if not g.is_zero()]
    gens_b = [g for g in gens_b if not g.is_zero()]
    if not gens_a or not gens_b:
        return bool(gens_a) == bool(gens_b)
    order = MonomialOrder("grevlex")
    gb_a = buchberger(S, gens_a, order)
    gb_b = buchberger(S, gens_b, order)
    return all(ideal_member_comm(S, f, gb_b, order) for f in gens_a) and all(
        ideal_member_comm(S, f, gb_a, order) for f in gens_b
    )


def buchberger_all_pairs(P, gens, order):
    """The reduced Groebner basis of the left ideal of gens, sorted by
    leading monomial, by the plain algorithm: every S-pair of the growing
    basis is reduced, none is skipped by a criterion, and the result is
    made minimal and then tail-reduced."""
    lead = order.leading_monomial

    def monic(f):
        return f.scale(1 / f.coefficient(lead(f)))

    def lifted(f, target):
        """The monomial of exponent target - lead(f) times f, made monic."""
        (la, lb), (ta, tb) = lead(f), target
        a = tuple(t - s for t, s in zip(ta, la))
        b = tuple(t - s for t, s in zip(tb, lb))
        return monic(multiply(P, P.monomial(a, b), f))

    def divides(d, e):
        return all(x <= y for x, y in zip(d[0] + d[1], e[0] + e[1]))

    basis = [monic(g) for g in gens if not g.is_zero()]

    def lcm(i, j):
        (fa, fb), (ga, gb) = lead(basis[i]), lead(basis[j])
        return tuple(map(max, fa, ga)), tuple(map(max, fb, gb))

    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        # smallest lcm first keeps the intermediate basis small
        i, j = min(pairs, key=lambda p: order.key(lcm(*p)))
        pairs.remove((i, j))
        top = lcm(i, j)
        s = lifted(basis[i], top) - lifted(basis[j], top)
        r = normal_form(P, s, basis, order)
        if not r.is_zero():
            basis.append(monic(r))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    minimal = []
    for g in basis:
        if not any(divides(lead(h), lead(g)) for h in minimal):
            minimal = [h for h in minimal if not divides(lead(g), lead(h))] + [g]
    reduced = []
    for g in minimal:
        top = P.monomial(*lead(g))
        others = [h for h in minimal if h is not g]
        reduced.append(top + normal_form(P, g - top, others, order))
    return sorted(reduced, key=lambda g: order.key(lead(g)))


class _ReesTieOrder(MonomialOrder):
    """A positive weight on a Rees ring, ties broken by the base order on
    the variables of R and then by the exponent of x0, the first
    x-variable: on weight-homogeneous elements, the order of R refined
    by the weight.  A class of its own, so ``buchberger`` completes under
    it as under any term order, dividing out no power of x0."""

    __slots__ = ("tie",)

    def __init__(self, kind, weight):
        super().__init__(kind, weight)
        self.tie = MonomialOrder(kind)

    def key(self, mono):
        a, b = mono
        return (self.weight.scaled_dot(mono),) + self.tie.key((a[1:], b)) + (a[0],)


def strip_x0(f):
    """Divide a Rees-ring element by the largest common power of x0."""
    if f.is_zero():
        return f
    k = min(a[0] for (a, _b) in f.terms)
    if k == 0:
        return f
    return SkewPoly(f.ring, {((a[0] - k,) + a[1:], b): c for (a, b), c in f.terms.items()})


def rees_basis_by_rounds(P, gens, w, kind="grevlex"):
    """A Groebner basis of the left ideal of gens under the order of R
    refined by a weight w with a negative entry, sorted by leading
    monomial: the generators are homogenized in the Rees ring at
    ``pr_sample_positive(P)`` and completed there under (0, w) + lam *
    (1, w_plus) with lam = 1 + max |w| (any lam making it positive orders
    homogeneous elements alike); then x0 is stripped from every element
    and the ideal completed again until stripping changes nothing.  The
    result is dehomogenized and made monic under the refined order."""
    den = math.lcm(*(Fraction(e).denominator for e in w.entries))
    ints = [int(e * den) for e in w.entries]
    ord_w = MonomialOrder(kind, WeightVector.for_ring(P, ints))
    rz = rees_presentation(P, pr_sample_positive(P))
    lam = 1 + max(abs(e) for e in ints)
    shifted = [e + lam * d for e, d in zip([0] + ints, (1,) + rz.weight.ints)]
    order = _ReesTieOrder(kind, WeightVector(shifted[: P.m + 1], shifted[P.m + 1:]))
    basis = buchberger(rz.ring, [homogenize(rz, g) for g in gens if not g.is_zero()], order)
    while True:
        stripped = [strip_x0(g) for g in basis]
        if stripped == basis:
            break
        basis = buchberger(rz.ring, stripped, order)
    result = []
    for g in basis:
        d = dehomogenize(rz, g)
        if not d.is_zero():
            d = d.scale(1 / d.coefficient(ord_w.leading_monomial(d)))
            if d not in result:
                result.append(d)
    return sorted(result, key=lambda g: ord_w.key(ord_w.leading_monomial(g)))


class _BayerOrder(MonomialOrder):
    """A positive weight on a Rees ring, ties broken first by the smaller
    exponent of x0 (the first x-variable), then by grevlex on the
    variables of R: on weight-homogeneous elements, x0 divides the
    leading monomial only when it divides every term."""

    __slots__ = ("tie",)

    def __init__(self, weight):
        super().__init__("grevlex", weight)
        self.tie = MonomialOrder("grevlex")

    def key(self, mono):
        a, b = mono
        return (self.weight.scaled_dot(mono), -a[0]) + self.tie.key((a[1:], b))


def saturation_by_bayer(P, gens):
    """(Rees ring, order, generators) of the x0-saturation of the
    homogenized ideal of gens in the Rees ring at ``pr_sample_positive(P)``:
    the homogenized generators are completed under ``_BayerOrder`` at
    (1, w_plus) and x0 is stripped from every element, which leaves a
    Groebner basis of the saturation under that order (Bayer & Stillman,
    Invent. Math. 1987)."""
    rz = rees_presentation(P, pr_sample_positive(P))
    order = _BayerOrder(rz.extended_weight)
    basis = buchberger(rz.ring, [homogenize(rz, g) for g in gens if not g.is_zero()], order)
    return rz, order, [strip_x0(g) for g in basis]


def _fm_gauss(dim, equalities):
    """Row-reduce homogeneous equalities over the rationals; returns
    [(pivot_col, row)] with each row scaled to pivot 1 and reduced
    against the others, sorted by pivot column."""
    pivots = []
    for eq in equalities:
        row = [Fraction(x) for x in eq]
        for col, prow in pivots:
            if row[col]:
                f = row[col]
                for k in range(dim):
                    row[k] -= f * prow[k]
        lead = next((k for k in range(dim) if row[k]), None)
        if lead is None:
            continue
        inv = 1 / row[lead]
        row = [x * inv for x in row]
        for col, prow in pivots:
            if prow[lead]:
                f = prow[lead]
                for k in range(dim):
                    prow[k] -= f * row[k]
        pivots.append((lead, row))
    pivots.sort(key=lambda cr: cr[0])
    return pivots


def _fm_solve(nvars, ineqs):
    """Fourier-Motzkin over the rationals, keeping every combined row:
    a witness for a system of (form, strict) rows, or None."""
    if nvars == 0:
        if any(strict for _form, strict in ineqs):  # empty form evaluates to 0
            return None
        return []
    last = nvars - 1
    combined = [(form[:last], strict) for form, strict in ineqs if form[last] == 0]
    lowers = [(form[:last], form[last], strict) for form, strict in ineqs if form[last] > 0]
    uppers = [(form[:last], form[last], strict) for form, strict in ineqs if form[last] < 0]
    for lrest, lc, lstrict in lowers:
        for urest, uc, ustrict in uppers:
            form = [lr * (-uc) + ur * lc for lr, ur in zip(lrest, urest)]
            combined.append((form, lstrict or ustrict))
    inner = _fm_solve(last, combined)
    if inner is None:
        return None

    def bound(rest, c):
        return -sum(r * x for r, x in zip(rest, inner)) / c

    low = None  # (value, strict)
    for rest, c, strict in lowers:
        b = bound(rest, c)
        if low is None or b > low[0] or (b == low[0] and strict):
            low = (b, strict)
    up = None
    for rest, c, strict in uppers:
        b = bound(rest, c)
        if up is None or b < up[0] or (b == up[0] and strict):
            up = (b, strict)
    if low is None and up is None:
        x = Fraction(0)
    elif up is None:
        x = low[0] + 1 if low[1] else low[0]
    elif low is None:
        x = up[0] - 1 if up[1] else up[0]
    elif low[0] < up[0]:
        x = (low[0] + up[0]) / 2
    else:
        x = low[0]
    return inner + [x]


def find_point_fm(dim, equalities=(), nonneg=(), positive=()):
    """A rational point of the homogeneous system (forms = 0, >= 0, > 0),
    or None: Gaussian elimination on the equalities, then Fourier-Motzkin
    on the inequalities in the free variables, all on ``Fraction``s, with
    no row merged, the last free variable eliminated first."""
    pivots = _fm_gauss(dim, equalities)
    free = [k for k in range(dim) if k not in {col for col, _row in pivots}]

    def reduce_form(form, strict):
        row = [Fraction(x) for x in form]
        for col, prow in pivots:
            if row[col]:
                f = row[col]
                for k in range(dim):
                    row[k] -= f * prow[k]
        return [row[k] for k in free], strict

    ineqs = [reduce_form(f, False) for f in nonneg] + [reduce_form(f, True) for f in positive]
    values = _fm_solve(len(free), ineqs)
    if values is None:
        return None
    point = [Fraction(0)] * dim
    for col, val in zip(free, values):
        point[col] = val
    for col, prow in pivots:
        point[col] = -sum(prow[k] * point[k] for k in free)
    return tuple(point)


def echelon_fm(dim, equalities):
    """The reduced echelon basis of the equalities' span over the
    rationals, each row scaled to integers of content 1 (its pivot, 1
    before scaling, stays positive)."""
    rows = []
    for _col, row in _fm_gauss(dim, equalities):
        den = math.lcm(*(x.denominator for x in row))
        ints = [int(x * den) for x in row]
        g = math.gcd(*ints)
        rows.append(tuple(x // g for x in ints))
    return rows


def irredundant_strict_fm(dim, equalities, strict):
    """The strict forms kept by pruning, in input order, each form dropped
    when ``find_point_fm`` finds no point of the equalities, the other
    kept forms > 0 and the form itself <= 0."""
    kept = list(strict)
    for f in strict:
        rest = [g for g in kept if g != f]
        if find_point_fm(dim, equalities, [tuple(-x for x in f)], rest) is None:
            kept = rest
    return kept


def pr_forms_by_entries(P):
    """The forms of PR(R): u_j + v_i - u.a for x^a in Q1_{i,j}, and
    v_i + v_j - u.a - v.b for x^a y^b in Q2_{j,i} (i < j)."""
    m, n = P.m, P.n
    forms = []
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            for (a, _b) in P.q1_entry(i, j).terms:
                form = [0] * (m + n)
                form[j - 1] += 1
                form[m + i - 1] += 1
                for k, e in enumerate(a):
                    form[k] -= e
                forms.append(tuple(form))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for (a, b) in P.q2_entry(j, i).terms:
                form = [0] * (m + n)
                form[m + i - 1] += 1
                form[m + j - 1] += 1
                for k, e in enumerate(a + b):
                    form[k] -= e
                forms.append(tuple(form))
    return forms


def validate_order_by_entries(P, order):
    """Conditions (M1)/(M2), every table entry in both orientations."""
    m, n = P.m, P.n
    for i in range(1, n + 1):
        yi = tuple(int(k == i - 1) for k in range(n))
        for j in range(1, m + 1):
            product = (tuple(int(k == j - 1) for k in range(m)), yi)
            if any(not order.less(mono, product) for mono in P.q1_entry(i, j).terms):
                return False
        for j in range(1, n + 1):
            if i == j:
                continue
            b = tuple(int(k == i - 1) + int(k == j - 1) for k in range(n))
            product = ((0,) * m, b)
            if any(not order.less(mono, product) for mono in P.q2_entry(i, j).terms):
                return False
    return True


def pr_sample_positive_by_entries(P):
    """The entries of (1, p*1), p = 1 + the largest x-degree of any
    table entry."""
    max_xdeg = 0
    for i in range(1, P.n + 1):
        for j in range(1, P.m + 1):
            for (a, _b) in P.q1_entry(i, j).terms:
                max_xdeg = max(max_xdeg, sum(a))
        for j in range(1, P.n + 1):
            for (a, _b) in P.q2_entry(i, j).terms:
                max_xdeg = max(max_xdeg, sum(a))
    return (1,) * P.m + (max_xdeg + 1,) * P.n


def rees_presentation_by_entries(P, w):
    """The Rees ring of P at an integral weight w of PR(R), read entry by
    entry: each monomial x^a (or x^a y_l) of Q1_{i,j} (or Q2_{i,j}, i > j)
    is multiplied by x0 to the power of the w-degree of the word x_j y_i
    (or y_j y_i) minus its own, which PR(R) makes positive.  The tables
    are checked for associativity by the constructor."""
    m, n = P.m, P.n

    def x0_power(word_degree, a, b):
        e0 = word_degree - sum(e * d for e, d in zip(w.entries, a + b))
        assert e0 > 0 and e0.denominator == 1, e0
        return (int(e0),) + a

    zero_y = (0,) * n
    q1 = {}
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            entry = P.q1_entry(i, j).terms
            if entry:
                lhs = w.u[j - 1] + w.v[i - 1]
                q1[(i, j + 1)] = {x0_power(lhs, a, zero_y): c for (a, _b), c in entry.items()}
    q2 = {}
    for i in range(1, n + 1):
        for j in range(1, i):
            entry = P.q2_entry(i, j).terms
            if entry:
                lhs = w.v[i - 1] + w.v[j - 1]
                q2[(i, j)] = {(x0_power(lhs, a, b), b): c for (a, b), c in entry.items()}
    ring = RingPresentation(m + 1, n, q1=q1, q2=q2, name=f"rees({P.name})")
    ring.var_names = ("x0",) + P.var_names
    return ring
