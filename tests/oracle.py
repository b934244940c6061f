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
characteristic-variety reports read off.  ``buchberger_all_pairs`` is
the plain Buchberger algorithm, every S-pair reduced and no criterion
applied, the reference for the pair criteria of ``buchberger``.  The
oracles work through the public API only.
"""

from fractions import Fraction

from skewgb import MonomialOrder, buchberger, multiply, normal_form


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


def ideal_member_comm(S, f, gb):
    """Whether f lies in the ideal of S with Groebner basis gb."""
    return normal_form(S, f, list(gb.elements), gb.order).is_zero()


def initial_monomial_ideal_comm(S, gens):
    """The grevlex initial monomial ideal of the S-ideal of gens, by a
    fresh Buchberger completion."""
    return buchberger(S, list(gens), MonomialOrder("grevlex")).initial_ideal(S.m, S.n)


def ideals_equal_comm(S, gens_a, gens_b):
    """Equality of two S-ideals by mutual normal-form membership."""
    gens_a = [g for g in gens_a if not g.is_zero()]
    gens_b = [g for g in gens_b if not g.is_zero()]
    if not gens_a or not gens_b:
        return bool(gens_a) == bool(gens_b)
    order = MonomialOrder("grevlex")
    gb_a = buchberger(S, gens_a, order)
    gb_b = buchberger(S, gens_b, order)
    return all(ideal_member_comm(S, f, gb_b) for f in gens_a) and all(
        ideal_member_comm(S, f, gb_a) for f in gens_b
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
