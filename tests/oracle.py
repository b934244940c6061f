"""Independent oracles used by the test suite.

``normalize_word_random`` rewrites a generator word by resolving a
*randomly chosen* descent at each step, providing a strategy-independence
oracle; the library kernel rewrites no words, it moves one ``y_i`` at a
time with the derivation rule.  ``multiply_naive`` multiplies standard
expressions by expanding both factors to generator words.  The oracles
work through the public presentation API only.
"""

from fractions import Fraction


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
