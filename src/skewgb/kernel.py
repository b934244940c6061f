"""Pure-Python normalization kernel for almost centralizing extensions.

The kernel rewrites words in the generators to the unique standard form
``x^a y^b`` using the relation tables.  Words are tuples of generator
tokens: token ``j`` with ``0 <= j < m`` is ``x_j``, token ``m + i`` with
``0 <= i < n`` is ``y_i``.  A word is normal iff its tokens are
non-decreasing.  Rewriting uses an explicit work stack of unnormalized
(coefficient, word) items; each rewrite either swaps commuting or
reordered generators or emits correction words that are strictly smaller
in the (y-length, inversion count) measure, so the stack drains.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def _expand_tokens(m, xexp, yexp):
    toks = []
    for j, e in enumerate(xexp):
        toks.extend([j] * e)
    for i, e in enumerate(yexp):
        toks.extend([m + i] * e)
    return tuple(toks)


class MulKernel:
    """Multiplication engine for one ring presentation.

    Parameters are plain data so the kernel has no dependency on the
    high-level classes: ``q1[i][j]`` is an iterable of
    ``(x_exponent_tuple, coefficient)`` pairs for the value of
    ``y_i x_j - x_j y_i`` and ``q2[(i, j)]`` (only ``i > j`` keys) an
    iterable of ``((x_exponent, y_exponent), coefficient)`` pairs for
    ``y_i y_j - y_j y_i``.
    """

    def __init__(self, m, n, q1, q2):
        self.m = m
        self.n = n
        # Precompute corrections as (coefficient, token word) lists.
        self._q1corr = []
        for i in range(n):
            row = []
            for j in range(m):
                entry = q1[i][j] if i < len(q1) and j < len(q1[i]) else ()
                row.append(tuple((coeff, _expand_tokens(m, xe, ())) for xe, coeff in entry))
            self._q1corr.append(row)
        self._q2corr = {}
        for (i, j), entry in q2.items():
            if i <= j:
                continue
            self._q2corr[(i, j)] = tuple(
                (coeff, _expand_tokens(m, xe, ye)) for (xe, ye), coeff in entry
            )
        self._q2_trivial = not self._q2corr
        self._yx_cache = {}
        self._yy_cache = {}

    # -- word rewriting ------------------------------------------------

    def normalize_word(self, word, coeff=Fraction(1)):
        """Standard expression of a generator word as {(a, b): coeff}."""
        m, n = self.m, self.n
        out = {}
        stack = [(coeff, word)]
        while stack:
            c, w = stack.pop()
            # locate first descent
            p = -1
            for k in range(len(w) - 1):
                if w[k] > w[k + 1]:
                    p = k
                    break
            if p < 0:
                a = [0] * m
                b = [0] * n
                for t in w:
                    if t < m:
                        a[t] += 1
                    else:
                        b[t - m] += 1
                key = (tuple(a), tuple(b))
                acc = out.get(key, _ZERO) + c
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
                continue
            g1, g2 = w[p], w[p + 1]
            pre, post = w[:p], w[p + 2:]
            swapped = pre + (g2, g1) + post
            stack.append((c, swapped))
            if g1 < m:
                continue  # x generators commute
            if g2 < m:
                corr = self._q1corr[g1 - m][g2]
            else:
                corr = self._q2corr.get((g1 - m, g2 - m), ())
            for kappa, toks in corr:
                stack.append((c * kappa, pre + toks + post))
        return out

    # -- cached building blocks ---------------------------------------

    def _yx(self, b, c):
        """Standard expression of y^b x^c."""
        key = (b, c)
        res = self._yx_cache.get(key)
        if res is None:
            res = self.normalize_word(_expand_tokens(self.m, (), b) + _expand_tokens(self.m, c, ()))
            self._yx_cache[key] = res
        return res

    def _yy(self, d, b2):
        """Standard expression of y^d y^b2."""
        key = (d, b2)
        res = self._yy_cache.get(key)
        if res is None:
            word = _expand_tokens(self.m, (), d) + _expand_tokens(self.m, (), b2)
            res = self.normalize_word(word)
            self._yy_cache[key] = res
        return res

    # -- products ------------------------------------------------------

    def mono_mul(self, a, b, c, d):
        """Standard expression of (x^a y^b) * (x^c y^d)."""
        out = {}
        mid = self._yx(b, c)
        if self._q2_trivial:
            for (c1, d1), k1 in mid.items():
                key = (
                    tuple(ai + ci for ai, ci in zip(a, c1)),
                    tuple(di + ei for di, ei in zip(d1, d)),
                )
                acc = out.get(key, _ZERO) + k1
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
            return out
        for (c1, d1), k1 in mid.items():
            for (c2, d2), k2 in self._yy(d1, d).items():
                key = (
                    tuple(ai + ci + cj for ai, ci, cj in zip(a, c1, c2)),
                    d2,
                )
                acc = out.get(key, _ZERO) + k1 * k2
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return out

    def lmul_mono(self, coeff, a, b, terms):
        """Standard expression of coeff * x^a y^b * (terms)."""
        out = {}
        for (c, d), k in terms.items():
            ck = coeff * k
            for key, k2 in self.mono_mul(a, b, c, d).items():
                acc = out.get(key, _ZERO) + ck * k2
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return out

    def multiply(self, fterms, gterms):
        """Standard expression of the product of two standard expressions."""
        out = {}
        for (a, b), kf in fterms.items():
            for key, k2 in self.lmul_mono(kf, a, b, gterms).items():
                acc = out.get(key, _ZERO) + k2
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return out
