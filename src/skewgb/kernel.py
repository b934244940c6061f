"""Pure-Python multiplication kernel for almost centralizing extensions.

Standard expressions are dicts ``{(a, b): coeff}`` for ``sum coeff x^a y^b``.
Every product is built from one primitive, the standard form of
``y_i * x^a y^b``:

- The x part.  ``Q1_ij = y_i x_j - x_j y_i`` lies in ``k[x]`` and the x's
  commute, so ``ad(y_i)`` acts on ``k[x]`` as the derivation
  ``sum_j Q1_ij d/dx_j``: ``y_i f(x) = f y_i + sum_j Q1_ij df/dx_j``.
  One step puts ``y_i`` past ``x^a``.
- The y part.  ``y_i`` passes a smaller ``y_j`` as ``y_j y_i + Q2_ij``.
  ``Q2_ij`` has y-degree at most one, so the correction has lower
  y-degree and the recursion depth is bounded by the y-degree.

A block ``y^b * x^c y^d`` is built by letting the ``y_i`` of ``y^b``
enter one at a time, right to left.  Products use two shapes of block,
``y^b x^c`` and ``y^d y^b2``, and both are kept in one cache on the
kernel, while the per-``(i, a, b)`` memo of the primitive lives only
while one block is built.

Precondition: the tables must pass ``ring.validate_presentation``.  Every
step above is a rewrite by a relation, so for consistent tables the
result is the unique standard expression (Bergman's diamond lemma).  For
inconsistent tables it is one of several possible results.
``RingPresentation`` refuses inconsistent tables on construction, and
the parser refuses problem files with inconsistent ``custom`` tables.
"""

from fractions import Fraction
from operator import add

_ONE = Fraction(1)


def _exact(c):
    """A table coefficient as an int when it is integral.  Blocks and
    ``mono_mul`` results over integral tables then carry int coefficients,
    which cost far less than Fractions; ``lmul_mono`` scales them by the
    caller's Fraction coefficients."""
    return int(c) if c.denominator == 1 else c


def _accumulate(out, key, value):
    """Add ``value`` at ``key`` of the sparse dict ``out``, dropping a zero."""
    acc = out.get(key, 0) + value
    if acc:
        out[key] = acc
    elif key in out:
        del out[key]


def _add_terms(out, terms, scale=None):
    """Add ``terms``, times ``scale`` if one is given, into ``out``.

    Int block coefficients must come with a Fraction ``scale``, so that
    every value left in ``out`` is a Fraction.
    """
    for key, value in terms.items():
        _accumulate(out, key, value if scale is None else scale * value)


class MulKernel:
    """Multiplication engine for one ring presentation.

    Parameters are plain data so the kernel has no dependency on the
    high-level classes: ``q1[i][j]`` (an n-by-m table) is an iterable of
    ``(x_exponent_tuple, coefficient)`` pairs for the value of
    ``y_i x_j - x_j y_i`` and ``q2[(i, j)]`` (only ``i > j`` keys) an
    iterable of ``((x_exponent, y_exponent), coefficient)`` pairs for
    ``y_i y_j - y_j y_i``.
    """

    def __init__(self, m, n, q1, q2):
        self.m = m
        self.n = n
        self._zx = (0,) * m
        self._zy = (0,) * n
        # _q1[i][j]: (x exponent, coefficient) pairs of Q1_ij
        self._q1 = tuple(
            tuple(tuple((xe, _exact(c)) for xe, c in entry) for entry in row) for row in q1
        )
        # _q2[i][j] for j < i: (x exponent, y index or -1, coefficient) triples of Q2_ij
        self._q2 = tuple(
            tuple(
                tuple(
                    (xe, ye.index(1) if any(ye) else -1, _exact(c))
                    for (xe, ye), c in q2.get((i, j), ())
                )
                for j in range(i)
            )
            for i in range(n)
        )
        self._q2_trivial = not any(any(row) for row in self._q2)
        self._blocks = {}

    # -- the primitive -------------------------------------------------

    def _ymul(self, i, a, b, memo):
        """Standard form of y_i * x^a y^b, memoised in ``memo``."""
        key = (i, a, b)
        out = memo.get(key)
        if out is not None:
            return out
        if any(a):
            out = {}
            for (c, d), k in self._ymul(i, self._zx, b, memo).items():
                _accumulate(out, (tuple(map(add, a, c)), d), k)
            for j, e in enumerate(a):
                if e:
                    lower = a[:j] + (e - 1,) + a[j + 1:]
                    for xe, q in self._q1[i][j]:
                        _accumulate(out, (tuple(map(add, lower, xe)), b), e * q)
        else:
            out = self._ypast(i, b, memo)
        memo[key] = out
        return out

    def _ypast(self, i, b, memo):
        """Standard form of y_i * y^b."""
        row = self._q2[i]
        j = next((j for j in range(i) if b[j]), i)
        if not any(row[t] for t in range(j, i) if b[t]):
            return {(self._zx, b[:i] + (b[i] + 1,) + b[i + 1:]): 1}
        # y_i y_j y^rest = y_j (y_i y^rest) + Q2_ij y^rest, with y_j the first factor
        rest = b[:j] + (b[j] - 1,) + b[j + 1:]
        out = self._lmul_y(j, self._ymul(i, self._zx, rest, memo), memo)
        for xe, t, q in row[j]:
            if t < 0:
                _accumulate(out, (xe, rest), q)
                continue
            for (c, d), k in self._ymul(t, self._zx, rest, memo).items():
                _accumulate(out, (tuple(map(add, xe, c)), d), q * k)
        return out

    def _lmul_y(self, i, terms, memo):
        """Standard form of y_i * (terms)."""
        out = {}
        for (c, d), k in terms.items():
            for key, k2 in self._ymul(i, c, d, memo).items():
                _accumulate(out, key, k * k2)
        return out

    def _lmul_ys(self, b, terms):
        """Standard form of y^b * (terms), one y_i at a time from the right."""
        memo = {}
        for i in reversed(range(self.n)):
            for _ in range(b[i]):
                terms = self._lmul_y(i, terms, memo)
        return terms

    def normalize_word(self, word, coeff=_ONE):
        """Standard expression of ``coeff`` times a generator word.

        Token ``j < m`` is ``x_j`` and token ``m + i`` is ``y_i``; the
        tokens enter one at a time from the right.
        """
        m = self.m
        terms = {(self._zx, self._zy): coeff} if coeff else {}
        memo = {}
        for t in reversed(word):
            if t < m:
                terms = {(a[:t] + (a[t] + 1,) + a[t + 1:], b): k for (a, b), k in terms.items()}
                continue
            terms = self._lmul_y(t - m, terms, memo)
        return terms

    # -- cached building blocks ---------------------------------------

    def _block(self, b, mono):
        """Standard expression of y^b * x^c y^d for ``mono`` = (c, d)."""
        key = (b, mono)
        res = self._blocks.get(key)
        if res is None:
            res = self._lmul_ys(b, {mono: 1})
            self._blocks[key] = res
        return res

    # -- products ------------------------------------------------------

    def mono_mul(self, a, b, c, d):
        """Standard expression of (x^a y^b) * (x^c y^d)."""
        out = {}
        mid = self._block(b, (c, self._zy))
        if self._q2_trivial:
            # Kept apart from the general loop below: without this branch a
            # pass of the products benchmark took about 27% longer (CPython
            # 3.11, 2-core Xeon), as y^d1 y^d then costs a block lookup.
            for (c1, d1), k1 in mid.items():
                key = (
                    tuple(ai + ci for ai, ci in zip(a, c1)),
                    tuple(di + ei for di, ei in zip(d1, d)),
                )
                acc = out.get(key, 0) + k1
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
            return out
        for (c1, d1), k1 in mid.items():
            for (c2, d2), k2 in self._block(d1, (self._zx, d)).items():
                key = (
                    tuple(ai + ci + cj for ai, ci, cj in zip(a, c1, c2)),
                    d2,
                )
                acc = out.get(key, 0) + k1 * k2
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return out

    def lmul_mono(self, coeff, a, b, terms):
        """Standard expression of coeff * x^a y^b * (terms)."""
        out = {}
        for (c, d), k in terms.items():
            _add_terms(out, self.mono_mul(a, b, c, d), coeff * k)
        return out

    def multiply(self, fterms, gterms):
        """Standard expression of the product of two standard expressions."""
        out = {}
        for (a, b), kf in fterms.items():
            _add_terms(out, self.lmul_mono(kf, a, b, gterms))
        return out
