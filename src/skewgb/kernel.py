"""Pure-Python multiplication kernel for almost centralizing extensions.

Standard expressions are dicts ``{(a, b): coeff}`` for ``sum coeff x^a y^b``.
``Q1_ij = y_i x_j - x_j y_i`` lies in ``k[x]`` and the x's commute, so
``ad(y_i)`` acts on ``k[x]`` as the derivation ``D_i = sum_j Q1_ij d/dx_j``.
A product ``(x^a y^b) * (x^c y^d)`` is ``x^a (y^b x^c) y^d``, built from
two shapes of block:

- ``y^b x^c``, from whole powers.  For g in ``k[x]``,
  ``y_i^p g = sum_l C(p, l) D_i^l(g) y_i^(p - l)``.  The ``y_i^(b_i)``
  enter for i from n down to 1, so each lands in front of larger y's
  only and the result is standard without Q2.
- ``y^b y^d``, only where some ``Q2`` is nonzero (otherwise it is
  ``y^(b + d)``).  The ``y_i`` of ``y^b`` enter one at a time, right to
  left, through the primitive, the standard form of ``y_i * x^a y^b``:
  ``y_i`` passes ``x^a`` as ``x^a y_i + D_i(x^a)`` and a smaller ``y_j``
  as ``y_j y_i + Q2_ij``.  ``Q2_ij`` has y-degree at most one, so the
  correction has lower y-degree and the recursion depth is bounded by
  the y-degree.

Both shapes share one block cache that lives as long as the kernel.  The
per-``(i, a, b)`` memo of the primitive lives for one ``multiply`` or
``lmul_mono`` call, shared by all its blocks; kept for the kernel's
lifetime it would grow with every product.  No block or memo value is
changed after it is stored, so sharing one changes no result.
``multiply`` clears each operand's denominators once and sums integers
over integral tables; ``lmul_mono``, the path of normal forms, scales
by the caller's Fractions.

Precondition: the tables must pass ``ring.validate_presentation``.  Every
step above is a sequence of rewrites by relations, so for consistent
tables the result is the unique standard expression (Bergman's diamond
lemma).  For inconsistent tables it is one of several possible results.
``RingPresentation`` refuses inconsistent tables on construction, and
the parser refuses problem files with inconsistent ``custom`` tables.
"""

from fractions import Fraction
from math import comb
from operator import add

from .polyhedra import _scaled

_ONE = Fraction(1)


def _exact(c):
    """A table coefficient as an int when it is integral.  Blocks and
    ``mono_mul`` results over integral tables then carry int coefficients,
    which cost far less than Fractions; ``lmul_mono`` scales them by the
    caller's Fraction coefficients, ``multiply`` by integral numerators."""
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

    Block coefficients are ints over integral tables: a caller that hands
    back Fractions either scales by a Fraction (``lmul_mono``) or makes
    each value a Fraction at the end (``multiply``).
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

    def _derive(self, i, g):
        """D_i(g) for g in k[x] as {x exponent: coefficient}, where
        ``D_i = sum_j Q1_ij d/dx_j`` is ad(y_i) on k[x]."""
        out = {}
        q1 = self._q1[i]
        for a, k in g.items():
            for j, e in enumerate(a):
                if e:
                    lower = a[:j] + (e - 1,) + a[j + 1:]
                    for xe, q in q1[j]:
                        _accumulate(out, tuple(map(add, lower, xe)), e * k * q)
        return out

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
            for c, k in self._derive(i, {a: 1}).items():
                _accumulate(out, (c, b), k)
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

    def _yx(self, b, c):
        """Standard expression of y^b * x^c, from whole powers y_i^(b_i)."""
        key = (b, c, self._zy)
        res = self._blocks.get(key)
        if res is not None:
            return res
        # y exponent -> its x polynomial; y_i^p maps each pair (e, g) to the
        # pairs (e + (p - l) e_i, C(p, l) D_i^l(g)), whose exponents differ
        groups = {self._zy: {c: 1}}
        for i in reversed(range(self.n)):
            p = b[i]
            if not p:
                continue
            entered = {}
            for e, g in groups.items():
                for l in range(p + 1):
                    if l:
                        g = self._derive(i, g)
                        if not g:
                            break
                    s = comb(p, l)
                    entered[e[:i] + (p - l,) + e[i + 1:]] = {a: s * k for a, k in g.items()}
            groups = entered
        res = {(a, e): k for e, g in groups.items() for a, k in g.items()}
        self._blocks[key] = res
        return res

    def _yy(self, b, d, memo):
        """Standard expression of y^b * y^d: the y_i of y^b enter one at a
        time, right to left, through the primitive with ``memo``."""
        key = (b, self._zx, d)
        res = self._blocks.get(key)
        if res is None:
            res = {(self._zx, d): 1}
            for i in reversed(range(self.n)):
                for _ in range(b[i]):
                    res = self._lmul_y(i, res, memo)
            self._blocks[key] = res
        return res

    # -- products ------------------------------------------------------

    def mono_mul(self, a, b, c, d, memo=None):
        """Standard expression of (x^a y^b) * (x^c y^d).

        ``memo`` is a primitive memo shared by the blocks of one product;
        a fresh one is used when it is not given.
        """
        mid = self._yx(b, c)
        if self._q2_trivial:
            # Kept apart from the general loop below: without this branch
            # the A2 and A3 passes of the products benchmark took 10.4 and
            # 16.6 ms instead of 6.5 and 9.3 ms (best of 25, CPython 3.11,
            # 2-vCPU Xeon), as y^d1 y^d then costs a block lookup.  The
            # shift by (a, d) is injective, so no two terms meet.
            return {
                (
                    tuple(ai + ci for ai, ci in zip(a, c1)),
                    tuple(di + ei for di, ei in zip(d1, d)),
                ): k1
                for (c1, d1), k1 in mid.items()
            }
        if memo is None:
            memo = {}
        out = {}
        for (c1, d1), k1 in mid.items():
            for (c2, d2), k2 in self._yy(d1, d, memo).items():
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
        memo = {}
        for (c, d), k in terms.items():
            _add_terms(out, self.mono_mul(a, b, c, d, memo), coeff * k)
        return out

    def multiply(self, fterms, gterms):
        """Standard expression of the product of two standard expressions.

        The coefficients of each operand are cleared of denominators once,
        so the sum runs over integers (over integral tables) and each
        output term becomes one Fraction at the end.
        """
        fden, fnum = _scaled(fterms.values())
        gden, gnum = _scaled(gterms.values())
        gitems = list(zip(gterms, gnum))
        acc = {}
        memo = {}
        for (a, b), kf in zip(fterms, fnum):
            for (c, d), kg in gitems:
                _add_terms(acc, self.mono_mul(a, b, c, d, memo), kf * kg)
        den = fden * gden
        return {key: Fraction(v, den) for key, v in acc.items()}
