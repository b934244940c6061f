"""Weight vectors, filtration degrees, initial forms and the polynomial region.

A weight vector (u, v) assigns degrees to the generators and induces an
increasing filtration on R.  The polynomial region PR(R) is the open
convex polyhedral cone of weights whose associated graded ring is the
commutative polynomial ring S; its defining half-spaces come straight
from the relation tables.

Weights are exact rationals, but every dot product and sign test runs
on plain ints: each weight carries its entries times the lcm of their
denominators, and a positive scale keeps every sign and comparison.
Linear forms (half-spaces, cone forms) are integer tuples of content 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Tuple

from .errors import RegionError, SkewGbError
from .ring import RingPresentation, SkewPoly

NEG_INF = float("-inf")


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class WeightVector:
    """Exact rational weights (u, v) for the m + n generators.

    ``u`` and ``v`` hold the entries as ``Fraction``s.  The integer view,
    computed once at construction, is ``den``, the lcm of the entries'
    denominators, with ``iu`` and ``iv``, the entries times ``den`` as
    ints (``ints`` is ``iu + iv``).  ``dot`` is exact: an int for an
    integral weight, else a ``Fraction``; ``scaled_dot`` is ``den``
    times it, an int with the same sign and order, for comparisons.
    """

    __slots__ = ("u", "v", "den", "iu", "iv")

    def __init__(self, u: Iterable, v: Iterable):
        self.u: Tuple[Fraction, ...] = tuple(_frac(x) for x in u)
        self.v: Tuple[Fraction, ...] = tuple(_frac(x) for x in v)
        den = self.den = denominator_lcm(self.u + self.v)
        self.iu: Tuple[int, ...] = tuple(
            x.numerator * (den // x.denominator) for x in self.u
        )
        self.iv: Tuple[int, ...] = tuple(
            x.numerator * (den // x.denominator) for x in self.v
        )

    @classmethod
    def for_ring(cls, P: RingPresentation, entries: Sequence) -> "WeightVector":
        if len(entries) != P.m + P.n:
            raise RegionError(
                f"weight has {len(entries)} entries, presentation needs {P.m + P.n}"
            )
        return cls(entries[: P.m], entries[P.m:])

    @property
    def entries(self) -> Tuple[Fraction, ...]:
        return self.u + self.v

    @property
    def ints(self) -> Tuple[int, ...]:
        return self.iu + self.iv

    def matches(self, P: RingPresentation) -> bool:
        return len(self.u) == P.m and len(self.v) == P.n

    def check(self, P: RingPresentation):
        if not self.matches(P):
            raise RegionError(
                f"weight dimensions ({len(self.u)},{len(self.v)}) do not match "
                f"presentation ({P.m},{P.n})"
            )

    def scaled_dot(self, key) -> int:
        """``den`` times u.a + v.b for the monomial key (a, b)."""
        a, b = key
        return sum(map(mul, self.iu, a)) + sum(map(mul, self.iv, b))

    def dot(self, key):
        """The exact u.a + v.b: an int when ``den`` is 1, else a Fraction."""
        s = self.scaled_dot(key)
        return s if self.den == 1 else Fraction(s, self.den)

    def ceil_dot(self, key) -> int:
        a, b = key
        return sum(math.ceil(ui) * ai for ui, ai in zip(self.u, a)) + sum(
            math.ceil(vi) * bi for vi, bi in zip(self.v, b)
        )

    def is_integral(self) -> bool:
        return self.den == 1

    def is_positive(self) -> bool:
        return all(x > 0 for x in self.ints)

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for x in self.ints)

    def scale(self, r) -> "WeightVector":
        r = _frac(r)
        return WeightVector((x * r for x in self.u), (x * r for x in self.v))

    def __add__(self, other: "WeightVector") -> "WeightVector":
        return WeightVector(
            (a + b for a, b in zip(self.u, other.u)),
            (a + b for a, b in zip(self.v, other.v)),
        )

    def __sub__(self, other: "WeightVector") -> "WeightVector":
        return self + other.scale(-1)

    def __eq__(self, other):
        return (
            isinstance(other, WeightVector) and self.u == other.u and self.v == other.v
        )

    def __hash__(self):
        return hash((self.u, self.v))

    def __str__(self):
        return "(" + ",".join(str(x) for x in self.entries) + ")"

    __repr__ = __str__


def denominator_lcm(values: Iterable[Fraction]) -> int:
    """Least common multiple of the denominators of the rationals (1 if none)."""
    return math.lcm(*(x.denominator for x in values))


def _normalize_form(form: Sequence) -> Tuple[int, ...]:
    """Scale a rational linear form by a positive rational to ints of
    content 1; the zero form becomes a tuple of int zeros."""
    den = denominator_lcm(form)
    nums = [(x * den).numerator for x in form]
    g = math.gcd(*nums)
    return tuple(x // g for x in nums) if g > 1 else tuple(nums)


class HalfspaceSystem:
    """A finite list of strict linear inequalities L(u, v) > 0, each form
    an integer tuple of content 1."""

    __slots__ = ("m", "n", "strict")

    def __init__(self, m: int, n: int, strict: Iterable[Sequence]):
        self.m = m
        self.n = n
        seen = []
        for form in strict:
            form = _normalize_form([_frac(x) for x in form])
            if len(form) != m + n:
                raise SkewGbError("halfspace form has wrong length")
            if any(form) and form not in seen:
                seen.append(form)
        self.strict = tuple(sorted(seen))

    def contains(self, w: WeightVector) -> bool:
        ints = w.ints
        if len(ints) != self.m + self.n:
            raise RegionError("weight dimension mismatch")
        return all(sum(map(mul, form, ints)) > 0 for form in self.strict)

    def to_text(self) -> str:
        """Deterministic structured-text serialization, one inequality per line."""
        if not self.strict:
            return "(no constraints: entire weight space)"
        lines = []
        for form in self.strict:
            coeffs = " ".join(str(c) for c in form)
            lines.append(f"[{coeffs}] > 0")
        return "\n".join(lines)

    def __eq__(self, other):
        return (
            isinstance(other, HalfspaceSystem)
            and (self.m, self.n, self.strict) == (other.m, other.n, other.strict)
        )

    def __repr__(self):
        return f"HalfspaceSystem({self.strict!r})"


def degree(P: RingPresentation, f: SkewPoly, w: WeightVector):
    """Filtration degree max ceil(u).a + ceil(v).b of f; -inf for zero."""
    w.check(P)
    if f.is_zero():
        return NEG_INF
    return max(w.ceil_dot(key) for key in f.terms)


def weight_degree(f: SkewPoly, w: WeightVector):
    """Raw rational weighted degree max u.a + v.b of f; -inf for zero."""
    if f.is_zero():
        return NEG_INF
    return max(w.dot(key) for key in f.terms)


def initial_form(P: RingPresentation, f: SkewPoly, w: WeightVector) -> SkewPoly:
    """Top weighted-degree part of f, as an element of S = gr(R).

    Uses the raw rational inner product u.a + v.b (no ceiling), matching
    the definition of the principal symbol.
    """
    w.check(P)
    if f.is_zero():
        raise SkewGbError("initial form of the zero polynomial is undefined")
    degs = {key: w.scaled_dot(key) for key in f.terms}
    top = max(degs.values())
    S = P.graded()
    return SkewPoly(S, {key: c for key, c in f.terms.items() if degs[key] == top})


def pr_halfspaces(P: RingPresentation) -> HalfspaceSystem:
    """Defining strict inequalities of the polynomial region PR(R).

    One inequality per monomial of each relation table entry:
    u_j + v_i > u.a for x^a in Q1_{i,j} and v_i + v_j > u.a + v_l for
    x^a y_l (or x^a) in Q2_{i,j}.  Built once per presentation.
    """
    if P._halfspaces is None:
        P._halfspaces = _build_pr_halfspaces(P)
    return P._halfspaces


def _build_pr_halfspaces(P: RingPresentation) -> HalfspaceSystem:
    m, n = P.m, P.n
    forms = []
    zero = [0] * (m + n)

    def uv_coeff(j=None, i=None):
        form = list(zero)
        if j is not None:
            form[j] += 1
        if i is not None:
            form[m + i] += 1
        return form

    for i in range(1, n + 1):
        for j in range(1, m + 1):
            q = P.q1_entry(i, j)
            for (a, _b) in q.terms:
                form = uv_coeff(j=j - 1, i=i - 1)
                for k, e in enumerate(a):
                    form[k] -= e
                forms.append(tuple(form))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            q = P.q2_entry(j, i)  # stored pairs; either orientation works
            for (a, b) in q.terms:
                form = list(zero)
                form[m + i - 1] += 1
                form[m + j - 1] += 1
                for k, e in enumerate(a):
                    form[k] -= e
                for k, e in enumerate(b):
                    form[m + k] -= e
                forms.append(tuple(form))
    return HalfspaceSystem(m, n, forms)


def pr_contains(P: RingPresentation, w: WeightVector) -> bool:
    """Membership of w in the open cone PR(R)."""
    w.check(P)
    return pr_halfspaces(P).contains(w)


def pr_sample_positive(P: RingPresentation) -> WeightVector:
    """The positive vector (1, p*1) in PR(R), p = max x-degree of the tables + 1."""
    max_xdeg = 0
    for i in range(1, P.n + 1):
        for j in range(1, P.m + 1):
            for (a, _b) in P.q1_entry(i, j).terms:
                max_xdeg = max(max_xdeg, sum(a))
        for j in range(1, P.n + 1):
            for (a, _b) in P.q2_entry(i, j).terms:
                max_xdeg = max(max_xdeg, sum(a))
    p = max_xdeg + 1
    return WeightVector([Fraction(1)] * P.m, [Fraction(p)] * P.n)
