"""Weight vectors, filtration degrees, initial forms and the polynomial region.

A weight vector (u, v) assigns degrees to the generators and induces an
increasing filtration on R.  The polynomial region PR(R) is the open
convex polyhedral cone of weights whose associated graded ring is the
commutative polynomial ring S; its defining half-spaces come straight
from the relation tables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Tuple

from .errors import RegionError, SkewGbError
from .ring import RingPresentation, SkewPoly

NEG_INF = float("-inf")


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class WeightVector:
    """Exact rational weights (u, v) for the m + n generators."""

    __slots__ = ("u", "v")

    def __init__(self, u: Iterable, v: Iterable):
        self.u: Tuple[Fraction, ...] = tuple(_frac(x) for x in u)
        self.v: Tuple[Fraction, ...] = tuple(_frac(x) for x in v)

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

    def matches(self, P: RingPresentation) -> bool:
        return len(self.u) == P.m and len(self.v) == P.n

    def check(self, P: RingPresentation):
        if not self.matches(P):
            raise RegionError(
                f"weight dimensions ({len(self.u)},{len(self.v)}) do not match "
                f"presentation ({P.m},{P.n})"
            )

    def dot(self, key) -> Fraction:
        a, b = key
        return sum(ui * ai for ui, ai in zip(self.u, a)) + sum(
            vi * bi for vi, bi in zip(self.v, b)
        )

    def ceil_dot(self, key) -> int:
        a, b = key
        return sum(math.ceil(ui) * ai for ui, ai in zip(self.u, a)) + sum(
            math.ceil(vi) * bi for vi, bi in zip(self.v, b)
        )

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.entries)

    def is_positive(self) -> bool:
        return all(x > 0 for x in self.entries)

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for x in self.entries)

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


def _normalize_form(form: Tuple[Fraction, ...]) -> Tuple[Fraction, ...]:
    """Scale a linear form by a positive rational to integer content 1."""
    if not any(form):
        return form
    denom_lcm = denominator_lcm(form)
    scaled = [x * denom_lcm for x in form]
    g = 0
    for x in scaled:
        g = math.gcd(g, int(x))
    return tuple(Fraction(int(x) // g) for x in scaled)


class HalfspaceSystem:
    """A finite list of strict linear inequalities L(u, v) > 0."""

    __slots__ = ("m", "n", "strict")

    def __init__(self, m: int, n: int, strict: Iterable[Tuple[Fraction, ...]]):
        self.m = m
        self.n = n
        seen = []
        for form in strict:
            form = _normalize_form(tuple(_frac(x) for x in form))
            if len(form) != m + n:
                raise SkewGbError("halfspace form has wrong length")
            if any(form) and form not in seen:
                seen.append(form)
        self.strict = tuple(sorted(seen))

    def contains(self, w: WeightVector) -> bool:
        entries = w.entries
        if len(entries) != self.m + self.n:
            raise RegionError("weight dimension mismatch")
        return all(
            sum(c * x for c, x in zip(form, entries)) > 0 for form in self.strict
        )

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
    top = max(w.dot(key) for key in f.terms)
    S = P.graded()
    return SkewPoly(S, {key: c for key, c in f.terms.items() if w.dot(key) == top})


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
    zero = [Fraction(0)] * (m + n)

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
