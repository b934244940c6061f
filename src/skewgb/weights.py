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
Both integer views come from ``polyhedra._scaled`` and
``polyhedra._primitive``; the half-spaces of PR(R) are read off
``RingPresentation._relation_terms``, the one list of relation words and
their right-hand-side terms, which also gives the x0 exponents of the
Rees rings.  A weight outside PR(R) is refused in one place,
``_require_pr``.  The split of a polynomial at its top
weighted degree has its one home here, ``_top_split``: initial forms,
Rees homogenization and the cone forms of the fan read it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul, sub
from typing import Iterable, Sequence, Tuple

from .errors import RegionError, SkewGbError
from .polyhedra import _primitive, _scaled
from .ring import RingPresentation, SkewPoly, _require_ring

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
        self.den, ints = _scaled(self.u + self.v)
        self.iu: Tuple[int, ...] = ints[: len(self.u)]
        self.iv: Tuple[int, ...] = ints[len(self.u):]

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

    def _integral_scale(self) -> "WeightVector":
        """w times ``den``: its integer view as a weight."""
        return self if self.den == 1 else WeightVector(self.iu, self.iv)

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


class HalfspaceSystem:
    """A finite list of strict linear inequalities L(u, v) > 0, each form
    an integer tuple of content 1."""

    __slots__ = ("m", "n", "strict")

    def __init__(self, m: int, n: int, strict: Iterable[Sequence]):
        self.m = m
        self.n = n
        seen = []
        for form in strict:
            form = _primitive(_scaled(form)[1])
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
    _require_ring(P, (f,))
    if f.is_zero():
        raise SkewGbError("initial form of the zero polynomial is undefined")
    winners, _rest, _dots = _top_split(f, w)
    return SkewPoly(P.graded(), {key: f.terms[key] for key in winners})


def _top_split(g: SkewPoly, w: WeightVector):
    """Terms of a nonzero g at its top w-degree, the terms below, and all
    w-degrees as ``w.scaled_dot`` ints (w.den times the degree)."""
    dots = {key: w.scaled_dot(key) for key in g.terms}
    top = max(dots.values())
    winners = [key for key in g.terms if dots[key] == top]
    rest = [key for key in g.terms if dots[key] != top]
    return winners, rest, dots


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
    # the form (word - term) for each relation word and right-hand-side term
    forms = (
        tuple(map(sub, wa + wb, ta + tb))
        for (wa, wb), (ta, tb), _c, _slot in P._relation_terms()
    )
    return HalfspaceSystem(P.m, P.n, forms)


def pr_contains(P: RingPresentation, w: WeightVector) -> bool:
    """Membership of w in the open cone PR(R)."""
    w.check(P)
    return pr_halfspaces(P).contains(w)


def _require_pr(P: RingPresentation, w: WeightVector) -> None:
    """Raise ``RegionError`` unless w lies in PR(R)."""
    if not pr_contains(P, w):
        raise RegionError(f"weight {w} not in the polynomial region")


def pr_sample_positive(P: RingPresentation) -> WeightVector:
    """The positive vector (1, p*1) in PR(R), p = max x-degree of the tables + 1."""
    max_xdeg = max((sum(a) for _word, (a, _b), _c, _slot in P._relation_terms()), default=0)
    p = max_xdeg + 1
    return WeightVector([Fraction(1)] * P.m, [Fraction(p)] * P.n)
