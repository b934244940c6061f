"""Multiplicative monomial orders: base term orders, weight refinements
and the homogenization lift used on Rees rings.

An order is represented by a sort key on standard monomials; larger key
means larger monomial.  The weight refinement compares the rational
inner product with (u, v) first and breaks ties with the base term
order.  The lifted order on a Rees ring compares the x0 exponent first
(a smaller x0 power is larger) and then applies the underlying order to
the remaining variables; it is never a term order, but on weight
homogeneous input every computation it drives terminates degree by
degree.
"""

from __future__ import annotations

from operator import mul
from typing import Optional, Sequence, Tuple

from .errors import SkewGbError
from .ring import RingPresentation, SkewPoly
from .weights import WeightVector, denominator_lcm

KINDS = ("lex", "grlex", "grevlex")


class MonomialOrder:
    """Base term order + optional weight refinement + optional Rees lift.

    The sort key is compiled once, at construction: the weight is scaled
    by the lcm of its denominators to plain ints (a positive scale keeps
    every comparison), and an explicit ``perm`` is resolved, reversed for
    grevlex.  Keys are memoised per order; the memo is not part of
    equality and lives as long as the order does.
    """

    __slots__ = ("kind", "perm", "weight", "lifted", "_u", "_v", "_perm", "_memo")

    def __init__(
        self,
        kind: str = "grevlex",
        perm: Optional[Sequence[int]] = None,
        weight: Optional[WeightVector] = None,
        lifted: bool = False,
    ):
        if kind not in KINDS:
            raise SkewGbError(f"unknown order kind {kind!r}; expected one of {KINDS}")
        self.kind = kind
        self.perm = tuple(perm) if perm is not None else None
        self.weight = weight
        self.lifted = lifted
        if weight is None:
            self._u = self._v = None
        else:
            scale = denominator_lcm(weight.entries)
            self._u = tuple((x * scale).numerator for x in weight.u)
            self._v = tuple((x * scale).numerator for x in weight.v)
        if self.perm is not None and kind == "grevlex":
            self._perm = self.perm[::-1]
        else:
            self._perm = self.perm
        self._memo = {}

    # -- derived orders ------------------------------------------------

    def refine(self, weight: WeightVector) -> "MonomialOrder":
        """The order compare-by-weight-first with self as tiebreak."""
        return MonomialOrder(self.kind, self.perm, weight, self.lifted)

    def lift(self) -> "MonomialOrder":
        """The homogenization lift onto a Rees ring (x0 exponent first)."""
        return MonomialOrder(self.kind, self.perm, self.weight, lifted=True)

    @property
    def is_term_order(self) -> bool:
        if self.lifted:
            return False
        return self.weight is None or self.weight.is_nonnegative()

    # -- comparison ----------------------------------------------------

    def _base_key(self, exps: Tuple[int, ...]):
        perm = self._perm
        if self.kind == "lex":
            return exps if perm is None else tuple(exps[p] for p in perm)
        total = (sum(exps),)
        if self.kind == "grlex":
            return total + (exps if perm is None else tuple(exps[p] for p in perm))
        # grevlex: total degree, then smaller exponent on the least
        # significant variable wins (an explicit perm is stored reversed)
        if perm is None:
            return total + tuple(-e for e in reversed(exps))
        return total + tuple(-exps[p] for p in perm)

    def _compute_key(self, mono):
        a, b = mono
        if self.lifted:
            head = (-a[0],)
            a = a[1:]
        else:
            head = ()
        if self._u is not None:
            head += (sum(map(mul, self._u, a)) + sum(map(mul, self._v, b)),)
        return head + self._base_key(a + b)

    def key(self, mono):
        """Sort key; key(m1) < key(m2) iff m1 precedes m2."""
        k = self._memo.get(mono)
        if k is None:
            k = self._memo[mono] = self._compute_key(mono)
        return k

    def less(self, mono1, mono2) -> bool:
        return self.key(mono1) < self.key(mono2)

    def leading_monomial(self, f: SkewPoly):
        if f.is_zero():
            raise SkewGbError("zero polynomial has no leading monomial")
        return max(f.terms, key=self.key)

    def leading_term(self, f: SkewPoly):
        mono = self.leading_monomial(f)
        return mono, f.terms[mono]

    def sort_terms(self, f: SkewPoly, reverse: bool = True):
        return sorted(f.terms.items(), key=lambda kv: self.key(kv[0]), reverse=reverse)

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and (
            self.kind,
            self.perm,
            self.weight,
            self.lifted,
        ) == (other.kind, other.perm, other.weight, other.lifted)

    def __hash__(self):
        return hash((self.kind, self.perm, self.weight, self.lifted))

    def __repr__(self):
        parts = [self.kind]
        if self.perm is not None:
            parts.append(f"perm={self.perm}")
        if self.weight is not None:
            parts.append(f"weight={self.weight}")
        if self.lifted:
            parts.append("lifted")
        return f"MonomialOrder({', '.join(parts)})"


def validate_order(P: RingPresentation, order: MonomialOrder) -> bool:
    """Conditions (M1)/(M2): relation table entries precede their products."""
    m, n = P.m, P.n
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            entry = P.q1_entry(i, j)
            if entry.is_zero():
                continue
            a = tuple(1 if k == j - 1 else 0 for k in range(m))
            b = tuple(1 if k == i - 1 else 0 for k in range(n))
            product = (a, b)
            for mono in entry.terms:
                if not order.less(mono, product):
                    return False
        for j in range(1, n + 1):
            if i == j:
                continue
            entry = P.q2_entry(i, j)
            if entry.is_zero():
                continue
            b = tuple(
                (1 if k == i - 1 else 0) + (1 if k == j - 1 else 0) for k in range(n)
            )
            product = ((0,) * m, b)
            for mono in entry.terms:
                if not order.less(mono, product):
                    return False
    return True
