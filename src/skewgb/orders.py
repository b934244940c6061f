"""Multiplicative monomial orders: base term orders and weight refinements.

An order is represented by a sort key on standard monomials; larger key
means larger monomial.  The weight refinement compares the rational
inner product with (u, v) first and breaks ties with the base term
order.  Weights with negative entries are never iterated directly:
Buchberger runs on a Rees ring under a strictly positive shifted weight
(see ``groebner``).
"""

from __future__ import annotations

from operator import mul
from typing import Optional

from .errors import SkewGbError
from .ring import RingPresentation, SkewPoly
from .weights import WeightVector

KINDS = ("lex", "grlex", "grevlex")


class MonomialOrder:
    """Base term order + optional weight refinement.

    The weight is compared through its integer view (its entries times
    the lcm of their denominators; a positive scale keeps every
    comparison).  Keys are memoised per order; the memo is not part of
    equality and lives as long as the order does.
    """

    __slots__ = ("kind", "weight", "_u", "_v", "_memo")

    def __init__(self, kind: str = "grevlex", weight: Optional[WeightVector] = None):
        if kind not in KINDS:
            raise SkewGbError(f"unknown order kind {kind!r}; expected one of {KINDS}")
        self.kind = kind
        self.weight = weight
        if weight is None:
            self._u = self._v = None
        else:
            self._u, self._v = weight.iu, weight.iv
        self._memo = {}

    # -- derived orders ------------------------------------------------

    def refine(self, weight: WeightVector) -> "MonomialOrder":
        """The order compare-by-weight-first with self as tiebreak."""
        return MonomialOrder(self.kind, weight)

    @property
    def is_term_order(self) -> bool:
        return self.weight is None or self.weight.is_nonnegative()

    # -- comparison ----------------------------------------------------

    def _base_key(self, exps):
        """The key of the base term order on the exponents of (a, b)."""
        if self.kind == "lex":
            return exps
        if self.kind == "grlex":
            return (sum(exps),) + exps
        # grevlex: total degree, then the smaller exponent on the
        # least significant variable wins
        return (sum(exps),) + tuple(-e for e in reversed(exps))

    def _compute_key(self, mono):
        a, b = mono
        key = self._base_key(a + b)
        if self._u is None:
            return key
        return (sum(map(mul, self._u, a)) + sum(map(mul, self._v, b)),) + key

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
        # a subclass orders differently, so it never equals a plain order
        return type(other) is type(self) and (self.kind, self.weight) == (
            other.kind, other.weight
        )

    def __hash__(self):
        return hash((self.kind, self.weight))

    def __repr__(self):
        if self.weight is None:
            return f"MonomialOrder({self.kind})"
        return f"MonomialOrder({self.kind}, weight={self.weight})"


def validate_order(P: RingPresentation, order: MonomialOrder) -> bool:
    """Conditions (M1)/(M2): relation table entries precede their products."""
    return all(order.less(term, word) for word, term, _c, _slot in P._relation_terms())
