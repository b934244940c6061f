"""Rees homogenization with respect to an integer weight in PR(R).

The Rees ring adjoins a central degree-1 commuting generator x0 (stored
as the first x-variable) and replaces each relation table entry by its
weight homogenization, built in one pass over
``RingPresentation._relation_terms``: each term is multiplied by x0 to
the power of its word's weight minus its own, the value at w of that
term's PR(R) form, so membership of the weight in PR(R) makes every x0
exponent positive.  The substitution x0 = 1 recovers R.
Mixed-sign weights are reached through one Rees ring, built at
``pr_sample_positive(P)`` by ``_positive_rees``; ``homogenize`` and
``dehomogenize`` read base and weight from the Rees ring they are given.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PresentationError, RegionError
from .kernel import _accumulate
from .ring import RingPresentation, SkewPoly
from .weights import WeightVector, _require_pr, _top_split, pr_sample_positive


class ReesPresentation:
    """The homogenized ring R~ together with the weight used to build it."""

    __slots__ = ("base", "weight", "ring", "extended_weight")

    def __init__(self, base: RingPresentation, weight: WeightVector, ring: RingPresentation):
        self.base = base
        self.weight = weight
        self.ring = ring
        self.extended_weight = WeightVector((Fraction(1),) + weight.u, weight.v)

    def x0(self) -> SkewPoly:
        return self.ring.x(1)

    def __eq__(self, other):
        return (
            isinstance(other, ReesPresentation)
            and self.base == other.base
            and self.weight == other.weight
        )

    def __hash__(self):
        return hash((self.base, self.weight))

    def __repr__(self):
        return f"ReesPresentation({self.base.name!r}, w={self.weight})"


def _check_weight(P: RingPresentation, w: WeightVector):
    w.check(P)
    if not w.is_integral():
        raise RegionError("Rees construction requires an integer weight vector")
    _require_pr(P, w)


def rees_presentation(P: RingPresentation, w: WeightVector) -> ReesPresentation:
    """Homogenized presentation over B[x0] with x0 of weight 1.

    Each monomial x^a (resp. x^a y_l) of a relation table entry is
    multiplied by the x0 power making the relation homogeneous of the
    degree of its left-hand side.
    """
    _check_weight(P, w)
    q1, q2 = {}, {}
    for word, (a, b), c, (i, j) in P._relation_terms():
        # w is integral, so scaled_dot is the exact degree
        x0a = (w.scaled_dot(word) - w.scaled_dot((a, b)),) + a
        if any(word[0]):  # the word x_j y_i; x0 shifts the x indices
            q1.setdefault((i, j + 1), {})[x0a] = c
        else:  # the word y_j y_i
            q2.setdefault((i, j), {})[(x0a, b)] = c
    ring = RingPresentation._unchecked(P.m + 1, P.n, q1=q1, q2=q2, name=f"rees({P.name})")
    # display x0 with its own name; remaining variables keep theirs
    ring.var_names = ("x0",) + P.var_names
    return ReesPresentation(P, w, ring)


def _positive_rees(P: RingPresentation) -> ReesPresentation:
    """The one Rees ring through which mixed-sign weights are reached,
    built at the positive weight ``pr_sample_positive(P)``."""
    return rees_presentation(P, pr_sample_positive(P))


def homogenize(rees: ReesPresentation, f: SkewPoly) -> SkewPoly:
    """Weight homogenization of a nonzero element of ``rees.base`` into
    the Rees ring, at the weight ``rees`` was built at."""
    if f.ring != rees.base:
        raise PresentationError(f"element does not belong to {rees.base.name}")
    if f.is_zero():
        raise RegionError("cannot homogenize the zero polynomial")
    # rees.weight is integral, so scaled_dot is the exact degree
    winners, _rest, degs = _top_split(f, rees.weight)
    top = degs[winners[0]]
    return SkewPoly(
        rees.ring, {((top - degs[(a, b)],) + a, b): c for (a, b), c in f.terms.items()}
    )


def dehomogenize(rees: ReesPresentation, f: SkewPoly) -> SkewPoly:
    """Image of an element of the Rees ring under x0 -> 1, in its base."""
    if f.ring != rees.ring:
        raise PresentationError(f"element does not belong to the Rees ring of {rees.base.name}")
    terms = {}
    for (a, b), c in f.terms.items():
        _accumulate(terms, (a[1:], b), c)
    return SkewPoly(rees.base, terms)

