"""Left-ideal Groebner machinery: division, Buchberger completion,
initial ideals for term orders and weight vectors.

The paper-level theory reduces every weight-vector computation to a
term-order computation, possibly after Rees homogenization: a weight
with negative entries gives a non-term order, which is never iterated
directly; instead the generators are homogenized, the completion runs
on the Rees ring under a strictly positive shifted weight that induces
the same initial forms on homogeneous input, and the result is
dehomogenized.  Every completion is bounded by a pair budget and a
reduction-step budget and raises ``BudgetExceeded`` rather than
returning a truncated answer.  The budgets are the explicit
``max_pairs`` / ``max_steps`` arguments of ``buchberger`` and
``normal_form`` when given, else the ``SKEWGB_MAX_PAIRS`` / ``SKEWGB_MAX_STEPS`` environment
variables, else the defaults below; every other function, weighted
bases included, runs under those environment budgets.
"""

from __future__ import annotations

import heapq
import math
import os
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, RegionError, SkewGbError
from .kernel import _add_terms
from .orders import MonomialOrder, validate_order
from .rees import dehomogenize, homogenize, rees_presentation, strip_x0
from .ring import RingPresentation, SkewPoly
from .weights import (
    WeightVector,
    denominator_lcm,
    initial_form,
    pr_contains,
    pr_sample_positive,
)

DEFAULT_MAX_PAIRS = 100_000
DEFAULT_MAX_STEPS = 200_000
_SATURATION_ROUNDS = 25


def _budget(name: str, default: int, explicit: Optional[int]) -> int:
    if explicit is not None:
        return explicit
    value = os.environ.get(name)
    return int(value) if value else default


def _divides(d, e) -> bool:
    da, db = d
    ea, eb = e
    return all(x <= y for x, y in zip(da, ea)) and all(x <= y for x, y in zip(db, eb))


def _exp_sub(e, d):
    return (
        tuple(x - y for x, y in zip(e[0], d[0])),
        tuple(x - y for x, y in zip(e[1], d[1])),
    )


def _exp_lcm(d, e):
    return (
        tuple(max(x, y) for x, y in zip(d[0], e[0])),
        tuple(max(x, y) for x, y in zip(d[1], e[1])),
    )


def _exp_add(d, e):
    return (
        tuple(x + y for x, y in zip(d[0], e[0])),
        tuple(x + y for x, y in zip(d[1], e[1])),
    )


class MonomialIdeal:
    """Monomial ideal in S given by its minimal generating antichain."""

    __slots__ = ("m", "n", "gens")

    def __init__(self, m: int, n: int, gens: Iterable):
        self.m = m
        self.n = n
        unique = set()
        for g in gens:
            a, b = g
            unique.add((tuple(a), tuple(b)))
        minimal = set()
        for g in unique:
            if not any(h != g and _divides(h, g) for h in unique):
                minimal.add(g)
        self.gens = frozenset(minimal)

    @property
    def total_vars(self) -> int:
        return self.m + self.n

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        zero = ((0,) * self.m, (0,) * self.n)
        return zero in self.gens

    def contains_monomial(self, mono) -> bool:
        return any(_divides(g, mono) for g in self.gens)

    def sorted_gens(self):
        return sorted(self.gens)

    def polys(self, S: RingPresentation) -> List[SkewPoly]:
        return [SkewPoly(S, {g: Fraction(1)}) for g in self.sorted_gens()]

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and (self.m, self.n, self.gens) == (other.m, other.n, other.gens)
        )

    def __hash__(self):
        return hash((self.m, self.n, self.gens))

    def __repr__(self):
        names = tuple(f"x{j}" for j in range(1, self.m + 1)) + tuple(
            f"y{i}" for i in range(1, self.n + 1)
        )
        parts = []
        for a, b in self.sorted_gens():
            factors = [
                (name if e == 1 else f"{name}^{e}")
                for name, e in zip(names, a + b)
                if e
            ]
            parts.append("*".join(factors) if factors else "1")
        return "<" + ", ".join(parts) + ">"


class GroebnerBasis:
    """A reduced Groebner basis with marked initial monomials."""

    __slots__ = ("order", "elements", "leads")

    def __init__(self, order: MonomialOrder, elements: Sequence[SkewPoly]):
        self.order = order
        self.elements = tuple(elements)
        self.leads = tuple(order.leading_monomial(g) for g in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def initial_ideal(self, m: int, n: int) -> MonomialIdeal:
        return MonomialIdeal(m, n, self.leads)


def normal_form(
    P: RingPresentation,
    f: SkewPoly,
    G: Sequence[SkewPoly],
    order: MonomialOrder,
    max_steps: Optional[int] = None,
) -> SkewPoly:
    """Remainder of left division of f by G: no remainder monomial is
    divisible by any marked initial monomial of G."""
    if f.ring != P:
        raise SkewGbError("polynomial not over the given presentation")
    limit = _budget("SKEWGB_MAX_STEPS", DEFAULT_MAX_STEPS, max_steps)
    kern = P.kernel()
    leads = []
    for g in G:
        if g.is_zero():
            continue
        lm = order.leading_monomial(g)
        leads.append((lm, g.terms[lm], g))
    key = order.key
    work = dict(f.terms)
    remainder = {}
    steps = 0
    while work:
        mono = max(work, key=key)
        coeff = work.pop(mono)
        hit = None
        for lm, lc, g in leads:
            if _divides(lm, mono):
                hit = (lm, lc, g)
                break
        if hit is None:
            remainder[mono] = coeff
            continue
        steps += 1
        if steps > limit:
            raise BudgetExceeded("reduction-step", limit)
        lm, lc, g = hit
        ta, tb = _exp_sub(mono, lm)
        work[mono] = coeff
        _add_terms(work, kern.lmul_mono(-coeff / lc, ta, tb, g.terms))
    return SkewPoly(P, remainder)


def _monic(f: SkewPoly, order: MonomialOrder) -> SkewPoly:
    lc = f.terms[order.leading_monomial(f)]
    return f.scale(1 / lc)


def _s_pair(P, f, lm_f, g, lm_g) -> SkewPoly:
    kern = P.kernel()
    lcm = _exp_lcm(lm_f, lm_g)
    ta, tb = _exp_sub(lcm, lm_f)
    sa, sb = _exp_sub(lcm, lm_g)
    pf = kern.lmul_mono(1 / f.terms[lm_f], ta, tb, f.terms)
    _add_terms(pf, kern.lmul_mono(-1 / g.terms[lm_g], sa, sb, g.terms))
    return SkewPoly(P, pf)


def buchberger(
    P: RingPresentation,
    gens: Sequence[SkewPoly],
    order: MonomialOrder,
    max_pairs: Optional[int] = None,
    max_steps: Optional[int] = None,
) -> GroebnerBasis:
    """Reduced Groebner basis of the left ideal generated by gens.

    Requires a validated multiplicative term order; a mixed-sign weight
    is handled by ``groebner_wrt_weight``, which runs this completion on
    a Rees ring under a strictly positive shifted weight.  A pair budget
    guards the computation.  The coprime-lcm criterion is applied only
    in the commutative case, where it is sound.
    """
    if not order.is_term_order:
        raise SkewGbError(f"buchberger requires a term order, not {order!r}")
    if not validate_order(P, order):
        raise SkewGbError("order violates (M1)/(M2) for this presentation")
    pair_limit = _budget("SKEWGB_MAX_PAIRS", DEFAULT_MAX_PAIRS, max_pairs)
    basis: List[SkewPoly] = []
    lead: List = []
    for g in gens:
        if g.is_zero():
            continue
        basis.append(_monic(g, order))
        lead.append(order.leading_monomial(g))
    commutative = P.is_commutative
    key = order.key
    # normal selection: smallest lcm first, ties to the smaller indices
    pairs: List = []

    def add_pairs(new: int):
        for k in range(new):
            lcm = _exp_lcm(lead[k], lead[new])
            heapq.heappush(pairs, (key(lcm), k, new, lcm))

    for j in range(len(basis)):
        add_pairs(j)
    processed = 0
    while pairs:
        _k, i, j, lcm = heapq.heappop(pairs)
        if commutative and lcm == _exp_add(lead[i], lead[j]):
            continue  # Buchberger's coprime criterion
        processed += 1
        if processed > pair_limit:
            raise BudgetExceeded("s-pair", pair_limit)
        s = _s_pair(P, basis[i], lead[i], basis[j], lead[j])
        if s.is_zero():
            continue
        r = normal_form(P, s, basis, order, max_steps=max_steps)
        if r.is_zero():
            continue
        r = _monic(r, order)
        basis.append(r)
        lead.append(order.leading_monomial(r))
        add_pairs(len(basis) - 1)
    # auto-reduction to the reduced basis
    changed = True
    while changed:
        changed = False
        for idx in range(len(basis)):
            g = basis[idx]
            if g is None:
                continue
            others = [h for k, h in enumerate(basis) if k != idx and h is not None]
            r = normal_form(P, g, others, order, max_steps=max_steps)
            if r != g:
                changed = True
                basis[idx] = _monic(r, order) if not r.is_zero() else None
    final = [g for g in basis if g is not None]
    final.sort(key=lambda g: order.key(order.leading_monomial(g)))
    return GroebnerBasis(order, final)


def initial_ideal_order(
    P: RingPresentation, gens: Sequence[SkewPoly], order: MonomialOrder
) -> MonomialIdeal:
    """Minimal generators of the initial monomial ideal in_ord(I)."""
    gb = buchberger(P, gens, order)
    return gb.initial_ideal(P.m, P.n)


def _integral_scale(w: WeightVector) -> WeightVector:
    return w.scale(denominator_lcm(w.entries))


def _rees_weight_order(
    P: RingPresentation, w_int: WeightVector
) -> Tuple[WeightVector, WeightVector]:
    """Positive homogenization data for a mixed-sign weight.

    Returns (w_plus, shifted) where w_plus is a positive integer vector
    in PR(R) used to build the Rees ring and ``shifted`` is the strictly
    positive weight (0, u, v) + lam * (1, w_plus) on the Rees variables.
    On (1, w_plus)-homogeneous elements the lam-multiple is constant
    degree-wise, so ``shifted`` induces exactly the (u, v) initial
    forms while its refinement of a term order is again a term order.
    """
    w_plus = pr_sample_positive(P)
    wt = (Fraction(0),) + w_int.entries
    d = (Fraction(1),) + w_plus.entries
    lam = max(
        [Fraction(0)]
        + [Fraction(math.ceil((1 - wi) / di)) for wi, di in zip(wt, d)]
    )
    shifted_entries = [wi + lam * di for wi, di in zip(wt, d)]
    shifted = WeightVector(shifted_entries[: P.m + 1], shifted_entries[P.m + 1:])
    return w_plus, shifted


def _dehomogenized(
    P: RingPresentation, elements: Iterable[SkewPoly], order: MonomialOrder
) -> List[SkewPoly]:
    """Rees-ring elements with x0 stripped, dehomogenized into P and made
    monic under ``order``; zeros and repeats dropped, first seen first."""
    images = (dehomogenize(strip_x0(g), P) for g in elements)
    return list(dict.fromkeys(_monic(d, order) for d in images if not d.is_zero()))


def groebner_wrt_weight(
    P: RingPresentation,
    gens: Sequence[SkewPoly],
    w: WeightVector,
    kind: str = "grevlex",
) -> Tuple[List[SkewPoly], MonomialOrder]:
    """Groebner basis of I under the weight-refined order.

    Nonnegative weights run directly (the refined order is a term
    order and the result is the reduced basis).  Weights with negative
    entries go through a positively graded Rees ring: generators are
    homogenized with respect to a positive vector of PR(R) and the
    completion runs under the shifted strictly positive weight, which
    restricts to the (u, v) comparison on homogeneous elements; the
    completion is repeated until it is saturated with respect to x0.  The
    dehomogenized result is a Groebner basis for (u, v) but need not be
    auto-reduced (full reduction under a non-term order can diverge).
    Each completion runs under the budgets of ``SKEWGB_MAX_PAIRS`` /
    ``SKEWGB_MAX_STEPS`` (see ``buchberger``).
    """
    if not pr_contains(P, w):
        raise RegionError(f"weight {w} not in the polynomial region")
    w_int = _integral_scale(w)
    base = MonomialOrder(kind)
    ord_w = base.refine(w_int)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return [], ord_w
    if w_int.is_nonnegative():
        gb = buchberger(P, gens, ord_w)
        return list(gb.elements), ord_w
    w_plus, shifted = _rees_weight_order(P, w_int)
    rz = rees_presentation(P, w_plus)
    hgens = [homogenize(P, w_plus, g, rz) for g in gens]
    ord_h = base.refine(shifted)
    gb = buchberger(rz.ring, hgens, ord_h)
    for _ in range(_SATURATION_ROUNDS):
        stripped = [strip_x0(g) for g in gb.elements]
        if tuple(stripped) == gb.elements:
            break
        gb = buchberger(rz.ring, stripped, ord_h)
    else:
        raise BudgetExceeded("x0-saturation rounds", _SATURATION_ROUNDS)
    result = _dehomogenized(P, gb.elements, ord_w)
    result.sort(key=lambda g: ord_w.key(ord_w.leading_monomial(g)))
    return result, ord_w


def initial_ideal_weight(
    P: RingPresentation,
    gens: Sequence[SkewPoly],
    w: WeightVector,
    kind: str = "grevlex",
) -> List[SkewPoly]:
    """Canonical generators of the S-ideal in_(u,v)(I).

    Takes the initial forms of a Groebner basis under the weight-refined
    order and interreduces them to the reduced commutative Groebner
    basis of the ideal they generate.  The output is canonical: the
    reduced, monic basis under ``MonomialOrder(kind)``, sorted by
    support.  For a fixed ``kind``, equal initial ideals (of any weights
    or generating sets) give equal lists, and unequal ones unequal lists.
    """
    gb, _ord = groebner_wrt_weight(P, gens, w, kind=kind)
    return _initial_ideal_of(P, gb, w, kind)


def _initial_ideal_of(P: RingPresentation, basis, w: WeightVector, kind: str):
    """The canonical in_w(I) read off a Groebner basis of I at w."""
    forms = [initial_form(P, g, w) for g in basis]
    if not forms:
        return []
    comm = buchberger(P.graded(), forms, MonomialOrder(kind))
    return sorted(comm.elements, key=lambda h: sorted(h.terms))


# -- commutative helpers over S ---------------------------------------


def ideal_member_comm(S: RingPresentation, f: SkewPoly, gb: GroebnerBasis) -> bool:
    return normal_form(S, f, list(gb.elements), gb.order).is_zero()


def ideals_equal_comm(
    S: RingPresentation, gens_a: Sequence[SkewPoly], gens_b: Sequence[SkewPoly]
) -> bool:
    """Equality of two S-ideals by mutual normal-form membership."""
    gens_a = [g for g in gens_a if not g.is_zero()]
    gens_b = [g for g in gens_b if not g.is_zero()]
    if not gens_a or not gens_b:
        return bool(gens_a) == bool(gens_b)
    order = MonomialOrder("grevlex")
    gb_a = buchberger(S, gens_a, order)
    gb_b = buchberger(S, gens_b, order)
    return all(ideal_member_comm(S, f, gb_b) for f in gens_a) and all(
        ideal_member_comm(S, f, gb_a) for f in gens_b
    )
