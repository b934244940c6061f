"""Left-ideal Groebner machinery: division, Buchberger completion,
initial ideals for term orders and weight vectors.

The paper-level theory reduces every weight-vector computation to a
term-order computation, possibly after Rees homogenization: a weight
with negative entries gives a non-term order, which is never iterated
directly; instead the completion runs in the one Rees ring, built at
w_plus = ``pr_sample_positive(P)`` by ``rees._positive_rees``, under a
strictly positive shifted weight that induces the same initial forms on
homogeneous input, and the result is dehomogenized; both conversions
read base and weight from that ring.  That order breaks ties by the base
order on the variables of R before the x0 exponent, so on homogeneous
elements it is the order of R refined by w, and in_w(I) is the
interreduced initial forms of the one basis at every sign of w.  The
completion starts from the homogenized reduced basis at w_plus, whose
order refines the w_plus degree, so it generates the x0-saturation
h(I) = <gens^h> : x0^inf (Cox, Little & O'Shea, ch. 8 sec. 4; the proof
uses only lead(t * g) = t + lead(g)), and a reduced basis of h(I) has no
element divisible by x0.  Every completion goes through ``buchberger``,
which skips S-pairs by the Gebauer-Moller criteria B, M and F (sound in
these rings of solvable type, since they rest only on the chain
criterion) and by Buchberger's coprime criterion only when the ring is
commutative; under a term order the reduced basis is unique, so the
criteria and the starting generators change only the work.  Every
completion is bounded by a pair budget and a reduction-step budget and
raises ``BudgetExceeded`` rather than returning a truncated answer.  The
budgets are the ``SKEWGB_MAX_PAIRS`` / ``SKEWGB_MAX_STEPS`` environment
variables when set, else the defaults below.
"""

from __future__ import annotations

import heapq
import math
import os
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import BudgetExceeded, SkewGbError
from .kernel import _add_terms
from .orders import MonomialOrder, validate_order
from .rees import ReesPresentation, _positive_rees, dehomogenize, homogenize
from .ring import RingPresentation, SkewPoly, _require_ring
from .weights import WeightVector, _require_pr, initial_form

DEFAULT_MAX_PAIRS = 100_000
DEFAULT_MAX_STEPS = 200_000


def _budget(name: str, default: int) -> int:
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


def normal_form(
    P: RingPresentation,
    f: SkewPoly,
    G: Sequence[SkewPoly],
    order: MonomialOrder,
) -> SkewPoly:
    """Remainder of left division of f by G: no remainder monomial is
    divisible by any marked initial monomial of G."""
    _require_ring(P, (f, *G))
    limit = _budget("SKEWGB_MAX_STEPS", DEFAULT_MAX_STEPS)
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


def _interreduced(P, basis, order) -> List[SkewPoly]:
    """The reduced basis of a monic Groebner basis, with no S-pair: each
    element in turn becomes its normal form modulo the others, a Groebner
    basis, so it is zero or keeps its monic lead; one pass suffices.
    Each result is a fresh normal form, whatever the input's term order."""
    reduced = list(basis)
    for i, g in enumerate(basis):
        others = [h for k, h in enumerate(reduced) if k != i and h is not None]
        r = normal_form(P, g, others, order)
        reduced[i] = None if r.is_zero() else r
    return [g for g in reduced if g is not None]


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
) -> List[SkewPoly]:
    """Reduced Groebner basis of the left ideal generated by gens, monic
    and sorted by leading monomial.

    Requires a validated multiplicative term order; a mixed-sign weight
    is handled by ``groebner_wrt_weight``, which runs this completion on
    a Rees ring under a strictly positive shifted weight.  A pair budget
    guards the computation.  Before the final interreduction, an element
    whose leading monomial another element's divides (the first of equal
    leads kept) is dropped, since it would reduce to zero.

    Pairs are kept by the Gebauer-Moller update (Gebauer & Moller, JSC
    1988): when h joins the basis, (B) a pending pair (i, j) is dropped
    when lead(h) divides its lcm L and neither lcm(lead_i, lead_h) nor
    lcm(lead_j, lead_h) equals L; (M) a new pair (k, h) is dropped when
    the lcm of another new pair strictly divides its lcm; (F) of the new
    pairs sharing one lcm only the first is kept.  All three rest on the
    chain criterion: if lead(h) divides L, the S-polynomial of (i, j)
    is a combination of the S-polynomials of (i, h) and (h, j), each
    left-multiplied by the monomial completing its lcm to L, and of left
    multiples of the three elements with leading monomials below L; so
    once (i, h) and (h, j) are dealt with, (i, j) has a representation
    below L and needs no reduction.  That uses only lead(t * f) =
    t + lead(f) with a nonzero coefficient, which (M1)/(M2) give, so it
    holds in these rings of solvable type (Kandri-Rody & Weispfenning,
    JSC 1990).  Buchberger's coprime criterion needs commutativity; it
    is applied, within the F step as Gebauer and Moller do, only when
    the ring is commutative.
    """
    _require_ring(P, gens)
    if not order.is_term_order:
        raise SkewGbError(f"buchberger requires a term order, not {order!r}")
    if not validate_order(P, order):
        raise SkewGbError("order violates (M1)/(M2) for this presentation")
    pair_limit = _budget("SKEWGB_MAX_PAIRS", DEFAULT_MAX_PAIRS)
    basis: List[SkewPoly] = []
    lead: List = []
    for g in gens:
        if g.is_zero():
            continue
        basis.append(_monic(g, order))
        lead.append(order.leading_monomial(g))
    commutative = P.is_commutative
    key = order.key
    redundant = set()  # elements whose lead another divides, the first of equal ones kept
    # pending pairs (i, j) -> lcm; the heap gives normal selection,
    # smallest lcm first, ties to the smaller indices, and its entries
    # for pairs no longer pending are skipped when popped
    pending: Dict[Tuple[int, int], tuple] = {}
    heap: List = []

    def update(h: int):
        lh = lead[h]
        for (i, j), lcm in list(pending.items()):
            if (
                _divides(lh, lcm)
                and _exp_lcm(lead[i], lh) != lcm
                and _exp_lcm(lead[j], lh) != lcm
            ):
                del pending[(i, j)]  # B
        first: Dict[tuple, Tuple[int, bool]] = {}  # lcm -> (k, coprime seen)
        for k in range(h):
            lcm = _exp_lcm(lead[k], lh)
            if lcm in (lh, lead[k]):
                redundant.add(h if lcm == lh else k)
            coprime = commutative and lcm == _exp_add(lead[k], lh)
            k0, seen = first.get(lcm, (k, False))
            first[lcm] = (k0, seen or coprime)  # F
        for lcm, (k, coprime) in first.items():
            if coprime or any(o != lcm and _divides(o, lcm) for o in first):
                continue  # coprime criterion, M
            pending[(k, h)] = lcm
            heapq.heappush(heap, (key(lcm), k, h, lcm))

    for j in range(len(basis)):
        update(j)
    processed = 0
    while heap:
        _k, i, j, lcm = heapq.heappop(heap)
        if pending.pop((i, j), None) is None:
            continue
        processed += 1
        if processed > pair_limit:
            raise BudgetExceeded("s-pair", pair_limit)
        s = _s_pair(P, basis[i], lead[i], basis[j], lead[j])
        if s.is_zero():
            continue
        r = normal_form(P, s, basis, order)
        if r.is_zero():
            continue
        basis.append(_monic(r, order))
        lead.append(order.leading_monomial(r))
        update(len(basis) - 1)
    final = _interreduced(P, [g for i, g in enumerate(basis) if i not in redundant], order)
    final.sort(key=lambda g: order.key(order.leading_monomial(g)))
    return final


def initial_ideal_order(
    P: RingPresentation, gens: Sequence[SkewPoly], order: MonomialOrder
) -> MonomialIdeal:
    """Minimal generators of the initial monomial ideal in_ord(I)."""
    basis = buchberger(P, gens, order)
    return MonomialIdeal(P.m, P.n, [order.leading_monomial(g) for g in basis])


def _rees_weight_order(rz: ReesPresentation, w_int: WeightVector) -> WeightVector:
    """The strictly positive weight (0, u, v) + lam * (1, w_plus) on the
    variables of the Rees ring ``rz`` built at w_plus, for a mixed-sign
    integral weight (u, v).  On (1, w_plus)-homogeneous elements the
    lam-multiple is constant degree-wise, so it induces exactly the
    (u, v) initial forms, and ``_ReesOrder`` refines it to a term order.
    """
    wt = (0,) + w_int.ints
    d = (1,) + rz.weight.ints
    lam = max([0] + [math.ceil(Fraction(1 - wi, di)) for wi, di in zip(wt, d)])
    shifted = [wi + lam * di for wi, di in zip(wt, d)]
    return WeightVector(shifted[: rz.ring.m], shifted[rz.ring.m:])


class _ReesOrder(MonomialOrder):
    """The shifted weight on a Rees ring, ties broken by the base order on
    the variables of R and then by the x0 exponent (the first one): on
    homogeneous elements, the order of R refined by w."""

    __slots__ = ()

    def _base_key(self, exps):
        return super()._base_key(exps[1:]) + (exps[0],)


def _dehomogenized(
    rz: ReesPresentation, elements: Iterable[SkewPoly], order: MonomialOrder
) -> List[SkewPoly]:
    """Elements of the Rees ring ``rz`` dehomogenized into its base and
    made monic under ``order``; zeros and repeats dropped, first seen
    first."""
    images = (dehomogenize(rz, g) for g in elements)
    return list(dict.fromkeys(_monic(d, order) for d in images if not d.is_zero()))


def groebner_wrt_weight(
    P: RingPresentation,
    gens: Sequence[SkewPoly],
    w: WeightVector,
    kind: str = "grevlex",
) -> List[SkewPoly]:
    """Groebner basis of I under the weight-refined order, sorted by
    leading monomial.

    Nonnegative weights run directly (the refined order is a term
    order and the result is the reduced basis).  Weights with negative
    entries go through the one positively graded Rees ring, built at
    w_plus = ``pr_sample_positive(P)`` (``rees._positive_rees``): the
    homogenized reduced basis at w_plus generates the x0-saturation of
    the homogenized ideal and is completed under the shifted strictly
    positive weight, which restricts to the (u, v) comparison on
    homogeneous elements.  Its ties go to ``kind`` on the variables of R
    before x0 (``_ReesOrder``): then it is the refined order on
    homogeneous elements, so the initial forms of the result generate
    in_(u,v)(I), which with x0 in the tie-break they may not.  No element
    of the reduced basis of the saturated ideal is divisible by x0;
    dehomogenized, it is a Groebner basis for (u, v) but need not be
    auto-reduced (full reduction under a non-term order can diverge).
    Each completion runs under the budgets of ``SKEWGB_MAX_PAIRS`` /
    ``SKEWGB_MAX_STEPS`` (see ``buchberger``).
    """
    _require_pr(P, w)
    gens = [g for g in gens if not g.is_zero()]
    if not w.is_nonnegative():
        return _Bases(P, gens, kind)._rees_basis(w)
    return buchberger(P, gens, MonomialOrder(kind).refine(w._integral_scale()))


def _initial_ideal_of(P: RingPresentation, basis, w: WeightVector):
    """The canonical in_w(I): the monic initial forms of a basis from
    ``groebner_wrt_weight`` at w, whose grevlex leads are the basis's own,
    so they are a grevlex Groebner basis already; interreduced in S and
    sorted by support."""
    order = MonomialOrder("grevlex")
    forms = [_monic(initial_form(P, g, w), order) for g in basis]
    return sorted(_interreduced(P.graded(), forms, order), key=lambda h: sorted(h.terms))


class _Bases:
    """The weighted bases of one ideal, each computed at most once.

    Holds the ring, generators and base order of one public call and,
    keyed by the entries of a weight, the basis ``groebner_wrt_weight``
    returns there with its interreduced initial forms, the canonical
    in_w(I), both as tuples, since several cones share them.  It is the
    only route from a weight to in_w(I).  A positive multiple of a weight
    is a separate key; the fan asks only at integral weights, so its keys
    agree.  The first Rees completion starts from the homogenized basis
    at w_plus and each later one from the Rees basis before it, which
    generates the same saturated ideal.  A fresh object is made for each
    public call and dropped when it returns.
    """

    __slots__ = ("ring", "gens", "kind", "_memo", "_rees")

    def __init__(self, P: RingPresentation, gens: Sequence[SkewPoly], kind: str = "grevlex"):
        self.ring = P
        self.gens = [g for g in gens if not g.is_zero()]
        self.kind = kind
        self._memo: Dict[tuple, tuple] = {}
        self._rees = None  # (Rees ring, its latest completed basis)

    def at(self, w: WeightVector):
        """(basis, init) at a weight of PR(R), init the canonical in_w(I)."""
        found = self._memo.get(w.entries)
        if found is None:
            if w.is_nonnegative():
                basis = groebner_wrt_weight(self.ring, self.gens, w, self.kind)
            else:
                _require_pr(self.ring, w)
                basis = self._rees_basis(w)
            init = _initial_ideal_of(self.ring, basis, w)
            found = self._memo[w.entries] = (tuple(basis), tuple(init))
        return found

    def _rees_basis(self, w: WeightVector) -> List[SkewPoly]:
        """The basis ``groebner_wrt_weight`` returns at a weight of PR(R)
        with a negative entry, completed in the one Rees ring."""
        if not self.gens:
            return []
        w_int = w._integral_scale()
        ord_w = MonomialOrder(self.kind).refine(w_int)
        if self._rees is None:
            rz = _positive_rees(self.ring)
            self._rees = (rz, [homogenize(rz, g) for g in self.at(rz.weight)[0]])
        rz, start = self._rees
        basis = buchberger(rz.ring, start, _ReesOrder(self.kind, _rees_weight_order(rz, w_int)))
        self._rees = (rz, basis)
        result = _dehomogenized(rz, basis, ord_w)
        result.sort(key=lambda g: ord_w.key(ord_w.leading_monomial(g)))
        return result


def initial_ideal_weight(
    P: RingPresentation, gens: Sequence[SkewPoly], w: WeightVector
) -> List[SkewPoly]:
    """Canonical generators of the S-ideal in_(u,v)(I).

    Interreduces the initial forms of the one Groebner basis under the
    weight-refined order, already a grevlex Groebner basis of in_(u,v)(I),
    to its reduced basis, monic and sorted by support.  Equal initial
    ideals (of any weights or generating sets) give equal lists, and
    unequal ones unequal lists.  Being a grevlex basis, the list's
    grevlex leading monomials generate the monomial initial ideal of
    in_(u,v)(I).
    """
    return list(_Bases(P, gens).at(w)[1])
