"""Groebner cones, epsilon thresholds, weight walks and the Groebner fan.

The cone of a weight is the relatively open polyhedral cone cut out by
the exponent differences of a suitably marked Groebner basis at it:
exponents tied at the top of each basis element give equalities,
everything below gives strict inequalities, and the defining half-spaces
of the polynomial region are always included.  At mixed signs the class
of a weight (all weights giving its initial ideal) may hold several
cones: in A2, <2y1y2 + y1, 2x2y1 - x2> has in_w(I) = <y1, x2> at
(2,-1,-1,5) and (2,5,1,-3) but not at their midpoint (2,2,0,1).
Full-dimensional cones correspond to monomial initial ideals; the fan is
enumerated by crossing facets, and the union of its marker bases is a
universal Groebner basis.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul, sub
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import BudgetExceeded, SkewGbError
from .groebner import _Bases, _dehomogenized
from .orders import MonomialOrder
from .polyhedra import _primitive, find_point, irredundant_strict
from .rees import _positive_rees, homogenize
from .ring import RingPresentation, SkewPoly
from .weights import (
    WeightVector,
    _require_pr,
    _top_split,
    pr_contains,
    pr_halfspaces,
    pr_sample_positive,
)

_MAX_CONES = 512


def _mono_vec(mono) -> Tuple[int, ...]:
    a, b = mono
    return a + b


def _diff(e, f) -> Tuple[int, ...]:
    return tuple(map(sub, _mono_vec(e), _mono_vec(f)))


class GroebnerCone:
    """The cone of a weight, with its defining constraints.

    ``equalities`` hold with value 0 on the cone and ``strict`` forms are
    positive; both are integer tuples of content 1 in the m + n weight
    coordinates (equal to the same tuples of ``Fraction``s).  The
    equalities are the reduced echelon basis of their span, each pivot
    positive, so no order of terms shows in them.  ``basis`` is the
    marked Groebner basis that cut the cone out and ``initial_gens`` the
    canonical generators of the shared initial ideal.  ``positive_rep``
    is a positive weight of the class, certified by its initial ideal, or
    None when none was found; ``inside_gr`` is derived from it.
    """

    __slots__ = (
        "ring",
        "weight",
        "equalities",
        "strict",
        "basis",
        "initial_gens",
        "positive_rep",
    )

    def __init__(
        self,
        ring: RingPresentation,
        weight: WeightVector,
        equalities,
        strict,
        basis,
        initial_gens,
        positive_rep: Optional[WeightVector],
    ):
        self.ring = ring
        self.weight = weight
        self.equalities = tuple(sorted(set(equalities)))
        self.strict = tuple(sorted(set(strict)))
        self.basis = tuple(basis)
        self.initial_gens = tuple(initial_gens)
        self.positive_rep = positive_rep

    @property
    def inside_gr(self) -> bool:
        return self.positive_rep is not None

    def is_maximal(self) -> bool:
        return not self.equalities

    def key(self):
        """Canonical identifier: the initial ideal's generators as sorted
        (monomial, coefficient) pairs."""
        return tuple(tuple(sorted(h.terms.items())) for h in self.initial_gens)

    def contains(self, w: WeightVector, closure: bool = False) -> bool:
        w.check(self.ring)
        # the integer view is a positive multiple of w: same signs
        ints = w.ints
        for form in self.equalities:
            if sum(map(mul, form, ints)) != 0:
                return False
        for form in self.strict:
            val = sum(map(mul, form, ints))
            if val < 0 or (val == 0 and not closure):
                return False
        return True

    def to_text(self) -> str:
        lines = [f"weight {self.weight}"]
        lines.append("initial ideal: " + ", ".join(str(h) for h in self.initial_gens))
        for form in self.equalities:
            lines.append("[" + " ".join(str(c) for c in form) + "] = 0")
        for form in self.strict:
            lines.append("[" + " ".join(str(c) for c in form) + "] > 0")
        lines.append(f"inside GR: {'yes' if self.inside_gr else 'unknown'}")
        return "\n".join(lines)

    def __eq__(self, other):
        return isinstance(other, GroebnerCone) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        kind = "maximal" if self.is_maximal() else "non-maximal"
        return f"GroebnerCone({kind}, weight={self.weight})"


def _cone_forms(P: RingPresentation, basis, w: WeightVector):
    """Equalities and strict forms of the class of w cut out by a basis;
    only the span of the equalities is canonical."""
    equalities = []
    strict = []
    for g in basis:
        winners, rest, _dots = _top_split(g, w)
        equalities.extend(_diff(e, winners[0]) for e in winners[1:])
        strict.extend(_primitive(_diff(e, f)) for e in winners for f in rest)
    strict.extend(pr_halfspaces(P).strict)
    return equalities, strict


def _positive_rep(bases: _Bases, w: WeightVector, forms=None) -> Optional[WeightVector]:
    """A positive weight of the class of the integral weight w, certified
    by its initial ideal being in_w(I), or None; ``forms`` are the cone
    forms of the basis at w when the caller already holds them."""
    if w.is_positive():
        return w
    P = bases.ring
    dim = P.m + P.n
    basis, init = bases.at(w)
    equalities, strict = forms or _cone_forms(P, basis, w)
    coord = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
    point = find_point(dim, equalities, (), list(strict) + coord)
    if point is None:
        return None
    rep = WeightVector.for_ring(P, point)._integral_scale()
    return rep if bases.at(rep)[1] == init else None


def _marked_basis(bases: _Bases, w: WeightVector):
    """A marked basis for the class of the integral weight w: the basis
    at w when w is nonnegative (already reduced, a term order), else the
    reduced basis at a certified positive weight of the class, or, when
    none is found, the possibly unreduced Rees-route basis, best-effort."""
    basis = bases.at(w)[0]
    if w.is_nonnegative():
        return basis
    rep = _positive_rep(bases, w)
    return basis if rep is None else bases.at(rep)[0]


def cone_of(
    P: RingPresentation, gens: Sequence[SkewPoly], w: WeightVector
) -> GroebnerCone:
    """The Groebner cone of w for the ideal of gens."""
    return _cone(_Bases(P, gens), w)


def _cone(bases: _Bases, w: WeightVector) -> GroebnerCone:
    P = bases.ring
    _require_pr(P, w)
    w_int = w._integral_scale()
    basis, init = bases.at(w_int)
    forms = _cone_forms(P, basis, w_int)
    rep = _positive_rep(bases, w_int, forms)
    if rep is not None and not w_int.is_nonnegative():
        # the Rees basis may be unreduced; _marked_basis makes this choice
        basis = bases.at(rep)[0]
        forms = _cone_forms(P, basis, w_int)
    equalities, strict = forms
    # irredundant_strict prunes in input order, so give it a canonical one
    eqs, stricts = irredundant_strict(P.m + P.n, equalities, sorted(set(strict)))
    return GroebnerCone(P, w_int, eqs, stricts, basis, init, rep)


def gr_region_contains(
    P: RingPresentation, gens: Sequence[SkewPoly], w: WeightVector
) -> bool:
    """Whether the class of w contains a positive weight (w in GR(I))."""
    if not pr_contains(P, w):
        return False
    return _positive_rep(_Bases(P, gens), w._integral_scale()) is not None


# -- epsilon threshold -------------------------------------------------


def _epsilon_bound(P: RingPresentation, basis, w: WeightVector, w_prime) -> Fraction:
    """The eps0 of ``epsilon_threshold`` read off a marked basis at w."""
    # every drop and val is w.den times its value and every rise and
    # slope w_prime.den times its own, so each ratio below is the bound
    # times w.den / w_prime.den
    bounds: List[Fraction] = []
    for g in basis:
        winners, rest, dots = _top_split(g, w)
        pdots = {key: w_prime.scaled_dot(key) for key in g.terms}
        ptop = max(pdots[key] for key in winners)
        new_winners = [key for key in winners if pdots[key] == ptop]
        for e in new_winners:
            for f in rest:
                rise = pdots[f] - pdots[e]
                if rise > 0:
                    bounds.append(Fraction(dots[e] - dots[f], rise))
    ints, pints = w.ints, w_prime.ints
    for form in pr_halfspaces(P).strict:
        slope = sum(map(mul, form, pints))
        if slope < 0:
            bounds.append(Fraction(sum(map(mul, form, ints)), -slope))
    if not bounds:
        return Fraction(1)
    return min(bounds) * Fraction(w_prime.den, w.den)


def epsilon_threshold(
    P: RingPresentation,
    gens: Sequence[SkewPoly],
    w: WeightVector,
    w_prime: WeightVector,
) -> Fraction:
    """The largest eps0 such that for all 0 < eps < eps0 the perturbed
    weight w + eps*w' stays in the polynomial region and satisfies
    in_{w + eps w'}(I) = in_{w'}(in_w(I)).

    When the direction is bounded the result is that exact bound, read
    off from exponent differences on the marked reduced basis at w, even
    when it exceeds 1: the A1 parabola y1^2 - x1 at (0, 3) with
    w' = (1, -1) gives 2, and at (0, 3/2) it gives 1: eps is in the units
    of w as given.  Walks and facet crossings step by the same rule.
    Only when nothing limits the direction (every eps > 0 works) is the
    result 1.
    """
    w_prime.check(P)
    _require_pr(P, w)
    basis = _marked_basis(_Bases(P, gens), w._integral_scale())
    return _epsilon_bound(P, basis, w, w_prime)


# -- walks -------------------------------------------------------------


class WalkSegment:
    """One cone visited along a straight-line walk, with its parameter range."""

    __slots__ = ("t_lo", "t_hi", "cone")

    def __init__(self, t_lo: Fraction, t_hi: Fraction, cone: GroebnerCone):
        self.t_lo = t_lo
        self.t_hi = t_hi
        self.cone = cone

    def __repr__(self):
        return f"WalkSegment([{self.t_lo}, {self.t_hi}], {self.cone!r})"


def _segment_point(w_start: WeightVector, w_end: WeightVector, t: Fraction):
    return w_start.scale(1 - t) + w_end.scale(t)


def walk(
    P: RingPresentation,
    gens: Sequence[SkewPoly],
    w_start: WeightVector,
    w_end: WeightVector,
) -> List[WalkSegment]:
    """Walk the segment from w_start to w_end through the Groebner fan.

    Both endpoints must lie in the polynomial region, and so must the
    whole segment (the region is convex, so this is automatic).  Returns
    the visited cones with exact rational breakpoints.  From the start
    and from each wall the walk steps into the next cone by the exact
    epsilon bound read off the basis there, so no cone is skipped; each
    wall is certified by checking that the initial ideal before it
    matches the cone, that the wall lies in the closure of the cone
    after it, and that the wall itself is not a maximal cone.  The
    weighted bases are shared within the call: none is computed twice.
    """
    for w in (w_start, w_end):
        _require_pr(P, w)
    direction = w_end - w_start
    ints_s, ints_e = w_start.ints, w_end.ints
    segments: List[WalkSegment] = []
    t_enter = Fraction(0)
    w_here = w_start
    bases = _Bases(P, gens)
    here = _cone(bases, w_here)
    while True:
        if len(segments) >= _MAX_CONES:
            raise BudgetExceeded("walk cones", _MAX_CONES)
        # step off the entry point into the next cone; at the unscaled
        # point and along w_end - w_start the bound is in units of t
        eps = _epsilon_bound(P, here.basis, w_here, direction)
        step = (1 - t_enter) / 2
        while step >= eps:
            step /= 2
        w_rep = _segment_point(w_start, w_end, t_enter + step)
        cone = here if here.contains(w_rep) else _cone(bases, w_rep)
        if not cone.contains(w_here, closure=True):
            raise SkewGbError(f"walk stepped past a cone after t={t_enter}")
        # exit parameter: first root of a strict form along the segment
        t_exit = Fraction(1)
        for form in cone.strict:
            # the form's values at both ends, over the common
            # denominator w_start.den * w_end.den
            vs = sum(map(mul, form, ints_s)) * w_end.den
            ve = sum(map(mul, form, ints_e)) * w_start.den
            if ve >= vs:
                continue
            # value (1-t)vs + t*ve decreases; root at vs/(vs-ve)
            root = Fraction(vs, vs - ve)
            if t_enter < root < t_exit:
                t_exit = root
        segments.append(WalkSegment(t_enter, t_exit, cone))
        if t_exit >= 1:
            break
        # certify the wall: the one-sided initial ideal matches the cone
        before = _segment_point(w_start, w_end, (t_enter + t_exit) / 2)
        if bases.at(before._integral_scale())[1] != cone.initial_gens:
            raise SkewGbError(f"walk certification failed before wall t={t_exit}")
        # the wall itself is a genuine lower-dimensional class
        w_here = _segment_point(w_start, w_end, t_exit)
        here = _cone(bases, w_here)
        if here.is_maximal():
            raise SkewGbError(f"expected a wall at t={t_exit}, found a maximal cone")
        t_enter = t_exit
    return segments


# -- fan enumeration ---------------------------------------------------


class GroebnerFan:
    """Maximal Groebner cones covering the polynomial region."""

    __slots__ = ("ring", "cones", "adjacency", "complete")

    def __init__(self, ring, cones, adjacency, complete: bool):
        self.ring = ring
        self.cones = tuple(cones)
        self.adjacency = frozenset(adjacency)
        self.complete = complete

    def cone_containing(self, w: WeightVector) -> Optional[GroebnerCone]:
        for cone in self.cones:
            if cone.contains(w):
                return cone
        return None

    def to_text(self) -> str:
        lines = [f"{len(self.cones)} maximal cones" + ("" if self.complete else " (partial)")]
        for i, cone in enumerate(self.cones, 1):
            lines.append(f"-- cone {i} --")
            lines.append(cone.to_text())
        return "\n".join(lines)

    def __repr__(self):
        flag = "" if self.complete else ", partial"
        return f"GroebnerFan({len(self.cones)} cones{flag})"


def _step(bases: _Bases, w: WeightVector, basis, d: WeightVector) -> GroebnerCone:
    """The cone just off the integral weight w along d: the step is half
    the epsilon bound read off the marked basis at w."""
    P = bases.ring
    eps = _epsilon_bound(P, basis, w, d)
    candidate = (w + d.scale(eps / 2))._integral_scale()
    if not pr_contains(P, candidate):
        # the bound caps eps by every PR form that d decreases
        raise SkewGbError(f"step from {w} along {d} left the polynomial region")
    return _cone(bases, candidate)


def _generic_seed(bases: _Bases) -> GroebnerCone:
    """The maximal cone of a positive weight: its initial ideal is monomial.

    A sample weight on a lower-dimensional cone is nudged off one of its
    equalities at a time.  Each nudge lands in a cone that has the
    current one as a proper face, so when no single nudge reaches a
    maximal cone the search repeats from the first nudged weight; after
    m + n rounds the dimension argument is exhausted.
    """
    P = bases.ring
    cone = _cone(bases, pr_sample_positive(P))
    if cone.is_maximal():
        return cone
    dim = P.m + P.n
    for _ in range(dim):
        # perturb along a direction violating one equality while keeping
        # all stricts, so the nudged weight stays next to the current cone
        step = None
        for form in cone.equalities:
            point = find_point(
                dim,
                [e for e in cone.equalities if e != form],
                (),
                list(cone.strict) + [form],
            )
            if point is None:
                continue
            d = WeightVector.for_ring(P, point)
            candidate = _step(bases, cone.weight, cone.basis, d)
            if candidate.is_maximal():
                return candidate
            if step is None:
                step = candidate
        if step is None:
            break
        cone = step
    raise SkewGbError("could not find a generic seed weight")


def _cross_facet(
    bases: _Bases, cone: GroebnerCone, facet, pr_forms
) -> Optional[GroebnerCone]:
    """The maximal cone on the far side of a facet, or None when the
    facet lies on the boundary of the polynomial region."""
    if facet in pr_forms:
        return None
    P = bases.ring
    dim = P.m + P.n
    others = [s for s in cone.strict if s != facet]
    point = find_point(dim, list(cone.equalities) + [facet], (), others)
    if point is None:
        return None
    p = WeightVector.for_ring(P, point)._integral_scale()
    if not pr_contains(P, p):
        return None
    d = WeightVector(
        [-x for x in facet[: P.m]], [-x for x in facet[P.m:]]
    )
    neighbor = _step(bases, p, _marked_basis(bases, p), d)
    if not neighbor.is_maximal():
        raise SkewGbError("facet crossing landed on a non-maximal cone")
    return neighbor


def enumerate_fan(
    P: RingPresentation,
    gens: Sequence[SkewPoly],
    seed: Optional[WeightVector] = None,
    max_cones: int = _MAX_CONES,
) -> GroebnerFan:
    """All maximal Groebner cones, found by breadth-first facet crossing.

    Each interior facet is crossed once, from the side found first: the
    crossing from C to C' over the form f marks -f on C' as done.  The
    weighted bases are shared within the call, so none is computed
    twice.  When the ideal is zero or contains a unit the fan is the
    single cone equal to the whole polynomial region.  If ``max_cones``
    is exceeded a partial fan is returned with ``complete`` set to False.
    """
    gens = [g for g in gens if not g.is_zero()]
    pr = pr_halfspaces(P)
    if not gens:
        w0 = pr_sample_positive(P)
        trivial = GroebnerCone(P, w0, (), pr.strict, (), (), w0)
        return GroebnerFan(P, [trivial], (), True)
    bases = _Bases(P, gens)
    if seed is None:
        first = _generic_seed(bases)
    else:
        first = _cone(bases, seed)
        if not first.is_maximal():
            raise SkewGbError("seed weight lies on a wall; supply a generic seed")
    if any(len(h.terms) == 1 and not any(_mono_vec(next(iter(h.terms)))) for h in first.initial_gens):
        # the ideal contains a unit: one cone covering the whole region
        return GroebnerFan(P, [first], (), True)
    pr_forms = set(pr.strict)
    cones: Dict[tuple, GroebnerCone] = {first.key(): first}
    adjacency: Set[frozenset] = set()
    # (cone key, facet form) pairs already crossed from the other side;
    # _primitive divides by a positive gcd, so -f is primitive too
    crossed: Set[tuple] = set()
    queue = [first]
    complete = True
    while queue:
        cone = queue.pop(0)
        here = cone.key()
        for facet in cone.strict:
            if (here, facet) in crossed:
                continue
            neighbor = _cross_facet(bases, cone, facet, pr_forms)
            if neighbor is None:
                continue
            k = neighbor.key()
            if k != here:
                adjacency.add(frozenset((here, k)))
            crossed.add((k, tuple(-x for x in facet)))
            if k not in cones:
                if len(cones) >= max_cones:
                    complete = False
                    continue
                cones[k] = neighbor
                queue.append(neighbor)
    ordered = sorted(cones.values(), key=lambda c: c.key())
    return GroebnerFan(P, ordered, adjacency, complete)


def universal_gb(P: RingPresentation, gens: Sequence[SkewPoly]) -> List[SkewPoly]:
    """A finite universal Groebner basis: union of the marker bases of
    all maximal cones of the Groebner fan of the homogenized ideal,
    dehomogenized.  The fan pass shares its weighted bases, so none is
    computed twice within the call.  A fan cut at its cone budget raises
    ``BudgetExceeded``: the union of its bases need not be universal.
    An ideal whose basis at ``pr_sample_positive(P)`` is [1] contains a
    unit, so [1] is returned without the fan of the Rees ring."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    one = P.one()
    if _Bases(P, gens).at(pr_sample_positive(P))[0] == (one,):
        return [one]
    rz = _positive_rees(P)
    fan = enumerate_fan(rz.ring, [homogenize(rz, g) for g in gens])
    if not fan.complete:
        raise BudgetExceeded("fan cones", len(fan.cones))
    union = _dehomogenized(
        rz, (g for cone in fan.cones for g in cone.basis), MonomialOrder("grevlex")
    )
    union.sort(key=lambda g: sorted(g.terms))
    return union
