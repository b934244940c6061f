"""Groebner cones, epsilon thresholds, weight walks and the Groebner fan.

The equivalence class of a weight (all weights giving the same initial
ideal) is a relatively open polyhedral cone cut out by the exponent
differences of a suitably marked reduced Groebner basis: exponents tied
at the top of each basis element give equalities, everything below gives
strict inequalities, and the defining half-spaces of the polynomial
region are always included.  Full-dimensional cones correspond to
monomial initial ideals; the fan is enumerated by crossing facets, and
the union of its marker bases is a universal Groebner basis.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .errors import BudgetExceeded, RegionError, SkewGbError
from .groebner import (
    _dehomogenized,
    _initial_ideal_of,
    _integral_scale,
    initial_ideal_weight,
    groebner_wrt_weight,
)
from .orders import MonomialOrder
from .polyhedra import find_point, irredundant_strict
from .rees import homogenize, rees_presentation
from .ring import RingPresentation, SkewPoly
from .weights import (
    WeightVector,
    _normalize_form,
    pr_contains,
    pr_halfspaces,
    pr_sample_positive,
)

_MAX_CONES = 512


def _mono_vec(mono) -> Tuple[Fraction, ...]:
    a, b = mono
    return tuple(Fraction(e) for e in a + b)


def _diff(e, f) -> Tuple[Fraction, ...]:
    return tuple(x - y for x, y in zip(_mono_vec(e), _mono_vec(f)))


def _canonical_eq(form) -> Tuple[Fraction, ...]:
    form = _normalize_form(tuple(form))
    lead = next((x for x in form if x), None)
    if lead is not None and lead < 0:
        form = tuple(-x for x in form)
    return form


class GroebnerCone:
    """The equivalence class of a weight, with its defining constraints.

    ``equalities`` hold with value 0 on the cone and ``strict`` forms are
    positive; both are normalized exponent-difference forms in the m + n
    weight coordinates.  ``basis`` is the marked Groebner basis that cut
    the cone out and ``initial_gens`` the canonical generators of the
    shared initial ideal.  ``inside_gr`` records whether the class was
    certified to contain a positive weight.
    """

    __slots__ = (
        "ring",
        "weight",
        "equalities",
        "strict",
        "basis",
        "initial_gens",
        "inside_gr",
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
        inside_gr: bool,
        positive_rep: Optional[WeightVector],
    ):
        self.ring = ring
        self.weight = weight
        self.equalities = tuple(sorted(set(equalities)))
        self.strict = tuple(sorted(set(strict)))
        self.basis = tuple(basis)
        self.initial_gens = tuple(initial_gens)
        self.inside_gr = inside_gr
        self.positive_rep = positive_rep

    def is_maximal(self) -> bool:
        return not self.equalities

    def key(self):
        """Canonical identifier: the initial ideal's generator supports."""
        return tuple(
            tuple(sorted(h.terms)) for h in self.initial_gens
        )

    def contains(self, w: WeightVector, closure: bool = False) -> bool:
        entries = w.entries
        for form in self.equalities:
            if sum(c * x for c, x in zip(form, entries)) != 0:
                return False
        for form in self.strict:
            val = sum(c * x for c, x in zip(form, entries))
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


def _top_split(g: SkewPoly, w: WeightVector):
    """Terms of g at its top w-degree, the terms below, and all w-degrees."""
    dots = {key: w.dot(key) for key in g.terms}
    top = max(dots.values())
    winners = [key for key in g.terms if dots[key] == top]
    rest = [key for key in g.terms if dots[key] != top]
    return winners, rest, dots


def _cone_forms(P: RingPresentation, basis, w: WeightVector):
    """Equalities and strict forms of the class of w cut out by a basis."""
    equalities = []
    strict = []
    for g in basis:
        winners, rest, _dots = _top_split(g, w)
        e0 = winners[0]
        for e in winners[1:]:
            form = _canonical_eq(_diff(e, e0))
            if any(form):
                equalities.append(form)
        for e in winners:
            for f in rest:
                form = _normalize_form(_diff(e, f))
                if any(form):
                    strict.append(form)
    strict.extend(pr_halfspaces(P).strict)
    return equalities, strict


def _reduced_marked_basis(
    P: RingPresentation, gens: Sequence[SkewPoly], w_int: WeightVector
):
    """A reduced basis for the class of an integral weight, its initial
    ideal, and GR certification data; each basis is computed once.

    Returns (basis, init, inside_gr, positive_rep), with ``init`` the
    canonical in_w(I) read off the basis at w_int.  For nonnegative
    weights that basis is already reduced.  Otherwise the class is
    searched for a positive representative: if one is certified (same
    initial ideal), the reduced basis computed there is used; if not,
    the possibly unreduced basis from the Rees route is used
    best-effort.
    """
    basis, order = groebner_wrt_weight(P, gens, w_int)
    init = _initial_ideal_of(P, basis, w_int, order.kind)
    if w_int.is_positive():
        return basis, init, True, w_int
    rep, rep_basis = _class_has_positive(P, gens, basis, init, w_int)
    if rep is None:
        return basis, init, False, None
    if w_int.is_nonnegative():
        # already reduced (term order); keep the original marking
        return basis, init, True, rep
    return rep_basis, init, True, rep


def _class_has_positive(P: RingPresentation, gens, basis, init, w: WeightVector):
    """A positive representative of the class of w and its basis, certified
    by its initial ideal being ``init``; (None, None) if none is found."""
    dim = P.m + P.n
    equalities, strict = _cone_forms(P, basis, w)
    coord = [
        tuple(Fraction(1) if k == i else Fraction(0) for k in range(dim))
        for i in range(dim)
    ]
    point = find_point(dim, equalities, (), list(strict) + coord)
    if point is None:
        return None, None
    rep = _integral_scale(WeightVector(point[: P.m], point[P.m:]))
    rep_basis, order = groebner_wrt_weight(P, gens, rep)
    if _initial_ideal_of(P, rep_basis, rep, order.kind) != init:
        return None, None
    return rep, rep_basis


def cone_of(
    P: RingPresentation, gens: Sequence[SkewPoly], w: WeightVector
) -> GroebnerCone:
    """The Groebner cone (equivalence class) of w for the ideal of gens."""
    if not pr_contains(P, w):
        raise RegionError(f"weight {w} not in the polynomial region")
    w_int = _integral_scale(w)
    basis, init, inside_gr, rep = _reduced_marked_basis(P, gens, w_int)
    equalities, strict = _cone_forms(P, basis, w_int)
    dim = P.m + P.n
    eqs = sorted(set(e for e in equalities if any(e)))
    stricts = sorted(set(s for s in strict if any(s)))
    stricts = sorted(irredundant_strict(dim, eqs, stricts))
    return GroebnerCone(P, w_int, eqs, stricts, basis, init, inside_gr, rep)


def same_class(
    P: RingPresentation,
    gens: Sequence[SkewPoly],
    w1: WeightVector,
    w2: WeightVector,
) -> bool:
    """Whether two weights induce the same initial ideal in S."""
    return initial_ideal_weight(P, gens, w1) == initial_ideal_weight(P, gens, w2)


def gr_region_contains(
    P: RingPresentation, gens: Sequence[SkewPoly], w: WeightVector
) -> bool:
    """Whether the class of w contains a positive weight (w in GR(I))."""
    if not pr_contains(P, w):
        return False
    if w.is_positive():
        return True
    w_int = _integral_scale(w)
    _basis, _init, inside_gr, _rep = _reduced_marked_basis(P, gens, w_int)
    return inside_gr


# -- epsilon threshold -------------------------------------------------


def _epsilon_bound(P: RingPresentation, basis, w: WeightVector, w_prime) -> Fraction:
    """The eps0 of ``epsilon_threshold`` read off a marked basis at w."""
    bounds: List[Fraction] = []
    for g in basis:
        winners, rest, dots = _top_split(g, w)
        ptop = max(w_prime.dot(key) for key in winners)
        new_winners = [key for key in winners if w_prime.dot(key) == ptop]
        for e in new_winners:
            for f in rest:
                drop = dots[e] - dots[f]
                rise = w_prime.dot(f) - w_prime.dot(e)
                if rise > 0:
                    bounds.append(drop / rise)
    for form in pr_halfspaces(P).strict:
        val = sum(c * x for c, x in zip(form, w.entries))
        slope = sum(c * x for c, x in zip(form, w_prime.entries))
        if slope < 0:
            bounds.append(val / -slope)
    return min(bounds) if bounds else Fraction(1)


def epsilon_threshold(
    P: RingPresentation,
    gens: Sequence[SkewPoly],
    w: WeightVector,
    w_prime: WeightVector,
) -> Fraction:
    """The largest eps0, capped at 1, such that for all 0 < eps < eps0
    the perturbed weight w + eps*w' stays in the polynomial region and
    satisfies in_{w + eps w'}(I) = in_{w'}(in_w(I)).

    Below the cap the bound is exact, read off from exponent differences
    on the marked reduced basis at w; walks and facet crossings step by
    the same rule.  When nothing limits the direction (every eps > 0
    works) the result is 1.
    """
    w_prime.check(P)
    if not pr_contains(P, w):
        raise RegionError(f"weight {w} not in the polynomial region")
    w_int = _integral_scale(w)
    basis, _init, _inside, _rep = _reduced_marked_basis(P, gens, w_int)
    return _epsilon_bound(P, basis, w_int, w_prime)


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
    after it, and that the wall itself is not a maximal cone.
    """
    for w in (w_start, w_end):
        if not pr_contains(P, w):
            raise RegionError(f"walk endpoint {w} not in the polynomial region")
    direction = w_end - w_start
    segments: List[WalkSegment] = []
    t_enter = Fraction(0)
    w_here = w_start
    here = cone_of(P, gens, w_here)
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
        cone = here if here.contains(w_rep) else cone_of(P, gens, w_rep)
        if not cone.contains(w_here, closure=True):
            raise SkewGbError(f"walk stepped past a cone after t={t_enter}")
        # exit parameter: first root of a strict form along the segment
        t_exit = Fraction(1)
        entries_s = w_start.entries
        entries_e = w_end.entries
        for form in cone.strict:
            vs = sum(c * x for c, x in zip(form, entries_s))
            ve = sum(c * x for c, x in zip(form, entries_e))
            if ve >= vs:
                continue
            # value (1-t)vs + t*ve decreases; root at vs/(vs-ve)
            root = vs / (vs - ve)
            if t_enter < root < t_exit:
                t_exit = root
        segments.append(WalkSegment(t_enter, t_exit, cone))
        if t_exit >= 1:
            break
        # certify the wall: the one-sided initial ideal matches the cone
        before = _segment_point(w_start, w_end, (t_enter + t_exit) / 2)
        if initial_ideal_weight(P, gens, before) != list(cone.initial_gens):
            raise SkewGbError(f"walk certification failed before wall t={t_exit}")
        # the wall itself is a genuine lower-dimensional class
        w_here = _segment_point(w_start, w_end, t_exit)
        here = cone_of(P, gens, w_here)
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


def _generic_seed(P: RingPresentation, gens: Sequence[SkewPoly]) -> WeightVector:
    """A positive weight whose initial ideal is monomial.

    A sample weight on a lower-dimensional cone is nudged off one of its
    equalities at a time.  Each nudge lands in a cone that has the
    current one as a proper face, so when no single nudge reaches a
    maximal cone the search repeats from the first nudged weight; after
    m + n rounds the dimension argument is exhausted.
    """
    w = pr_sample_positive(P)
    cone = cone_of(P, gens, w)
    if cone.is_maximal():
        return _integral_scale(w)
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
            d = WeightVector(point[: P.m], point[P.m:])
            eps = _epsilon_bound(P, cone.basis, cone.weight, d)
            candidate = _integral_scale(w + d.scale(eps / 2))
            candidate_cone = cone_of(P, gens, candidate)
            if candidate_cone.is_maximal():
                return candidate
            if step is None:
                step = (candidate, candidate_cone)
        if step is None:
            break
        w, cone = step
    raise SkewGbError("could not find a generic seed weight")


def _cross_facet(
    P: RingPresentation,
    gens: Sequence[SkewPoly],
    cone: GroebnerCone,
    facet,
    pr_forms,
) -> Optional[GroebnerCone]:
    """The maximal cone on the far side of a facet, or None when the
    facet lies on the boundary of the polynomial region."""
    if facet in pr_forms:
        return None
    dim = P.m + P.n
    others = [s for s in cone.strict if s != facet]
    point = find_point(dim, list(cone.equalities) + [facet], (), others)
    if point is None:
        return None
    p = _integral_scale(WeightVector(point[: P.m], point[P.m:]))
    if not pr_contains(P, p):
        return None
    d = WeightVector(
        [-x for x in facet[: P.m]], [-x for x in facet[P.m:]]
    )
    basis, _init, _inside, _rep = _reduced_marked_basis(P, gens, p)
    eps = _epsilon_bound(P, basis, p, d)
    candidate = _integral_scale(p + d.scale(eps / 2))
    if not pr_contains(P, candidate):
        return None
    neighbor = cone_of(P, gens, candidate)
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

    When the ideal is zero or contains a unit the fan is the single cone
    equal to the whole polynomial region.  If ``max_cones`` is exceeded
    a partial fan is returned with ``complete`` set to False.
    """
    gens = [g for g in gens if not g.is_zero()]
    pr = pr_halfspaces(P)
    if not gens:
        w0 = pr_sample_positive(P)
        trivial = GroebnerCone(P, _integral_scale(w0), (), pr.strict, (), (), True, None)
        return GroebnerFan(P, [trivial], (), True)
    if seed is None:
        seed = _generic_seed(P, gens)
    first = cone_of(P, gens, seed)
    if not first.is_maximal():
        raise SkewGbError("seed weight lies on a wall; supply a generic seed")
    if any(len(h.terms) == 1 and not any(_mono_vec(next(iter(h.terms)))) for h in first.initial_gens):
        # the ideal contains a unit: one cone covering the whole region
        return GroebnerFan(P, [first], (), True)
    pr_forms = set(pr.strict)
    cones: Dict[tuple, GroebnerCone] = {first.key(): first}
    adjacency: Set[frozenset] = set()
    queue = [first]
    complete = True
    while queue:
        cone = queue.pop(0)
        for facet in cone.strict:
            neighbor = _cross_facet(P, gens, cone, facet, pr_forms)
            if neighbor is None:
                continue
            k = neighbor.key()
            if k != cone.key():
                adjacency.add(frozenset((cone.key(), k)))
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
    dehomogenized."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    w_pos = pr_sample_positive(P)
    rz = rees_presentation(P, w_pos)
    hgens = [homogenize(P, w_pos, g, rz) for g in gens]
    fan = enumerate_fan(rz.ring, hgens)
    union = _dehomogenized(
        P, (g for cone in fan.cones for g in cone.basis), MonomialOrder("grevlex")
    )
    union.sort(key=lambda g: sorted(g.terms))
    return union
