"""Commutative analysis layer: monomial-ideal combinatorics, weighted
Hilbert series, quasi-polynomials, GK dimension, characteristic ideals
and the component dimension-bound checker.

Minimal primes of a square-free monomial ideal are the minimal
transversals of the generator supports; Krull dimension is the number of
variables minus the smallest transversal.  The characteristic ideal
in_(u,v)(I) comes as its reduced grevlex basis (``initial_ideal_weight``),
so the grevlex leading monomials of that basis generate the monomial
ideal whose primes and dimension are read here; nothing is completed a
second time.  Weighted Hilbert series are
computed by inclusion-exclusion over the lcm lattice of the generators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import RegionError, SkewGbError
from .groebner import MonomialIdeal, _Bases, initial_ideal_weight
from .kernel import _accumulate
from .orders import MonomialOrder
from .ring import RingPresentation, SkewPoly
from .weights import NEG_INF, WeightVector, _require_pr, pr_sample_positive


def _support(mono) -> FrozenSet[int]:
    a, b = mono
    exps = a + b
    return frozenset(i for i, e in enumerate(exps) if e)


def radical_monomial(J: MonomialIdeal) -> MonomialIdeal:
    """Square-free radical: cap every exponent at 1, minimalize."""
    gens = []
    for a, b in J.gens:
        gens.append((tuple(min(e, 1) for e in a), tuple(min(e, 1) for e in b)))
    return MonomialIdeal(J.m, J.n, gens)


def _minimal_transversals(supports: Sequence[FrozenSet[int]]) -> List[FrozenSet[int]]:
    """All inclusion-minimal hitting sets of a family of nonempty sets."""
    result: List[FrozenSet[int]] = []

    def extend(partial: FrozenSet[int], remaining: Tuple[FrozenSet[int], ...]):
        remaining = tuple(s for s in remaining if not (s & partial))
        if not remaining:
            if not any(t <= partial for t in result):
                result[:] = [t for t in result if not (partial <= t)] + [partial]
            return
        first = min(remaining, key=lambda s: (len(s), sorted(s)))
        for var in sorted(first):
            extend(partial | {var}, remaining)

    extend(frozenset(), tuple(supports))
    return sorted(result, key=lambda t: (len(t), sorted(t)))


def minimal_primes_monomial(J: MonomialIdeal) -> List[FrozenSet[int]]:
    """Minimal primes of a monomial ideal, as variable index sets.

    The unit ideal has none (empty variety); the zero ideal has the
    single minimal prime (0) corresponding to the whole space.
    """
    if J.is_unit():
        return []
    rad = radical_monomial(J)
    if rad.is_zero():
        return [frozenset()]
    supports = [_support(g) for g in rad.gens]
    return _minimal_transversals(supports)


def krull_dim_monomial(J: MonomialIdeal):
    """Krull dimension of S/J; -inf for the unit ideal (empty scheme)."""
    if J.is_unit():
        return NEG_INF
    primes = minimal_primes_monomial(J)
    return J.total_vars - min(len(p) for p in primes)


# -- Hilbert series ----------------------------------------------------


class HilbertSeries:
    """Q(t) / prod_j (1 - t^{c_j}) with integer numerator coefficients."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Dict[int, int], denominator: Sequence[int]):
        self.numerator = {e: c for e, c in numerator.items() if c}
        self.denominator = tuple(sorted(denominator))
        if any(c <= 0 for c in self.denominator):
            raise SkewGbError("denominator exponents must be positive")

    def is_zero(self) -> bool:
        return not self.numerator

    def cumulative(self) -> "HilbertSeries":
        """Series of the partial sums: multiply by 1/(1-t)."""
        return HilbertSeries(self.numerator, self.denominator + (1,))

    def coefficients(self, upto: int) -> List[int]:
        """Taylor coefficients of the series in degrees 0..upto."""
        coeffs = [0] * (upto + 1)
        for e, c in self.numerator.items():
            if 0 <= e <= upto:
                coeffs[e] += c
        for step in self.denominator:
            # multiply by 1/(1 - t^step): running sums with lag `step`
            for i in range(step, upto + 1):
                coeffs[i] += coeffs[i - step]
        return coeffs

    def _cancelled_numerator(self) -> Tuple[Dict[int, int], int]:
        """Divide the numerator by (1 - t) as often as possible.

        Returns (reduced numerator, multiplicity of the root t = 1).
        """
        num = dict(self.numerator)
        mult = 0
        while num and sum(num.values()) == 0:
            # divide by (1 - t): if Q = sum q_e t^e with Q(1) = 0 then
            # Q/(1-t) has coefficients r_e = sum_{d <= e} q_d
            top = max(num)
            run = 0
            reduced: Dict[int, int] = {}
            for e in range(0, top + 1):
                run += num.get(e, 0)
                if run:
                    reduced[e] = run
            num = reduced
            mult += 1
        return num, mult

    def pole_order_at_one(self) -> int:
        """Order of the pole at t = 1 after cancellation; 0 if none."""
        if self.is_zero():
            return 0
        _num, mult = self._cancelled_numerator()
        return len(self.denominator) - mult

    def to_text(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for e in sorted(self.numerator):
            c = self.numerator[e]
            terms.append(f"{'+' if c > 0 and terms else ''}{c}*t^{e}")
        den = "".join(f"(1-t^{c})" for c in self.denominator)
        return f"({''.join(terms)}) / {den}" if den else "".join(terms)

    def __eq__(self, other):
        return (
            isinstance(other, HilbertSeries)
            and self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __repr__(self):
        return f"HilbertSeries({self.to_text()})"


def hilbert_series_monomial(
    J: MonomialIdeal, weights: Sequence[int]
) -> HilbertSeries:
    """Weighted Hilbert series of S/J by inclusion-exclusion.

    ``weights`` assigns a positive integer degree to each of the
    m + n variables; the denominator is prod_i (1 - t^{w_i}).
    """
    if len(weights) != J.total_vars:
        raise SkewGbError("one weight per variable required")
    if any(int(w) != w or w <= 0 for w in weights):
        raise SkewGbError("Hilbert series weights must be positive integers")
    weights = [int(w) for w in weights]
    gens = J.sorted_gens()
    layer: Dict[Tuple[int, ...], int] = {(0,) * J.total_vars: 1}
    for g in gens:
        a, b = g
        gexp = a + b
        nxt = dict(layer)
        for lcm_exp, sign in layer.items():
            _accumulate(nxt, tuple(max(x, y) for x, y in zip(lcm_exp, gexp)), -sign)
        layer = nxt
    numerator: Dict[int, int] = {}
    for exp, sign in layer.items():
        _accumulate(numerator, sum(w * e for w, e in zip(weights, exp)), sign)
    return HilbertSeries(numerator, weights)


def quasi_poly_degree(h: HilbertSeries, cumulative: bool = False):
    """Degree of the eventual quasi-polynomial i -> coefficient(i).

    Equals the pole order at t = 1 minus 1; -inf for the zero module.
    The cumulative flag first multiplies by 1/(1-t) (partial sums).
    """
    if cumulative:
        h = h.cumulative()
    if h.is_zero():
        return NEG_INF
    return h.pole_order_at_one() - 1


class QuasiPolynomial:
    """A cyclic family of polynomials Q_0..Q_{p-1}; value(i) = Q_{i mod p}(i)."""

    __slots__ = ("period", "polys", "degree")

    def __init__(self, period: int, polys: Sequence[Sequence[Fraction]]):
        if period < 1 or len(polys) != period:
            raise SkewGbError("need exactly one polynomial per residue class")
        self.period = period
        self.polys = tuple(tuple(Fraction(c) for c in poly) for poly in polys)
        self.degree = max(
            (len(p) - 1 - next(i for i, c in enumerate(reversed(p)) if c))
            if any(p)
            else -1
            for p in self.polys
        )

    def __call__(self, i: int) -> Fraction:
        poly = self.polys[i % self.period]
        acc = Fraction(0)
        for c in reversed(poly):
            acc = acc * i + c
        return acc

    def __repr__(self):
        return f"QuasiPolynomial(period={self.period}, degree={self.degree})"


def fit_quasi_polynomial(
    values: Dict[int, int], period: int, degree: int
) -> Optional[QuasiPolynomial]:
    """Interpolate a quasi-polynomial of the given period and degree
    through sampled values {i: f(i)}; returns None if the samples are
    not consistent with one.
    """
    polys = []
    for residue in range(period):
        points = sorted(i for i in values if i % period == residue)
        if len(points) < degree + 1:
            return None
        # exact polynomial interpolation through the first degree+1 points
        sel = points[: degree + 1]
        polys.append(_interpolate(sel, [Fraction(values[i]) for i in sel], degree))
    qp = QuasiPolynomial(period, polys)
    return qp if all(qp(i) == v for i, v in values.items()) else None


def _interpolate(xs: Sequence[int], ys: Sequence[Fraction], degree: int):
    """Solve the Vandermonde system exactly (Gaussian elimination)."""
    k = degree + 1
    rows = [[Fraction(x) ** j for j in range(k)] + [y] for x, y in zip(xs, ys)]
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [c * inv for c in rows[col]]
        for r in range(k):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [c - f * p for c, p in zip(rows[r], rows[col])]
    return tuple(rows[j][k] for j in range(k))


# -- GK dimension and characteristic ideals ----------------------------


def _leading_ideal(P: RingPresentation, init) -> MonomialIdeal:
    """The grevlex initial ideal of in_w(I): a canonical in_w(I) is its
    reduced grevlex basis, so its leading monomials generate it."""
    order = MonomialOrder("grevlex")
    return MonomialIdeal(P.m, P.n, [order.leading_monomial(h) for h in init])


def gk_dim(P: RingPresentation, gens: Sequence[SkewPoly], w: WeightVector):
    """GK dimension of R/I under the filtration of a positive weight.

    Computed as the Krull dimension of S/in_(u,v)(I), read off the
    monomial ideal of the leading monomials of its reduced grevlex
    basis; -inf for the zero module.
    """
    w.check(P)
    if not w.is_positive():
        raise RegionError("GK dimension requires a strictly positive weight")
    _require_pr(P, w)
    return krull_dim_monomial(_leading_ideal(P, initial_ideal_weight(P, gens, w)))


class CharacteristicIdeal:
    """in_(u,v)(I) with its radical when the monomial path applies."""

    __slots__ = ("generators", "is_monomial", "radical")

    def __init__(self, generators, is_monomial: bool, radical: Optional[MonomialIdeal]):
        self.generators = tuple(generators)
        self.is_monomial = is_monomial
        self.radical = radical

    def __repr__(self):
        flag = "monomial" if self.is_monomial else "non-monomial"
        return f"CharacteristicIdeal({flag}, {len(self.generators)} gens)"


def char_ideal(
    P: RingPresentation, gens: Sequence[SkewPoly], w: WeightVector
) -> CharacteristicIdeal:
    """Characteristic ideal of the cyclic module R/I at a weight in PR.

    Returns the canonical generators of in_(u,v)(I); when these are all
    monomials the square-free radical is attached, otherwise the radical
    is left uncomputed.
    """
    init = initial_ideal_weight(P, gens, w)
    return _characteristic(init, _leading_ideal(P, init))


def _characteristic(init, J: MonomialIdeal) -> CharacteristicIdeal:
    """The characteristic ideal of a canonical in_w(I) and its leading ideal J."""
    monomial = all(len(h.terms) == 1 for h in init)
    return CharacteristicIdeal(init, monomial, radical_monomial(J) if monomial else None)


class ComponentReport:
    """Dimension-bound verdicts for the characteristic variety.

    ``components`` is a list of dicts with keys ``vars`` (sorted
    variable names), ``dim`` and ``pass``; ``verdict`` is PASS, FAIL,
    VACUOUS-PASS (empty variety) or UNSUPPORTED (non-monomial
    characteristic ideal: only the total dimension is checked).
    """

    __slots__ = (
        "ring",
        "weight",
        "char_ideal",
        "bound",
        "components",
        "gkdim",
        "total_dim",
        "verdict",
    )

    def __init__(self, ring, weight, char_ideal, bound, components, gkdim, total_dim, verdict):
        self.ring = ring
        self.weight = weight
        self.char_ideal = char_ideal
        self.bound = bound
        self.components = components
        self.gkdim = gkdim
        self.total_dim = total_dim
        self.verdict = verdict

    def to_dict(self):
        return {
            "weight": [str(x) for x in self.weight.entries],
            "charIdeal": [str(h) for h in self.char_ideal.generators],
            "radical": (
                [str(h) for h in self.char_ideal.radical.polys(self.ring.graded())]
                if self.char_ideal.radical is not None
                else None
            ),
            "components": self.components,
            "bound": self.bound,
            "gkdim": None if self.gkdim == NEG_INF else self.gkdim,
            "totalDim": None if self.total_dim == NEG_INF else self.total_dim,
            "verdict": self.verdict,
        }

    def to_text(self) -> str:
        d = self.to_dict()
        lines = [
            "weight: (" + ",".join(d["weight"]) + ")",
            "charIdeal: " + (", ".join(d["charIdeal"]) if d["charIdeal"] else "<0>"),
        ]
        if d["radical"] is not None:
            lines.append("radical: " + (", ".join(d["radical"]) if d["radical"] else "<0>"))
        else:
            lines.append("radical: not computed (non-monomial)")
        for comp in self.components:
            mark = "pass" if comp["pass"] else "FAIL"
            lines.append(
                f"component {{{', '.join(comp['vars'])}}} dim {comp['dim']} [{mark}]"
            )
        lines.append(f"bound: {self.bound}")
        lines.append(
            "gkdim: " + ("-inf" if self.gkdim == NEG_INF else str(self.gkdim))
        )
        lines.append(
            "totalDim: " + ("-inf" if self.total_dim == NEG_INF else str(self.total_dim))
        )
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)

    def __repr__(self):
        return f"ComponentReport({self.verdict}, {len(self.components)} components)"


def _var_names(P: RingPresentation, prime: FrozenSet[int]) -> List[str]:
    return [P.var_names[i] for i in sorted(prime)]


def verify_component_bound(
    P: RingPresentation,
    gens: Sequence[SkewPoly],
    w: WeightVector,
    bound: Optional[int] = None,
) -> ComponentReport:
    """Check that every irreducible component of the characteristic
    variety has dimension at least ``bound`` (default: n, the number of
    y-generators) and at most the GK dimension of the module.

    Empty characteristic varieties yield the VACUOUS-PASS verdict;
    non-monomial characteristic ideals are reported with only the total
    dimension checked.
    """
    if bound is None:
        bound = P.n
    bases = _Bases(P, gens)
    init = bases.at(w)[1]
    J = _leading_ideal(P, init)
    ci = _characteristic(init, J)
    # the GK dimension is the same at every positive weight, so a
    # positive w serves and its basis is read once
    w_gk = w if w.is_positive() else pr_sample_positive(P)
    gkdim = krull_dim_monomial(_leading_ideal(P, bases.at(w_gk)[1]))
    w_int = w._integral_scale()
    if ci.is_monomial:
        if J.is_unit():
            return ComponentReport(
                P, w_int, ci, bound, [], gkdim, NEG_INF, "VACUOUS-PASS"
            )
        primes = minimal_primes_monomial(J)
        components = []
        ok = True
        for prime in primes:
            dim = J.total_vars - len(prime)
            passed = dim >= bound and (gkdim == NEG_INF or dim <= gkdim)
            ok = ok and passed
            components.append(
                {"vars": _var_names(P, prime), "dim": dim, "pass": passed}
            )
        total = max(c["dim"] for c in components)
        return ComponentReport(
            P, w_int, ci, bound, components, gkdim, total, "PASS" if ok else "FAIL"
        )
    total = krull_dim_monomial(J)
    verdict = "UNSUPPORTED" if total >= bound else "FAIL"
    return ComponentReport(P, w_int, ci, bound, [], gkdim, total, verdict)
