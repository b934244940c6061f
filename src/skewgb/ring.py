"""Exact arithmetic in an almost centralizing extension of k[x_1..x_m].

The ring R is generated by commuting x_1..x_m and skew y_1..y_n subject
to relation tables Q1 (values of y_i x_j - x_j y_i, polynomials in x)
and Q2 (values of y_i y_j - y_j y_i, at most linear in the y's).  Every
element has a unique standard expression sum kappa_{a,b} x^a y^b; the
``SkewPoly`` class stores exactly that normal form with exact rational
coefficients.  All values are immutable after construction and every
operation is a pure function.

The relation tables are read in one place: ``_relation_terms`` lists each
relation's leading word (x_j y_i, or y_j y_i with j < i) with every
monomial of its right-hand side, its coefficient and its table slot.  The
polynomial region PR(R) (the weights under which each term weighs less
than its word), the conditions (M1)/(M2) on an order and the Rees rings
(each term times x0 to the power of that slack) are all read off that
list.  Q2 is antisymmetric by construction: a missing mirror entry is
filled in and a given one that is not the negation is refused.  Table
entries are summed with the kernel's ``_accumulate``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple

from .errors import PresentationError
from .kernel import MulKernel, _accumulate, _add_terms

Exponents = Tuple[int, ...]
MonomialKey = Tuple[Exponents, Exponents]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _canon_entry(entry, shape: Tuple[int, ...], table: str):
    """Canonicalize a relation table entry to sorted (monomial, coeff) pairs.

    ``shape`` is ``(m,)`` for a Q1 entry, keyed by x-exponent tuples, and
    ``(m, n)`` for a Q2 entry, keyed by (x-exponent, y-exponent) pairs.
    """
    items = {}
    for raw, coeff in dict(entry).items():
        parts = (raw,) if len(shape) == 1 else raw
        key = tuple(tuple(int(e) for e in p) for p in parts)
        if tuple(map(len, key)) != shape or any(e < 0 for p in key for e in p):
            raise PresentationError(f"bad exponent {raw} in {table} entry")
        _accumulate(items, key if len(shape) > 1 else key[0], _as_fraction(coeff))
    return tuple(sorted(items.items()))


class RingPresentation:
    """Generators and relation tables of an almost centralizing extension.

    ``q1`` maps (i, j) with 1 <= i <= n, 1 <= j <= m to a polynomial in x
    given as {x_exponent_tuple: coefficient}; ``q2`` maps (i, j) with
    1 <= i, j <= n to a polynomial of y-degree at most one given as
    {(x_exponent_tuple, y_exponent_tuple): coefficient}.  Missing (j, i)
    entries are filled in antisymmetrically; a given (j, i) entry that is
    not the negation of (i, j), a nonzero diagonal entry, and tables that
    fail ``validate_presentation`` define no ring and raise
    ``PresentationError``.
    """

    __slots__ = (
        "m",
        "n",
        "_q1",
        "_q2",
        "name",
        "_kernel",
        "_graded",
        "_halfspaces",
        "var_names",
        "_hash",
    )

    def __init__(self, m: int, n: int, q1=None, q2=None, name: str = "custom"):
        self._setup(m, n, q1, q2, name)
        # tables of commuting generators are associative: nothing to check
        if not self.is_commutative and not validate_presentation(self):
            raise PresentationError(
                "relation tables give a non-associative product "
                "(validate_presentation fails)"
            )

    @classmethod
    def _unchecked(cls, m: int, n: int, q1=None, q2=None, name: str = "custom"):
        """A presentation built without the associativity check, for tables
        valid by construction: the shipped rings and Rees rings, which are
        rebuilt for every task input and every mixed-sign weight, where the
        check would cost more than the work (15 ms for ``weyl3``)."""
        P = cls.__new__(cls)
        P._setup(m, n, q1, q2, name)
        return P

    def _setup(self, m: int, n: int, q1, q2, name: str):
        if m < 0 or n < 0:
            raise PresentationError("generator counts must be nonnegative")
        self.m = m
        self.n = n
        self.name = name
        self.var_names = tuple(f"x{j}" for j in range(1, m + 1)) + tuple(
            f"y{i}" for i in range(1, n + 1)
        )
        q1 = q1 or {}
        q2 = q2 or {}
        for i, j in q1:
            if not (1 <= i <= n and 1 <= j <= m):
                raise PresentationError(f"Q1 index {(i, j)} out of range")
        table1 = []
        for i in range(1, n + 1):
            row = []
            for j in range(1, m + 1):
                row.append(_canon_entry(q1.get((i, j), {}), (m,), "Q1"))
            table1.append(tuple(row))
        self._q1 = tuple(table1)

        table2: Dict[Tuple[int, int], tuple] = {}
        for (i, j), entry in q2.items():
            if not (1 <= i <= n and 1 <= j <= n):
                raise PresentationError(f"Q2 index {(i, j)} out of range")
            canon = _canon_entry(entry, (m, n), "Q2")
            if i == j and canon:
                raise PresentationError(f"Q2[{i},{i}] must vanish (antisymmetry)")
            for (xe, ye), _c in canon:
                if sum(ye) > 1:
                    raise PresentationError(f"Q2[{i},{j}] has y-degree > 1")
            table2[(i, j)] = canon
        # antisymmetric completion of missing mirror entries; a given
        # mirror must be the negation
        for (i, j), canon in list(table2.items()):
            mirror = tuple((k, -c) for k, c in canon)
            if table2.setdefault((j, i), mirror) != mirror:
                raise PresentationError(f"Q2[{j},{i}] is not the negation of Q2[{i},{j}]")
        self._q2 = {k: v for k, v in sorted(table2.items()) if v}
        # the tables never change, so their hash is taken once; equality
        # and hashing leave out var_names, which Rees rings rename
        self._hash = hash((m, n, self._q1, tuple(self._q2.items())))
        self._kernel = None
        self._graded = None
        self._halfspaces = None  # PR(R), built by weights.pr_halfspaces

    # -- table access --------------------------------------------------

    def q1_entry(self, i: int, j: int) -> "SkewPoly":
        """Value of y_i x_j - x_j y_i as an element of R (1-based)."""
        entry = self._q1[i - 1][j - 1]
        zero_y = (0,) * self.n
        return SkewPoly(self, {(xe, zero_y): c for xe, c in entry})

    def q2_entry(self, i: int, j: int) -> "SkewPoly":
        """Value of y_i y_j - y_j y_i as an element of R (1-based)."""
        entry = self._q2.get((i, j), ())
        return SkewPoly(self, {key: c for key, c in entry})

    def _relation_terms(self):
        """(word, term, coefficient, slot) of each relation term: the word
        x_j y_i with each monomial of Q1_ij, and the word y_j y_i (j < i)
        with each monomial of Q2_ij; ``slot`` is the 1-based (i, j) of the
        entry.  One orientation of Q2 is enough: the tables are
        antisymmetric."""
        zx, zy = (0,) * self.m, (0,) * self.n
        for i, row in enumerate(self._q1):
            yi = tuple(int(k == i) for k in range(self.n))
            for j, entry in enumerate(row):
                word = (tuple(int(k == j) for k in range(self.m)), yi)
                for xe, c in entry:
                    yield word, (xe, zy), c, (i + 1, j + 1)
        for (i, j), entry in self._q2.items():
            if j < i:
                word = (zx, tuple(int(k == i - 1) + int(k == j - 1) for k in range(self.n)))
                for key, c in entry:
                    yield word, key, c, (i, j)

    @property
    def is_commutative(self) -> bool:
        return all(not row or all(not e for e in row) for row in self._q1) and not self._q2

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RingPresentation)
            and self._hash == other._hash
            and (self.m, self.n, self._q1, self._q2) == (other.m, other.n, other._q1, other._q2)
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"RingPresentation({self.name!r}, m={self.m}, n={self.n})"

    def kernel(self) -> MulKernel:
        if self._kernel is None:
            q1 = tuple(self._q1)
            q2 = {(i - 1, j - 1): entry for (i, j), entry in self._q2.items()}
            self._kernel = MulKernel(self.m, self.n, q1, q2)
        return self._kernel

    def graded(self) -> "RingPresentation":
        """The associated commutative polynomial ring S on the same variables."""
        if self.is_commutative:
            return self
        if self._graded is None:
            self._graded = RingPresentation(self.m, self.n, name=f"gr({self.name})")
        return self._graded

    # -- element constructors -----------------------------------------

    def zero(self) -> "SkewPoly":
        return SkewPoly(self, {})

    def one(self) -> "SkewPoly":
        return self.constant(1)

    def constant(self, value) -> "SkewPoly":
        value = _as_fraction(value)
        if not value:
            return self.zero()
        return SkewPoly(self, {((0,) * self.m, (0,) * self.n): value})

    def x(self, j: int) -> "SkewPoly":
        if not 1 <= j <= self.m:
            raise PresentationError(f"x index {j} out of range 1..{self.m}")
        a = tuple(1 if k == j - 1 else 0 for k in range(self.m))
        return SkewPoly(self, {(a, (0,) * self.n): _ONE})

    def y(self, i: int) -> "SkewPoly":
        if not 1 <= i <= self.n:
            raise PresentationError(f"y index {i} out of range 1..{self.n}")
        b = tuple(1 if k == i - 1 else 0 for k in range(self.n))
        return SkewPoly(self, {((0,) * self.m, b): _ONE})

    def monomial(self, a: Iterable[int], b: Iterable[int], coeff=1) -> "SkewPoly":
        a = tuple(int(e) for e in a)
        b = tuple(int(e) for e in b)
        if len(a) != self.m or len(b) != self.n or any(e < 0 for e in a + b):
            raise PresentationError(f"bad monomial ({a}, {b})")
        coeff = _as_fraction(coeff)
        return SkewPoly(self, {(a, b): coeff} if coeff else {})

    def generators(self):
        return [self.x(j) for j in range(1, self.m + 1)] + [
            self.y(i) for i in range(1, self.n + 1)
        ]


class SkewPoly:
    """Element of R in its unique standard expression."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingPresentation, terms: Mapping[MonomialKey, Fraction]):
        self.ring = ring
        self.terms = {k: v for k, v in terms.items() if v}

    # -- basic structure ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key: MonomialKey) -> Fraction:
        return self.terms.get(key, _ZERO)

    def sorted_terms(self):
        """Terms in a fixed display order: total degree, then exponents, descending."""
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0][0]) + sum(item[0][1]), item[0]),
            reverse=True,
        )

    # -- arithmetic ----------------------------------------------------

    def _check(self, other: "SkewPoly"):
        if self.ring != other.ring:
            raise PresentationError("operands over different presentations")

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        # ring elements only: a scalar has no ring to add in
        if not isinstance(other, SkewPoly):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        _add_terms(terms, other.terms)
        return SkewPoly(self.ring, terms)

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "SkewPoly":
        return SkewPoly(self.ring, {k: -c for k, c in self.terms.items()})

    def scale(self, value) -> "SkewPoly":
        value = _as_fraction(value)
        if not value:
            return self.ring.zero()
        return SkewPoly(self.ring, {k: c * value for k, c in self.terms.items()})

    def __mul__(self, other) -> "SkewPoly":
        if not isinstance(other, SkewPoly):
            return self.scale(other)
        self._check(other)
        return SkewPoly(self.ring, self.ring.kernel().multiply(self.terms, other.terms))

    def __rmul__(self, other) -> "SkewPoly":
        # scalars only; ring elements always hit __mul__
        return self.scale(other)

    def __pow__(self, exponent: int) -> "SkewPoly":
        if exponent < 0:
            raise ValueError("negative powers are not defined in R")
        result = self.ring.one()
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        return (
            isinstance(other, SkewPoly)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- display -------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.var_names
        chunks = []
        for (a, b), coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, a + b):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            sign = "-" if coeff < 0 else "+"
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            text += f" {sign} {body}"
        return text

    __repr__ = __str__


# -- shipped presentations --------------------------------------------


def weyl_presentation(n: int) -> RingPresentation:
    """The Weyl algebra A_n: m = n, y_i x_j - x_j y_i = delta_ij, Q2 = 0."""
    if n < 1:
        raise PresentationError("weyl_presentation requires n >= 1")
    q1 = {(i, i): {(0,) * n: 1} for i in range(1, n + 1)}
    return RingPresentation._unchecked(n, n, q1=q1, name=f"weyl{n}")


def commutative_presentation(m: int, n: int = 0, name: str | None = None) -> RingPresentation:
    """The commutative polynomial ring on m x-variables and n y-variables."""
    return RingPresentation(m, n, name=name or f"poly{m}+{n}")


def sl2_presentation() -> RingPresentation:
    """U(sl2) on the standard basis y1, y2, y3.

    Brackets: y2 y3 - y3 y2 = 2 y3, y2 y1 - y1 y2 = -2 y1,
    y1 y3 - y3 y1 = y2.
    """
    e3 = lambda k: tuple(1 if t == k else 0 for t in range(3))
    q2 = {
        (2, 3): {((), e3(2)): 2},
        (2, 1): {((), e3(0)): -2},
        (1, 3): {((), e3(1)): 1},
    }
    return RingPresentation._unchecked(0, 3, q2=q2, name="sl2")


# -- operations --------------------------------------------------------


def _require_ring(P: RingPresentation, polys: Iterable[SkewPoly]) -> None:
    """Raise ``PresentationError`` unless every element belongs to P."""
    if any(f.ring != P for f in polys):
        raise PresentationError(f"element does not belong to {P.name}")


def multiply(P: RingPresentation, f: SkewPoly, g: SkewPoly) -> SkewPoly:
    """Standard expression of the product f * g in R."""
    _require_ring(P, (f, g))
    return f * g


def validate_presentation(P: RingPresentation) -> bool:
    """Certificate that the relation tables define a ring with PBW basis.

    Verifies associativity of the product on all generator triples (the
    constructor already makes Q2 antisymmetric with a zero diagonal and
    bounds its y-degree).  Read the relations as rewrite rules
    ``y_i x_j -> x_j y_i + Q1_ij``, ``y_i y_j -> y_j y_i + Q2_ij`` (i > j)
    and ``x_j x_k -> x_k x_j`` (j > k).  Every left side has length two
    and rewriting terminates: a step lowers the number of y's, or keeps
    the letters and removes an inversion.  So the only ambiguities are
    overlaps of three generators, and both sides of each triple's check
    are reductions of its word.  By Bergman's diamond lemma (Adv. Math.
    1978) a True result certifies that the standard monomials ``x^a y^b``
    are a k-basis, so every product the kernel returns is the unique
    standard expression.  A False result means the tables define no such
    ring, and the kernel's products over them are not well defined.
    """
    gens = P.generators()
    for f in gens:
        for g in gens:
            fg = f * g
            for h in gens:
                if (fg * h) != f * (g * h):
                    return False
    return True
