"""Exact rational linear feasibility for homogeneous cone systems.

All systems here are homogeneous: constraints are linear forms L in a
fixed number of variables, required to satisfy L = 0, L >= 0 or L > 0.
Feasibility and witness construction use Gaussian elimination on the
equalities followed by Fourier-Motzkin elimination on the inequalities.

Every row is a primitive integer tuple: the caller's form scaled by the
lcm of its denominators and divided by the gcd of its entries, so that
positive multiples of one form are the same row.  The inequalities of
each elimination level are held in a dict from row to strictness, which
merges repeats and positive multiples into one row, a strict copy
winning over a weak one.  This merging is what keeps the row count of
Fourier-Motzkin down; nothing else differs from elimination over the
rationals, and the witness is the same rational point:

- the equalities are row-reduced fraction-free, each pivot row a
  positive multiple of its row in the (unique) reduced echelon form, so
  a form reduced against them is a positive multiple of the rational
  reduction;
- a bound ``-rest.x / c`` read off a row does not change when the row is
  multiplied by a positive number;
- the largest lower and smallest upper bound, a strict bound winning a
  tie, do not depend on repeated rows or on their order.

Back-substitution holds the partial point over one common denominator,
compares bounds by cross-multiplication and makes one ``Fraction`` per
eliminated variable.

The integer view of a rational vector has its one home here, for the
whole package: ``_scaled`` gives the lcm of the denominators and the
entries times it, and ``_primitive`` divides an integer row by its gcd.
Weight vectors, the half-spaces of PR(R) and cone forms are built with
them, and no other module calls ``gcd`` or ``lcm``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Row = Tuple[int, ...]
# one elimination level: the rows bounding the eliminated (last) variable
# from below (positive coefficient) and from above (negative coefficient)
Level = Tuple[List[Tuple[Row, bool]], List[Tuple[Row, bool]]]


def _primitive(row: Sequence[int]) -> Row:
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


def _scaled(values: Sequence) -> Tuple[int, Row]:
    """The lcm ``den`` of the values' denominators, and the values times
    ``den`` as ints: the integer view of a rational vector."""
    if all(type(x) is int for x in values):
        return 1, tuple(values)
    qs = [x if isinstance(x, Fraction) else Fraction(x) for x in values]
    den = lcm(*(q.denominator for q in qs))
    return den, tuple(q.numerator * (den // q.denominator) for q in qs)


def _int_form(dim: int, form: Sequence, kind: str) -> Row:
    """The form as integers, scaled by the lcm of its denominators."""
    if len(form) != dim:
        raise ValueError(f"{kind} form has wrong length")
    return _scaled(form)[1]


def _reduce(row: Sequence[int], pivots: List[Tuple[int, Row]]) -> Sequence[int]:
    """A positive multiple of row with zeros in every pivot column."""
    for col, prow in pivots:
        f = row[col]
        if f:
            p = prow[col]
            row = [p * a - f * b for a, b in zip(row, prow)]
    return row


def _gauss(dim: int, equalities: Iterable[Sequence]) -> List[Tuple[int, Row]]:
    """Row-reduce homogeneous equalities fraction-free; returns
    [(pivot_col, row)] sorted by pivot column, each row primitive with a
    positive pivot and zeros in the other pivot columns.  Zero rows are
    dropped; a homogeneous system is always consistent, so there is no
    failure case."""
    pivots: List[Tuple[int, Row]] = []
    for eq in equalities:
        row = _reduce(_int_form(dim, eq, "equality"), pivots)
        lead = next((k for k in range(dim) if row[k]), None)
        if lead is None:
            continue
        row = _primitive(row if row[lead] > 0 else [-x for x in row])
        p = row[lead]
        for i, (col, prow) in enumerate(pivots):
            f = prow[lead]
            if f:
                pivots[i] = (col, _primitive([p * a - f * b for a, b in zip(prow, row)]))
        pivots.append((lead, row))
    pivots.sort(key=lambda cr: cr[0])
    return pivots


def _free_cols(dim: int, pivots: List[Tuple[int, Row]]) -> List[int]:
    pivot_cols = {col for col, _row in pivots}
    return [k for k in range(dim) if k not in pivot_cols]


def _reduced(dim: int, form: Sequence, pivots, free: List[int]) -> Row:
    """The inequality form in the free variables only, primitive."""
    row = _reduce(_int_form(dim, form, "inequality"), pivots)
    return _primitive([row[k] for k in free])


def _put(rows: Dict[Row, bool], row: Row, strict: bool) -> None:
    if strict:
        rows[row] = True
    else:
        rows.setdefault(row, False)


def _system(dim: int, equalities, nonneg, positive):
    """Pivot rows, free columns and the merged inequality rows."""
    pivots = _gauss(dim, equalities)
    free = _free_cols(dim, pivots)
    rows: Dict[Row, bool] = {}
    for form in nonneg:
        _put(rows, _reduced(dim, form, pivots, free), False)
    for form in positive:
        _put(rows, _reduced(dim, form, pivots, free), True)
    return pivots, free, rows


def _fm_levels(nvars: int, rows: Dict[Row, bool]) -> Optional[List[Level]]:
    """Fourier-Motzkin on >= 0 / > 0 rows, the last variable first: the
    bounding rows of each eliminated variable, or None when infeasible."""
    levels: List[Level] = []
    for last in range(nvars - 1, -1, -1):
        lowers: List[Tuple[Row, bool]] = []
        uppers: List[Tuple[Row, bool]] = []
        combined: Dict[Row, bool] = {}
        for row, strict in rows.items():
            c = row[last]
            if c > 0:
                lowers.append((row, strict))
            elif c < 0:
                uppers.append((row, strict))
            else:
                _put(combined, row[:last], strict)
        for lrow, lstrict in lowers:
            lc = lrow[last]
            for urow, ustrict in uppers:
                uc = urow[last]
                # eliminate x between lc*x >= -lrest and uc*x >= -urest (uc < 0)
                form = [lr * -uc + ur * lc for lr, ur in zip(lrow[:last], urow[:last])]
                _put(combined, _primitive(form), lstrict or ustrict)
        levels.append((lowers, uppers))
        rows = combined
    # every remaining row is the empty form, whose value is 0
    if any(rows.values()):
        return None
    return levels


def _back_substitute(levels: List[Level]) -> Tuple[List[int], int]:
    """The witness of feasible levels as numerators over one positive
    common denominator, the first variable first."""
    nums: List[int] = []
    den = 1
    for lowers, uppers in reversed(levels):
        # a bound -rest.x / c as (numerator, positive denominator, strict)
        low = up = None
        for row, strict in lowers:
            n, d = -sum(r * x for r, x in zip(row, nums)), row[-1] * den
            if low is None or n * low[1] > low[0] * d or (n * low[1] == low[0] * d and strict):
                low = (n, d, strict)
        for row, strict in uppers:
            n, d = sum(r * x for r, x in zip(row, nums)), -row[-1] * den
            if up is None or n * up[1] < up[0] * d or (n * up[1] == up[0] * d and strict):
                up = (n, d, strict)
        if low is None and up is None:
            x = Fraction(0)
        elif up is None:
            x = Fraction(low[0] + low[1] if low[2] else low[0], low[1])
        elif low is None:
            x = Fraction(up[0] - up[1] if up[2] else up[0], up[1])
        elif low[0] * up[1] < up[0] * low[1]:
            x = Fraction(low[0] * up[1] + up[0] * low[1], 2 * low[1] * up[1])
        else:
            # FM guarantees low == up with both bounds weak here
            x = Fraction(low[0], low[1])
        new_den = lcm(den, x.denominator)
        scale = new_den // den
        nums = [a * scale for a in nums]
        nums.append(x.numerator * (new_den // x.denominator))
        den = new_den
    return nums, den


def find_point(
    dim: int,
    equalities: Iterable[Sequence] = (),
    nonneg: Iterable[Sequence] = (),
    positive: Iterable[Sequence] = (),
) -> Optional[Tuple[Fraction, ...]]:
    """A rational point satisfying every constraint, or None.

    Constraints are homogeneous: each form L must satisfy L = 0
    (equalities), L >= 0 (nonneg) or L > 0 (positive).
    """
    pivots, free, rows = _system(dim, equalities, nonneg, positive)
    levels = _fm_levels(len(free), rows)
    if levels is None:
        return None
    nums, den = _back_substitute(levels)
    point = [Fraction(0)] * dim
    for col, num in zip(free, nums):
        point[col] = Fraction(num, den)
    # x_p = -sum_{f free} row[f] * x_f / row[p]   for each pivot row
    for col, prow in pivots:
        point[col] = Fraction(-sum(prow[k] * num for k, num in zip(free, nums)), prow[col] * den)
    return tuple(point)


def irredundant_strict(
    dim: int,
    equalities: Sequence[Sequence],
    strict: Sequence[Sequence],
) -> Tuple[List[Row], List[Sequence]]:
    """Prune strict forms implied by the equalities and remaining forms.

    Returns the reduced echelon basis of the equalities' span (the rows
    of ``_gauss``), and the caller's own strict forms kept, in input order."""
    pivots = _gauss(dim, equalities)
    free = _free_cols(dim, pivots)
    rows = [_reduced(dim, f, pivots, free) for f in strict]
    kept = list(range(len(strict)))
    for i, f in enumerate(strict):
        rest = [j for j in kept if strict[j] != f]
        # f is implied when rest > 0 and -f >= 0 have no solution
        system = {rows[j]: True for j in rest}
        _put(system, tuple(-x for x in rows[i]), False)
        if _fm_levels(len(free), system) is None:
            kept = rest
    return [row for _col, row in pivots], [strict[j] for j in kept]
