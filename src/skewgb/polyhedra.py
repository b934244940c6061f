"""Exact rational linear feasibility for homogeneous cone systems.

All systems here are homogeneous: constraints are linear forms L in a
fixed number of variables, required to satisfy L = 0, L >= 0 or L > 0.
Feasibility and witness construction use Gaussian elimination on the
equalities followed by Fourier-Motzkin elimination on the inequalities,
entirely over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

Form = Tuple[Fraction, ...]


def _frac_form(form: Sequence) -> Form:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in form)


def _gauss(dim: int, equalities: Iterable[Sequence]) -> List[Tuple[int, Form]]:
    """Row-reduce homogeneous equalities; returns [(pivot_col, row)] with
    each row scaled to pivot 1 and reduced against the others, sorted by
    pivot column.  Zero rows are dropped; a homogeneous system is always
    consistent, so there is no failure case."""
    rows: List[List[Fraction]] = []
    for eq in equalities:
        row = list(_frac_form(eq))
        if len(row) != dim:
            raise ValueError("equality form has wrong length")
        rows.append(row)
    pivots: List[Tuple[int, List[Fraction]]] = []
    for row in rows:
        for col, prow in pivots:
            if row[col]:
                f = row[col]
                for k in range(dim):
                    row[k] -= f * prow[k]
        lead = next((k for k in range(dim) if row[k]), None)
        if lead is None:
            continue
        inv = 1 / row[lead]
        row = [x * inv for x in row]
        for col, prow in pivots:
            if prow[lead]:
                f = prow[lead]
                for k in range(dim):
                    prow[k] -= f * row[k]
        pivots.append((lead, row))
    pivots.sort(key=lambda cr: cr[0])
    return [(col, tuple(row)) for col, row in pivots]


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
    pivots = _gauss(dim, equalities)
    pivot_cols = [col for col, _row in pivots]
    free_cols = [k for k in range(dim) if k not in pivot_cols]

    # express inequality forms in the free variables only:
    # x_p = -sum_{f free} row[f] * x_f   for each pivot row
    def reduce_form(form: Sequence, strict: bool):
        row = list(_frac_form(form))
        if len(row) != dim:
            raise ValueError("inequality form has wrong length")
        for col, prow in pivots:
            if row[col]:
                f = row[col]
                for k in range(dim):
                    row[k] -= f * prow[k]
        return [row[k] for k in free_cols], strict

    ineqs = [reduce_form(f, False) for f in nonneg]
    ineqs += [reduce_form(f, True) for f in positive]

    values = _fm_solve(len(free_cols), ineqs)
    if values is None:
        return None
    point = [Fraction(0)] * dim
    for col, val in zip(free_cols, values):
        point[col] = val
    for col, prow in pivots:
        point[col] = -sum(prow[k] * point[k] for k in free_cols)
    return tuple(point)


def _fm_solve(
    nvars: int, ineqs: List[Tuple[List[Fraction], bool]]
) -> Optional[List[Fraction]]:
    """Fourier-Motzkin: witness for a system of >=0 / >0 forms, or None."""
    if nvars == 0:
        for _form, strict in ineqs:
            if strict:  # empty form evaluates to 0
                return None
        return []
    last = nvars - 1
    keep: List[Tuple[List[Fraction], bool]] = []
    lowers: List[Tuple[List[Fraction], Fraction, bool]] = []
    uppers: List[Tuple[List[Fraction], Fraction, bool]] = []
    for form, strict in ineqs:
        c = form[last]
        rest = form[:last]
        if c == 0:
            keep.append((rest, strict))
        elif c > 0:
            # c*x + rest ? 0  =>  x ? -rest/c   (lower bound)
            lowers.append((rest, c, strict))
        else:
            uppers.append((rest, c, strict))
    combined = list(keep)
    for lrest, lc, lstrict in lowers:
        for urest, uc, ustrict in uppers:
            # eliminate x between c_l*x >= -lrest and c_u*x <= -urest
            form = [lr * (-uc) + ur * lc for lr, ur in zip(lrest, urest)]
            combined.append((form, lstrict or ustrict))
    inner = _fm_solve(last, combined)
    if inner is None:
        return None

    def bound(rest, c):
        return -sum(r * x for r, x in zip(rest, inner)) / c

    low = None  # (value, strict)
    for rest, c, strict in lowers:
        b = bound(rest, c)
        if low is None or b > low[0] or (b == low[0] and strict):
            low = (b, strict)
    up = None
    for rest, c, strict in uppers:
        b = bound(rest, c)
        if up is None or b < up[0] or (b == up[0] and strict):
            up = (b, strict)
    if low is None and up is None:
        x = Fraction(0)
    elif up is None:
        x = low[0] + 1 if low[1] else low[0]
    elif low is None:
        x = up[0] - 1 if up[1] else up[0]
    elif low[0] < up[0]:
        x = (low[0] + up[0]) / 2
    else:
        # FM guarantees low == up with both bounds weak here
        x = low[0]
    return inner + [x]


def implied(
    dim: int,
    equalities: Iterable[Sequence],
    nonneg: Iterable[Sequence],
    positive: Iterable[Sequence],
    form: Sequence,
    strict: bool,
) -> bool:
    """Whether ``form >= 0`` (or > 0 when strict) holds on every solution.

    Decided by infeasibility of the system plus the negated constraint.
    """
    neg = tuple(-x for x in _frac_form(form))
    if strict:
        # negation of (form > 0) is (-form >= 0)
        extra_nonneg, extra_pos = [neg], []
    else:
        extra_nonneg, extra_pos = [], [neg]
    return (
        find_point(
            dim,
            equalities,
            list(nonneg) + extra_nonneg,
            list(positive) + extra_pos,
        )
        is None
    )


def irredundant_strict(
    dim: int,
    equalities: Sequence[Sequence],
    strict: Sequence[Sequence],
) -> List[Sequence]:
    """Prune strict forms implied by the equalities and remaining forms.

    Returns the caller's own forms that are kept, in input order."""
    kept = list(strict)
    for f in strict:
        rest = [g for g in kept if g != f]
        if implied(dim, equalities, (), rest, f, True):
            kept = rest
    return kept
