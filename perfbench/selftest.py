"""Show that every output check passes on real outputs and fails on corrupted ones.

Run from the root of a checkout:

    PYTHONPATH=src python3 perfbench/selftest.py

Each case runs a few workload tasks, checks their true outputs (which
must pass), then applies one deliberate corruption and expects the check
to raise ``CheckFailed``.  Exits nonzero if any case misbehaves.
"""

import copy
import sys
from fractions import Fraction

from checks import CheckFailed, check_charvar, check_fan, check_products
from tasks import make_tasks

SEED = 1


def outputs(workload, labels):
    """(task, output) for the tasks whose label starts with one of ``labels``."""
    tasks, _order = make_tasks(workload, SEED)
    picked = [t for t in tasks if any(t.label.startswith(x) for x in labels)]
    return [(t, t.call(t.build())) for t in picked]


def bump_first_coefficient(poly):
    bad = copy.copy(poly)
    bad.terms = dict(poly.terms)
    key = next(iter(bad.terms))
    bad.terms[key] += Fraction(1)
    return bad


def drop_last_term(poly):
    bad = copy.copy(poly)
    bad.terms = dict(poly.terms)
    bad.terms.pop(next(reversed(bad.terms)))
    return bad


def corrupt_report(rep, **fields):
    bad = copy.copy(rep)
    for name, value in fields.items():
        setattr(bad, name, value)
    return bad


def corrupt_cone(cone, **fields):
    bad = copy.copy(cone)
    for name, value in fields.items():
        setattr(bad, name, value)
    return bad


def replace(results, index, output):
    results = list(results)
    results[index] = (results[index][0], output)
    return results


def cases():
    # -- products: Weyl products against Leibniz, sl2 against generator-wise rewriting
    prod = outputs("products", ["A2#7", "A3#2", "sl2#3"])
    yield "products (true outputs)", check_products, prod, False
    yield "products: A2 coefficient changed", check_products, replace(prod, 0, bump_first_coefficient(prod[0][1])), True
    yield "products: A3 term dropped", check_products, replace(prod, 1, drop_last_term(prod[1][1])), True
    yield "products: sl2 coefficient changed", check_products, replace(prod, 2, bump_first_coefficient(prod[2][1])), True

    # -- charvar
    cv = outputs("charvar", ["a2_example_b@", "a2_partial_only@", "gkz_a3@0,0,0", "unit_a2@1,1,1,1", "unit_a2@1,2,1,-1"])
    yield "charvar (true outputs)", check_charvar, cv, False
    i_exb = next(i for i, (t, _r) in enumerate(cv) if t.meta["ideal"] == "a2_example_b")
    rep = cv[i_exb][1]
    comps = [dict(c) for c in rep.components]
    comps[0]["dim"] = 1
    yield "charvar: component dim below n", check_charvar, replace(cv, i_exb, corrupt_report(rep, components=comps)), True
    yield "charvar: a minimal prime dropped", check_charvar, replace(cv, i_exb, corrupt_report(rep, components=rep.components[1:])), True
    yield "charvar: holonomic gkdim != n", check_charvar, replace(cv, i_exb, corrupt_report(rep, gkdim=3)), True
    i_gkz = next(i for i, (t, _r) in enumerate(cv) if t.meta["ideal"] == "gkz_a3")
    yield "charvar: UNSUPPORTED with totalDim < n", check_charvar, replace(cv, i_gkz, corrupt_report(cv[i_gkz][1], total_dim=2)), True
    i_partial = next(
        i for i, (t, _r) in enumerate(cv)
        if t.meta["ideal"] == "a2_partial_only" and all(x > 0 for x in t.meta["weight"])
    )
    yield "charvar: gkdim differs between positive weights", check_charvar, replace(
        cv, i_partial, corrupt_report(cv[i_partial][1], gkdim=2)
    ), True
    i_unit = next(i for i, (t, _r) in enumerate(cv) if t.label == "unit_a2@1,2,1,-1")
    yield "charvar: unit characteristic ideal reported PASS", check_charvar, replace(
        cv, i_unit, corrupt_report(cv[i_unit][1], verdict="PASS")
    ), True
    yield "charvar: finite gkdim at a weight of an ideal that is VACUOUS-PASS at a positive one", check_charvar, replace(
        cv, i_unit, corrupt_report(cv[i_unit][1], gkdim=2)
    ), True

    # -- fan
    fan = outputs("fan", ["fan y1^2 - x1", "fan y1^2 - y2; x1*y1 + 2*x2*y2", "walk y1^2 - y2;", "universal y1^2 - y2;", "cone y1^2 - y2;"])
    yield "fan (true outputs)", check_fan, fan, False
    i_par = next(i for i, (t, _r) in enumerate(fan) if t.label == "fan y1^2 - x1")
    par = fan[i_par][1]
    swapped = copy.copy(par)
    swapped.cones = (
        corrupt_cone(par.cones[0], initial_gens=par.cones[1].initial_gens),
        corrupt_cone(par.cones[1], initial_gens=par.cones[0].initial_gens),
    )
    yield "fan: parabola cones' initial ideals swapped", check_fan, replace(fan, i_par, swapped), True
    doubled = copy.copy(par)
    doubled.cones = tuple(
        corrupt_cone(c, strict=tuple(tuple(2 * x for x in f) for f in c.strict)) for c in par.cones
    )
    yield "fan: parabola wall not given as the form 2v - u", check_fan, replace(fan, i_par, doubled), True
    i_exb = next(i for i, (t, _r) in enumerate(fan) if t.kind == "fan" and t.meta["ring"] == "weyl 2")
    short = copy.copy(fan[i_exb][1])
    short.cones = short.cones[:1]
    yield "fan: example_b fan with one cone left", check_fan, replace(fan, i_exb, short), True
    i_walk = next(i for i, (t, _r) in enumerate(fan) if t.kind == "walk")
    segs = fan[i_walk][1]
    gap = [copy.copy(s) for s in segs]
    gap[0].t_hi = (gap[0].t_lo + gap[0].t_hi) / 2
    yield "fan: walk segments with a gap", check_fan, replace(fan, i_walk, gap), True
    i_ugb = next(i for i, (t, _r) in enumerate(fan) if t.kind == "universal")
    yield "fan: universal basis reduced to its first element", check_fan, replace(fan, i_ugb, fan[i_ugb][1][:1]), True
    i_cone = next(i for i, (t, _r) in enumerate(fan) if t.kind == "cone")
    cone = fan[i_cone][1]
    other = next(c for c in fan[i_exb][1].cones if c.key() != cone.key())
    yield "fan: cone with another cone's initial ideal", check_fan, replace(
        fan, i_cone, corrupt_cone(cone, initial_gens=other.initial_gens)
    ), True
    flipped = tuple(tuple(-x for x in f) for f in cone.strict)
    yield "fan: cone with its strict forms negated", check_fan, replace(fan, i_cone, corrupt_cone(cone, strict=flipped)), True


def main():
    bad = 0
    for name, check, results, should_fail in cases():
        try:
            check(results, SEED) if check is check_fan else check(results)
            failed, why = False, ""
        except CheckFailed as exc:
            failed, why = True, str(exc)
        ok = failed == should_fail
        bad += not ok
        verdict = "rejected" if failed else "accepted"
        print(f"{'ok  ' if ok else 'BAD '} {name}: {verdict}{' (' + why + ')' if why else ''}")
    print(f"{bad} case(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
