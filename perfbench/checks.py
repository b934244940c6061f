"""Output checks made apart from the program.

Each check recomputes what it can by other means (closed-form products,
brute-force minimal primes, the benchmark's own evaluation of cone forms,
sympy for commutative ideal equality) and raises ``CheckFailed`` on the
first disagreement.  The checks run once per run, after the timed passes.
``selftest.py`` shows that each of them fails on a corrupted result.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import skewgb


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _add(acc, key, value):
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


# -- products ------------------------------------------------------------


def weyl_product(n, f, g):
    """f*g in A_n by the Leibniz rule y^b x^c = prod_i sum_j C(b,j) C(c,j) j! x^(c-j) y^(b-j)."""
    out = {}
    for (a, b), kf in f.items():
        for (c, d), kg in g.items():
            partial = {((), ()): kf * kg}
            for i in range(n):
                step = {}
                for (xs, ys), k in partial.items():
                    for j in range(min(b[i], c[i]) + 1):
                        key = (xs + (a[i] + c[i] - j,), ys + (b[i] - j + d[i],))
                        _add(step, key, k * comb(b[i], j) * comb(c[i], j) * factorial(j))
                partial = step
            for key, k in partial.items():
                _add(out, key, k)
    return out


def _sl2_left(i, elem):
    """y_i * elem in U(sl2) on the basis y1^a y2^b y3^c.

    From the brackets y2 y1 = y1 (y2 - 2), y3 y2 = (y2 - 2) y3 and
    y1 y3 - y3 y1 = y2 one gets
    y2 y1^a = y1^a (y2 - 2a) and
    y3 y1^a = y1^a y3 - a y1^(a-1) y2 + a(a-1) y1^(a-1).
    """
    out = {}
    for (a, b, c), k in elem.items():
        if i == 1:
            _add(out, (a + 1, b, c), k)
        elif i == 2:
            _add(out, (a, b + 1, c), k)
            _add(out, (a, b, c), -2 * a * k)
        else:
            for j in range(b + 1):
                _add(out, (a, j, c + 1), k * comb(b, j) * (-2) ** (b - j))
            if a:
                _add(out, (a - 1, b + 1, c), -a * k)
                _add(out, (a - 1, b, c), a * (a - 1) * k)
    return out


def sl2_product(f, g):
    """f*g in U(sl2) by multiplying generators in on the left, one at a time."""
    gg = {b: k for ((), b), k in g.items()}
    out = {}
    for ((), (a, b, c)), kf in f.items():
        elem = {key: kf * k for key, k in gg.items()}
        for gen, times in ((3, c), (2, b), (1, a)):
            for _ in range(times):
                elem = _sl2_left(gen, elem)
        for key, k in elem.items():
            _add(out, key, k)
    return {((), key): k for key, k in out.items()}


def check_products(results):
    for task, out in results:
        meta = task.meta
        if meta["ring"] == "sl2":
            expected = sl2_product(meta["f"], meta["g"])
        else:
            expected = weyl_product(meta["n"], meta["f"], meta["g"])
        _require(out.terms == expected, f"{task.label}: product differs from the closed form")


# -- charvar -------------------------------------------------------------


def minimal_primes(nvars, supports):
    """Minimal variable sets meeting every support, by brute force."""
    if any(not s for s in supports):
        return []  # unit ideal: empty variety
    found = []
    for size in range(nvars + 1):
        for cand in combinations(range(nvars), size):
            cs = set(cand)
            if any(set(p) <= cs for p in found):
                continue
            if all(cs & s for s in supports):
                found.append(cand)
    return [frozenset(p) for p in found]


def check_charvar(results):
    neg_inf = float("-inf")
    by_ideal = {}
    for task, rep in results:
        meta = task.meta
        P = rep.ring
        n = P.n
        nvars = P.m + P.n
        label = task.label
        if rep.char_ideal.is_monomial:
            supports = [
                {i for i, e in enumerate(a + b) if e}
                for h in rep.char_ideal.generators
                for (a, b) in h.terms
            ]
            primes = minimal_primes(nvars, supports)
            if not primes:
                _require(rep.verdict == "VACUOUS-PASS", f"{label}: unit ideal not VACUOUS-PASS")
                _require(not rep.components, f"{label}: unit ideal has components")
            else:
                got = {frozenset(P.var_names.index(v) for v in c["vars"]) for c in rep.components}
                _require(got == set(primes), f"{label}: components are not the minimal primes")
                for comp in rep.components:
                    dim = nvars - len(comp["vars"])
                    _require(
                        comp["dim"] == dim,
                        f"{label}: component {comp['vars']} reported with dim {comp['dim']}, not {dim}",
                    )
                    _require(dim >= n, f"{label}: component {comp['vars']} has dim {dim} < n = {n}")
                _require(rep.verdict == "PASS", f"{label}: verdict {rep.verdict}, expected PASS")
        else:
            _require(rep.verdict == "UNSUPPORTED", f"{label}: verdict {rep.verdict}")
            _require(rep.total_dim >= n, f"{label}: UNSUPPORTED with totalDim {rep.total_dim} < n")
        if meta["holonomic"] and rep.verdict != "VACUOUS-PASS":
            # a nonzero holonomic module has GK dimension n; the zero module
            # (a2_mixed_plane: y1*x1 - x1*y1 = 1) is held to the VACUOUS-PASS rules
            _require(rep.gkdim == n, f"{label}: holonomic module has gkdim {rep.gkdim} != n = {n}")
        by_ideal.setdefault(meta["ideal"], []).append((meta["weight"], rep))
    for ideal, reps in by_ideal.items():
        positive = [rep for w, rep in reps if all(x > 0 for x in w)]
        _require(
            len({rep.gkdim for rep in positive}) <= 1,
            f"{ideal}: gkdim differs between positive weights",
        )
        if any(rep.verdict == "VACUOUS-PASS" for rep in positive):
            for w, rep in reps:
                _require(
                    rep.verdict == "VACUOUS-PASS" and rep.gkdim == neg_inf,
                    f"{ideal}@{w}: VACUOUS-PASS at a positive weight, but {rep.verdict} "
                    f"with gkdim {rep.gkdim} here",
                )


# -- fan -----------------------------------------------------------------


def _pr_weight(rng, n, negative=()):
    """A random integer weight of A_n in PR(A_n) = {u_i + v_i > 0}.

    Coordinates listed in ``negative`` are drawn negative, the others
    positive; small magnitudes keep every basis at desk scale.
    """
    u = [0] * n
    v = [0] * n
    for i in range(n):
        if i in negative:
            u[i] = -rng.randint(1, 3)
            v[i] = rng.randint(1 - u[i], 5 - u[i])
        elif n + i in negative:
            v[i] = -rng.randint(1, 3)
            u[i] = rng.randint(1 - v[i], 5 - v[i])
        else:
            u[i] = rng.randint(1, 6)
            v[i] = rng.randint(1, 6)
    return tuple(u + v)


def _value(form, entries):
    return sum(c * x for c, x in zip(form, entries))


def _inside(cone, entries):
    """The cone's equalities vanish and its strict forms are positive."""
    return all(_value(f, entries) == 0 for f in cone.equalities) and all(
        _value(f, entries) > 0 for f in cone.strict
    )


def _on_wall(cones, entries):
    return any(_value(f, entries) == 0 for c in cones for f in c.strict)


def _texts(polys):
    return [str(h) for h in polys]


def _initial_form(g, entries):
    deg = {key: _value(entries, key[0] + key[1]) for key in g.terms}
    top = max(deg.values())
    return {key: c for key, c in g.terms.items() if deg[key] == top}


def _sympy_ideal(P, polys):
    import sympy

    names = P.var_names
    syms = sympy.symbols(names)
    exprs = []
    for terms in polys:
        expr = 0
        for (a, b), c in terms.items():
            mono = sympy.Rational(c.numerator, c.denominator)
            for s, e in zip(syms, a + b):
                mono *= s ** e
            expr += mono
        exprs.append(sympy.expand(expr))
    return sympy.groebner(exprs, *syms, order="grevlex", domain="QQ"), exprs


def _same_ideal(P, polys_a, polys_b):
    ga, ea = _sympy_ideal(P, polys_a)
    gb, eb = _sympy_ideal(P, polys_b)
    return all(gb.contains(e) for e in ea) and all(ga.contains(e) for e in eb)


def _sample_off_walls(rng, n, cones, tries=100):
    for _ in range(tries):
        negative = rng.choice([(), (), (rng.randrange(2 * n),)])
        w = _pr_weight(rng, n, negative)
        if not _on_wall(cones, w):
            return w
    raise CheckFailed("could not draw a PR weight off the walls")


FAN_SAMPLES = 2  # seeded PR weights checked per fan and per universal basis


def check_fan(results, seed):
    """Fan outputs, with FAN_SAMPLES seeded PR weights per fan and universal basis."""
    rng = random.Random(f"fan-check:{seed}")
    for task, out in results:
        meta = task.meta
        label = task.label
        kind = task.kind
        p = skewgb.parse_problem(f"ring: {meta['ring']}\nideal: {meta['ideal']}\n")
        P, gens = p.ring, p.generators
        n = P.n
        if kind == "fan":
            _require(out.complete, f"{label}: fan is partial")
            _require(all(c.is_maximal() for c in out.cones), f"{label}: non-maximal cone")
            for _ in range(FAN_SAMPLES):
                w = _sample_off_walls(rng, n, out.cones)
                owners = [c for c in out.cones if _inside(c, w)]
                _require(len(owners) == 1, f"{label}: {w} lies in {len(owners)} cones")
                wv = skewgb.WeightVector.for_ring(P, [Fraction(x) for x in w])
                init = skewgb.initial_ideal_weight(P, gens, wv)
                _require(
                    _texts(owners[0].initial_gens) == _texts(init),
                    f"{label}: cone at {w} has initial ideal {_texts(owners[0].initial_gens)}, "
                    f"initial_ideal_weight gives {_texts(init)}",
                )
            if meta["ideal"] == "y1^2 - x1":
                ideals = sorted(tuple(_texts(c.initial_gens)) for c in out.cones)
                _require(ideals == [("x1",), ("y1^2",)], f"{label}: cones {ideals}")
                for c in out.cones:
                    # the wall 2v = u, i.e. the form -u + 2v up to sign
                    _require(
                        {(-1, 2), (1, -2)} & {tuple(int(x) for x in f) for f in c.strict},
                        f"{label}: cone {c.initial_gens} lacks the wall 2v = u",
                    )
        elif kind == "walk":
            _require(out and out[0].t_lo == 0 and out[-1].t_hi == 1, f"{label}: does not cover [0, 1]")
            for s, t in zip(out, out[1:]):
                _require(s.t_hi == t.t_lo, f"{label}: gap between {s.t_hi} and {t.t_lo}")
            w_from, w_to = meta["weights"]
            for s in out:
                _require(s.t_lo < s.t_hi, f"{label}: empty segment at {s.t_lo}")
                t = (s.t_lo + s.t_hi) / 2
                mid = [(1 - t) * Fraction(a) + t * Fraction(b) for a, b in zip(w_from, w_to)]
                _require(_inside(s.cone, mid), f"{label}: midpoint t={t} is not in its cone")
        elif kind == "universal":
            _require(out, f"{label}: empty universal basis")
            for _ in range(FAN_SAMPLES):
                w = _pr_weight(rng, n, rng.choice([(), (rng.randrange(2 * n),)]))
                wv = skewgb.WeightVector.for_ring(P, [Fraction(x) for x in w])
                init = skewgb.initial_ideal_weight(P, gens, wv)
                forms = [_initial_form(g, w) for g in out]
                _require(
                    _same_ideal(P, forms, [h.terms for h in init]),
                    f"{label}: initial forms at {w} do not generate the initial ideal",
                )
        elif kind == "cone":
            (w,) = meta["weights"]
            _require(_inside(out, w), f"{label}: cone does not contain its weight")
            forms = [_initial_form(g, w) for g in out.basis]
            _require(
                _same_ideal(P, forms, [h.terms for h in out.initial_gens]),
                f"{label}: initial forms of the marked basis do not generate the initial ideal",
            )
        else:
            raise CheckFailed(f"{label}: unknown task kind {kind!r}")


def run_checks(workload, results, seed):
    """Check the outputs of one pass; ``results`` is a list of (task, output)."""
    if workload == "products":
        check_products(results)
    elif workload == "charvar":
        check_charvar(results)
    else:
        check_fan(results, seed)
