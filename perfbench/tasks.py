"""Inputs and task lists of the three workloads.

Every input is written here as problem text or drawn from the seed, so a
change to the test corpus or to ``docs/problems`` cannot change a
workload.  A task is built (presentation, generators, weights) before
its timer starts and then makes exactly one public library call; since
each build makes a fresh presentation, no task inherits kernel caches
from an earlier one and every pass does the same work.

The library is always reached through the ``skewgb`` package namespace
at call time, so that the traced run's wrappers see every call.
"""

import random
from fractions import Fraction

import skewgb

# Wall seconds of one pass on the reference machine (see README.md).  A
# run makes round(seconds / NOMINAL_PASS_S) passes, so that the number of
# timed tasks, and with it the tail percentile, depends on --seconds
# only and not on how fast the machine happens to be during the run.
NOMINAL_PASS_S = {"products": 2.6, "charvar": 11.5, "fan": 6.5}


class Task:
    """One timed library call: ``call(build())``.

    ``kind`` selects the canonical text and the output check; ``meta``
    holds what the check needs to recompute the answer on its own.
    """

    __slots__ = ("label", "kind", "build", "call", "meta")

    def __init__(self, label, kind, build, call, meta):
        self.label = label
        self.kind = kind
        self.build = build
        self.call = call
        self.meta = meta


def _weight(P, entries):
    return skewgb.WeightVector.for_ring(P, [Fraction(x) for x in entries])


def _problem(ring, ideal):
    return skewgb.parse_problem(f"ring: {ring}\nideal: {ideal}\n")


# -- products ------------------------------------------------------------
#
# PBW products f*g of 4-term polynomials.  In A_n the kernel's cost is set
# by the y-exponents of f and the x-exponents of g (it normalizes
# y^b x^c), in U(sl2) by the y-exponents of both.  Those exponents come
# from a fixed table (the stride walk in _template), so every seed gives
# the same kernel work; a fully random draw made one pass cost anywhere
# from 2.0 to 3.5 s.  The seed draws every coefficient, the exponents that
# do not drive the cost (x-part of f and y-part of g in A_n) and the task
# order.

PRODUCT_RINGS = (
    # name, presentation factory, number of generators in a block, max exponent, tasks
    ("A2", lambda: skewgb.weyl_presentation(2), 2, 4, 15),
    ("A3", lambda: skewgb.weyl_presentation(3), 3, 3, 15),
    ("sl2", skewgb.sl2_presentation, 3, 3, 14),
)


def _template(slot, nv, emax):
    """Cost-setting exponents of a slot: four distinct vectors per side."""
    base = emax + 1
    size = base ** nv

    def vec(i):
        return tuple((i // base ** j) % base for j in range(nv))

    left = [vec(((4 * slot + t) * 7 + 3) % size) for t in range(4)]
    right = [vec(((4 * slot + t) * 11 + 5) % size) for t in range(4)]
    return left, right


def _coeff(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _free(rng, nv, emax):
    return tuple(rng.randint(0, emax) for _ in range(nv))


def product_tasks(rng):
    tasks = []
    for name, make, nv, emax, count in PRODUCT_RINGS:
        for slot in range(count):
            left, right = _template(slot, nv, emax)
            if name == "sl2":
                fterms = {((), b): _coeff(rng) for b in left}
                gterms = {((), d): _coeff(rng) for d in right}
            else:
                fterms = {(_free(rng, nv, emax), b): _coeff(rng) for b in left}
                gterms = {(c, _free(rng, nv, emax)): _coeff(rng) for c in right}

            def build(make=make, fterms=fterms, gterms=gterms):
                P = make()
                return P, skewgb.SkewPoly(P, fterms), skewgb.SkewPoly(P, gterms)

            tasks.append(
                Task(
                    f"{name}#{slot}",
                    "product",
                    build,
                    lambda inp: skewgb.multiply(*inp),
                    {"ring": name, "n": nv, "f": fterms, "g": gterms},
                )
            )
    return tasks


# -- charvar -------------------------------------------------------------

_A1_WEIGHTS = [
    (1, 1), (1, 2), (1, 5), (5, 1), (3, -1), (-1, 2), (7, -2), (-2, 5), (2, 3), (4, 1),
]
_A2_WEIGHTS_FULL = [
    (1, 1, 1, 1), (1, 1, 1, 3), (1, 2, 3, 1), (2, 2, -1, -1), (3, 1, -1, 2),
    (1, 1, 5, 1), (2, 3, 1, 1), (-1, 2, 3, 1), (1, 1, 2, 2),
]
# ideals whose initial ideal at (1,1,1,1) or (1,1,2,2) is not monomial
_A2_WEIGHTS_GENERIC = [
    (1, 1, 1, 3), (1, 2, 3, 1), (2, 2, -1, -1), (3, 1, -1, 2),
    (1, 1, 5, 1), (2, 3, 1, 1), (-1, 2, 3, 1),
]

# The 14 desk-scale ideals of the shared corpus (128 ideal-weight pairs),
# as text: name, ring, ideal, weights, holonomic.  A holonomic module has
# GK dimension n, which the charvar check asserts.
CORPUS = [
    ("a1_annihilator_poly", "weyl 1", "y1", _A1_WEIGHTS, True),
    ("a1_delta", "weyl 1", "x1", _A1_WEIGHTS, True),
    ("a1_parabola", "weyl 1", "y1^2 - x1", _A1_WEIGHTS, True),
    ("a1_euler", "weyl 1", "x1*y1", _A1_WEIGHTS, True),
    ("a1_exp_shift", "weyl 1", "y1^2 - 1", _A1_WEIGHTS, True),
    ("a1_euler_shift", "weyl 1", "x1*y1 - 1", _A1_WEIGHTS, True),
    ("a2_example_a", "weyl 2", "y1 - 1; y2 - 1", _A2_WEIGHTS_FULL, True),
    ("a2_example_b", "weyl 2", "y1^2 - y2; x1*y1 + 2*x2*y2", _A2_WEIGHTS_GENERIC, True),
    ("a2_polynomials", "weyl 2", "y1; y2", _A2_WEIGHTS_FULL, True),
    ("a2_partial_only", "weyl 2", "y1", _A2_WEIGHTS_FULL, False),
    ("a2_zero", "weyl 2", "", _A2_WEIGHTS_FULL, False),
    ("a2_mixed_plane", "weyl 2", "x1; y1", _A2_WEIGHTS_FULL, True),
    ("a2_parabolic", "weyl 2", "y1^2 - y2", _A2_WEIGHTS_FULL, False),
    ("a2_heat_like", "weyl 2", "y1^2 - x2*y2", _A2_WEIGHTS_GENERIC, False),
]

# name, ring, ideal, weights, holonomic (None: not asserted)
CHARVAR_EXTRA = [
    # the three example problems shipped with the docs
    ("docs_example_a", "weyl 2", "y1 - 1; y2 - 1", [(2, 2, -1, -1)], True),
    ("docs_example_b", "weyl 2", "y1^2 - y2; x1*y1 + 2*x2*y2", [(1, 1, 1, 3)], True),
    ("docs_parabola", "weyl 1", "y1^2 - x1", [(1, 3), (3, 1)], True),
    # GKZ system of A = [[1,1,1],[0,1,2]] with beta = (-1/2, 1/3); A is
    # homogeneous, so the module is holonomic
    (
        "gkz_a3",
        "weyl 3",
        "x1*y1 + x2*y2 + x3*y3 + 1/2; x2*y2 + 2*x3*y3 - 1/3; y1*y3 - y2^2",
        [(0, 0, 0, 1, 1, 1), (1, 1, 1, 1, 1, 1), (-1, 0, 1, 2, 1, 0),
         (0, 1, 2, 1, 1, 1), (1, -1, 0, 0, 2, 1)],
        True,
    ),
    # Bessel-type pair
    (
        "bessel_a2",
        "weyl 2",
        "x1*y1^2 + y1 - x1*y2; y2^2 - y1",
        [(1, 1, 1, 1), (1, 2, 1, 1), (2, 1, -1, 1), (-1, 0, 2, 1), (0, -1, 1, 2), (1, -1, 1, 2)],
        None,
    ),
    # The unit ideal.  (2,1,-1,1) is the Rees-path case that takes about
    # 9 s; the positive weight makes the VACUOUS-PASS rule of the check bite.
    (
        "unit_a2",
        "weyl 2",
        "x1*y1 + x2*y2 - 1; y1*y2 - y1^2 + x1",
        [(1, 1, 1, 1), (1, 2, 1, -1), (2, 1, -1, 1)],
        None,
    ),
]


def charvar_tasks(rng):
    tasks = []
    for name, ring, ideal, weights, holonomic in CORPUS + CHARVAR_EXTRA:
        for w in weights:

            def build(ring=ring, ideal=ideal, w=w):
                p = _problem(ring, ideal)
                return p.ring, p.generators, _weight(p.ring, w)

            tasks.append(
                Task(
                    f"{name}@{','.join(map(str, w))}",
                    "charvar",
                    build,
                    lambda inp: skewgb.verify_component_bound(*inp),
                    {"ideal": name, "weight": w, "holonomic": holonomic},
                )
            )
    return tasks


# -- fan -----------------------------------------------------------------

EXAMPLE_B = "y1^2 - y2; x1*y1 + 2*x2*y2"
PARABOLA = "y1^2 - x1"
THREE_CONE = "y1 + y2 + x1"
A3_IDEAL = "y1^2 - y2; x1*y1 + 2*x2*y2; y3 - x3"
A3_SEED = (1, 1, 2, 3, 7, 5)

FAN_IDEALS = [
    ("weyl 1", PARABOLA, None),
    ("weyl 1", "y1^2 - 1", None),
    ("weyl 1", "y1^3 - x1", None),
    ("weyl 1", "y1^2 - x1^3", None),
    ("weyl 1", "y1 - x1^2", None),
    ("weyl 1", "x1*y1 - 1", None),
    ("weyl 1", "y1", None),
    ("weyl 1", "x1*y1", None),
    ("weyl 1", "y1^2", None),
    ("weyl 1", "x1^2", None),
    ("weyl 2", EXAMPLE_B, None),
    ("weyl 2", THREE_CONE, None),
    ("weyl 2", "y1 + y2 + x1 + x2", None),
    ("weyl 2", "y1*y2 + x1", None),
    ("weyl 2", "y1^2 + x2", None),
    ("weyl 2", "y1 - y2^2", None),
    # Without a seed this fan fails (see README.md); with one it has 12 cones.
    ("weyl 3", A3_IDEAL, A3_SEED),
]
UNIVERSAL_IDEALS = [
    ("weyl 1", PARABOLA),
    ("weyl 1", "y1^2 - 1"),
    ("weyl 2", EXAMPLE_B),
    ("weyl 2", THREE_CONE),
]
WALKS = [
    ("weyl 1", PARABOLA, (1, 3), (3, 1)),
    ("weyl 1", PARABOLA, (-1, 3), (3, -1)),
    ("weyl 2", EXAMPLE_B, (1, 1, 1, 3), (3, 1, 2, 1)),
    ("weyl 2", EXAMPLE_B, (2, 2, -1, 1), (1, 3, 1, -1)),
    ("weyl 2", THREE_CONE, (1, 1, 1, 3), (3, 1, 2, 1)),
    ("weyl 2", THREE_CONE, (2, 1, -1, 1), (-1, 2, 3, 1)),
]
# cone_of at seeded PR weights: ring, ideal and one base weight per task,
# positive and mixed-sign, each in PR(A_n).  The seed draws a positive
# multiple of the base weight, which lies in the same Groebner cone, so
# every seed asks for the same bases at different weights; drawing whole
# weights at random moved fan/task_ms_p50 by 27% between seeds.  The cheap
# A1 tasks also place the median task inside the cluster of A1 fans at
# about 10 ms instead of in the gap above it, where it moved by 10-20%.
CONE_SLOTS = [
    (
        "weyl 1",
        PARABOLA,
        [(1, 3), (3, 1), (2, 5), (-1, 3), (4, -1), (1, 1), (1, 4), (5, 2), (-2, 5), (6, -1)],
    ),
    (
        "weyl 2",
        EXAMPLE_B,
        [(1, 1, 1, 3), (2, 3, 1, 1), (5, 2, 1, 1), (1, 2, 3, 1),
         (3, 1, -1, 2), (-1, 2, 3, 1), (2, 2, -1, 1), (1, 4, 2, -3)],
    ),
    ("weyl 2", THREE_CONE, [(1, 1, 1, 3), (3, 1, 2, 1), (1, 2, 2, 1), (2, -1, 1, 3), (2, 1, -1, 1)]),
    ("weyl 3", A3_IDEAL, [(1, 1, 2, 3, 7, 5), (2, 1, 3, -1, 1, 1)]),
]


def fan_tasks(rng):
    tasks = []

    def add(label, kind, ring, ideal, weights, call, meta=None):
        def build():
            p = _problem(ring, ideal)
            return (p.ring, p.generators) + tuple(_weight(p.ring, w) for w in weights)

        info = {"ring": ring, "ideal": ideal, "weights": weights}
        info.update(meta or {})
        tasks.append(Task(label, kind, build, call, info))

    for ring, ideal, seed in FAN_IDEALS:
        if seed is None:
            add(f"fan {ideal}", "fan", ring, ideal, [], lambda inp: skewgb.enumerate_fan(*inp))
        else:
            add(
                f"fan {ideal} seed={seed}",
                "fan",
                ring,
                ideal,
                [seed],
                lambda inp: skewgb.enumerate_fan(inp[0], inp[1], seed=inp[2]),
            )
    for ring, ideal in UNIVERSAL_IDEALS:
        add(f"universal {ideal}", "universal", ring, ideal, [], lambda inp: skewgb.universal_gb(*inp))
    for ring, ideal, w_from, w_to in WALKS:
        add(
            f"walk {ideal} {w_from}->{w_to}",
            "walk",
            ring,
            ideal,
            [w_from, w_to],
            lambda inp: skewgb.walk(*inp),
        )
    for ring, ideal, bases in CONE_SLOTS:
        for base in bases:
            scale = rng.randint(1, 4)
            w = tuple(scale * x for x in base)
            add(f"cone {ideal} @{w}", "cone", ring, ideal, [w], lambda inp: skewgb.cone_of(*inp))
    return tasks


BUILDERS = {"products": product_tasks, "charvar": charvar_tasks, "fan": fan_tasks}


def make_tasks(workload, seed):
    """The fixed task list of a workload for a seed, in its seeded run order.

    Returns (tasks, order): ``tasks`` in definition order (the order the
    canonical-output hash uses) and ``order``, the permutation in which
    every pass runs them.
    """
    rng = random.Random(f"{workload}:{seed}")
    tasks = BUILDERS[workload](rng)
    order = list(range(len(tasks)))
    rng.shuffle(order)
    return tasks, order


def canonical(task, output):
    """Deterministic text of one output, for the hash and the cross-pass check."""
    if task.kind == "product":
        return str(output)
    if task.kind == "universal":
        return "\n".join(str(g) for g in output)
    if task.kind == "walk":
        return "\n".join(f"[{s.t_lo}, {s.t_hi}]\n{s.cone.to_text()}" for s in output)
    return output.to_text()  # report, fan or cone
