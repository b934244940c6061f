"""Command-line front end.

Subcommands: gb, charvar, fan, walk, pr, gkdim, universal, verify.
Problem files use the stanza format documented in docs/format.md.
Exit codes: 0 success, 2 parse error (a missing weight included), 3
region error, 4 budget exceeded, 1 anything else.  The SKEWGB_MAX_PAIRS /
SKEWGB_MAX_STEPS environment variables are the only way to override the
completion budgets.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .charvar import gk_dim, verify_component_bound
from .errors import BudgetExceeded, ParseError, RegionError, SkewGbError
from .fan import _MAX_CONES, enumerate_fan, universal_gb, walk
from .groebner import buchberger, groebner_wrt_weight
from .orders import KINDS, MonomialOrder
from .parsing import Problem, parse_problem_file, parse_weight
from .weights import WeightVector, pr_halfspaces

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_REGION = 3
EXIT_BUDGET = 4


def _weight_flag(problem: Problem, text: Optional[str]) -> Optional[WeightVector]:
    if text is None:
        return problem.weights[0] if problem.weights else None
    return parse_weight(problem.ring, text)


def _emit(args, payload: dict, text: str):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_gb(args) -> int:
    problem = parse_problem_file(args.file)
    kind = args.order or problem.order_kind
    w = _weight_flag(problem, args.weight)
    if w is None:
        elements = buchberger(problem.ring, problem.generators, MonomialOrder(kind))
    else:
        elements = groebner_wrt_weight(problem.ring, problem.generators, w, kind=kind)
    lines = [str(g) for g in elements]
    _emit(args, {"basis": lines}, "\n".join(lines) if lines else "<0>")
    return EXIT_OK


def cmd_charvar(args) -> int:
    problem = parse_problem_file(args.file)
    w = _weight_flag(problem, args.weight)
    if w is None:
        raise ParseError("charvar requires a weight (file stanza or --weight)")
    report = verify_component_bound(
        problem.ring, problem.generators, w, bound=args.bound
    )
    _emit(args, report.to_dict(), report.to_text())
    return EXIT_OK


def cmd_fan(args) -> int:
    problem = parse_problem_file(args.file)
    seed = None if args.seed is None else parse_weight(problem.ring, args.seed)
    fan = enumerate_fan(problem.ring, problem.generators, seed=seed, max_cones=args.max_cones)
    payload = {
        "complete": fan.complete,
        "cones": [
            {
                "initialIdeal": [str(h) for h in cone.initial_gens],
                "strict": [[str(c) for c in form] for form in cone.strict],
            }
            for cone in fan.cones
        ],
    }
    _emit(args, payload, fan.to_text())
    return EXIT_OK


def cmd_walk(args) -> int:
    problem = parse_problem_file(args.file)
    if (args.from_weight is None) != (args.to_weight is None):
        raise ParseError("walk takes --from and --to together")
    if args.from_weight is not None:
        w_from = _weight_flag(problem, args.from_weight)
        w_to = _weight_flag(problem, args.to_weight)
    elif len(problem.weights) >= 2:
        w_from, w_to = problem.weights[0], problem.weights[1]
    else:
        raise ParseError("walk requires --from/--to or two weight stanzas")
    segments = walk(problem.ring, problem.generators, w_from, w_to)
    lines = []
    payload = []
    for seg in segments:
        init = ", ".join(str(h) for h in seg.cone.initial_gens)
        lines.append(f"[{seg.t_lo}, {seg.t_hi}] initial ideal: {init}")
        payload.append(
            {
                "from": str(seg.t_lo),
                "to": str(seg.t_hi),
                "initialIdeal": [str(h) for h in seg.cone.initial_gens],
            }
        )
    _emit(args, {"segments": payload}, "\n".join(lines))
    return EXIT_OK


def cmd_pr(args) -> int:
    problem = parse_problem_file(args.file)
    hs = pr_halfspaces(problem.ring)
    payload = {"halfspaces": [[str(c) for c in form] for form in hs.strict]}
    _emit(args, payload, hs.to_text())
    return EXIT_OK


def cmd_gkdim(args) -> int:
    problem = parse_problem_file(args.file)
    w = _weight_flag(problem, args.weight)
    if w is None:
        raise ParseError("gkdim requires a weight (file stanza or --weight)")
    value = gk_dim(problem.ring, problem.generators, w)
    text = "-inf" if value == float("-inf") else str(value)
    _emit(args, {"gkdim": None if text == "-inf" else value}, text)
    return EXIT_OK


def cmd_universal(args) -> int:
    problem = parse_problem_file(args.file)
    basis = universal_gb(problem.ring, problem.generators)
    lines = [str(g) for g in basis]
    _emit(args, {"basis": lines}, "\n".join(lines) if lines else "<0>")
    return EXIT_OK


def cmd_verify(args) -> int:
    failures = 0
    for name in sorted(os.listdir(args.corpus)):
        if not name.endswith(".txt"):
            continue
        path = os.path.join(args.corpus, name)
        problem = parse_problem_file(path)
        if not problem.weights:
            print(f"{name}: SKIP (no weight)")
            continue
        for w in problem.weights:
            report = verify_component_bound(problem.ring, problem.generators, w)
            ok = report.verdict in ("PASS", "VACUOUS-PASS")
            failures += 0 if ok else 1
            print(f"{name} @ {w}: {report.verdict}")
    return EXIT_OK if failures == 0 else EXIT_ERROR


def _attach_negative_weights(argv: List[str]) -> List[str]:
    """Join a weight option to a following value that starts with a minus
    sign (``--seed -1,-1`` becomes ``--seed=-1,-1``), which argparse would
    otherwise read as an option of its own."""
    out: List[str] = []
    for arg in argv:
        weight_option = out and out[-1] in ("--weight", "--seed", "--from", "--to")
        if weight_option and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewgb",
        description="Groebner machinery for almost centralizing extensions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name)
        p.add_argument("file", help="problem file")
        p.add_argument("--json", action="store_true", help="structured output")
        p.set_defaults(fn=fn)
        return p

    p = add("gb", cmd_gb)
    p.add_argument("--order", choices=KINDS, default=None)
    p.add_argument("--weight", default=None, help="comma-separated rational weights")

    p = add("charvar", cmd_charvar)
    p.add_argument("--weight", default=None)
    p.add_argument("--bound", type=int, default=None)

    p = add("fan", cmd_fan)
    p.add_argument("--max-cones", type=int, default=_MAX_CONES)
    p.add_argument("--seed", default=None, help="comma-separated generic start weight")

    p = add("walk", cmd_walk)
    p.add_argument("--from", dest="from_weight", default=None)
    p.add_argument("--to", dest="to_weight", default=None)

    add("pr", cmd_pr)

    p = add("gkdim", cmd_gkdim)
    p.add_argument("--weight", default=None)

    add("universal", cmd_universal)

    p = sub.add_parser("verify")
    p.add_argument("--corpus", required=True, help="directory of problem files")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_negative_weights(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RegionError as exc:
        print(f"region error: {exc}", file=sys.stderr)
        return EXIT_REGION
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SkewGbError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
