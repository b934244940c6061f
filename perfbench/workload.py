"""One workload in its own process: set up, run whole passes, check, report.

Started by ``run.py``; not meant to be run by hand.  Prints ``READY`` once
the first task is ready (the end of set-up), then information lines, then
one JSON line with the workload's figures.  With ``--setup-only`` it stops
after ``READY``.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

PER_LAYER_NAMES = (
    "kernel.self_s",
    "kernel.multiply_calls",
    "kernel.lmul_mono_calls",
    "kernel.normalize_word_calls",
    "orders.self_s",
    "orders.key_calls",
    "groebner.self_s",
    "groebner.buchberger_calls",
    "groebner.normal_form_calls",
    "groebner.normal_form_zero_share",
    "groebner.weight_gb_calls",
    "groebner.buchberger_per_weight_gb",
    "rees.self_s",
    "rees.presentation_calls",
    "charvar.self_s",
    "charvar.report_calls",
    "charvar.weight_gb_per_report",
    "fan.self_s",
    "fan.cone_of_calls",
    "fan.epsilon_calls",
    "fan.buchberger_per_cone",
    "polyhedra.self_s",
    "polyhedra.find_point_calls",
    "polyhedra.forms_per_find_point",
    "weights.self_s",
    "weights.pr_halfspaces_calls",
    "ring.self_s",
    "parsing.self_s",
    "trace.untraced_pass_s",
    "trace.traced_pass_s",
    "trace.overhead_share",
)


def _say(text):
    print(text, flush=True)


def _tail(samples):
    """The highest nearest-rank percentile with at least ten samples above it."""
    ordered = sorted(samples)
    rank = max(1, len(ordered) - 10)  # 1-based; ten samples lie above it
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _ratio(num, den):
    return num / den if den else 0.0


def run_pass(tasks, order, inputs):
    """Run every task once, timing each call; returns (wall, times, outputs, errors)."""
    outputs = [None] * len(order)
    times = []
    errors = []
    perf = time.perf_counter
    start = perf()
    for k, i in enumerate(order):
        t0 = perf()
        try:
            out = tasks[i].call(inputs[k])
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append((tasks[i].label, f"{type(exc).__name__}: {exc}"))
            continue
        times.append(perf() - t0)
        outputs[k] = out
    return perf() - start, times, outputs, errors


def layer_metrics(tracer, lo, hi, passes, setup_hi):
    self_s, calls = tracer.summary(lo, hi)
    setup_self, _ = tracer.summary(0, setup_hi)

    def per_pass(x):
        return x / passes

    def n(name):
        return calls.get(name, 0)

    report = n("charvar.verify_component_bound")
    weight_gb = n("groebner.groebner_wrt_weight")
    cones = n("fan.cone_of")
    find_point = n("polyhedra.find_point")
    normal_form = n("groebner.normal_form")
    under = tracer.count_under
    values = {
        "kernel.multiply_calls": n("kernel.MulKernel.multiply"),
        "kernel.lmul_mono_calls": n("kernel.MulKernel.lmul_mono"),
        "kernel.normalize_word_calls": n("kernel.MulKernel.normalize_word"),
        "orders.key_calls": n("orders.MonomialOrder.key"),
        "groebner.buchberger_calls": n("groebner.buchberger"),
        "groebner.normal_form_calls": normal_form,
        "groebner.weight_gb_calls": weight_gb,
        "rees.presentation_calls": n("rees.rees_presentation"),
        "charvar.report_calls": report,
        "fan.cone_of_calls": cones,
        "fan.epsilon_calls": n("fan.epsilon_threshold"),
        "polyhedra.find_point_calls": find_point,
        "weights.pr_halfspaces_calls": n("weights.pr_halfspaces"),
    }
    out = {name: per_pass(v) for name, v in values.items()}
    for layer in ("kernel", "orders", "groebner", "rees", "charvar", "fan", "polyhedra", "weights", "ring"):
        out[f"{layer}.self_s"] = per_pass(self_s.get(layer, 0.0))
    out["parsing.self_s"] = setup_self.get("parsing", 0.0)
    out["groebner.normal_form_zero_share"] = _ratio(tracer.normal_form_zero, normal_form)
    out["groebner.buchberger_per_weight_gb"] = _ratio(
        under(lo, hi, "groebner.buchberger", "groebner.groebner_wrt_weight", direct=True), weight_gb
    )
    out["charvar.weight_gb_per_report"] = _ratio(
        under(lo, hi, "groebner.groebner_wrt_weight", "charvar.verify_component_bound"), report
    )
    out["fan.buchberger_per_cone"] = _ratio(under(lo, hi, "groebner.buchberger", "fan.cone_of"), cones)
    out["polyhedra.forms_per_find_point"] = _ratio(tracer.find_point_forms, find_point)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", default=None, help="directory for the span file of a traced run")
    args = ap.parse_args(argv)

    import skewgb

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(skewgb.__file__).startswith(src + os.sep):
        print(f"skewgb imported from {skewgb.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    from tasks import NOMINAL_PASS_S, canonical, make_tasks

    tasks, order = make_tasks(args.workload, args.seed)
    inputs = [tasks[i].build() for i in order]
    _say("READY")
    if args.setup_only:
        return 0

    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    if tracer is not None:
        setup_hi = tracer.mark()
        tracer.uninstall()
        untraced = traced = max(1, passes // 2)
    else:
        untraced, traced = passes, 0

    walls, samples, errors, mismatches = [], [], [], []
    traced_walls = []
    first = None
    lo = None
    for p in range(untraced + traced):
        tracing = p >= untraced
        if p:
            inputs = [tasks[i].build() for i in order]
        gc.collect()
        if tracing:
            tracer.install()
            lo = tracer.mark() if lo is None else lo
        wall, times, outputs, errs = run_pass(tasks, order, inputs)
        if tracing:
            tracer.uninstall()
            traced_walls.append(wall)
        else:
            walls.append(wall)
            samples.extend(times)
        errors.extend(errs)
        texts = {
            i: canonical(tasks[i], out) for i, out in zip(order, outputs) if out is not None
        }
        if first is None:
            first = (texts, {i: out for i, out in zip(order, outputs)})
        elif texts != first[0]:
            mismatches.append(p + 1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(tasks) * (untraced + traced)
    failed = len(errors)
    correct = not mismatches
    for label, message in errors:
        _say(f"failed: {label}: {message}")
    if mismatches:
        _say(f"CHECK FAILED: the outputs of passes {mismatches} differ from pass 1")

    texts, outputs = first
    digest = hashlib.sha256()
    for i, task in enumerate(tasks):
        digest.update(f"{task.label}\n{texts.get(i, '<failed>')}\n\0".encode())
    from checks import CheckFailed, run_checks

    check_start = time.perf_counter()
    try:
        done = [(t, outputs[i]) for i, t in enumerate(tasks) if outputs[i] is not None]
        run_checks(args.workload, done, args.seed)
        check_note = "all checks passed"
    except CheckFailed as exc:
        correct = False
        check_note = f"CHECK FAILED: {exc}"
    _say(f"checks: {check_note} ({time.perf_counter() - check_start:.1f} s)")
    _say(f"sha256 of canonical outputs: {digest.hexdigest()}")

    result = {"attempted": attempted, "failed": failed, "correct": correct}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": skewgb.BACKEND,
        "python": sys.version.split()[0],
        "tasks_per_pass": len(tasks),
        "passes": untraced + traced,
    }
    if tracer is None:
        tail, level = _tail(samples)
        result["metrics"] = {
            "tasks_per_s": len(samples) / sum(walls),
            "task_ms_p50": statistics.median(samples) * 1000.0,
            "task_ms_tail": tail * 1000.0,
            "peak_rss_mb": peak_rss_mb,
        }
        info.update(
            timed_tasks=len(samples),
            tail_percentile=round(level, 2),
            pass_walls_s=[round(w, 3) for w in walls],
        )
    else:
        hi = tracer.mark()
        metrics = layer_metrics(tracer, lo, hi, traced, setup_hi)
        base = statistics.median(walls)
        metrics["trace.untraced_pass_s"] = base
        metrics["trace.traced_pass_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_share"] = metrics["trace.traced_pass_s"] / base - 1.0
        result["metrics"] = {name: metrics[name] for name in PER_LAYER_NAMES}
        info.update(untraced_passes=untraced, traced_passes=traced, spans=hi - lo)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"trace-{args.workload}-seed{args.seed}.tsv.gz")
            tracer.write(path)
            info["span_file"] = path
    result["info"] = info
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
