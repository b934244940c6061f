"""Benchmark of skewgb: one workload per call, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload charvar --seed 1 --seconds 20 --trace 0

Workloads are ``products``, ``charvar`` and ``fan`` (see README.md).  The
workload runs in a fresh process of its own, one task at a time, with
this tree's ``src`` first on PYTHONPATH and the SKEWGB_* settings removed.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; ``setup_s`` is the median over cold starts made
before and after the workload.  With ``--trace 1`` it holds the per-layer
metrics of a traced run, and the span file is written under
``perfbench/out``.  The exit code
is 0 when the workload ran, whatever its checks said (``correct`` says
that), and nonzero without a result when it could not run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("products", "charvar", "fan")
# Set-up-only starts made before and again after the workload process; the
# median over both groups and the workload's own start is setup_s.  Start
# times swing by half within seconds here, so the samples are spread out.
COLD_STARTS = 8
CHILD_TIMEOUT_S = 170
DROPPED_ENV = ("SKEWGB_MAX_PAIRS", "SKEWGB_MAX_STEPS", "SKEWGB_PURE_PYTHON")
UNITS = {
    "tasks_per_s": "1/s",
    "task_ms_p50": "ms",
    "task_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_calls"):
        return "count"
    return "ratio"


def child_env(src):
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV}
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + rest if rest else "")
    return env


def start_child(cmd, env):
    """Run a workload process; returns (seconds until READY, later stdout lines).

    The process is always waited for, and killed first if it overruns.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"workload process failed (exit {proc.returncode})")
    return ready, rest.splitlines()


def cold_start(cmd, env):
    """Seconds from spawning a setup-only workload process until it is ready."""
    return start_child(cmd + ["--setup-only"], env)[0]


def run_workload(cmd, env):
    """Run the workload; returns (set-up seconds, information lines, result dict)."""
    setup, lines = start_child(cmd, env)
    if not lines:
        raise RuntimeError("workload process printed no result")
    return setup, lines[:-1], json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="skewgb benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "skewgb", "__init__.py")):
        print("perfbench: src/skewgb not found; run from the root of a skewgb checkout", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    env = child_env(src)
    cmd = [
        sys.executable,
        os.path.join(here, "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        setups = []
        if not args.trace:
            cold_start(cmd, env)  # first start writes bytecode caches; not counted
            setups = [cold_start(cmd, env) for _ in range(COLD_STARTS)]
        else:
            cmd += ["--out", os.path.join(here, "out")]
        setup, lines, result = run_workload(cmd, env)
        if not args.trace:
            setups += [cold_start(cmd, env) for _ in range(COLD_STARTS)]
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for line in lines:
        print(line)
    info = result.pop("info")
    metrics = result["metrics"]
    if not args.trace:
        setups.append(setup)
        metrics["setup_s"] = statistics.median(setups)
        info["setup_samples"] = len(setups)
    print("info: " + json.dumps(info, sort_keys=True))
    print(f"{args.workload}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    out = {}
    for name, value in metrics.items():
        unit = UNITS.get(name) or layer_unit(name)
        print(f"  {name} = {value:.6g} {unit}")
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
