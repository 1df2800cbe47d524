"""riskgap benchmark: closed-loop workloads over the certify, exact-oracle
and validation paths.

Run from the root of a riskgap checkout::

    python3 perfbench/run.py --workload certify_deep --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run; ``--trace 1``
reports per-layer metrics from a traced run, plus the tracing overhead
against an untraced run of the same length.  Each measurement runs in a
fresh child process (``worker.py``), so peak memory belongs to that
workload alone.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("certify_deep", "exact_deep", "concentration")
SETUP_PROBES = 4        # extra fresh processes that only set up; median of 5
DEADLINE_S = 170.0      # the whole run, children included, ends before this
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# per-layer metrics: (span name, field, unit); fields ending in _s and the
# work counts are per op, "atoms"/"importance_bound" are means per call
LAYER_METRICS = [
    ("estimation.rollout_returns", "busy_s", "s/op"),
    ("estimation.rollout_returns", "calls", "count/op"),
    ("estimation.rollout_returns", "particle_steps", "count/op"),
    ("estimation.rollout_returns", "particle_steps_per_s", "1/s"),
    ("estimation.certify_uniform", "self_s", "s/op"),
    ("estimation.certify_uniform", "calls", "count/op"),
    ("estimation.certify_tight_lower", "self_s", "s/op"),
    ("estimation.certify_tight_lower", "calls", "count/op"),
    ("estimation.certify_tight_lower", "draws", "count/op"),
    ("risk.cvar_estimate_sorted", "busy_s", "s/op"),
    ("risk.cvar_estimate_sorted", "calls", "count/op"),
    ("risk.cvar_estimate_sorted", "samples", "count/op"),
    ("pomdp.tv_distance", "busy_s", "s/op"),
    ("pomdp.tv_distance", "calls", "count/op"),
    ("estimation.estimate_epsilon", "self_s", "s/op"),
    ("estimation.estimate_epsilon", "calls", "count/op"),
    ("estimation.estimate_g", "self_s", "s/op"),
    ("estimation.estimate_g", "calls", "count/op"),
    ("estimation.build_default_proposal", "busy_s", "s/op"),
    ("estimation.build_default_proposal", "calls", "count/op"),
    ("estimation.build_default_proposal", "atoms", "count"),
    ("estimation.build_default_proposal", "importance_bound", "ratio"),
    ("pomdp.enumerate_return_distribution", "busy_s", "s/op"),
    ("pomdp.enumerate_return_distribution", "calls", "count/op"),
    ("pomdp.enumerate_return_distribution", "atoms", "count"),
    ("pomdp.enumerate_trajectory_expectations", "busy_s", "s/op"),
    ("pomdp.enumerate_trajectory_expectations", "calls", "count/op"),
    ("value_bounds.bound_report", "self_s", "s/op"),
    ("value_bounds.bound_report", "calls", "count/op"),
    ("value_bounds.q_exact", "self_s", "s/op"),
    ("value_bounds.q_exact", "calls", "count/op"),
    ("risk.cvar_exact", "busy_s", "s/op"),
    ("envelopes.dominated_cdf", "busy_s", "s/op"),
    ("cli.cmd_certify", "self_s", "s/op"),
    ("cli.cmd_enumerate", "self_s", "s/op"),
    ("cli.cmd_concentration", "self_s", "s/op"),
    ("cli.render_report", "busy_s", "s/op"),
    ("cli.cmd_concentration", "overlap", "ratio"),
]
PER_CALL = ("atoms", "importance_bound")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--max-ops", type=int, default=0,
                   help="cap on ops per measured child (smoke runs)")
    return p.parse_args(argv)


class ChildError(RuntimeError):
    pass


def run_child(args, extra, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError("out of time before starting a child")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env={**os.environ, **PINNED_ENV}, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildError(f"child timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"child exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_info(child: dict) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": child.get("python"), "numpy": child.get("numpy"),
            "pinned_env": PINNED_ENV}


def tail_percentile(times):
    """Highest whole percentile with at least 10 ops beyond it, or None."""
    n = len(times)
    for pct in range(99, 0, -1):
        rank = -(-pct * n // 100)            # ceil(pct * n / 100), 1-based
        if n - rank >= 10:
            return pct, sorted(times)[rank - 1]
    return None


def end_to_end(child: dict, setups) -> dict:
    return {
        "ops_per_s": (child["ops"] / child["wall_s"], "1/s"),
        "op_s_p50": (statistics.median(child["op_s"]), "s"),
        "peak_rss_mb": (child["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(traced: dict, plain: dict) -> dict:
    layers, ops = traced["layers"], traced["ops"]
    metrics = {}
    for span, field, unit in LAYER_METRICS:
        row = layers.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                "child_busy_s": 0.0, "counts": {}})
        if field == "particle_steps_per_s":
            steps = row["counts"].get("particle_steps", 0)
            value = steps / row["busy_s"] if row["busy_s"] else 0.0
        elif field == "overlap":
            value = row["child_busy_s"] / row["busy_s"] if row["busy_s"] else 0.0
        elif field in PER_CALL:
            value = row["counts"].get(field, 0) / row["calls"] if row["calls"] else 0.0
        elif field in ("calls", "busy_s", "self_s"):
            value = row[field] / ops
        else:
            value = row["counts"].get(field, 0) / ops
        metrics[f"{span}.{field}"] = (value, unit)
    overhead = (plain["ops"] / plain["wall_s"]) / (traced["ops"] / traced["wall_s"])
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def print_layer_table(workload: str, traced: dict) -> None:
    layers = traced["layers"]
    op_time = layers["op"]["busy_s"]
    print(f"\nlayer shares of op time, {workload}, {traced['ops']} traced ops "
          f"({op_time:.3f} s; self-time shares can sum past 100 % when "
          "threads overlap)")
    modules = {}
    for name, row in layers.items():
        module = "benchmark" if name == "op" else name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + row["self_s"]
    for module, self_s in sorted(modules.items(), key=lambda kv: -kv[1]):
        print(f"  {module:<14} self {100 * self_s / op_time:6.1f} %")
    print(f"  {'span':<42} {'calls/op':>9} {'busy %':>7} {'self %':>7}")
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["busy_s"]):
        print(f"  {name:<42} {row['calls'] / traced['ops']:9.1f} "
              f"{100 * row['busy_s'] / op_time:7.1f} "
              f"{100 * row['self_s'] / op_time:7.1f}")
    gm = traced["gap_matrix"]
    if gm["estimator_calls"]:
        print(f"  gap matrix builds per op: {gm['estimator_calls'] / traced['ops']:.1f}"
              f" ({gm['tv_calls'] / gm['estimator_calls']:.0f} tv_distance calls each)")


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (Path.cwd() / "src" / "riskgap" / "__init__.py").is_file():
        print("error: run from the root of a riskgap checkout (no src/riskgap)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    (HERE / "out").mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    limit = ["--max-ops", str(args.max_ops)] if args.max_ops else []
    try:
        if args.trace == 0:
            setups = [run_child(args, ["--setup-only"], deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            child = run_child(args, ["--seconds", str(args.seconds), *limit],
                              deadline)
            setups.append(child["setup_s"])
            metrics = end_to_end(child, setups)
            runs = {"untraced": child}
        else:
            half = ["--seconds", str(args.seconds / 2), *limit]
            plain = run_child(args, half, deadline)
            child = run_child(args, [*half, "--trace", "1", "--spans",
                                     str(HERE / "out" / f"{stem}-spans.jsonl")],
                              deadline)
            metrics = per_layer(child, plain)
            runs = {"untraced": plain, "traced": child}
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = [p for run in runs.values() for p in run["problems"]]
    # the same op index gets the same inputs in every child of a run, so
    # tracing must not change a single byte of the reports
    if args.trace:
        pairs = zip(runs["untraced"]["op_digests"], runs["traced"]["op_digests"])
        problems += [f"op {i}: traced report differs from untraced"
                     for i, (a, b) in enumerate(pairs) if a and b and a != b]
    attempted = sum(run["ops"] for run in runs.values())
    failed = sum(run["failed"] for run in runs.values())

    info = machine_info(child)
    print(f"riskgap benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    for label, run in runs.items():
        print(f"{label}: {run['ops']} ops in {run['wall_s']:.3f} s, "
              f"{run['failed']} failed, report digest {run['digest']}")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print(f"failed_ops_frac: {failed / attempted:.4f} ({failed} of {attempted})")
    tail = tail_percentile(runs["untraced"]["op_s"])
    print("op_s_tail: " + (f"p{tail[0]} = {tail[1]:.4f} s" if tail else
                           f"none ({len(runs['untraced']['op_s'])} ops leave no "
                           "percentile with 10 ops beyond it)"))
    if args.trace:
        print_layer_table(args.workload, child)
    for name, (value, unit) in metrics.items():
        print(f"{name:<56} {value:>16.6g} {unit}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "problems": problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "runs": {k: {f: r[f] for f in ("ops", "failed", "wall_s", "op_s",
                                              "digest", "op_digests", "peak_rss_mb")}
                       for k, r in runs.items()}}
    (HERE / "out" / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
