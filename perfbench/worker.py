"""One fresh benchmark process: set up a workload, then run its closed loop.

Started by ``run.py`` from the root of a riskgap checkout; prints one JSON
object on its last stdout line.  With ``--setup-only`` it stops after the
set-up, which is how ``run.py`` samples set-up time in fresh processes.
"""

import time

T0 = time.perf_counter()  # set-up is timed from before riskgap/NumPy import

import os  # noqa: E402

# one BLAS thread per process, so `--workers 2` stays within 2 CPUs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-ops", type=int, default=0,
                   help="stop after this many ops (0: run for --seconds)")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", metavar="PATH",
                   help="write the traced run's spans here as JSON lines")
    return p.parse_args(argv)


def import_package():
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import riskgap
    if Path(riskgap.__file__).resolve().parent != (src / "riskgap").resolve():
        raise RuntimeError(f"riskgap imported from {riskgap.__file__}, not {src}")


def closed_loop(work, run_op, seconds, min_ops, max_ops, tracer):
    """Issue ops one after another until the next one would overrun."""
    times, outputs, errors = [], [], []
    start = time.perf_counter()
    i = 0
    while not (max_ops and i >= max_ops):
        if i >= min_ops and (time.perf_counter() - start
                             + statistics.median(times) > seconds):
            break
        argv = work.argv(i)
        t = time.perf_counter()
        try:
            out = tracer.op(i, run_op, argv) if tracer else run_op(argv)
        except Exception:  # an op that raises counts as failed; the loop goes on
            out = None
            errors.append((i, traceback.format_exc(limit=3)))
        times.append(time.perf_counter() - t)
        outputs.append((i, argv, out))
        i += 1
    return times, outputs, errors, time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import numpy
    import workloads
    import tracer as tracing

    # a relative, seed-determined path: reports echo the problem path, and
    # the report digest must not depend on the process or checkout location
    workdir = Path(os.path.relpath(HERE / "out" / f"inputs-{args.workload}"
                                   f"-seed{args.seed}"))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        work = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - T0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(measure(args, work, workloads, tracing))
            result["python"] = sys.version.split()[0]
            result["numpy"] = numpy.__version__
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, work, workloads, tracing) -> dict:
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        min_ops = workloads.DIGEST_OPS
        if args.max_ops:
            min_ops = min(min_ops, args.max_ops)
        times, outputs, errors, wall = closed_loop(
            work, workloads.run_op, args.seconds, min_ops, args.max_ops, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = {i for i, _ in errors}
    problems = [f"op {i} raised: {tb.strip().splitlines()[-1]}" for i, tb in errors]
    digests = []
    for i, argv, out in outputs:
        if out is None:
            digests.append(None)
            continue
        report, text = out
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        for problem in workloads.check_report(work, argv, report):
            failed.add(i)
            problems.append(f"op {i} ({' '.join(argv[:3])}): {problem}")
    head = digests[:workloads.DIGEST_OPS]
    run_digest = (hashlib.sha256("".join(head).encode()).hexdigest()
                  if len(head) == workloads.DIGEST_OPS and None not in head else None)

    result = {
        "ops": len(times),
        "failed": len(failed),
        "problems": problems[:20],
        "op_s": times,
        "wall_s": wall,
        "op_digests": digests,
        "digest": run_digest,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        result["layers"] = tracing.summarize(tracer.spans)
        result["gap_matrix"] = gap_matrix_builds(tracer.spans)
        if args.spans:
            with open(args.spans, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(
                        ("id", "name", "start", "end", "parent", "op", "thread",
                         "counts"), span))) + "\n")
    return result


def gap_matrix_builds(spans) -> dict:
    """How often the estimators rebuild the (atom, step) TV gap matrix."""
    estimators = {s[0] for s in spans
                  if s[1] in ("estimation.estimate_epsilon", "estimation.estimate_g")}
    tv_calls = sum(1 for s in spans
                   if s[1] == "pomdp.tv_distance" and s[4] in estimators)
    return {"estimator_calls": len(estimators), "tv_calls": tv_calls}


if __name__ == "__main__":
    sys.exit(main())
