"""Smoke test of the benchmark: one op per workload, traced and untraced.

Run from the root of a riskgap checkout::

    python3 perfbench/selftest.py

Checks that every metric in BENCHMARK.json is emitted with its unit and a
finite value, that ops pass their output checks, that every traced self_s
is >= 0, and that the benchmark refuses to run without the package source.
Exits 0 when everything holds.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]


def run_one(workload: str, trace: int) -> list:
    proc = subprocess.run(
        [*RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--max-ops", "1"],
        stdout=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads(Path("BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']}"
                        f" failed={result['failed']}")
    if set(got) != set(wanted):
        problems.append(f"metric names differ: missing {sorted(set(wanted) - set(got))},"
                        f" extra {sorted(set(got) - set(wanted))}")
    for name, metric in got.items():
        if metric.get("unit") != wanted.get(name):
            problems.append(f"{name}: unit {metric.get('unit')!r}, "
                            f"expected {wanted.get(name)!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif name.endswith(".self_s") and value < 0:
            problems.append(f"{name}: negative self time {value}")
    return problems


def refuses_without_source() -> list:
    """The benchmark must fail, printing no result, outside a checkout."""
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copy("BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "certify_deep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, stdout=subprocess.PIPE, text=True, timeout=180)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"ran without src/riskgap: exit {proc.returncode}"]
    return []


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems = run_one(workload, trace)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok':4} {workload} trace={trace}")
            for problem in problems:
                print(f"     {problem}")
    problems = refuses_without_source()
    failures += bool(problems)
    print(f"{'FAIL' if problems else 'ok':4} refuses to run without src/riskgap")
    for problem in problems:
        print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
