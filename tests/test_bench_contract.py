"""The benchmark's tracer rebinds riskgap functions by name and reads their
arguments by name, and its output checks read the CLI's reports; a rename or
a report change here would crash or fail the benchmark run."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = BENCH_DIR / "tracer.py"
WORKLOADS_PATH = BENCH_DIR / "workloads.py"


class _Anything:
    """Stands in for any argument or result a counter reads."""

    def __getattr__(self, name):
        return self

    def __mul__(self, other):
        return self

    __rmul__ = __mul__

    def __int__(self):
        return 0

    def __len__(self):
        return 0


class _ArgumentReads(dict):
    """Bound arguments that remember which names were read."""

    def __init__(self):
        super().__init__()
        self.names = set()

    def __getitem__(self, name):
        self.names.add(name)
        return _Anything()


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves_with_the_arguments_its_counter_reads():
    if not TRACER_PATH.is_file():
        pytest.skip("perfbench/tracer.py is not in this checkout")
    read_any = False
    traced = _load("riskgap_bench_tracer", TRACER_PATH).TRACED
    for (mod_name, fn_name), count in traced.items():
        module = importlib.import_module(f"riskgap.{mod_name}")
        fn = getattr(module, fn_name, None)
        assert callable(fn), f"riskgap.{mod_name}.{fn_name} is gone"
        if count is None:
            continue
        args = _ArgumentReads()
        count(args, _Anything())
        read_any |= bool(args.names)
        missing = args.names - set(inspect.signature(fn).parameters)
        assert not missing, f"riskgap.{mod_name}.{fn_name} lacks {sorted(missing)}"
    assert read_any, "no counter read an argument; the recorder is broken"


@pytest.mark.parametrize("name", ["certify_deep", "exact_deep", "concentration"])
def test_one_op_of_each_workload_passes_its_output_checks(name, tmp_path):
    if not WORKLOADS_PATH.is_file():
        pytest.skip("perfbench/workloads.py is not in this checkout")
    workloads = _load("riskgap_bench_workloads", WORKLOADS_PATH)
    work = workloads.build(name, 1, tmp_path)
    argv = work.argv(0)
    report, _ = workloads.run_op(argv)
    assert workloads.check_report(work, argv, report) == []
