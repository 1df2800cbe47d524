"""The benchmark's tracer rebinds riskgap functions by name and reads their
arguments by name; a rename here would crash the traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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


def _load_traced() -> dict:
    spec = importlib.util.spec_from_file_location("riskgap_bench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves_with_the_arguments_its_counter_reads():
    if not TRACER_PATH.is_file():
        pytest.skip("perfbench/tracer.py is not in this checkout")
    read_any = False
    for (mod_name, fn_name), count in _load_traced().items():
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
