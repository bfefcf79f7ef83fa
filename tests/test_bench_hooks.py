"""The benchmark's tracer wraps unirep functions by name; every name it
lists must exist, or a traced benchmark run fails part-way."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for modname, attr in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
