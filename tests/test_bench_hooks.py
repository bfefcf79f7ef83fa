"""The benchmark drives unirep by name: its tracer wraps functions, and its
workloads run command lines.  Every function it lists must exist and every
command line must parse, or a benchmark run fails part-way."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from unirep.cli import _plain_args, build_parser

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name, monkeypatch):
    """The module ``bench/<name>.py``, registered while the test runs (its
    dataclasses look their module up)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(monkeypatch):
    tracing = load("tracing", monkeypatch)
    assert tracing.TARGETS
    for modname, attr in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)


def test_workload_command_lines_parse(tmp_path, monkeypatch):
    workloads = load("workloads", monkeypatch)
    parser = build_parser()
    for name in workloads.WORKLOADS:
        plan = workloads.build(name, 1, tmp_path / name)
        command_lines = [op.argv for op in plan.ops] + [argv for argv, _ in plan.thread_variants]
        assert plan.ops
        for argv in command_lines:
            try:
                args = parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"{name}: the CLI does not parse {argv}")
            assert callable(args.func), (name, argv)
            # the benchmark times the direct reader, which must agree with argparse
            plain = _plain_args(argv)
            assert plain is not None, (name, argv)
            assert vars(plain) == vars(args), (name, argv)
