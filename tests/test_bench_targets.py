"""The benchmark's tracer wraps pratcert functions by name; they must exist."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_function_exists() -> None:
    # a renamed or deleted target would otherwise surface only when a traced
    # benchmark run (bench/run.py --trace 1) fails to install its wrappers
    name = "_bench_spans_under_test"
    spec = importlib.util.spec_from_file_location(name, SPANS)
    assert spec is not None and spec.loader is not None
    spans = importlib.util.module_from_spec(spec)
    sys.modules[name] = spans  # dataclasses resolve their module by name
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    try:
        spec.loader.exec_module(spans)
    finally:
        sys.dont_write_bytecode = write_bytecode
        del sys.modules[name]
    assert len(spans.TARGETS) >= 14
    for module, func, _, _ in spans.TARGETS:
        target = getattr(importlib.import_module(f"pratcert.{module}"), func, None)
        assert callable(target), f"pratcert.{module}.{func}"
