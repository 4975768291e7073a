"""The benchmark's tracer wraps pratcert functions by name; they must exist."""

from __future__ import annotations

import importlib


def test_every_traced_function_exists(bench_spans) -> None:
    # a renamed or deleted target would otherwise surface only when a traced
    # benchmark run (bench/run.py --trace 1) fails to install its wrappers
    assert len(bench_spans.TARGETS) >= 14
    for module, func, _, _ in bench_spans.TARGETS:
        target = getattr(importlib.import_module(f"pratcert.{module}"), func, None)
        assert callable(target), f"pratcert.{module}.{func}"
