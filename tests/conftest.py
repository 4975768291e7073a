"""Shared pytest wiring: summary lines for the acceptance criteria, and
the benchmark's span table for the tests that check it against pratcert.

Tests named test_criterion_<n>_* (in tests/test_acceptance.py) get one
"criterion n: PASS/FAIL - <first docstring line>" line in a dedicated
section of the terminal summary, so the acceptance gate is readable at a
glance even inside a long run.
"""

from __future__ import annotations

import importlib.util
import re
import sys
from pathlib import Path
from types import ModuleType

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

_CRITERION = re.compile(r"test_criterion_(\d+)")

_descriptions: dict[int, str] = {}
_outcomes: dict[int, str] = {}


def pytest_collection_modifyitems(items) -> None:
    for item in items:
        match = _CRITERION.search(item.name)
        if match is None:
            continue
        doc = getattr(item.function, "__doc__", None) or ""
        first_line = doc.strip().splitlines()[0] if doc.strip() else item.name
        _descriptions[int(match.group(1))] = first_line


def pytest_runtest_logreport(report) -> None:
    match = _CRITERION.search(report.nodeid)
    if match is None:
        return
    number = int(match.group(1))
    if report.when == "call":
        _outcomes[number] = "PASS" if report.passed else "FAIL"
    elif report.failed:
        # setup/teardown error counts as a failed criterion
        _outcomes[number] = "FAIL"


def pytest_terminal_summary(terminalreporter) -> None:
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_outcomes):
        description = _descriptions.get(number, "")
        terminalreporter.write_line(
            f"criterion {number}: {_outcomes[number]} - {description}"
        )


@pytest.fixture(scope="session")
def bench_spans() -> ModuleType:
    """bench/spans.py, loaded from its path without writing bytecode."""
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
    return spans
