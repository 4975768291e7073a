"""The benchmark's tracer wraps pratcert functions by name: they must exist, and
the paths of a scan record must go through them."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path


def test_every_traced_function_exists(bench_spans) -> None:
    # a renamed or deleted target would otherwise surface only when a traced
    # benchmark run (bench/run.py --trace 1) fails to install its wrappers
    assert len(bench_spans.TARGETS) >= 14
    for module, func, _, _ in bench_spans.TARGETS:
        target = getattr(importlib.import_module(f"pratcert.{module}"), func, None)
        assert callable(target), f"pratcert.{module}.{func}"


# the spans each path of a scan record must leave, and what the per-layer
# metrics then read on them: a speed-up that goes around a traced function
# fails here instead of reading 0 in a benchmark run
PATHS = (
    ((5, 19, 2), "not_certified", {"criteria.certify", "criteria.family"}),
    ((5, 149, 2), "not_certified", {"criteria.certify", "criteria.family", "localfield.tower"}),
    (
        (7, 13, 2),
        "certified_free",
        {
            "criteria.certify",
            "criteria.family",
            "localfield.tower",
            "classno.h_imaginary",
            "classno.h_plus_real",
            "quadratic.unit_mod",
            "localfield.splitting",
            "localfield.pth_power",
        },
    ),
)


def test_traced_records_leave_every_span_their_layers_read() -> None:
    # a child process, so that the wrappers the tracer installs into
    # pratcert's modules stay out of every other test
    root = Path(__file__).resolve().parent.parent
    probe = f"""
import importlib.util, json, sys
sys.dont_write_bytecode = True
sys.path.insert(0, {str(root / "src")!r})
spec = importlib.util.spec_from_file_location("bench_spans", {str(root / "bench" / "spans.py")!r})
spans = importlib.util.module_from_spec(spec)
sys.modules["bench_spans"] = spans
spec.loader.exec_module(spans)
from pratcert import scan
tracer = spans.Tracer()
tracer.install()
for item, args in enumerate({[args for args, _, _ in PATHS]!r}):
    tracer.item = item
    scan.record_for(*args)
done = tracer.finished()
print(json.dumps({{
    "names": [sorted({{s.name for s in done if s.item == i}}) for i in range({len(PATHS)})],
    "verdicts": [s.note for s in done if s.name == "criteria.certify"],
    "metrics": spans.layer_metrics(done),
}}))
"""
    child = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stderr
    out = json.loads(child.stdout)
    assert out["verdicts"] == [verdict for _, verdict, _ in PATHS]
    for (args, _, needed), names in zip(PATHS, out["names"]):
        assert needed <= set(names), (args, sorted(needed - set(names)))
    metrics = out["metrics"]
    for name in (
        "criteria.family_s",
        "criteria.certify_self_s",
        "localfield.tower_s",
        "classno.h_imaginary_s",
        "classno.h_plus_real_s",
        "quadratic.unit_mod_s",
        "localfield.splitting_s",
        "localfield.pth_power_s",
    ):
        assert metrics[name] > 0, name
    assert metrics["classno.h_imaginary_calls"] == 2
    assert metrics["classno.h_plus_real_calls"] == 1
    assert metrics["quadratic.unit_mod_calls"] == 1
    assert metrics["criteria.reached_classno"] == 1
    assert metrics["criteria.reached_unit"] == 1
    assert metrics["criteria.certified"] == 1
