"""One round of one workload, in a fresh process.

    python3 bench/child.py WORKLOAD SEED TRACE ROUND
    python3 bench/child.py setup

Generates the workload's inputs from the seed, imports pratcert (timed as
set-up), does every item once, and prints one JSON line: the set-up time,
the round's wall time, each item's time, the peak resident memory, the
outputs, and with TRACE=1 the per-layer totals of the round.  The peak
memory is read when the last item is done, before the outputs are encoded.  ``setup``
only imports pratcert.  Every input is certified at most once per process.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from inputs import TABLE_D, TABLE_P, TABLE_Q_MAX, make_inputs  # noqa: E402
from spans import Tracer, layer_metrics, write_spans  # noqa: E402


def _import_pratcert() -> float:
    start = perf_counter()
    import pratcert.quadratic  # noqa: F401
    import pratcert.scan  # noqa: F401

    elapsed = perf_counter() - start
    if Path(pratcert.__file__).resolve().parent != ROOT / "src" / "pratcert":
        raise SystemExit(f"pratcert imported from {pratcert.__file__}, not from src/")
    return elapsed


def _timed_items(call, items, tracer: Tracer | None):
    outputs, times, failed = [], [], 0
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        start = perf_counter()
        try:
            out = call(*item)
        except Exception as exc:  # a failing item is counted, not fatal
            out = {"error": f"{type(exc).__name__}: {exc}"}
            failed += 1
        times.append(perf_counter() - start)
        outputs.append(out)
    if tracer is not None:
        tracer.item = None
    return outputs, times, failed


def _peak_rss_kb() -> int:
    # VmHWM is this process's own peak; ru_maxrss would also count the
    # parent's resident memory, which a child inherits across fork and exec
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _records(results) -> list:
    return [r if isinstance(r, dict) else json.loads(r.to_json_line()) for r in results]


def _table_ref(items, tracer, tag):
    from pratcert import scan

    cache = OUT / f"cache-{tag}-{os.getpid()}.jsonl"
    start = perf_counter()
    records, times, failed = _timed_items(scan.record_for, items, tracer)
    with open(cache, "w", encoding="utf-8") as fh:
        for rec in records:
            if not isinstance(rec, dict):
                fh.write(rec.to_json_line() + "\n")
    resumed = [
        rec
        for p in TABLE_P
        for rec in scan.scan_records(p, TABLE_D, TABLE_Q_MAX, cache=str(cache))
    ]
    wall = perf_counter() - start
    rss_kb = _peak_rss_kb()
    with open(cache, encoding="utf-8") as fh:
        cache_lines = sum(1 for line in fh if line.strip())
    cache.unlink()
    outputs = {"fresh": _records(records), "resumed": _records(resumed), "cache_lines": cache_lines}
    return outputs, times, failed, wall, rss_kb, cache_lines


def _scan_large_q(items, tracer, tag):
    from pratcert import scan

    start = perf_counter()
    records, times, failed = _timed_items(scan.record_for, items, tracer)
    wall = perf_counter() - start
    rss_kb = _peak_rss_kb()
    return _records(records), times, failed, wall, rss_kb, 0


def _unit_exact(items, tracer, tag):
    from pratcert import quadratic

    def exact_unit(p: int, q: int):
        return quadratic.fundamental_unit(quadratic.make_field(p * q))

    start = perf_counter()
    units, times, failed = _timed_items(exact_unit, items, tracer)
    wall = perf_counter() - start
    rss_kb = _peak_rss_kb()
    outputs = [
        u if isinstance(u, dict) else [hex(u.elem.x), hex(u.elem.y), u.elem.den, u.unit_norm]
        for u in units
    ]
    return outputs, times, failed, wall, rss_kb, 0


RUNNERS = {"table_ref": _table_ref, "scan_large_q": _scan_large_q, "unit_exact": _unit_exact}


def main(argv: list[str]) -> int:
    if argv == ["setup"]:
        setup = _import_pratcert()
        print(json.dumps({"setup_s": setup}))
        return 0
    workload, seed, trace, round_no = argv[0], int(argv[1]), argv[2] == "1", int(argv[3])
    items = make_inputs(workload, seed)
    setup = _import_pratcert()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    tag = f"{workload}-seed{seed}-r{round_no}"
    outputs, times, failed, wall, rss_kb, cache_lines = RUNNERS[workload](items, tracer, tag)
    result = {
        "setup_s": setup,
        "wall_s": wall,
        "item_s": times,
        "failed": failed,
        "rss_kb": rss_kb,
        "outputs": outputs,
    }
    if tracer is not None:
        spans = tracer.finished()
        write_spans(str(OUT / f"trace-{tag}.jsonl"), spans)
        result["layers"] = {**layer_metrics(spans), "scan.cache_lines": cache_lines}
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
