"""The pratcert benchmark: one run of one workload.

    python3 bench/run.py --workload table_ref --seed 1 --seconds 20 --trace 0

A run repeats whole rounds, each in a fresh process (bench/child.py) that
imports pratcert and does every item of the workload once, for --seconds:
a round starts only if, judged by the previous one, it ends in time, and
at least one round is always made.  It then checks the
outputs (bench/checks.py), outside the timed part, and prints each metric
by name with its unit, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones, from spans recorded around pratcert's
functions (bench/spans.py).  A full record of the run goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REQUIRED = (
    ROOT / "BENCHMARK.json",
    ROOT / "src" / "pratcert" / "__init__.py",
    ROOT / "tests" / "_oracles.py",
    ROOT / "tests" / "data" / "reference_rows.json",
)
# set-up is timed in every round and in extra import-only processes until
# there are this many samples
MIN_SETUPS = 9
CHILD_TIMEOUT_S = 150


def tail_percentile(samples: list[float], q: float = 0.9, beyond: int = 10) -> float:
    """Nearest-rank q-quantile, refused unless `beyond` samples lie above it."""
    xs = sorted(samples)
    k = math.ceil(q * len(xs)) - 1
    if len(xs) - 1 - k < beyond:
        raise ValueError(
            f"{len(xs)} samples leave {len(xs) - 1 - k} above the {q} quantile, need {beyond}"
        )
    return xs[k]


def host_ref_ms() -> float:
    """A fixed loop that calls no pratcert code, to read the machine's speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1e3


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "pratcert").glob("*.py"))
    )


def child(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_checks(workload: str, seed: int, outputs) -> list[str]:
    # checks imports tests/_oracles.py, so only once REQUIRED is confirmed
    import checks
    from inputs import make_inputs

    inputs = make_inputs(workload, seed)
    if workload == "table_ref":
        return checks.check_table(inputs, outputs["fresh"], outputs["resumed"], outputs["cache_lines"])
    if workload == "scan_large_q":
        return checks.check_scan(inputs, outputs)
    units = [(int(x, 16), int(y, 16), den, norm) for x, y, den, norm in outputs]
    return checks.check_units(inputs, units)


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from inputs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: missing {', '.join(missing)}; run from a pratcert checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    ref = [host_ref_ms() for _ in range(3)]
    rounds: list[dict] = []
    problems: list[str] = []
    start = time.perf_counter()
    last = 0.0
    # another round only if it can end within --seconds, judged by the last one
    while not rounds or time.perf_counter() - start + last <= args.seconds:
        begun = time.perf_counter()
        rounds.append(child([args.workload, str(args.seed), str(args.trace), str(len(rounds))]))
        last = time.perf_counter() - begun
        if len(rounds) > 1 and rounds[-1].pop("outputs") != rounds[0]["outputs"]:
            problems.append(f"round {len(rounds) - 1} outputs differ from round 0")
    setups = [r["setup_s"] for r in rounds]
    while len(setups) < MIN_SETUPS:
        setups.append(child(["setup"])["setup_s"])
    ref += [host_ref_ms() for _ in range(3)]

    first = rounds[0]["outputs"]
    problems += run_checks(args.workload, args.seed, first)
    digest = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()[:16]

    per_item = [statistics.median(ts) for ts in zip(*(r["item_s"] for r in rounds))]
    end_to_end = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_p90_ms": tail_percentile(per_item) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in rounds) / 1024,
    }
    values = end_to_end
    kind = "end_to_end"
    if args.trace:
        values = {
            name: statistics.median(r["layers"][name] for r in rounds)
            for name in rounds[0]["layers"]
        }
        values["host.ref_ms"] = statistics.median(ref)
        values["src.lines"] = src_lines()
        kind = "per_layer"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    attempted = sum(len(r["item_s"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "round_wall_s": [r["wall_s"] for r in rounds],
        "setup_samples_s": setups,
        "host_ref_ms": ref,
        "outputs_sha256": digest,
        "end_to_end": end_to_end,
        "metrics": metrics,
        "problems": problems,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(rounds)} round(s), "
        f"{attempted} items, {failed} failed, outputs {digest}, "
        f"host.ref_ms {statistics.median(ref):.2f}"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
