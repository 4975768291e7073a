"""Regenerate tests/data/facts_digest.json from the certifier as it is.

The digest pins every verdict, reason and fact byte for byte, one sha256 per
key, so a mismatch names where it is.  A grid key "p=P d=D MODE" covers
every q in GRID_Q for one (p, d) of the grid, in one of five modes:

  exact, fast, lazy   certify_freeness with exact=True; exact=False;
                      exact=False and lazy=True: each report's repr and
                      the repr of its to_dict;
  line                record_for(p, q, d).to_json_line();
  resumed             the repr of each record that scan_records(p, d,
                      max(GRID_Q)) resumes from a cache holding those lines,
                      which the resume must leave as it was; the records
                      must equal record_for of the scan's candidates, so
                      the line and lazy keys pin them too.

A decade key "p=5 d=2 q=Q1,Q2 MODE" covers the fast and lazy reports of the
two fixed family-valid q of one decade in DECADES, where the class numbers
and units are large; no exact unit is computed there.  The keys whose digest
changed are printed.  Run

    PYTHONPATH=src python tests/data/regen_facts_digest.py

from the root of the repository.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from functools import cache
from pathlib import Path

from pratcert.criteria import FreenessReport, certify_freeness
from pratcert.scan import _candidates, record_for, scan_records

DIGEST = Path(__file__).resolve().parent / "facts_digest.json"

GRID_P = (5, 7, 13, 29)
GRID_Q = range(-2, 800)
GRID_D = (1, 2, 3, 7, 11)
# p = 5, d = 2: the first two family-valid q above 10^6, 10^7, 10^8 and 10^9
DECADES = (
    (1000039, 1000159),
    (10000079, 10000189),
    (100000039, 100000279),
    (1000000349, 1000000439),
)
REPORT_MODES = {"exact": (True, False), "fast": (False, False), "lazy": (False, True)}


def _sha(texts) -> str:
    return hashlib.sha256("".join(text + "\n" for text in texts).encode("utf-8")).hexdigest()


def _report_texts(reports) -> list[str]:
    return [f"{report!r}\n{report.to_dict()!r}" for report in reports]


def reports(p: int, d: int, qs, mode: str) -> list[FreenessReport]:
    exact, lazy = REPORT_MODES[mode]
    return [certify_freeness(p, q, d, exact=exact, lazy=lazy) for q in qs]


@cache
def decade_reports(mode: str) -> tuple[tuple[FreenessReport, ...], ...]:
    """The reports of DECADES in one of "fast" and "lazy", one tuple per decade;
    kept, since they cost most of the digest and other checks read them too."""
    return tuple(tuple(reports(5, 2, qs, mode)) for qs in DECADES)


def _resumed(p: int, d: int, lines: list[str]) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        cache_path = Path(tmp) / "scan.jsonl"
        written = "".join(line + "\n" for line in lines)
        cache_path.write_text(written, encoding="utf-8")
        records = scan_records(p, d, GRID_Q[-1], cache=str(cache_path))
        if cache_path.read_text(encoding="utf-8") != written:
            raise AssertionError(f"p={p} d={d}: the resume recomputed cached records")
    if records != [record_for(p, q, d) for q in _candidates(p, GRID_Q[-1])]:
        raise AssertionError(f"p={p} d={d}: a resumed record is not the fresh one")
    return [repr(rec) for rec in records]


def compute() -> dict[str, str]:
    digest: dict[str, str] = {}
    for p in GRID_P:
        for d in GRID_D:
            key = f"p={p} d={d}"
            for mode in REPORT_MODES:
                digest[f"{key} {mode}"] = _sha(_report_texts(reports(p, d, GRID_Q, mode)))
            lines = [record_for(p, q, d).to_json_line() for q in GRID_Q]
            digest[f"{key} line"] = _sha(lines)
            digest[f"{key} resumed"] = _sha(_resumed(p, d, lines))
    for mode in ("fast", "lazy"):
        for qs, decade in zip(DECADES, decade_reports(mode)):
            digest[f"p=5 d=2 q={qs[0]},{qs[1]} {mode}"] = _sha(_report_texts(decade))
    return digest


def regenerate(path: Path = DIGEST) -> list[str]:
    """Rewrite the digest at path; return each key whose sha256 changed."""
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    fresh = compute()
    path.write_text(json.dumps(fresh, indent=1) + "\n", encoding="utf-8")
    return [key for key in {**old, **fresh} if old.get(key) != fresh.get(key)]


if __name__ == "__main__":
    for key in regenerate():
        print(key)
