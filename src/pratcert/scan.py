"""Sweep over q for fixed (p, d), with a resumable line cache.

A scan is one pass over the candidates in ascending q, whatever the worker
count.  Each record comes from the cache, or is computed afresh (for jobs > 1
by a process pool, one batch of _BATCH_PER_JOB tasks per worker at a time),
appended to the cache (append-only JSON lines) and flushed, then checked and
handed on.  So a scan holds its cached records, one batch and what its
caller keeps, and an interrupt loses at most the batch in flight.  Cache
lines are re-judged, not trusted: stale or foreign lines are ignored, and a
line whose verdict, rank or reasons disagree with criteria.judge of its
facts, or whose claimed family violations are not those of its (p, q, d),
is recomputed.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from itertools import islice, tee
from typing import Any, Iterator

from ._version import __version__
from .arith import _PRIME_BOUND, is_prime, kronecker
from .criteria import (
    CERTIFIED_FREE,
    NOT_CERTIFIED,
    RANK,
    SCHEMA_VERSION,
    certify_freeness,
    family_violations,
    judge,
)
from .localfield import _require_p

__all__ = [
    "ScanRecord",
    "TableRow",
    "record_for",
    "reproduce_table",
    "scan_q",
    "scan_records",
]


@dataclass(frozen=True)
class ScanRecord:
    """One cached certification outcome for a single (p, q, d).

    facts carries every quantity the verdict consumed plus the failure
    reasons, so the verdict can be re-derived without recomputation.
    """

    schema_version: int
    tool_version: str
    p: int
    q: int
    d: int
    verdict: str
    rank: int | None
    facts: dict[str, Any]

    def to_json_line(self) -> str:
        return json.dumps(vars(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: dict[str, Any]) -> "ScanRecord":
        if not isinstance(obj, dict):
            raise ValueError("record must be a JSON object")
        for key in ("schema_version", "p", "q", "d"):
            if not isinstance(obj.get(key), int):
                raise ValueError(f"field {key} must be an integer")
        if not isinstance(obj.get("tool_version"), str):
            raise ValueError("field tool_version must be a string")
        if obj.get("verdict") not in (CERTIFIED_FREE, NOT_CERTIFIED):
            raise ValueError("unknown verdict")
        rank = obj.get("rank")
        if rank is not None and not isinstance(rank, int):
            raise ValueError("field rank must be an integer or null")
        if not isinstance(obj.get("facts"), dict):
            raise ValueError("field facts must be an object")
        return cls(
            schema_version=obj["schema_version"],
            tool_version=obj["tool_version"],
            p=obj["p"],
            q=obj["q"],
            d=obj["d"],
            verdict=obj["verdict"],
            rank=rank,
            facts=obj["facts"],
        )


def record_for(p: int, q: int, d: int) -> ScanRecord:
    """Certify one candidate on the reduced-unit path and wrap the outcome."""
    report = certify_freeness(p, q, d, exact=False, lazy=True)
    facts = dict(report.facts)
    facts["reasons"] = list(report.reasons)
    if report.invalid:
        facts["invalid"] = list(report.invalid)
    return ScanRecord(
        schema_version=SCHEMA_VERSION,
        tool_version=__version__,
        p=p,
        q=q,
        d=d,
        verdict=report.verdict,
        rank=report.rank,
        facts=facts,
    )


def _worker(args: tuple[int, int, int]) -> ScanRecord:
    return record_for(*args)


def _load_cache(path: str, p: int, d: int) -> dict[int, ScanRecord]:
    """Cached records for this (p, d) keyed by q.

    A JSON object whose p, d, schema_version or tool_version is not this
    scan's is skipped before it is validated, silently.  Unreadable lines,
    and misjudged ones (whose verdict, rank or reasons disagree with judge
    of their facts, or whose invalid list is not family_violations of their
    (p, q, d)), warn and are skipped, so their q is computed afresh.  judge
    takes an invalid list at its word, so only a line that claims one is
    checked against the family conditions; a certified q is guarded by
    _validate_emitted.
    """
    records: dict[int, ScanRecord] = {}
    unreadable = misjudged = 0
    ours = (SCHEMA_VERSION, __version__, p, d)
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        return records
    except OSError as exc:
        raise ValueError(f"cannot read cache file {path}: {exc}") from exc
    with fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                if isinstance(obj, dict) and ours != tuple(
                    obj.get(key) for key in ("schema_version", "tool_version", "p", "d")
                ):
                    continue
                rec = ScanRecord.from_json_obj(obj)
            except ValueError:
                unreadable += 1
                continue
            verdict, reasons = judge(p, rec.q, d, rec.facts)
            judged = (verdict, RANK[verdict], list(reasons))
            if (rec.verdict, rec.rank, rec.facts.get("reasons")) != judged or (
                "invalid" in rec.facts and rec.facts["invalid"] != family_violations(p, rec.q, d)
            ):
                misjudged += 1
                continue
            records[rec.q] = rec
    for count, kind in ((unreadable, "unreadable"), (misjudged, "misjudged")):
        if count:
            print(f"warning: skipped {count} {kind} cache line(s) in {path}", file=sys.stderr)
    return records


# tasks per worker that a pool computes ahead of the pass: they bound both
# the memory of a parallel scan and what an interrupt loses
_BATCH_PER_JOB = 2048


def _compute(tasks: Iterator[tuple[int, int, int]], jobs: int) -> Iterator[ScanRecord]:
    if jobs <= 1:
        yield from map(_worker, tasks)
        return
    # imported here, not at the top: the pool pulls in multiprocessing, which
    # would otherwise slow every import of pratcert that never runs a pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        while batch := list(islice(tasks, _BATCH_PER_JOB * jobs)):
            yield from pool.map(_worker, batch, chunksize=max(1, len(batch) // (4 * jobs)))


def _candidates(p: int, q_max: int) -> Iterator[int]:
    # only q = kp - 1 can be in the family: test those alone, so that time
    # follows the candidates rather than every integer up to q_max
    return (q for q in range(p - 1, q_max + 1, p) if is_prime(q))


def _require_scan_bounds(d: int, q_max: int, jobs: int) -> None:
    # an integer d outside the family gives records that name its fault, but
    # a record's d, like that of its cache line, is an integer
    for name, value in (("d", d), ("q_max", q_max), ("jobs", jobs)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer")
    if not 0 <= q_max < _PRIME_BOUND:
        raise ValueError("q_max must be >= 0 and below 2^64")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")


def _scan(p: int, d: int, q_max: int, cache: str | None, jobs: int) -> Iterator[ScanRecord]:
    """The scan as one pass; the candidates are tested once and teed, and the
    fresh stream reads ahead of the pass by at most one batch."""
    _require_p(p)
    _require_scan_bounds(d, q_max, jobs)
    cached = _load_cache(cache, p, d) if cache is not None else {}
    ahead, candidates = tee(_candidates(p, q_max))
    fresh = _compute(((p, q, d) for q in ahead if q not in cached), jobs)
    out = None
    try:
        for q in candidates:
            rec = cached.get(q)
            if rec is None:
                rec = next(fresh)
                if cache is not None:
                    if out is None:
                        try:
                            out = open(cache, "a", encoding="utf-8")
                        except OSError as exc:
                            raise ValueError(f"cannot append to cache file {cache}: {exc}") from exc
                    out.write(rec.to_json_line() + "\n")
                    out.flush()
            _validate_emitted(rec)
            yield rec
    finally:
        fresh.close()
        if out is not None:
            out.close()


def scan_records(
    p: int, d: int, q_max: int, *, cache: str | None = None, jobs: int = 1
) -> list[ScanRecord]:
    """Records for every candidate prime q <= q_max with q = -1 (mod p).

    Results arrive in ascending q independently of worker count.  With a
    cache path, records matching (schema_version, tool_version, p, d) whose
    verdict judge confirms are reused, and each fresh record is appended and
    flushed when the pass reaches its q, so a rerun after an interruption
    picks up where it stopped.  Besides the returned list, a scan holds the
    cached records and, for jobs > 1, one batch of _BATCH_PER_JOB tasks per
    worker; an interrupt loses the records of that batch not yet appended,
    and at jobs = 1 only the record being computed.  Candidates outside the
    family (for instance a d that fails the residue conditions) produce
    NOT_CERTIFIED records whose facts list the violations.
    """
    return list(_scan(p, d, q_max, cache, jobs))


def _validate_emitted(rec: ScanRecord) -> None:
    # guard: every certified q must satisfy the family congruences
    if rec.verdict == CERTIFIED_FREE and not (
        (rec.q + 1) % rec.p == 0
        and (rec.q + 1) % (rec.p * rec.p) != 0
        and kronecker(-rec.d, rec.q) == -1
    ):
        raise RuntimeError(
            f"certified record violates the family congruences: "
            f"p={rec.p} q={rec.q} d={rec.d}"
        )


def scan_q(
    p: int, d: int, q_max: int, cache: str | None = None, jobs: int = 1
) -> list[int]:
    """Ascending list of certified q <= q_max for the given (p, d); of the
    records it keeps only these q."""
    return [rec.q for rec in _scan(p, d, q_max, cache, jobs) if rec.verdict == CERTIFIED_FREE]


@dataclass(frozen=True)
class TableRow:
    """One table row: certified q values for a single p, or an error note."""

    p: int
    certified: tuple[int, ...]
    error: str | None


def reproduce_table(
    p_list: list[int], q_max: int, d: int, *, jobs: int = 1
) -> list[TableRow]:
    """One row per p; a refused p gets its ValueError as the row's error,
    and the rest go on.  A bad q_max or jobs, or a d that is not an integer,
    raises ValueError for the whole table; any other error propagates."""
    _require_scan_bounds(d, q_max, jobs)
    rows: list[TableRow] = []
    for p in p_list:
        try:
            qs = scan_q(p, d, q_max, jobs=jobs)
        except ValueError as exc:
            rows.append(
                TableRow(p=p, certified=(), error=f"{type(exc).__name__}: {exc}")
            )
        else:
            rows.append(TableRow(p=p, certified=tuple(qs), error=None))
    return rows
