"""Sweep over q for fixed (p, d), with a resumable line cache.

A scan's record of a candidate q is its lazy certificate on the reduced-unit
path, the FreenessReport of record_for, and its cache line is that report's
to_json_line.  A scan is one pass over the candidates in ascending q,
whatever the worker count.  Each record comes from the cache, or is computed
afresh (for jobs > 1 by a process pool, one batch of _BATCH_PER_JOB tasks per
worker at a time), appended to the cache (append-only JSON lines) and
flushed, then checked and handed on.  So a scan holds its cached records, one batch and what its
caller keeps, and an interrupt loses at most the batch in flight.  Cache
lines are re-judged, not trusted: stale or foreign lines are ignored, and a
line whose verdict, rank or reasons disagree with criteria.judge of its
facts, or whose claimed family violations are not those of its (p, q, d),
is recomputed.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import islice, starmap, tee
from typing import Any, Iterator

from ._version import __version__
from .arith import _PRIME_BOUND, _Record, is_prime, kronecker
from .criteria import (
    CERTIFIED_FREE,
    NOT_CERTIFIED,
    RANK,
    SCHEMA_VERSION,
    FreenessReport,
    certify_freeness,
    family_violations,
    judge,
)
from .localfield import _require_p

__all__ = [
    "TableRow",
    "record_for",
    "reproduce_table",
    "scan_q",
    "scan_records",
]


def record_for(p: int, q: int, d: int) -> FreenessReport:
    """The record of one candidate: its lazy certificate on the reduced-unit
    path, as a cache line holds it."""
    return certify_freeness(p, q, d, exact=False, lazy=True)


# the d and top-level p of a line in to_json_line's own form: compact and
# key-sorted, so d comes first, and the last "p" key is the top-level one,
# since none of the keys after it (q to verdict) holds an object
_WRITTEN_D_P = re.compile(r'\{"d":(-?(?:0|[1-9][0-9]*)),"facts":.*,"p":(-?(?:0|[1-9][0-9]*)),')


def _decode(obj: Any, p: int, d: int) -> FreenessReport | None:
    """The record that a parsed cache line of this (p, d) holds, or None if
    the line is misjudged; ValueError if it is no record at all.

    The record takes its reasons and invalid list from the re-judge, so its
    strings are the certifier's own, as a fresh record's are; its fact names
    and mode go through sys.intern, since a resume holds many records.
    """
    if not (
        isinstance(obj, dict)
        and all(isinstance(obj.get(key), int) for key in ("schema_version", "p", "q", "d"))
        and obj.get("verdict") in (CERTIFIED_FREE, NOT_CERTIFIED)
        and (obj.get("rank") is None or isinstance(obj.get("rank"), int))
        and isinstance(obj.get("facts"), dict)
    ):
        raise ValueError("not a scan record")
    q, facts = obj["q"], obj["facts"]
    verdict, reasons = judge(p, q, d, facts)
    claimed = "invalid" in facts
    invalid = family_violations(p, q, d) if claimed else []
    line = (obj["verdict"], obj["rank"], facts.get("reasons"), facts.get("invalid", []))
    # judge finds any facts that hold invalid not certified, so only a triple
    # outside the family may claim an invalid list
    if line != (verdict, RANK[verdict], list(reasons), invalid) or (claimed and not invalid):
        return None
    facts = {
        sys.intern(name): value
        for name, value in facts.items()
        if name != "reasons" and name != "invalid"
    }
    if type(facts.get("mode")) is str:
        facts["mode"] = sys.intern(facts["mode"])
    # a line outside the family holds no facts but its reasons and invalid list
    return FreenessReport(
        p, q, d, verdict, RANK[verdict], facts.get("mode", "fast"), facts, reasons, tuple(invalid)
    )


def _load_cache(path: str, p: int, d: int) -> dict[int, FreenessReport]:
    """Cached records for this (p, d) keyed by q.

    A line in to_json_line's own form that names another d or p is skipped
    unparsed, and a JSON object whose p, d, schema_version or tool_version
    is not this scan's is skipped before it is validated; both silently,
    so one cache can serve many (p, d).  Unreadable lines, and misjudged
    ones (whose verdict, rank or reasons disagree with judge of their
    facts, or whose invalid list is not the non-empty family_violations of
    their (p, q, d)), warn and are skipped, so their q is computed afresh.
    judge finds not_certified for any facts that hold an invalid list, so
    a line may claim one only for a triple outside the family; a certified
    q is guarded by _validate_emitted.
    """
    records: dict[int, FreenessReport] = {}
    unreadable = misjudged = 0
    ours = (SCHEMA_VERSION, __version__, p, d)
    written_ours = (str(d), str(p))
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
            written = _WRITTEN_D_P.match(line)
            if written is not None and written.groups() != written_ours:
                continue
            try:
                obj = json.loads(line)
                if isinstance(obj, dict) and ours != tuple(
                    obj.get(key) for key in ("schema_version", "tool_version", "p", "d")
                ):
                    continue
                rec = _decode(obj, p, d)
            except ValueError:
                unreadable += 1
                continue
            if rec is None:
                misjudged += 1
            else:
                records[rec.q] = rec
    for count, kind in ((unreadable, "unreadable"), (misjudged, "misjudged")):
        if count:
            print(f"warning: skipped {count} {kind} cache line(s) in {path}", file=sys.stderr)
    return records


# tasks per worker that a pool computes ahead of the pass: they bound both
# the memory of a parallel scan and what an interrupt loses
_BATCH_PER_JOB = 2048


def _compute(tasks: Iterator[tuple[int, int, int]], jobs: int) -> Iterator[FreenessReport]:
    if jobs <= 1:
        yield from starmap(record_for, tasks)
        return
    # imported here, not at the top: the pool pulls in multiprocessing, which
    # would otherwise slow every import of pratcert that never runs a pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(jobs) as pool:
        while batch := list(islice(tasks, _BATCH_PER_JOB * jobs)):
            chunksize = max(1, len(batch) // (4 * jobs))
            yield from pool.map(record_for, *zip(*batch), chunksize=chunksize)


def _candidates(p: int, q_max: int) -> Iterator[int]:
    # only q = kp - 1 can be in the family: test those alone, so that time
    # follows the candidates rather than every integer up to q_max; a q
    # below 2^16 is one byte of arith's import-time sieve, a larger one is
    # a Miller-Rabin test
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


def _scan(p: int, d: int, q_max: int, cache: str | None, jobs: int) -> Iterator[FreenessReport]:
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
) -> list[FreenessReport]:
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


def _validate_emitted(rec: FreenessReport) -> None:
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


class TableRow(_Record):
    """One table row: the certified q values for a single p."""

    __slots__ = ("p", "certified")

    def __init__(self, p: int, certified: tuple[int, ...]) -> None:
        set_p, set_certified = self._setters
        set_p(self, p)
        set_certified(self, certified)


def reproduce_table(
    p_list: list[int], q_max: int, d: int, *, jobs: int = 1
) -> list[TableRow]:
    """One row per p.  Every p, q_max, jobs and the type of d are checked
    before any scan runs: a bad one raises ValueError for the whole table,
    and names the p if it is one."""
    _require_scan_bounds(d, q_max, jobs)
    for p in p_list:
        try:
            _require_p(p)
        except ValueError as exc:
            raise ValueError(f"p={p}: {exc}") from None
    return [TableRow(p=p, certified=tuple(scan_q(p, d, q_max, jobs=jobs))) for p in p_list]
