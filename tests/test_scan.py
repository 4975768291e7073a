"""Tests for the q sweep: records, caching, parallelism, table rows."""

from __future__ import annotations

import json
import tracemalloc
from itertools import islice

import pytest

from pratcert import arith, scan
from pratcert._version import __version__
from pratcert.arith import primes_up_to
from pratcert.criteria import (
    CERTIFIED_FREE,
    NOT_CERTIFIED,
    SCHEMA_VERSION,
    certify_freeness,
    judge,
)
from pratcert.scan import (
    ScanRecord,
    TableRow,
    _candidates,
    _validate_emitted,
    record_for,
    reproduce_table,
    scan_q,
    scan_records,
)


def lines_of(records: list[ScanRecord]) -> list[str]:
    return [rec.to_json_line() for rec in records]


def test_record_for_wraps_direct_certification() -> None:
    rec = record_for(7, 13, 2)
    report = certify_freeness(7, 13, 2, exact=False, lazy=True)
    assert rec.schema_version == SCHEMA_VERSION
    assert rec.tool_version == __version__
    assert (rec.p, rec.q, rec.d) == (7, 13, 2)
    assert rec.verdict == CERTIFIED_FREE == report.verdict
    assert rec.rank == 2
    assert rec.facts["reasons"] == []
    assert "invalid" not in rec.facts
    base = dict(rec.facts)
    del base["reasons"]
    assert base == dict(report.facts)


def test_record_for_invalid_candidate_lists_violations() -> None:
    # -2 = 6**2 (mod 19), so q=19 fails the residue condition for d=2
    rec = record_for(5, 19, 2)
    assert rec.verdict == NOT_CERTIFIED
    assert rec.rank is None
    assert rec.facts == {
        "reasons": ["parameters are outside the certified family"],
        "invalid": ["-d must be a quadratic non-residue modulo q"],
    }


def test_json_line_is_canonical_and_round_trips() -> None:
    for args in ((7, 13, 2), (5, 19, 2), (5, 149, 2)):
        rec = record_for(*args)
        line = rec.to_json_line()
        obj = json.loads(line)
        assert ScanRecord.from_json_obj(obj) == rec
        assert line == json.dumps(obj, sort_keys=True, separators=(",", ":"))
        assert "\n" not in line


def test_from_json_obj_rejects_malformed_records() -> None:
    good = json.loads(record_for(7, 13, 2).to_json_line())
    cases = [
        ([1, 2], "record must be a JSON object"),
        ({**good, "q": "13"}, "field q must be an integer"),
        ({**good, "tool_version": 1}, "field tool_version must be a string"),
        ({**good, "verdict": "MAYBE"}, "unknown verdict"),
        ({**good, "rank": "2"}, "field rank must be an integer or null"),
        ({**good, "facts": []}, "field facts must be an object"),
    ]
    missing = dict(good)
    del missing["schema_version"]
    cases.append((missing, "field schema_version must be an integer"))
    for obj, message in cases:
        with pytest.raises(ValueError, match=message):
            ScanRecord.from_json_obj(obj)


def test_scan_q_known_rows() -> None:
    assert scan_q(7, 2, 500) == [13, 167, 181, 223, 461]
    assert scan_q(5, 2, 120) == [79, 109]
    assert scan_q(29, 2, 500) == [173, 463]


def test_scan_records_covers_every_candidate() -> None:
    records = scan_records(5, 2, 120)
    assert [rec.q for rec in records] == [19, 29, 59, 79, 89, 109]
    assert [rec.q for rec in records if rec.verdict == CERTIFIED_FREE] == [79, 109]
    by_q = {rec.q: rec for rec in records}
    assert "invalid" in by_q[19].facts
    assert "invalid" not in by_q[29].facts
    assert by_q[29].facts["reasons"]
    expected = [q for q in primes_up_to(120) if (q + 1) % 5 == 0]
    assert [rec.q for rec in records] == expected


def test_candidates_equal_the_filtered_sieve() -> None:
    for p, q_max in ((5, 0), (5, 4), (5, 19), (7, 1000), (13, 5000), (431, 10**4), (5, 30011)):
        expected = [q for q in primes_up_to(q_max) if (q + 1) % p == 0]
        assert list(_candidates(p, q_max)) == expected, (p, q_max)


def test_scan_records_never_sieves_up_to_q_max(monkeypatch) -> None:
    def refuse(n: int) -> list[int]:
        raise AssertionError(f"primes_up_to({n}) called")

    monkeypatch.setattr(arith, "primes_up_to", refuse)
    monkeypatch.setattr(scan, "primes_up_to", refuse, raising=False)
    assert [rec.q for rec in scan_records(5, 2, 200)] == [19, 29, 59, 79, 89, 109, 139, 149, 179, 199]


def test_scan_records_rejects_bad_inputs() -> None:
    for p in (4, 1, -5, 15):
        with pytest.raises(ValueError, match="p must be a prime >= 5"):
            scan_records(p, 2, 100)
    with pytest.raises(ValueError, match="q_max must be >= 0"):
        scan_records(5, 2, -1)
    with pytest.raises(ValueError, match="below 2\\^64"):
        scan_records(5, 2, 2**64)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        scan_records(5, 2, 100, jobs=0)


@pytest.mark.parametrize(
    ("args", "kwargs", "named"),
    [
        ((5.0, 2, 100), {}, "p must be an integer"),
        ((5, 2, 100.0), {}, "q_max must be an integer"),
        ((5, 2.0, 100), {}, "d must be an integer"),
        ((5, 2, 100), {"jobs": 2.0}, "jobs must be an integer"),
        ((5, 2, 100), {"jobs": True}, "jobs must be an integer"),
    ],
)
def test_scan_refuses_a_parameter_that_is_not_an_integer(args, kwargs, named) -> None:
    with pytest.raises(ValueError, match=named):
        scan_q(*args, **kwargs)


def test_cache_file_contains_exact_record_lines(tmp_path) -> None:
    cache = tmp_path / "scan.jsonl"
    records = scan_records(5, 2, 200, cache=str(cache))
    assert [rec.q for rec in records] == [19, 29, 59, 79, 89, 109, 139, 149, 179, 199]
    assert cache.read_text(encoding="utf-8").splitlines() == lines_of(records)


def test_rerun_with_cache_recomputes_nothing(tmp_path) -> None:
    cache = tmp_path / "scan.jsonl"
    first = scan_records(5, 2, 200, cache=str(cache))
    before = cache.read_text(encoding="utf-8")
    second = scan_records(5, 2, 200, cache=str(cache))
    assert lines_of(second) == lines_of(first)
    assert cache.read_text(encoding="utf-8") == before


def test_partial_cache_resumes_to_identical_records(tmp_path) -> None:
    baseline = lines_of(scan_records(5, 2, 200))
    cache = tmp_path / "scan.jsonl"
    cache.write_text("\n".join(baseline[:4]) + "\n", encoding="utf-8")
    resumed = scan_records(5, 2, 200, cache=str(cache))
    assert lines_of(resumed) == baseline
    stored = cache.read_text(encoding="utf-8").splitlines()
    assert sorted(stored) == sorted(baseline)


def test_corrupt_cache_line_warns_and_recomputes(tmp_path, capsys) -> None:
    baseline = lines_of(scan_records(5, 2, 200))
    cache = tmp_path / "scan.jsonl"
    truncated = baseline[3][: len(baseline[3]) // 2]
    cache.write_text("\n".join(baseline[:3] + [truncated]) + "\n", encoding="utf-8")
    resumed = scan_records(5, 2, 200, cache=str(cache))
    err = capsys.readouterr().err
    assert f"warning: skipped 1 unreadable cache line(s) in {cache}" in err
    assert lines_of(resumed) == baseline


def _tampered_lines() -> dict[str, tuple[int, dict]]:
    by_q = {rec.q: json.loads(rec.to_json_line()) for rec in scan_records(5, 2, 200)}
    flipped = by_q[149]
    flipped.update(verdict=CERTIFIED_FREE, rank=2)
    deleted = by_q[29]
    deleted["facts"]["reasons"] = []
    edited = by_q[79]
    edited["facts"]["h_imag_dpq"] = 5 * edited["facts"]["h_imag_dpq"]
    missing = by_q[109]
    del missing["facts"]["e_s_generated"]
    return {
        "flipped verdict": (149, flipped),
        "deleted reason": (29, deleted),
        "fact edited without its reason": (79, edited),
        "missing hypothesis fact": (109, missing),
    }


def test_cache_lines_that_judge_contradicts_are_recomputed(tmp_path, capsys) -> None:
    baseline = lines_of(scan_records(5, 2, 200))
    for case, (q, obj) in _tampered_lines().items():
        line = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        assert line not in baseline, case
        cache = tmp_path / f"{q}.jsonl"
        kept = [other for other in baseline if json.loads(other)["q"] != q]
        cache.write_text("\n".join([line] + kept) + "\n", encoding="utf-8")
        resumed = scan_records(5, 2, 200, cache=str(cache))
        err = capsys.readouterr().err
        assert f"warning: skipped 1 misjudged cache line(s) in {cache}" in err, case
        assert lines_of(resumed) == baseline, case
        # the tampered line stays, and the recomputed record is appended
        stored = cache.read_text(encoding="utf-8").splitlines()
        fresh = next(other for other in baseline if json.loads(other)["q"] == q)
        assert stored == [line] + kept + [fresh], case


def test_cache_line_claiming_invalid_cannot_hide_a_certified_q(tmp_path, capsys) -> None:
    # q = 79 is certified; its line is replaced by q = 19's invalid record
    # moved to q = 79, which judge alone accepts as consistent
    baseline = lines_of(scan_records(5, 2, 200))
    by_q = {json.loads(line)["q"]: json.loads(line) for line in baseline}
    assert by_q[19]["facts"]["invalid"] and not by_q[79]["facts"].get("invalid")
    moved = dict(by_q[19], q=79)
    assert judge(5, 79, 2, moved["facts"])[0] == moved["verdict"]
    kept = [line for line in baseline if json.loads(line)["q"] != 79]
    cache = tmp_path / "scan.jsonl"
    line = json.dumps(moved, sort_keys=True, separators=(",", ":"))
    cache.write_text("\n".join(kept + [line]) + "\n", encoding="utf-8")
    assert scan_q(5, 2, 200, cache=str(cache)) == [79, 109]
    err = capsys.readouterr().err
    assert f"warning: skipped 1 misjudged cache line(s) in {cache}" in err
    assert lines_of(scan_records(5, 2, 200, cache=str(cache))) == baseline


def test_cache_line_missing_a_hypothesis_never_certifies() -> None:
    q, obj = _tampered_lines()["missing hypothesis fact"]
    assert obj["verdict"] == CERTIFIED_FREE and obj["facts"]["reasons"] == []
    verdict, reasons = judge(5, q, 2, obj["facts"])
    assert (verdict, reasons) == (NOT_CERTIFIED, ("e_s_generated is missing",))


def test_all_tampered_lines_together_leave_a_fresh_scan(tmp_path, capsys) -> None:
    baseline = lines_of(scan_records(5, 2, 200))
    tampered = [
        json.dumps(obj, sort_keys=True, separators=(",", ":"))
        for _, obj in _tampered_lines().values()
    ]
    cache = tmp_path / "scan.jsonl"
    cache.write_text("\n".join(tampered) + "\n", encoding="utf-8")
    resumed = scan_records(5, 2, 200, cache=str(cache))
    err = capsys.readouterr().err
    assert f"warning: skipped 4 misjudged cache line(s) in {cache}" in err
    assert lines_of(resumed) == baseline
    assert not set(tampered) & set(lines_of(resumed))


def test_stale_tool_version_line_is_recomputed(tmp_path) -> None:
    fresh = record_for(5, 19, 2)
    stale = json.loads(fresh.to_json_line())
    stale["tool_version"] = "0.0.0"
    cache = tmp_path / "scan.jsonl"
    cache.write_text(json.dumps(stale, sort_keys=True) + "\n", encoding="utf-8")
    records = scan_records(5, 2, 20, cache=str(cache))
    assert [rec.q for rec in records] == [19]
    assert records[0].tool_version == __version__
    assert records[0] == fresh


def test_foreign_cache_lines_are_ignored(tmp_path) -> None:
    # lines for another (p, d) parse fine but must not be reused
    cache = tmp_path / "scan.jsonl"
    cache.write_text(record_for(7, 13, 2).to_json_line() + "\n", encoding="utf-8")
    records = scan_records(5, 2, 20, cache=str(cache))
    assert [(rec.p, rec.q, rec.d) for rec in records] == [(5, 19, 2)]


def test_foreign_lines_are_skipped_before_validation(tmp_path, capsys) -> None:
    # a malformed line of another (p, d) or version is skipped without a
    # warning; a malformed line of this (p, d), or one that is no object,
    # is still unreadable
    record = record_for(5, 19, 2)
    fresh = json.loads(record.to_json_line())
    foreign = [
        dict(fresh, p=7, verdict="maybe"),
        dict(fresh, d=3, facts=[]),
        dict(fresh, tool_version="0.0.0", rank="high"),
        dict(fresh, schema_version=SCHEMA_VERSION + 1, q="19"),
    ]
    cache = tmp_path / "scan.jsonl"
    cache.write_text("".join(json.dumps(obj) + "\n" for obj in foreign), encoding="utf-8")
    assert scan_records(5, 2, 20, cache=str(cache)) == [record]
    assert "warning" not in capsys.readouterr().err
    ours = [dict(fresh, verdict="maybe"), [fresh], "19"]
    cache.write_text("".join(json.dumps(obj) + "\n" for obj in ours), encoding="utf-8")
    scan_records(5, 2, 20, cache=str(cache))
    assert f"warning: skipped 3 unreadable cache line(s) in {cache}" in capsys.readouterr().err


def test_unusable_cache_paths_raise(tmp_path) -> None:
    with pytest.raises(ValueError, match="cannot read cache file"):
        scan_records(5, 2, 20, cache=str(tmp_path))
    with pytest.raises(ValueError, match="cannot append to cache file"):
        scan_records(5, 2, 20, cache=str(tmp_path / "missing" / "scan.jsonl"))


def test_worker_count_does_not_change_output(tmp_path) -> None:
    serial = scan_records(5, 2, 800, jobs=1)
    parallel = scan_records(5, 2, 800, jobs=4)
    assert lines_of(parallel) == lines_of(serial)
    cache = tmp_path / "scan.jsonl"
    with_cache = scan_records(5, 2, 800, cache=str(cache), jobs=4)
    assert lines_of(with_cache) == lines_of(serial)
    assert cache.read_text(encoding="utf-8").splitlines() == lines_of(serial)


def test_parallel_scan_across_batch_boundaries_matches_serial(tmp_path, monkeypatch) -> None:
    # one task per worker and batch, so criterion 8's scan spans many batches
    batches: list[int] = []

    def counting_islice(iterable, size):
        batch = list(islice(iterable, size))
        batches.append(len(batch))
        return batch

    monkeypatch.setattr(scan, "_BATCH_PER_JOB", 1)
    monkeypatch.setattr(scan, "islice", counting_islice)
    serial_cache, parallel_cache = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
    serial = scan_records(7, 2, 2000, cache=str(serial_cache), jobs=1)
    parallel = scan_records(7, 2, 2000, cache=str(parallel_cache), jobs=2)
    assert lines_of(parallel) == lines_of(serial)
    assert parallel_cache.read_bytes() == serial_cache.read_bytes()
    assert sum(batches) == len(serial) and max(batches) == 2 and len(batches) > 10


def _distinct_record(p: int, q: int, d: int) -> ScanRecord:
    # a payload of its own per record: a shared constant would hide the
    # growth of a scan that keeps its records
    payload = {"payload": f"{q:0>64}"}
    return ScanRecord(SCHEMA_VERSION, __version__, p, q, d, NOT_CERTIFIED, None, payload)


def test_scan_memory_does_not_grow_with_q_max(monkeypatch) -> None:
    monkeypatch.setattr(scan, "record_for", _distinct_record)
    peaks = []
    tracemalloc.start()
    try:
        for q_max in (20_000, 200_000):
            tracemalloc.reset_peak()
            assert scan_q(5, 2, q_max) == []
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def test_interrupted_scan_keeps_every_earlier_record(tmp_path, monkeypatch) -> None:
    baseline = lines_of(scan_records(5, 2, 200))
    cache = tmp_path / "scan.jsonl"
    k = 4
    computed: list[int] = []
    opened = []

    def interrupted(p: int, q: int, d: int) -> ScanRecord:
        computed.append(q)
        if len(computed) == k:
            raise KeyboardInterrupt
        return record_for(p, q, d)

    def tracked_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    with monkeypatch.context() as patch:
        patch.setattr(scan, "record_for", interrupted)
        patch.setattr(scan, "open", tracked_open, raising=False)
        with pytest.raises(KeyboardInterrupt):
            scan_records(5, 2, 200, cache=str(cache))
    assert cache.read_text(encoding="utf-8").splitlines() == baseline[: k - 1]
    assert opened and all(fh.closed for fh in opened)
    assert lines_of(scan_records(5, 2, 200, cache=str(cache))) == baseline
    assert cache.read_text(encoding="utf-8").splitlines() == baseline


def fake_record(p: int, q: int, d: int, verdict: str) -> ScanRecord:
    return ScanRecord(
        schema_version=SCHEMA_VERSION,
        tool_version=__version__,
        p=p,
        q=q,
        d=d,
        verdict=verdict,
        rank=2 if verdict == CERTIFIED_FREE else None,
        facts={},
    )


def test_certified_guard_rejects_congruence_violations() -> None:
    # q = -1 (mod p**2) must never appear as certified
    with pytest.raises(RuntimeError, match="violates the family congruences"):
        _validate_emitted(fake_record(5, 149, 2, CERTIFIED_FREE))
    # nor may a q where -d is a square
    with pytest.raises(RuntimeError, match="p=5 q=19 d=2"):
        _validate_emitted(fake_record(5, 19, 2, CERTIFIED_FREE))
    # non-certified records are exempt from the guard
    _validate_emitted(fake_record(5, 149, 2, NOT_CERTIFIED))
    _validate_emitted(fake_record(7, 13, 2, CERTIFIED_FREE))


def test_reproduce_table_rows_and_error_isolation() -> None:
    assert reproduce_table([5], 0, 2) == [TableRow(p=5, certified=(), error=None)]
    rows = reproduce_table([4, 7], 120, 2)
    assert rows[0] == TableRow(
        p=4, certified=(), error="ValueError: p must be a prime >= 5"
    )
    assert rows[1] == TableRow(p=7, certified=(13,), error=None)


def test_reproduce_table_refuses_bad_table_wide_flags() -> None:
    # q_max, jobs and the type of d hold for every row: refused once, not
    # row by row
    with pytest.raises(ValueError, match="q_max must be >= 0"):
        reproduce_table([5, 7], -1, 2)
    with pytest.raises(ValueError, match="d must be an integer"):
        reproduce_table([5, 7], 50, 2.0)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        reproduce_table([5, 7], 50, 2, jobs=0)
