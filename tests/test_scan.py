"""Tests for the q sweep: records, caching, parallelism, table rows."""

from __future__ import annotations

import json
import pickle
import sys
import tracemalloc
from itertools import islice

import pytest

from pratcert import arith, criteria, scan
from pratcert._version import __version__
from pratcert.arith import primes_up_to
from pratcert.criteria import (
    CERTIFIED_FREE,
    NOT_CERTIFIED,
    SCHEMA_VERSION,
    FreenessReport,
    certify_freeness,
    family_violations,
    judge,
)
from pratcert.scan import (
    TableRow,
    _candidates,
    _validate_emitted,
    record_for,
    reproduce_table,
    scan_q,
    scan_records,
)


def lines_of(records: list[FreenessReport]) -> list[str]:
    return [rec.to_json_line() for rec in records]


def test_record_for_wraps_direct_certification() -> None:
    rec = record_for(7, 13, 2)
    assert rec == certify_freeness(7, 13, 2, exact=False, lazy=True)
    assert (rec.p, rec.q, rec.d, rec.verdict, rec.rank) == (7, 13, 2, CERTIFIED_FREE, 2)
    assert (rec.reasons, rec.invalid) == ((), ())
    line = json.loads(rec.to_json_line())
    assert (line["schema_version"], line["tool_version"]) == (SCHEMA_VERSION, __version__)
    assert line["facts"] == {**rec.facts, "reasons": []}


def test_record_for_invalid_candidate_lists_violations() -> None:
    # -2 = 6**2 (mod 19), so q=19 fails the residue condition for d=2
    rec = record_for(5, 19, 2)
    assert rec == certify_freeness(5, 19, 2, exact=False, lazy=True)
    assert (rec.verdict, rec.rank, rec.mode, rec.facts) == (NOT_CERTIFIED, None, "fast", {})
    assert json.loads(rec.to_json_line())["facts"] == {
        "reasons": ["parameters are outside the certified family"],
        "invalid": ["-d must be a quadratic non-residue modulo q"],
    }


def test_json_line_is_canonical_and_round_trips(tmp_path) -> None:
    cache = tmp_path / "scan.jsonl"
    for p, q, d in ((7, 13, 2), (5, 19, 2), (5, 149, 2)):
        rec = record_for(p, q, d)
        line = rec.to_json_line()
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
        assert "\n" not in line
        cache.write_text(line + "\n", encoding="utf-8")
        assert scan._load_cache(str(cache), p, d) == {q: rec}


def test_records_are_slotted_and_pickle_to_themselves() -> None:
    for args in ((7, 13, 2), (5, 19, 2)):
        rec = record_for(*args)
        assert not hasattr(rec, "__dict__")
        assert pickle.loads(pickle.dumps(rec)) == rec


def test_malformed_cache_lines_are_unreadable(tmp_path, capsys) -> None:
    # a line of this scan's (p, d) and version that holds no record warns
    # and is skipped, so its q is computed afresh
    record = record_for(7, 13, 2)
    good = json.loads(record.to_json_line())
    malformed = [
        [1, 2],
        {**good, "p": 7.0},
        {**good, "q": "13"},
        {**good, "verdict": "MAYBE"},
        {**good, "rank": "2"},
        {**good, "facts": []},
    ]
    cache = tmp_path / "scan.jsonl"
    for obj in malformed:
        cache.write_text(json.dumps(obj) + "\n", encoding="utf-8")
        assert scan_records(7, 2, 13, cache=str(cache)) == [record], obj
        err = capsys.readouterr().err
        assert f"warning: skipped 1 unreadable cache line(s) in {cache}" in err, obj


def test_scan_q_known_rows() -> None:
    assert scan_q(7, 2, 500) == [13, 167, 181, 223, 461]
    assert scan_q(5, 2, 120) == [79, 109]
    assert scan_q(29, 2, 500) == [173, 463]


def test_scan_records_covers_every_candidate() -> None:
    records = scan_records(5, 2, 120)
    assert [rec.q for rec in records] == [19, 29, 59, 79, 89, 109]
    assert [rec.q for rec in records if rec.verdict == CERTIFIED_FREE] == [79, 109]
    by_q = {rec.q: rec for rec in records}
    assert by_q[19].invalid
    assert not by_q[29].invalid
    assert by_q[29].reasons
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


def test_cache_line_claiming_an_empty_invalid_list_cannot_hide_a_certified_q(
    tmp_path, capsys
) -> None:
    # judge finds any facts that hold invalid not certified, even an empty
    # list, which is family_violations of the family-valid (5, 79, 2)
    obj = json.loads(record_for(5, 79, 2).to_json_line())
    facts = {"reasons": ["parameters are outside the certified family"], "invalid": []}
    obj.update(verdict=NOT_CERTIFIED, rank=None, facts=facts)
    assert judge(5, 79, 2, facts) == (NOT_CERTIFIED, tuple(facts["reasons"]))
    assert family_violations(5, 79, 2) == []
    cache = tmp_path / "scan.jsonl"
    cache.write_text(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")
    assert scan_q(5, 2, 120, cache=str(cache)) == [79, 109]
    err = capsys.readouterr().err
    assert f"warning: skipped 1 misjudged cache line(s) in {cache}" in err


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
    assert records == [fresh]
    assert cache.read_text(encoding="utf-8").splitlines()[-1] == fresh.to_json_line()


def test_foreign_cache_lines_are_ignored(tmp_path) -> None:
    # lines for another (p, d) parse fine but must not be reused
    cache = tmp_path / "scan.jsonl"
    cache.write_text(record_for(7, 13, 2).to_json_line() + "\n", encoding="utf-8")
    records = scan_records(5, 2, 20, cache=str(cache))
    assert [(rec.p, rec.q, rec.d) for rec in records] == [(5, 19, 2)]


def test_foreign_written_lines_are_skipped_unparsed(tmp_path, capsys) -> None:
    # a line in to_json_line's form that names another p or d is skipped
    # before json.loads, so even a cut one passes silently; the load of its
    # own (p, d) parses it and counts it unreadable
    def cut_after(line: str, key: str) -> str:
        return line[: line.index(key) + len(key)]

    record = record_for(5, 19, 2)
    cut_p = cut_after(record_for(7, 13, 2).to_json_line(), '"p":7,')
    cut_d = cut_after(record_for(5, 19, 3).to_json_line(), '"p":5,')
    spaced = json.dumps(json.loads(record.to_json_line()), sort_keys=True)
    assert '"p": 5, ' in spaced
    cache = tmp_path / "scan.jsonl"
    text = "\n".join([cut_p, cut_d, spaced]) + "\n"
    cache.write_text(text, encoding="utf-8")
    assert scan_records(5, 2, 20, cache=str(cache)) == [record]
    assert "warning" not in capsys.readouterr().err
    assert cache.read_text(encoding="utf-8") == text
    assert scan_records(7, 2, 13, cache=str(cache)) == [record_for(7, 13, 2)]
    assert f"warning: skipped 1 unreadable cache line(s) in {cache}" in capsys.readouterr().err


def test_cache_load_factors_d_once(tmp_path, monkeypatch) -> None:
    # every invalid line re-checks the family conditions of its (p, q, d),
    # but the squarefree test of d does not depend on q
    calls = []
    real_factor = criteria.factor

    def counting_factor(n):
        calls.append(n)
        return real_factor(n)

    cache = tmp_path / "scan.jsonl"
    records = scan_records(5, 6, 500, cache=str(cache))
    assert sum(bool(rec.invalid) for rec in records) > 10
    monkeypatch.setattr(criteria, "factor", counting_factor)
    assert scan_records(5, 6, 500, cache=str(cache)) == records
    assert calls.count(6) <= 1


def test_cache_load_proves_p_prime_once(tmp_path, monkeypatch) -> None:
    # every invalid line re-checks the family conditions of its (p, q, d),
    # and those on p and d alone are decided once per pair, not per line
    cache = tmp_path / "scan.jsonl"
    records = scan_records(7, 2, 3000, cache=str(cache))
    assert sum(bool(rec.invalid) for rec in records) > 30
    calls = []
    real_is_prime = criteria.is_prime
    monkeypatch.setattr(criteria, "is_prime", lambda n: calls.append(n) or real_is_prime(n))
    for _ in range(3):
        calls.clear()
        assert scan_records(7, 2, 3000, cache=str(cache)) == records
        assert calls.count(7) <= 1


def test_resumed_records_hold_the_programs_own_strings(tmp_path) -> None:
    cache = tmp_path / "scan.jsonl"
    fresh = scan_records(5, 2, 500, cache=str(cache))
    resumed = scan_records(5, 2, 500, cache=str(cache))
    assert resumed == fresh
    for rec in resumed:
        assert all(name is sys.intern(name) for name in rec.facts)
        assert rec.verdict is CERTIFIED_FREE or rec.verdict is NOT_CERTIFIED
    # the reasons and invalid list that re-judge the line stand in for the
    # parsed ones: their strings are the certifier's
    invalid = [rec for rec in resumed if rec.invalid]
    assert len(invalid) >= 5
    for rec in invalid:
        outside = certify_freeness(5, rec.q, 2).reasons
        assert all(a is b for a, b in zip(rec.reasons, outside, strict=True))
        violations = family_violations(5, rec.q, 2)
        assert all(a is b for a, b in zip(rec.invalid, violations, strict=True))
    assert sum("mode" in rec.facts for rec in resumed) >= 5
    fast = record_for(5, 149, 2).mode
    for rec in resumed:
        assert rec.mode is fast and rec.facts.get("mode", fast) is fast
    # each record keeps a facts dict of its own
    assert len({id(rec.facts) for rec in resumed}) == len(resumed)


def test_resumed_records_cost_little_more_than_fresh_ones(tmp_path) -> None:
    # the resume holds one record per cached q; held bytes, not the peak
    cache = str(tmp_path / "scan.jsonl")
    scan_records(5, 2, 3000)  # module state the scan builds is not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fresh = scan_records(5, 2, 3000, cache=cache)
        fresh_bytes = tracemalloc.get_traced_memory()[0] - base
        base = tracemalloc.get_traced_memory()[0]
        resumed = scan_records(5, 2, 3000, cache=cache)
        resumed_bytes = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert resumed == fresh
    assert resumed_bytes <= 1.5 * fresh_bytes, (resumed_bytes, fresh_bytes)


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


def _distinct_record(p: int, q: int, d: int) -> FreenessReport:
    # a payload of its own per record: a shared constant would hide the
    # growth of a scan that keeps its records
    payload = {"payload": f"{q:0>64}"}
    return FreenessReport(p, q, d, NOT_CERTIFIED, None, "fast", payload)


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

    def interrupted(p: int, q: int, d: int) -> FreenessReport:
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


def fake_record(p: int, q: int, d: int, verdict: str) -> FreenessReport:
    return FreenessReport(
        p=p,
        q=q,
        d=d,
        verdict=verdict,
        rank=2 if verdict == CERTIFIED_FREE else None,
        mode="fast",
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


def test_reproduce_table_rows() -> None:
    assert TableRow.__slots__ == ("p", "certified")
    assert reproduce_table([5], 0, 2) == [TableRow(p=5, certified=())]
    assert reproduce_table([5, 7], 120, 2) == [
        TableRow(p=5, certified=(79, 109)),
        TableRow(p=7, certified=(13,)),
    ]


def test_reproduce_table_refuses_a_bad_p_before_any_scan(monkeypatch) -> None:
    # once the family guard refuses what the class numbers cannot take, a
    # bad p is the one way a row could raise: it refuses the whole table
    calls = []
    monkeypatch.setattr(scan, "scan_q", lambda *args, **kw: calls.append(args) or [])
    for p_list, named in (([4, 7], "p=4"), ([7, 5, 9], "p=9"), ([5, 2.0], "p=2.0")):
        with pytest.raises(ValueError, match=f"^{named}: p must be"):
            reproduce_table(p_list, 120, 2)
    assert calls == []


def test_reproduce_table_refuses_bad_table_wide_flags() -> None:
    # q_max, jobs and the type of d hold for every row: refused once, not
    # row by row
    with pytest.raises(ValueError, match="q_max must be >= 0"):
        reproduce_table([5, 7], -1, 2)
    with pytest.raises(ValueError, match="d must be an integer"):
        reproduce_table([5, 7], 50, 2.0)
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        reproduce_table([5, 7], 50, 2, jobs=0)
