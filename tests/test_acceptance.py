"""Acceptance suite: one test per shipped criterion.

Each test_criterion_N docstring's first line is the label printed in the
terminal summary (see conftest).  Budgets and tolerances are pinned in the
asserts; the table test prints both comparison sets before judging them.
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from pathlib import Path

from _oracles import (
    h_charsum_oracle,
    h_real_analytic_oracle,
    is_square,
    pell_min_solution,
    pth_power_oracle,
    stabilized_place_count,
    unit_minimality_certificate,
    unit_power,
)
from pratcert.arith import primes_up_to
from pratcert.classno import h_imaginary, h_plus_real, is_fundamental_discriminant
from pratcert.cli import main
from pratcert.criteria import (
    CERTIFIED_FREE,
    FreenessReport,
    certify_freeness,
    family_violations,
    prat_biquad,
)
from pratcert.localfield import (
    classify_splitting,
    is_pth_power_local,
    tower_places,
)
from pratcert.quadratic import QuadElem, fundamental_unit, make_field
from pratcert.scan import record_for, reproduce_table, scan_records

DATA = Path(__file__).parent / "data"


def test_criterion_1(capsys) -> None:
    """worked example (p=7, q=13, d=2) certifies with exact facts in under 1 s"""
    start = time.perf_counter()
    code = main(["check", "--p", "7", "--q", "13", "--d", "2", "--format", "json"])
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == CERTIFIED_FREE
    assert payload["rank"] == 2
    facts = payload["facts"]
    assert facts["v_p_val"] == 1
    assert facts["v_q_val"] == 1
    assert facts["s"] == 1
    assert facts["alpha_S"] == 1
    assert facts["h_imag_d"] == 1
    assert facts["h_real_pq"] == 2 and facts["h_real_pq"] % 7 != 0
    assert facts["h_imag_dpq"] == 12 and facts["h_imag_dpq"] % 7 != 0
    assert facts["unit"] == "1574 + 165*sqrt(91)"
    assert elapsed < 1.0


# per-row (listed, emitted, missing, extra) counts, the summary table of
# docs/table_notes.md
TABLE_COUNTS = {
    5: (62, 67, 11, 16),
    7: (66, 55, 11, 0),
    13: (37, 47, 3, 13),
    29: (11, 15, 0, 4),
    431: (1, 1, 0, 0),
}


def _full_certificates(p: int, d: int, q_max: int) -> dict[int, FreenessReport]:
    """Non-lazy fast-path certificates for every family-valid q = -1 (mod p)."""
    return {
        q: certify_freeness(p, q, d, exact=False)
        for q in primes_up_to(q_max)
        if (q + 1) % p == 0 and not family_violations(p, q, d)
    }


def _reference_predicate(report: FreenessReport) -> bool:
    """The predicate behind reference_rows.json (docs/table_notes.md).

    The three quadratic subfields of Q(sqrt(pq), sqrt(-d)) are p-rational
    and v(eps**2 - 1) = 1 above both p and q; there is no condition on s.
    """
    p, q, d = report.p, report.q, report.d
    return (
        report.facts["v_p_val"] == 1
        and report.facts["v_q_val"] == 1
        and prat_biquad(p * q, -d, p).verdict
    )


def _p_adic_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_criterion_2() -> None:
    """reference predicate reproduces the frozen rows exactly; each certifier divergence is classified"""
    data = json.loads((DATA / "reference_rows.json").read_text(encoding="utf-8"))
    assert data["d"] == 2 and data["q_max"] == 10_000
    assert data["rows"]["431"] == [7757]
    assert (data["rows"]["7"][0], data["rows"]["7"][-1]) == (13, 9743)

    start = time.perf_counter()
    rows = reproduce_table([5, 7, 13, 29, 431], 10_000, 2, jobs=4)
    elapsed = time.perf_counter() - start

    assert [row.p for row in rows] == sorted(TABLE_COUNTS)
    for row in rows:
        p = row.p
        listed = data["rows"][str(p)]
        emitted = list(row.certified)
        missing = sorted(set(listed) - set(emitted))
        extra = sorted(set(emitted) - set(listed))
        print(
            f"p={p}: listed {len(listed)}, emitted {len(emitted)}, "
            f"missing {len(missing)}, extra {len(extra)}"
        )
        if missing:
            print(f"  listed but not emitted: {missing}")
        if extra:
            print(f"  emitted but not listed: {extra}")

        # the second judge: the reference predicate regenerates the row
        certs = _full_certificates(p, 2, 10_000)
        reference = [q for q, report in certs.items() if _reference_predicate(report)]
        assert reference == listed, (p, sorted(set(reference) ^ set(listed)))

        # triage, see docs/table_notes.md: every missing q fails the
        # single-stable-place hypothesis and nothing else, and every extra
        # q has a norm -1 unit, which satisfies the valuation hypotheses
        # with v = 0
        for q in missing:
            report = certs[q]
            s = p ** (_p_adic_valuation(q + 1, p) - 1)
            assert s > 1 and report.facts["s"] == s, (p, q, report.facts)
            assert report.reasons == (
                f"s = {s}, need a single stable place above q in the tower",
            ), (p, q, report.reasons)
        for q in extra:
            facts = record_for(p, q, 2).facts
            assert facts["unit_norm"] == -1, (p, q, facts)
            assert facts["v_p_val"] == 0 and facts["v_q_val"] == 0, (p, q)

        # the whole row, from the two classes rather than the differences:
        # the listed q except those with q = -1 (mod p^2), plus the
        # certified q whose unit has norm -1
        class_1 = {q for q in listed if (q + 1) % (p * p) == 0}
        class_2 = {
            q
            for q, report in certs.items()
            if report.verdict == CERTIFIED_FREE and report.facts["unit_norm"] == -1
        }
        assert set(emitted) == (set(listed) - class_1) | class_2, p
        counts = (len(listed), len(emitted), len(missing), len(extra))
        assert counts == TABLE_COUNTS[p], (p, counts)

    assert elapsed < 300.0


def test_criterion_3() -> None:
    """h_imaginary equals the character-sum oracle on every fundamental disc in (-10^4, -4)"""
    start = time.perf_counter()
    checked = 0
    for disc in range(-5, -10_000, -1):
        if not is_fundamental_discriminant(disc):
            continue
        assert h_imaginary(disc).h == h_charsum_oracle(disc), disc
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 3041
    assert elapsed < 60.0


def test_criterion_4() -> None:
    """narrow-cycle class numbers round through the analytic estimate for 0 < disc < 2000"""
    checked = 0
    for disc in range(5, 2000):
        if not is_fundamental_discriminant(disc):
            continue
        h = h_plus_real(disc).h
        estimate = h_real_analytic_oracle(disc)
        assert abs(estimate - h) < 0.5 - 1e-6, (disc, h, estimate)
        checked += 1
    assert checked == 607


def test_criterion_5() -> None:
    """fundamental units are minimal for every nonsquare radicand below 300"""
    verified: dict[int, str] = {}
    for m in range(2, 300):
        if is_square(m):
            continue
        field = make_field(m)
        if field.m in verified:
            continue
        fu = fundamental_unit(field)
        e = fu.elem
        hit = pell_min_solution(field.m, 20_000)
        if hit is not None:
            x, y, den = hit
            assert (e.x, e.y, e.den) == (x, y, den), (field.m, hit)
            assert fu.unit_norm == (x * x - field.m * y * y) // (den * den)
            verified[field.m] = "search"
        else:
            ok, witness = unit_minimality_certificate(
                e.x, e.y, e.den, fu.unit_norm, field.m
            )
            assert ok, (field.m, witness)
            verified[field.m] = "certificate"
    routes = Counter(verified.values())
    assert len(verified) == 182
    assert routes["search"] == 154 and routes["certificate"] == 28


def test_criterion_6() -> None:
    """local p-th power tests accept constructed powers and match the ramified oracle"""
    rng = random.Random(20260815)
    kinds = {5: {"split": 11, "inert": 7, "ramified": 35},
             7: {"split": 11, "inert": 3, "ramified": 35}}
    for p, by_kind in kinds.items():
        for kind, m in by_kind.items():
            field = make_field(m)
            ctx = classify_splitting(field, p)
            assert ctx.kind == kind
            eps = fundamental_unit(field).elem
            for _ in range(200):
                k = rng.choice([k for k in range(-8, 9) if k])
                u = QuadElem.make(field, *unit_power(eps.x, eps.y, eps.den, field.m, k))
                if rng.random() < 0.5:
                    u = QuadElem(field, -u.x, -u.y, u.den)
                w = unit_power(u.x, u.y, u.den, field.m, p)
                flags = is_pth_power_local(QuadElem.make(field, *w), ctx)
                assert flags == (True,) * len(flags), (p, m, str(u))
                if kind == "ramified":
                    oracle = pth_power_oracle(u.x, u.y, u.den, field.m, p)
                    assert is_pth_power_local(u, ctx)[0] == oracle
    # hand-computed cases, bit-exact
    f11 = make_field(11)
    eps11 = fundamental_unit(f11).elem
    assert eps11 == QuadElem(f11, 10, 3, 1)
    assert is_pth_power_local(eps11, classify_splitting(f11, 5)) == (False, False)
    f7 = make_field(7)
    eps7 = fundamental_unit(f7).elem
    assert eps7 == QuadElem(f7, 8, 3, 1)
    assert is_pth_power_local(eps7, classify_splitting(f7, 5)) == (False,)


def test_criterion_7() -> None:
    """tower place counts match the layer oracle, and s=1 iff q != -1 mod p^2 on all candidates"""
    rng = random.Random(7)
    odd_primes = [q for q in primes_up_to(3000) if q > 2]
    pairs: set[tuple[int, int, int]] = set()
    while len(pairs) < 50:
        p = rng.choice([5, 7, 13])
        q = rng.choice(odd_primes)
        f = rng.randrange(1, 4)
        if q != p:
            pairs.add((p, q, f))
    for p, q, f in sorted(pairs):
        assert tower_places(q, f, p) == stabilized_place_count(q, f, p), (p, q, f)
    # the family shortcut on every scanned candidate for all table rows
    for p in (5, 7, 13, 29, 431):
        for q in primes_up_to(10_000):
            if (q + 1) % p != 0:
                continue
            s = tower_places(q, 2, p)
            assert (s == 1) == ((q + 1) % (p * p) != 0), (p, q, s)


def test_criterion_8(capsys, tmp_path) -> None:
    """scans are byte-identical across worker counts, and resume equals fresh"""
    serial = [r.to_json_line() for r in scan_records(7, 2, 2000, jobs=1)]
    parallel = [r.to_json_line() for r in scan_records(7, 2, 2000, jobs=8)]
    assert parallel == serial

    argv = ["scan", "--p", "7", "--d", "2", "--q-max", "2000"]
    assert main(argv + ["--jobs", "1"]) == 0
    out_one = capsys.readouterr().out
    assert main(argv + ["--jobs", "8"]) == 0
    out_eight = capsys.readouterr().out
    assert out_eight == out_one

    # interrupted-and-resumed scan equals a fresh one, on disk as well
    cache = tmp_path / "scan.jsonl"
    cache.write_text("\n".join(serial[:7]) + "\n", encoding="utf-8")
    resumed = [
        r.to_json_line()
        for r in scan_records(7, 2, 2000, cache=str(cache), jobs=8)
    ]
    assert resumed == serial
    assert sorted(cache.read_text(encoding="utf-8").splitlines()) == sorted(serial)
