"""Tests of the benchmark's own code: statistics, span arithmetic, and that
every correctness check passes on the program's outputs and fails on a
corrupted one.

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from inputs import primes_through  # noqa: E402
from run import tail_percentile  # noqa: E402
from spans import Span, layer_metrics, self_time  # noqa: E402

from pratcert import quadratic, scan  # noqa: E402


def _record(p: int, q: int, d: int) -> dict:
    return json.loads(scan.record_for(p, q, d).to_json_line())


def test_tail_percentile_keeps_ten_samples_beyond() -> None:
    for n in range(100, 400):
        samples = [float(i) for i in range(n)]
        value = tail_percentile(samples)
        assert sum(1 for x in samples if x > value) >= 10
        assert value >= 0.9 * (n - 1) - 1
    assert tail_percentile([float(i) for i in range(100)]) == 89.0
    with pytest.raises(ValueError):
        tail_percentile([float(i) for i in range(99)])


def test_self_time_subtracts_the_union_of_children() -> None:
    parent = Span(0, "criteria.certify", 0, 0.0, 10.0, None)
    children = [
        Span(1, "classno.h_imaginary", 0, 1.0, 3.0, 0),
        Span(2, "classno.h_imaginary", 0, 2.0, 5.0, 0),  # overlaps the first
        Span(3, "quadratic.unit_mod", 0, 6.0, 7.0, 0),
        Span(4, "arith.factor", 0, 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert self_time(parent, children) == pytest.approx(4.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_layer_metrics_on_nested_spans() -> None:
    spans = [
        Span(0, "criteria.certify", 0, 0.0, 10.0, None, "certified_free"),
        Span(1, "classno.h_imaginary", 0, 1.0, 4.0, 0, -8),
        Span(2, "arith.factor", 0, 1.5, 2.0, 1),  # grandchild: inside h_imaginary
        Span(3, "classno.h_imaginary", 0, 4.0, 6.0, 0, -40),
        Span(4, "quadratic.unit_mod", 0, 6.0, 7.0, 0),
        Span(5, "criteria.certify", 1, 10.0, 12.0, None, "not_certified"),
        Span(6, "classno.h_imaginary", 1, 10.5, 11.5, 5, -8),
    ]
    m = layer_metrics(spans)
    assert m["criteria.certify_self_s"] == pytest.approx((10 - 6) + (2 - 1))
    assert m["classno.h_imaginary_s"] == pytest.approx(6.0)
    assert m["classno.h_imaginary_calls"] == 3
    assert m["classno.h_imaginary_distinct"] == 2
    assert m["arith.factor_s"] == pytest.approx(0.5)
    assert (m["criteria.reached_classno"], m["criteria.reached_unit"]) == (2, 1)
    assert (m["criteria.certified"], m["criteria.unit_rejects_after_classno"]) == (1, 0)


def test_table_row_check_fails_with_one_q_removed() -> None:
    p = 29
    records = [_record(p, q, 2) for q in primes_through(10**4) if (q + 1) % p == 0]
    emitted = {r["q"] for r in records if r["verdict"] == checks.CERTIFIED}
    assert checks.table_row_problems(p, emitted) == []
    norm_minus = {
        q for q in emitted if checks.unit_norm(checks.fundamental_discriminant(p * q)) == -1
    }
    assert norm_minus and emitted - norm_minus
    for q in (min(norm_minus), min(emitted - norm_minus)):
        assert checks.table_row_problems(p, emitted - {q}), q


def test_unit_check_fails_on_the_square_of_the_unit() -> None:
    p, q = 7, 13
    fu = quadratic.fundamental_unit(quadratic.make_field(p * q))
    unit = (fu.elem.x, fu.elem.y, fu.elem.den, fu.unit_norm)
    assert checks.check_units([(p, q)], [unit]) == []
    square = fu.elem * fu.elem
    squared = (square.x, square.y, square.den, 1)
    problems = checks.check_units([(p, q)], [squared])
    assert any("regulator" in s for s in problems)
    assert any("oracle" in s for s in problems)


def test_scan_check_fails_on_a_class_number_off_by_one() -> None:
    # a small family-valid q = -1 (mod 5) whose record reaches every class number
    primes = set(primes_through(2000))
    for q in range(9, 2000, 5):
        if q in primes:
            rec = _record(5, q, 2)
            if "h_real_pq" in rec["facts"]:
                break
    item = (5, q, 2)
    assert checks.check_scan([item], [rec]) == []
    for key in ("h_imag_d", "h_imag_dpq", "h_real_pq"):
        bad = json.loads(json.dumps(rec))
        bad["facts"][key] += 1
        assert checks.check_scan([item], [bad]), key


def test_analytic_class_numbers_on_small_discriminants() -> None:
    from pratcert.classno import h_imaginary, h_plus_real, is_fundamental_discriminant

    for disc in range(-3, -400, -1):
        if is_fundamental_discriminant(disc):
            assert round(checks.h_imaginary_analytic(disc)) == h_imaginary(disc).h
    for disc in range(5, 400):
        if is_fundamental_discriminant(disc):
            assert round(checks.h_real_analytic(disc)) == h_plus_real(disc).h
