"""Class numbers: root-class count, form enumeration, cycle counting, oracles."""

from __future__ import annotations

from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from pratcert import classno
from pratcert.classno import (
    _root_class_count,
    h_charsum_oracle,
    h_imaginary,
    h_plus_real,
    h_real_analytic_oracle,
    is_fundamental_discriminant,
    reduced_indefinite_forms,
    rho_step,
)
from pratcert.quadratic import unit_norm_sign
from _oracles import (
    brute_h_imaginary,
    brute_reduced_indefinite_forms,
    brute_rho_cycle_count,
    brute_rho_cycles,
)


def test_fundamental_discriminant_predicate():
    assert is_fundamental_discriminant(-3)
    assert is_fundamental_discriminant(-4)
    assert is_fundamental_discriminant(-8)
    assert is_fundamental_discriminant(5)
    assert is_fundamental_discriminant(364)
    assert not is_fundamental_discriminant(-12)
    assert not is_fundamental_discriminant(-50)
    assert not is_fundamental_discriminant(20)
    assert not is_fundamental_discriminant(1)
    assert not is_fundamental_discriminant(0)


def test_h_imaginary_frozen_values():
    assert h_imaginary(-8).h == 1
    assert h_imaginary(-23).h == 3
    assert h_imaginary(-4).h == 1
    assert h_imaginary(-3).h == 1
    assert h_imaginary(-47).h == 5
    assert h_imaginary(-728).h == 12
    result = h_imaginary(-8)
    assert result.h_plus is None
    assert result.method == "reduced-form count"


def test_h_imaginary_rejects_bad_discriminants():
    with pytest.raises(ValueError):
        h_imaginary(-12)
    with pytest.raises(ValueError):
        h_imaginary(8)


def test_charsum_oracle_frozen_values():
    assert h_charsum_oracle(-8) == 1
    assert h_charsum_oracle(-23) == 3
    assert h_charsum_oracle(-728) == 12
    assert h_charsum_oracle(-728) % 7 != 0


def test_charsum_oracle_rejects_out_of_range():
    with pytest.raises(ValueError):
        h_charsum_oracle(-4)
    with pytest.raises(ValueError):
        h_charsum_oracle(-3)
    with pytest.raises(ValueError):
        h_charsum_oracle(-12)


def test_h_imaginary_matches_charsum_sample():
    # the full (-10^4, -4) sweep is acceptance criterion 3; spot a prefix here
    for disc in range(-5, -600, -1):
        if is_fundamental_discriminant(disc):
            assert h_imaginary(disc).h == h_charsum_oracle(disc), disc


def test_h_plus_real_frozen_values():
    result = h_plus_real(12)
    assert (result.h_plus, result.h) == (2, 1)
    assert result.method == "rho-cycle count"
    result = h_plus_real(8)
    assert (result.h_plus, result.h) == (1, 1)
    result = h_plus_real(364)
    assert (result.h_plus, result.h) == (4, 2)
    result = h_plus_real(5)
    assert (result.h_plus, result.h) == (1, 1)
    result = h_plus_real(40)
    assert (result.h_plus, result.h) == (2, 2)


def test_h_plus_real_rejects_bad_discriminants():
    with pytest.raises(ValueError):
        h_plus_real(20)
    with pytest.raises(ValueError):
        h_plus_real(-8)


def test_narrow_wide_dichotomy():
    for disc in range(5, 500):
        if not is_fundamental_discriminant(disc):
            continue
        result = h_plus_real(disc)
        assert result.h_plus in (result.h, 2 * result.h)


def test_rho_cycles_partition_reduced_forms():
    # every reduced form sits in exactly one rho-cycle and rho permutes them
    for disc in (12, 40, 364, 229):
        forms = reduced_indefinite_forms(disc)
        seen: set[tuple[int, int, int]] = set()
        for start in forms:
            if start in seen:
                continue
            cycle = {start}
            f = rho_step(start, disc)
            while f != start:
                assert f in forms
                assert f not in seen
                cycle.add(f)
                f = rho_step(f, disc)
            seen |= cycle
        assert seen == forms


def test_analytic_oracle_rounds_to_h_sample():
    # the full 0 < disc < 2000 sweep is acceptance criterion 4
    for disc in (5, 8, 12, 40, 364, 1093):
        h = h_plus_real(disc).h
        estimate = h_real_analytic_oracle(disc)
        assert abs(estimate - h) < 0.49
        assert round(estimate) == h


def test_analytic_oracle_rejects_bad_input():
    with pytest.raises(ValueError):
        h_real_analytic_oracle(-8)
    with pytest.raises(ValueError):
        h_real_analytic_oracle(20)


def _matches_oracle(disc: int) -> None:
    if disc < 0:
        assert h_imaginary(disc).h == brute_h_imaginary(disc), disc
    else:
        assert reduced_indefinite_forms(disc) == brute_reduced_indefinite_forms(disc), disc
        assert h_plus_real(disc).h_plus == brute_rho_cycle_count(disc), disc


def test_reduced_forms_match_brute_oracles_below_5000():
    # every fundamental discriminant with 0 < |disc| < 5000, both signs
    for disc in range(-4999, 5000):
        if is_fundamental_discriminant(disc):
            _matches_oracle(disc)


def _near_ten_million(sign: int, per_class: int) -> list[int]:
    # the first fundamental discriminants beyond sign * 10^7 in each class
    # mod 16 that a fundamental discriminant can fall in (8 and 12 are the
    # even ones, 8 those divisible by 8)
    out = []
    for cls in (1, 5, 9, 13, 8, 12):
        disc, found = sign * 10**7, 0
        while found < per_class:
            if disc % 16 == cls and is_fundamental_discriminant(disc):
                out.append(disc)
                found += 1
            disc += sign
    return out


def _counted_bound(disc: int) -> int:
    # the last a whose forms are counted as root classes, not enumerated
    if disc < 0:
        return isqrt(-disc - 1) // 2
    return (2 * isqrt(disc) + 1) // 4


def _square_mod(disc: int, m: int) -> bool:
    return any((x * x - disc) % m == 0 for x in range(m))


def test_reduced_forms_match_brute_oracles_near_ten_million():
    discs = _near_ten_million(-1, 4) + _near_ten_million(1, 2)
    # a <= sqrt(|disc|)/2 with disc a square mod 4a always leaves a reduced
    # form with leading coefficient a; make sure the set reaches a
    # divisible by 27 (Hensel to 3^3), by 2^6 (2-adic lifting) and by a
    # large odd square (Hensel at a prime near sqrt(a_max))
    for sign in (-1, 1):
        side = [disc for disc in discs if disc * sign > 0]
        assert {disc % 16 for disc in side} == {1, 5, 9, 13, 8, 12}
        for a in (27, 64, 31 * 31):
            assert any(_square_mod(disc, 4 * a) for disc in side), (sign, a)
        # a = 2^10 lies in the counted part of every disc here, and has
        # root classes when disc = 1 (mod 8)
        assert all(_counted_bound(disc) >= 1024 for disc in side)
        assert any(disc % 8 == 1 for disc in side)
    for disc in discs:
        _matches_oracle(disc)


@settings(max_examples=12, derandomize=True, deadline=None, database=None)
@given(st.integers(-2 * 10**5, 2 * 10**5).filter(is_fundamental_discriminant))
def test_class_numbers_match_oracles_property(disc):
    if disc < 0:
        h = h_imaginary(disc).h
        assert h == brute_h_imaginary(disc)
        if disc < -4:
            assert h == h_charsum_oracle(disc)
    else:
        assert reduced_indefinite_forms(disc) == brute_reduced_indefinite_forms(disc)
        assert h_plus_real(disc).h_plus == brute_rho_cycle_count(disc)


def test_reduced_indefinite_forms_rejects_non_positive():
    for disc in (0, -8):
        with pytest.raises(ValueError):
            reduced_indefinite_forms(disc)


def _brute_root_classes(disc: int, a: int) -> int:
    return sum(1 for b in range(2 * a) if (b * b - disc) % (4 * a) == 0)


def _count_discs(sign: int) -> list[int]:
    # 20 fundamental discriminants of one sign, cycling through the classes
    # mod 16 that a fundamental discriminant can fall in
    out = []
    for i in range(20):
        cls = (1, 5, 9, 13, 8, 12)[i % 6]
        disc = sign * (1000 + 2003 * i)
        while not (disc % 16 == cls and is_fundamental_discriminant(disc)):
            disc += sign
        out.append(disc)
    return out


def test_root_class_count_matches_brute_count():
    for sign in (-1, 1):
        discs = _count_discs(sign)
        assert {disc % 16 for disc in discs} == {1, 5, 9, 13, 8, 12}
        # N(a) = 0 for l^2 | a with l | disc: such a lie below 300
        assert all(any(disc % l == 0 for disc in discs) for l in (3, 5, 7, 11, 13))
        for disc in discs:
            assert _root_class_count(disc, 0) == 0
            total = 0
            for a in range(1, 301):
                total += _brute_root_classes(disc, a)
                assert _root_class_count(disc, a) == total, (disc, a)


def test_root_class_count_at_high_powers_of_two():
    # N(2^k) = 2 for k >= 1 when disc = 1 (mod 8); 0 for k >= 1 when
    # disc = 5 (mod 8) and for k >= 2 when disc is even
    expected = {1: 2, 9: 2, 5: 0, 13: 0, 8: 0, 12: 0}
    for sign in (-1, 1):
        for disc in _count_discs(sign)[:6]:
            for k in (10, 14):
                a = 2**k
                n = _root_class_count(disc, a) - _root_class_count(disc, a - 1)
                assert n == _brute_root_classes(disc, a) == expected[disc % 16], (disc, k)


def test_imaginary_count_meets_enumeration():
    # a <= x = isqrt(|disc| - 1) // 2 (4a^2 < |disc|) is counted and a = x + 1
    # is the first enumerated; take |disc| just above 4x^2 and just below
    # 4(x + 1)^2, where the forms (x + 1, b, c) can have c = a (1 - 4a^2
    # gives (a, +-1, a), of which only b >= 0 counts) or c < a
    low, high = [], []
    for x in range(20, 60):
        for r in range(1, 9):
            for side, disc in ((low, -(4 * x * x + r)), (high, r - 4 * (x + 1) ** 2)):
                if is_fundamental_discriminant(disc):
                    assert _counted_bound(disc) == x
                    side.append(disc)
    assert len(low) >= 30 and len(high) >= 30
    assert any(disc == 1 - 4 * (_counted_bound(disc) + 1) ** 2 for disc in high)
    for disc in low + high:
        assert h_imaginary(disc).h == brute_h_imaginary(disc), disc


def test_real_count_meets_enumeration():
    # a <= (2s + 1) // 4 is counted: there the window s - 2a < b <= s holds
    # one b of each root class.  4a is even, so the last counted a has
    # 4a = 2s for even s and 4a = 2s - 2 for odd s
    parities = set()
    for s in range(40, 70):
        for r in range(1, 9):
            for disc in (s * s + r, (s + 1) ** 2 - r):
                if not is_fundamental_discriminant(disc):
                    continue
                head = _counted_bound(disc)
                assert isqrt(disc) == s and 4 * head in (2 * s, 2 * s - 2)
                forms = brute_reduced_indefinite_forms(disc)
                assert _root_class_count(disc, head) == sum(
                    1 for a, _, _ in forms if 0 < a <= head
                ), disc
                assert h_plus_real(disc).h_plus == brute_rho_cycle_count(disc), disc
                parities.add(s % 2)
    assert parities == {0, 1}


def test_h_plus_real_finds_cycles_beyond_a_equal_one():
    # h+ >= 8 with cycles of unequal length, whose smallest |a| exceeds 1
    # for most cycles (34572: up to 58; 34689: h+ = 64)
    for disc in (904, 924, 940, 1129, 34572, 34689):
        cycles = brute_rho_cycles(disc)
        assert len(cycles) >= 8
        assert len({len(cycle) for cycle in cycles}) > 1
        assert max(min(abs(f[0]) for f in cycle) for cycle in cycles) > 1
        assert h_plus_real(disc).h_plus == len(cycles), disc


def test_h_plus_real_refuses_a_total_the_cycles_do_not_cover(monkeypatch):
    count = classno._root_class_count
    monkeypatch.setattr(classno, "_root_class_count", lambda disc, x: count(disc, x) + 1)
    for disc in (5, 12, 904, 34689):
        with pytest.raises(ArithmeticError):
            h_plus_real(disc)


def test_rho_walk_stops_within_the_counted_head(monkeypatch):
    # every cycle holds a form with |a| < sqrt(disc)/2, reached as (a, b, c)
    # or as the partner of (|a|, b, -c): the walk, which takes the forms
    # from a = 1, never needs an a beyond the counted head
    enumerate_forms = classno._reduced_forms
    reached: list[int] = []

    def recording(disc, a_lo=1):
        for form in enumerate_forms(disc, a_lo):
            if a_lo == 1:
                reached.append(form[0])
            yield form

    monkeypatch.setattr(classno, "_reduced_forms", recording)
    for disc in [*range(5, 5000), 34572, 34689]:
        if is_fundamental_discriminant(disc):
            reached.clear()
            h_plus_real(disc)
            assert max(reached) <= _counted_bound(disc), disc


def test_h_plus_real_enumerates_only_from_a_equal_one(monkeypatch):
    # the upper half of a is never enumerated: the only call starts the
    # walk at a = 1, and the stop total is counted as root classes
    enumerate_forms = classno._reduced_forms
    starts: list[int] = []

    def recording(disc, a_lo=1):
        starts.append(a_lo)
        return enumerate_forms(disc, a_lo)

    monkeypatch.setattr(classno, "_reduced_forms", recording)
    for disc in (5, 12, 904, 34689, *_near_ten_million(1, 1)):
        starts.clear()
        h_plus_real(disc)
        assert starts == [1], disc


def test_principal_cycle_parity_is_the_unit_norm():
    # h+ = h exactly when the fundamental unit has norm -1, the norm read
    # from the continued-fraction period by a walk h_plus_real never calls
    discs = [disc for disc in range(5, 5000) if is_fundamental_discriminant(disc)]
    discs += _near_ten_million(1, 2)
    norms = set()
    for disc in discs:
        norm = unit_norm_sign(disc if disc % 4 == 1 else disc // 4)
        norms.add(norm)
        r = h_plus_real(disc)
        assert (r.h_plus == r.h) == (norm == -1), disc
    assert norms == {-1, 1}
