"""Class numbers: form enumeration, cycle counting, and the two oracles."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from pratcert.classno import (
    h_charsum_oracle,
    h_imaginary,
    h_plus_real,
    h_real_analytic_oracle,
    is_fundamental_discriminant,
    reduced_indefinite_forms,
    rho_step,
)
from _oracles import brute_h_imaginary, brute_reduced_indefinite_forms


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


def test_reduced_indefinite_forms_rejects_non_positive():
    for disc in (0, -8):
        with pytest.raises(ValueError):
            reduced_indefinite_forms(disc)
