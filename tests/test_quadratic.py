"""Quadratic fields: elements, fundamental units, valuations."""

from __future__ import annotations

import pickle
import random
import sys
from collections import Counter
from math import isqrt

import pytest

from pratcert import quadratic
from pratcert.arith import padic_valuation
from pratcert.quadratic import (
    GE3,
    FundUnit,
    QuadElem,
    QuadField,
    fundamental_unit,
    fundamental_unit_mod,
    make_field,
    unit_norm_sign,
    unit_sq_minus_one_valuation,
)
from _oracles import cf_unit_oracle, pell_min_solution, unit_power


def _power(u: QuadElem, k: int) -> QuadElem:
    return QuadElem.make(u.field, *unit_power(u.x, u.y, u.den, u.field.m, k))


def _shifted_norm(u: QuadElem, s: int) -> int:
    # N(u + s) from the coordinates of u
    return QuadElem.make(u.field, u.x + s * u.den, u.y, u.den).norm()


def test_make_field_examples():
    f = make_field(91)
    assert (f.m, f.disc, f.is_real) == (91, 364, True)
    f = make_field(-2)
    assert (f.m, f.disc, f.is_real) == (-2, -8, False)
    f = make_field(65)
    assert (f.m, f.disc, f.is_real) == (65, 65, True)


def test_make_field_takes_squarefree_core():
    assert make_field(12).m == 3
    assert make_field(-12).m == -3
    assert make_field(50).m == 2
    assert make_field(91 * 4).disc == 364


def test_make_field_rejects_squares_and_zero():
    for bad in (0, 1, 4, 9, 144):
        with pytest.raises(ValueError):
            make_field(bad)


def test_field_validates_its_own_data():
    with pytest.raises(ValueError):
        QuadField(m=12, disc=48, is_real=True)
    with pytest.raises(ValueError):
        QuadField(m=3, disc=3, is_real=True)


def test_make_field_factors_its_radicand_once(monkeypatch):
    calls = []
    real_factor = quadratic.factor

    def counting_factor(n):
        calls.append(n)
        return real_factor(n)

    monkeypatch.setattr(quadratic, "factor", counting_factor)
    for m0 in (91, 12, -12, 65, -2, 50, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19, 1009 * 1013):
        calls.clear()
        make_field(m0)
        assert calls == [m0]
    # direct construction keeps its own squarefree check
    calls.clear()
    QuadField(m=91, disc=364, is_real=True)
    assert calls == [91]
    with pytest.raises(ValueError):
        QuadField(m=12, disc=48, is_real=True)


def test_fields_elements_and_units_are_slotted_and_pickle_to_themselves():
    # make_field fills its instance's slots without __init__
    unit = fundamental_unit(make_field(5))
    for obj in (make_field(-2), make_field(91), QuadElem(make_field(91), 1, 1), unit.elem, unit):
        assert not hasattr(obj, "__dict__")
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_elem_canonical_denominator():
    f5 = make_field(5)
    assert QuadElem.make(f5, 2, 2, 2) == QuadElem(f5, 1, 1, 1)
    assert QuadElem.make(f5, 2, 2, 4) == QuadElem(f5, 1, 1, 2)
    half = QuadElem(f5, 1, 1, 2)
    assert half.den == 2
    with pytest.raises(ValueError):
        QuadElem(f5, 1, 2, 2)
    with pytest.raises(ValueError):
        QuadElem(make_field(2), 1, 1, 2)
    with pytest.raises(ValueError):
        QuadElem(f5, 1, 1, 3)
    with pytest.raises(ValueError):
        QuadElem.make(f5, 1, 1, 4)


def test_norm_trace_examples():
    f = make_field(91)
    e = QuadElem(f, 1574, 165)
    assert (e.norm(), e.trace()) == (1, 3148)
    assert QuadElem(f, 1573, 165).norm() == -3146
    e = QuadElem(f, 0, 1)
    assert (e.norm(), e.trace()) == (-91, 0)
    golden = QuadElem(make_field(5), 1, 1, 2)
    assert (golden.norm(), golden.trace()) == (-1, 1)


def test_elem_arithmetic_against_direct_formulas():
    rng = random.Random(2026)
    f = make_field(91)
    for _ in range(200):
        a = QuadElem(f, rng.randrange(-50, 51), rng.randrange(-50, 51))
        b = QuadElem(f, rng.randrange(-50, 51), rng.randrange(-50, 51))
        prod = a * b
        assert prod.x == a.x * b.x + 91 * a.y * b.y
        assert prod.y == a.x * b.y + a.y * b.x
        assert prod.norm() == a.norm() * b.norm()
    f5 = make_field(5)
    golden = QuadElem(f5, 1, 1, 2)
    assert golden * golden == QuadElem(f5, 3, 1, 2)
    with pytest.raises(ValueError):
        golden * QuadElem(f, 1, 1)


def test_unit_power_oracle_frozen_values():
    # the oracle that builds unit powers for the tests, on hand-checked values
    assert unit_power(1, 1, 2, 5, 2) == (3, 1, 2)
    assert unit_power(1, 1, 2, 5, -1) == (-1, 1, 2)
    assert unit_power(1, 1, 2, 5, 3) == (2, 1, 1)
    powers = {k: unit_power(8, 3, 1, 7, k) for k in range(-3, 8)}
    assert powers[0] == (1, 0, 1)
    assert powers[2] == (127, 48, 1)
    assert powers[-1] == (8, -3, 1)
    assert powers[-3] == (2024, -765, 1)
    for k, (x, y, den) in powers.items():
        assert (den, x * x - 7 * y * y) == (1, 1), k
        if k < 7:
            assert powers[k + 1] == (8 * x + 21 * y, 3 * x + 8 * y, 1), k
    x, y, _ = unit_power(1574, 165, 1, 91, -1)
    assert (1574 * x + 91 * 165 * y, 1574 * y + 165 * x) == (1, 0)
    with pytest.raises(ValueError):
        unit_power(0, 1, 1, 91, -1)


def test_str_rendering():
    f = make_field(91)
    assert str(QuadElem(f, 1574, 165)) == "1574 + 165*sqrt(91)"
    assert str(QuadElem(f, 1, -2)) == "1 - 2*sqrt(91)"
    assert str(QuadElem(make_field(5), 1, 1, 2)) == "(1 + 1*sqrt(5))/2"


def test_str_renders_units_beyond_the_digit_limit():
    # about 14100 digits, above the interpreter's default limit of 4300
    m = 10000000055
    limit = sys.get_int_max_str_digits()
    fu = fundamental_unit(make_field(m))
    text = str(fu.elem)
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        x, y = (int(part) for part in text.split(f"*sqrt({m})")[0].split(" + "))
    finally:
        sys.set_int_max_str_digits(limit)
    assert fu.elem.den == 1  # m = 3 (mod 4)
    assert x.bit_length() > 4300 * 3.33
    assert x * x - m * y * y == fu.unit_norm


def test_fundamental_unit_frozen_examples():
    fu = fundamental_unit(make_field(91))
    assert (fu.elem.x, fu.elem.y, fu.elem.den) == (1574, 165, 1)
    assert fu.unit_norm == 1
    fu = fundamental_unit(make_field(2))
    assert (fu.elem.x, fu.elem.y, fu.elem.den) == (1, 1, 1)
    assert fu.unit_norm == -1
    fu = fundamental_unit(make_field(5))
    assert (fu.elem.x, fu.elem.y, fu.elem.den) == (1, 1, 2)
    assert fu.unit_norm == -1
    fu = fundamental_unit(make_field(13))
    assert (fu.elem.x, fu.elem.y, fu.elem.den) == (3, 1, 2)
    assert fu.unit_norm == -1


def test_fundamental_unit_rejects_imaginary_fields():
    with pytest.raises(ValueError):
        fundamental_unit(make_field(-2))


def test_fundamental_unit_matches_brute_search_small_radicands():
    for m in range(2, 60):
        try:
            field = make_field(m)
        except ValueError:
            continue
        if field.m != m:
            continue
        fu = fundamental_unit(field)
        expected = pell_min_solution(m, fu.elem.y)
        assert expected == (fu.elem.x, fu.elem.y, fu.elem.den)


def _squarefree_below(n: int) -> list[int]:
    flags = bytearray([1]) * n
    for d in range(2, isqrt(n - 1) + 1):
        flags[d * d :: d * d] = bytes(len(range(d * d, n, d * d)))
    return [m for m in range(2, n) if flags[m]]


def _pq_radicands(count: int, seed: int) -> list[int]:
    # distinct pq, p < q odd primes, in [10^6, 10^7)
    def prime(n: int) -> bool:
        return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))

    rng = random.Random(seed)
    small = [p for p in range(3, 1000) if prime(p)]
    out: set[int] = set()
    while len(out) < count:
        p = rng.choice(small)
        q = rng.randrange(-(-(10**6) // p), -(-(10**7) // p))
        if q > p and prime(q):
            out.add(p * q)
    return sorted(out)


def test_units_match_the_textbook_continued_fraction():
    # exact unit, reduced unit and norm against a full-period expansion of
    # sqrt(m) or (1 + sqrt(m))/2 that shares no code with the half-period walk
    shapes: Counter = Counter()
    for m in _squarefree_below(20000) + _pq_radicands(200, seed=8):
        x, y, den, norm, period = cf_unit_oracle(m)
        field = make_field(m)
        fu = fundamental_unit(field)
        assert (fu.elem.x, fu.elem.y, fu.elem.den, fu.unit_norm) == (x, y, den, norm), m
        assert unit_norm_sign(m) == norm, m
        for n in (5**5 * 13**3,) if m % 4 == 1 else (5**5 * 13**3, 10**6):
            inv = pow(den, -1, n)
            assert fundamental_unit_mod(field, n) == (x * inv % n, y * inv % n, norm), (m, n)
        shapes["period 1" if period == 1 else "odd" if period % 2 else "even"] += 1
    # period 1; a middle quotient (even period); none (odd period > 1)
    assert min(shapes["period 1"], shapes["even"], shapes["odd"]) >= 100, shapes


def test_unit_validates_itself():
    f = make_field(2)
    with pytest.raises(ValueError):
        FundUnit(elem=QuadElem(f, 1, 1), unit_norm=1)
    with pytest.raises(ValueError):
        FundUnit(elem=QuadElem(f, -1, -1), unit_norm=-1)


def test_unit_norm_sign_agrees_with_exact_unit():
    for m in range(2, 150):
        field = None
        try:
            field = make_field(m)
        except ValueError:
            continue
        if field.m != m:
            continue
        assert unit_norm_sign(m) == fundamental_unit(field).unit_norm, m


def test_unit_power_residues_frozen():
    # hand-checkable squaring chains used by the local p-th power tests
    x, y, _ = unit_power(1, 1, 1, 2, 24)
    assert (x % 25, y % 25) == (1, 20)
    x, y, _ = unit_power(8, 3, 1, 7, 24)
    assert (x % 25, y % 25) == (1, 5)


def test_norm_shift_identities_for_units():
    # N(eps +- 1) = N(eps) +- T(eps) + 1 and multiplicativity across eps**2 - 1
    for m in (2, 3, 7, 10, 11, 35, 91, 115, 119):
        fu = fundamental_unit(make_field(m))
        e = fu.elem
        n, t = e.norm(), e.trace()
        assert _shifted_norm(e, 1) == n + t + 1
        assert _shifted_norm(e, -1) == n - t + 1
        assert _shifted_norm(_power(e, 2), -1) == _shifted_norm(e, -1) * _shifted_norm(e, 1)


def test_reduced_unit_path_matches_exact_unit():
    # the scan path reduces convergents; coordinates must agree mod the modulus
    for m in (91, 14, 95, 119):
        field = make_field(m)
        modulus = 10**6
        got = fundamental_unit_mod(field, modulus)
        assert got is not None
        fu = fundamental_unit(field)
        assert fu.elem.den == 1
        assert got == (fu.elem.x % modulus, fu.elem.y % modulus, fu.unit_norm)


def test_reduced_unit_path_inverts_two_for_half_integral_units():
    # m = 1 (mod 4): the reduced coordinates are the exact ones times den^-1
    modulus = 5**5 * 13**3
    halves = 0
    for m in (5, 13, 21, 29, 37, 53, 61, 69, 77, 85, 93, 17, 33, 41, 57):
        field = make_field(m)
        fu = fundamental_unit(field)
        halves += fu.elem.den == 2
        inv_den = pow(fu.elem.den, -1, modulus)
        assert fundamental_unit_mod(field, modulus) == (
            fu.elem.x * inv_den % modulus,
            fu.elem.y * inv_den % modulus,
            fu.unit_norm,
        ), m
        with pytest.raises(ValueError):
            fundamental_unit_mod(field, 10**6)
    assert halves >= 8


def test_reduced_unit_path_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fundamental_unit_mod(make_field(-2), 100)
    with pytest.raises(ValueError):
        fundamental_unit_mod(make_field(7), 1)


def test_unit_sq_valuation_from_trace_agrees_with_exact():
    # dual route: T mod ell**3 decides v(eps**2 - 1) in {0, 1, 2} vs >= 3
    for m, ells in ((91, (7, 13)), (35, (5, 7)), (115, (5, 23)), (119, (7, 17))):
        fu = fundamental_unit(make_field(m))
        norm = _shifted_norm(_power(fu.elem, 2), -1)
        for ell in ells:
            if ell == 2:
                continue
            exact = padic_valuation(norm, ell)[0]
            reduced = unit_sq_minus_one_valuation(
                fu.elem.trace() % ell**3, fu.unit_norm, ell
            )
            if exact >= 3:
                assert reduced == GE3
            else:
                assert reduced == exact


def test_unit_sq_valuation_frozen_cases():
    assert unit_sq_minus_one_valuation(3148, 1, 7) == 1
    assert unit_sq_minus_one_valuation(3148, 1, 13) == 1
    # m = 115: eps = 1126 + 105*sqrt(115), 5 divides y, so v at 5 is 3
    fu = fundamental_unit(make_field(115))
    assert (fu.elem.x, fu.elem.y) == (1126, 105)
    assert padic_valuation(_shifted_norm(_power(fu.elem, 2), -1), 5)[0] == 3
    assert unit_sq_minus_one_valuation(2252, 1, 5) == GE3
    with pytest.raises(ValueError):
        unit_sq_minus_one_valuation(10, 2, 5)
