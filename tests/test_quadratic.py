"""Quadratic fields: element arithmetic, fundamental units, valuations."""

from __future__ import annotations

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
from _oracles import cf_unit_oracle, pell_min_solution


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


def test_elem_arithmetic_against_direct_formulas():
    rng = random.Random(2026)
    f = make_field(91)
    for _ in range(200):
        a = QuadElem(f, rng.randrange(-50, 51), rng.randrange(-50, 51))
        b = QuadElem(f, rng.randrange(-50, 51), rng.randrange(-50, 51))
        prod = a * b
        assert prod.x == a.x * b.x + 91 * a.y * b.y
        assert prod.y == a.x * b.y + a.y * b.x
        assert (a + b).x == a.x + b.x
        assert (a - b).y == a.y - b.y
        assert prod.norm() == a.norm() * b.norm()
        assert (a + b).trace() == a.trace() + b.trace()


def test_half_integral_arithmetic():
    f = make_field(5)
    golden = QuadElem(f, 1, 1, 2)
    assert golden * golden == QuadElem(f, 3, 1, 2)
    assert golden * golden - golden == QuadElem(f, 1, 0, 1)
    assert golden.norm() == -1
    assert golden.trace() == 1
    assert (golden + QuadElem(f, 1, -1, 2)) == QuadElem(f, 1, 0, 1)


def test_pow_matches_repeated_multiplication():
    f = make_field(7)
    e = QuadElem(f, 8, 3)
    acc = QuadElem(f, 1, 0)
    for k in range(8):
        assert e**k == acc
        acc = acc * e
    assert e**-1 == e.inverse()
    assert e**-3 == (e**3).inverse()


def test_int_coercion_in_arithmetic():
    f = make_field(91)
    e = QuadElem(f, 1574, 165)
    w = e * e - 1
    assert (w.x, w.y) == (1574 * 1574 + 91 * 165 * 165 - 1, 2 * 1574 * 165)
    assert (e + 1).x == 1575
    assert (3 * e).x == 4722


def test_inverse_requires_unit_norm():
    f = make_field(91)
    eps = QuadElem(f, 1574, 165)
    one = eps * eps.inverse()
    assert one == QuadElem(f, 1, 0)
    with pytest.raises(ValueError):
        QuadElem(f, 0, 1).inverse()


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
    e24 = QuadElem(make_field(2), 1, 1) ** 24
    assert (e24.x % 25, e24.y % 25) == (1, 20)
    e24 = QuadElem(make_field(7), 8, 3) ** 24
    assert (e24.x % 25, e24.y % 25) == (1, 5)


def test_norm_shift_identities_for_units():
    # N(eps +- 1) = N(eps) +- T(eps) + 1 and multiplicativity across eps**2 - 1
    for m in (2, 3, 7, 10, 11, 35, 91, 115, 119):
        fu = fundamental_unit(make_field(m))
        e = fu.elem
        n, t = e.norm(), e.trace()
        assert (e + 1).norm() == n + t + 1
        assert (e - 1).norm() == n - t + 1
        assert (e * e - 1).norm() == (e - 1).norm() * (e + 1).norm()


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
        w = fu.elem * fu.elem - 1
        for ell in ells:
            if ell == 2:
                continue
            exact = padic_valuation(w.norm(), ell)[0]
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
    assert padic_valuation((fu.elem * fu.elem - 1).norm(), 5)[0] == 3
    assert unit_sq_minus_one_valuation(2252, 1, 5) == GE3
    with pytest.raises(ValueError):
        unit_sq_minus_one_valuation(10, 2, 5)
