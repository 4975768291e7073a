"""Local behavior at p: splitting, p-th power tests, roots of unity, towers."""

from __future__ import annotations

import random

import pytest

from pratcert.localfield import (
    LocalContext,
    classify_splitting,
    is_pth_power_local,
    tower_places,
)
from pratcert.arith import is_prime
from pratcert.quadratic import QuadElem, fundamental_unit, make_field
from _oracles import pth_power_oracle, stabilized_place_count, unit_power


def _power(u: QuadElem, k: int) -> QuadElem:
    return QuadElem.make(u.field, *unit_power(u.x, u.y, u.den, u.field.m, k))


def _negated(u: QuadElem) -> QuadElem:
    return QuadElem(u.field, -u.x, -u.y, u.den)


def _random_units(m: int, count: int, seed: int) -> list[QuadElem]:
    rng = random.Random(seed)
    eps = fundamental_unit(make_field(m)).elem
    units = []
    for _ in range(count):
        u = _power(eps, rng.randrange(1, 7))
        if rng.random() < 0.5:
            u = _negated(u)
        units.append(u)
    return units


def test_classify_splitting_examples():
    ctx = classify_splitting(make_field(91), 7)
    assert ctx.kind == "ramified"
    assert ctx.sqrt_lifts is None
    ctx = classify_splitting(make_field(11), 5)
    assert ctx.kind == "split"
    assert ctx.sqrt_lifts == (6, 19)
    ctx = classify_splitting(make_field(7), 5)
    assert ctx.kind == "inert"
    assert ctx.sqrt_lifts is None


def test_classify_split_lifts_are_square_roots_mod_p_squared():
    for m, p in ((11, 5), (2, 7), (30, 13), (91, 5)):
        ctx = classify_splitting(make_field(m), p)
        if ctx.kind != "split":
            continue
        assert ctx.sqrt_lifts is not None
        lo, hi = ctx.sqrt_lifts
        assert lo < hi and lo + hi == p * p
        for r in ctx.sqrt_lifts:
            assert (r * r - m) % (p * p) == 0


def test_classify_rejects_small_p():
    for p in (2, 3, 4, 9):
        with pytest.raises(ValueError):
            classify_splitting(make_field(11), p)


def test_classify_rejects_a_p_that_is_not_an_integer():
    for p in (5.0, "5", True):
        with pytest.raises(ValueError, match="p must be an integer"):
            classify_splitting(make_field(11), p)


def test_context_validates_kind_and_lifts():
    f = make_field(11)
    with pytest.raises(ValueError):
        LocalContext(p=5, field=f, kind="degenerate", sqrt_lifts=None)
    with pytest.raises(ValueError):
        LocalContext(p=5, field=f, kind="split", sqrt_lifts=None)
    with pytest.raises(ValueError):
        LocalContext(p=5, field=f, kind="inert", sqrt_lifts=(6, 19))


def test_split_case_frozen_hand_computation():
    # eps(11) = 10 + 3 sqrt(11) maps to 3 and 17 mod 25, whose 4th powers
    # are 6 and 21, so eps is a 5th power at neither place
    field = make_field(11)
    ctx = classify_splitting(field, 5)
    eps = fundamental_unit(field).elem
    assert eps == QuadElem(field, 10, 3)
    assert ctx.sqrt_lifts is not None
    images = [(eps.x + eps.y * r) % 25 for r in ctx.sqrt_lifts]
    assert images == [3, 17]
    assert [pow(i, 4, 25) for i in images] == [6, 21]
    assert is_pth_power_local(eps, ctx) == (False, False)


def test_inert_case_frozen_hand_computation():
    # eps(7)**24 = 1 + 5 sqrt(7) (mod 25), not 1, so eps is not a 5th power
    field = make_field(7)
    ctx = classify_splitting(field, 5)
    eps = fundamental_unit(field).elem
    assert eps == QuadElem(field, 8, 3)
    w = _power(eps, 24)
    assert (w.x % 25, w.y % 25) == (1, 5)
    assert is_pth_power_local(eps, ctx) == (False,)


def test_ramified_case_golden_unit():
    field = make_field(91)
    ctx = classify_splitting(field, 7)
    eps = fundamental_unit(field).elem
    assert is_pth_power_local(eps, ctx) == (False,)


def test_constructed_pth_powers_are_detected():
    for p in (5, 7):
        for m in (11, 7, 35):
            field = make_field(m)
            ctx = classify_splitting(field, p)
            for u in _random_units(m, 20, seed=100 * p + m):
                assert all(is_pth_power_local(_power(u, p), ctx))


def test_pth_power_flags_invariant_under_renormalization():
    for m, p in ((11, 5), (7, 5), (91, 7), (35, 5)):
        field = make_field(m)
        ctx = classify_splitting(field, p)
        for u in _random_units(m, 15, seed=m + p):
            flags = is_pth_power_local(u, ctx)
            assert is_pth_power_local(_negated(u), ctx) == flags
            assert is_pth_power_local(_power(u, -1), ctx) == flags


def test_pth_power_rejects_non_units_and_field_mismatch():
    field = make_field(91)
    ctx = classify_splitting(field, 7)
    with pytest.raises(ValueError):
        is_pth_power_local(QuadElem(field, 0, 1), ctx)
    with pytest.raises(ValueError):
        is_pth_power_local(QuadElem(make_field(11), 10, 3), ctx)


def test_ramified_oracle_agrees_on_random_units():
    for m, p in ((35, 5), (35, 7), (91, 7), (115, 5)):
        field = make_field(m)
        ctx = classify_splitting(field, p)
        assert ctx.kind == "ramified"
        for u in _random_units(m, 40, seed=m * p):
            oracle = pth_power_oracle(u.x, u.y, u.den, field.m, p)
            assert oracle == is_pth_power_local(u, ctx)[0]
            w = _power(u, p)
            assert pth_power_oracle(w.x, w.y, w.den, field.m, p)


def test_ramified_oracle_rejects_wrong_inputs():
    # 5 does not divide 11: the unramified kind
    with pytest.raises(ValueError):
        pth_power_oracle(10, 3, 1, 11, 5)
    # 11 ramifies in Q(sqrt 33), but the oracle is for p in {5, 7} only
    assert classify_splitting(make_field(33), 11).kind == "ramified"
    eps = fundamental_unit(make_field(33)).elem
    with pytest.raises(ValueError):
        pth_power_oracle(eps.x, eps.y, eps.den, 33, 11)


def test_tower_places_examples():
    assert tower_places(13, 2, 7) == 1
    assert tower_places(97, 2, 7) == 7
    assert tower_places(149, 2, 5) == 5
    assert tower_places(499, 2, 5) == 25
    assert tower_places(13, 1, 7) == 1
    assert tower_places(3, 4, 5) == 1


def test_tower_places_rejects_bad_inputs():
    with pytest.raises(ValueError):
        tower_places(7, 2, 7)
    with pytest.raises(ValueError):
        tower_places(15, 2, 7)
    with pytest.raises(ValueError):
        tower_places(13, 0, 7)
    with pytest.raises(ValueError):
        tower_places(13, 2, 4)


def test_tower_places_matches_layer_oracle_sample():
    # the 50-pair sweep is acceptance criterion 7
    cases = [
        (13, 2, 7),
        (97, 2, 7),
        (149, 2, 5),
        (499, 2, 5),
        (13, 1, 7),
        (29, 2, 5),
        (41, 1, 5),
        (3, 4, 5),
        (11, 2, 13),
        (1249, 2, 5),
    ]
    for q, f, p in cases:
        assert tower_places(q, f, p) == stabilized_place_count(q, f, p), (q, f, p)


def test_tower_places_matches_layer_oracle_on_large_family_q():
    # q = -1 (mod p) gives t = q**2 = 1 (mod p), whose order 1 mult_order
    # returns without factoring; seeded q in each decade from 10^6 to 10^9,
    # half of them also -1 (mod p**2), where s = p
    rng = random.Random(22)
    for p in (5, 7, 13):
        for low in (10**6, 10**7, 10**8):
            for step in (p, p * p):
                q = rng.randrange(2 * low, 10 * low) // step * step - 1
                while not is_prime(q):
                    q -= step
                assert low <= q < 10 * low and (q + 1) % step == 0
                assert tower_places(q, 2, p) == stabilized_place_count(q, 2, p), (q, p)
