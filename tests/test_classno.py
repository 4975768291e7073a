"""Class numbers: root-class count, form enumeration, cycle counting, oracles."""

from __future__ import annotations

import json
import re
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pratcert import classno
from pratcert.arith import kronecker, sqrt_mod_prime_power
from pratcert.classno import (
    _RootTable,
    h_imaginary,
    h_plus_real,
    is_fundamental_discriminant,
    reduced_indefinite_forms,
)
from pratcert.quadratic import unit_norm_sign
from _oracles import (
    brute_h_imaginary,
    brute_reduced_indefinite_forms,
    brute_rho_cycle_count,
    brute_rho_cycles,
    h_charsum_oracle,
    h_real_analytic_oracle,
    is_fundamental_disc,
    kronecker as oracle_kronecker,
    prime_flags,
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


def test_oracle_symbol_and_discriminant_test_match_the_package():
    # the analytic oracles read these two helpers of their own
    for n in range(1, 200):
        for a in range(-200, 200):
            assert oracle_kronecker(a, n) == kronecker(a, n), (a, n)
    for d in range(-3000, 3000):
        assert is_fundamental_disc(d) == is_fundamental_discriminant(d), d


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


def _rho(form: tuple[int, int, int], disc: int) -> tuple[int, int, int]:
    # (a, b, c) -> (c, r, (r^2 - disc)/(4c)), r = -b (mod 2|c|) in (s - 2|c|, s]
    s = isqrt(disc)
    _, b, c = form
    r = s - (s + b) % (2 * abs(c))
    return (c, r, (r * r - disc) // (4 * c))


def test_rho_cycles_partition_reduced_forms():
    # every reduced form sits in exactly one rho-cycle and rho permutes them
    for disc in (12, 40, 364, 229):
        forms = reduced_indefinite_forms(disc)
        seen: set[tuple[int, int, int]] = set()
        cycles = []
        for start in forms:
            if start in seen:
                continue
            cycle = {start}
            f = _rho(start, disc)
            while f != start:
                assert f in forms
                assert f not in seen
                cycle.add(f)
                f = _rho(f, disc)
            seen |= cycle
            cycles.append(cycle)
        assert seen == forms
        assert sorted(map(sorted, cycles)) == sorted(map(sorted, brute_rho_cycles(disc)))


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


def test_reduced_indefinite_forms_refuses_a_disc_that_is_not_fundamental():
    # 117 = 9 * 13 has the reduced form (9, 9, -1), with 3 | a and 3^2 | disc;
    # the root table marks every odd multiple of 9 dead, so it would drop it
    assert (9, 9, -1) in brute_reduced_indefinite_forms(117)
    with pytest.raises(ValueError):
        reduced_indefinite_forms(117)


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
            table = _RootTable(disc, 300)
            assert table.count(0) == 0
            total = 0
            for a in range(1, 301):
                total += _brute_root_classes(disc, a)
                assert table.count(a) == total, (disc, a)


def test_root_class_count_at_high_powers_of_two():
    # N(2^k) = 2 for k >= 1 when disc = 1 (mod 8); 0 for k >= 1 when
    # disc = 5 (mod 8) and for k >= 2 when disc is even
    expected = {1: 2, 9: 2, 5: 0, 13: 0, 8: 0, 12: 0}
    for sign in (-1, 1):
        for disc in _count_discs(sign)[:6]:
            table = _RootTable(disc, 2**14)
            for k in (10, 14):
                a = 2**k
                n = table.count(a) - table.count(a - 1)
                assert n == _brute_root_classes(disc, a), (disc, k)
                assert n == expected[disc % 16], (disc, k)


def _form_bound(disc: int) -> int:
    # the largest leading coefficient of a reduced form
    return isqrt(-disc // 3) if disc < 0 else isqrt(disc)


def test_root_table_filter_is_exact():
    # the table's N(a) is the brute root count for every a up to the largest
    # leading coefficient, the enumerated top included, so the filter
    # N(a) > 0 skips only a that carry no form
    discs = _count_discs(-1) + _count_discs(1)
    discs += _near_ten_million(-1, 1)[::2] + _near_ten_million(1, 1)[:1]
    for disc in discs:
        a_max = _form_bound(disc)
        table = _RootTable(disc, a_max)
        brute = [_brute_root_classes(disc, a) for a in range(a_max + 1)]
        counts = [table.count(a) for a in range(a_max + 1)]
        assert [counts[a] - counts[a - 1] for a in range(1, a_max + 1)] == brute[1:], disc
        assert list(table.rooted(1, a_max)) == [a for a in range(1, a_max + 1) if brute[a]]
        assert table.count(a_max) == sum(brute), disc


def test_root_table_keeps_the_odd_prime_sieve():
    # residues stops dividing at a cofactor that table.prime marks prime
    for disc in (-3, -4, 5, 8, -23, 380, -40 * 9967, 20 * 9967, -40 * 1000589, 5 * 1000589):
        top = _form_bound(disc)
        assert _RootTable(disc, top).prime == prime_flags(top)[1::2], disc


def test_roots_are_found_only_where_the_table_has_classes(monkeypatch):
    # h_imaginary builds root classes only for the top a with N(a) > 0, and
    # they are exactly the b mod 2a with b^2 = disc (mod 4a)
    residues = _RootTable.residues
    built: list[int] = []
    found: dict[int, list[int]] = {}

    def recording_residues(self, a):
        built.append(a)
        found[a] = residues(self, a)
        return found[a]

    monkeypatch.setattr(_RootTable, "residues", recording_residues)
    for disc in _count_discs(-1) + _near_ten_million(-1, 1):
        built.clear()
        found.clear()
        h_imaginary(disc)
        top = range(_counted_bound(disc) + 1, _form_bound(disc) + 1)
        assert built == [a for a in top if _brute_root_classes(disc, a)], disc
        for a in built:
            brute = [b for b in range(2 * a) if (b * b - disc) % (4 * a) == 0]
            assert sorted(found[a]) == brute, (disc, a)


def _digest_decade_qs(low: int) -> list[int]:
    # the q of the facts digest's decade keys ("p=5 d=2 q=Q1,Q2 MODE") from low up
    digest = Path(__file__).resolve().parent / "data" / "facts_digest.json"
    keys = json.loads(digest.read_text(encoding="utf-8"))
    decades = {match[1] for key in keys if (match := re.search(r" q=([0-9,]+) ", key))}
    return sorted(q for qs in decades for q in map(int, qs.split(",")) if q >= low)


def test_residues_give_every_root_class_at_the_scale_of_the_scans():
    # the tables of h_imaginary(-40q) and h_plus_real(5q) for the digest's q
    # near 10^8 and 10^9: residues(a) gives distinct roots b mod 2a of
    # b^2 = disc (mod 4a), so at most N(a) of them, for every rooted a of
    # the tail and of the head; their total equals the sum of N(a), so
    # each a has exactly N(a) = count(a) - count(a - 1), and none is missing
    qs = _digest_decade_qs(10**8)
    assert len(qs) == 4 and min(qs) < 10**9 < max(qs)
    for q in qs:
        real = 5 * q if 5 * q % 4 == 1 else 20 * q
        for disc, lo, hi in (
            (-40 * q, _counted_bound(-40 * q) + 1, _form_bound(-40 * q)),
            (real, 1, _counted_bound(real)),
        ):
            assert is_fundamental_discriminant(disc)
            table = _RootTable(disc, hi)
            total = 0
            for a in table.rooted(lo, hi):
                roots = table.residues(a)
                assert len(set(roots)) == len(roots), (disc, a)
                assert all(0 <= b < 2 * a and (b * b - disc) % (4 * a) == 0 for b in roots)
                total += len(roots)
            assert total == table.count(hi) - table.count(lo - 1), disc


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
                assert _RootTable(disc, head).count(head) == sum(
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


def _sign_free_cycles(disc: int) -> list[tuple[int, bool, int, int]]:
    # each sign-free cycle of brute_rho_cycles as (length, whether it is its
    # own mirror under (a, b, c) -> (c, b, a), its node centres, a == c, and
    # its edge centres, forms that rho maps to their mirror)
    out = []
    for cycle in {frozenset((abs(a), b, abs(c)) for a, b, c in C) for C in brute_rho_cycles(disc)}:
        mirror = frozenset((c, b, a) for a, b, c in cycle)
        nodes = sum(1 for a, _, c in cycle if a == c)
        edges = sum(
            1 for a, b, c in cycle if tuple(map(abs, _rho((a, b, -c), disc))) == (c, b, a)
        )
        out.append((len(cycle), mirror == cycle, nodes, edges))
    return out


def test_h_plus_real_walks_mirror_halves():
    # the walk covers a self-mirror cycle from centre to centre and counts a
    # cycle with no centre together with its mirror; the list holds each kind
    discs = (5, 12, 136, 145, 229, 316, 505, 904, 940, 34689)
    parities, shapes = set(), set()
    for disc in discs:
        cycles = _sign_free_cycles(disc)
        for length, self_mirror, nodes, edges in cycles:
            # a self-mirror cycle has two centres, a node or an edge each by
            # the parity of its length; any other cycle has none
            assert nodes + edges == (2 if self_mirror else 0), disc
            if self_mirror:
                assert nodes % 2 == length % 2, disc
            parities.add(length % 2)
            shapes.add((self_mirror, nodes, edges))
        result = h_plus_real(disc)
        assert result.h == len(cycles), disc
        assert result.h_plus == brute_rho_cycle_count(disc), disc
    assert parities == {0, 1}
    # a wide class of order >= 3; a node and an edge; two nodes; two edges
    assert shapes == {(False, 0, 0), (True, 1, 1), (True, 2, 0), (True, 0, 2)}


def test_rooted_selects_the_a_with_root_classes():
    # every window [lo, hi] of a small table: odd and even ends, a single a,
    # empty windows, and tables with one to seven powers of two
    top = 64
    discs = _count_discs(-1)[:6] + _count_discs(1)[:6]
    assert {len(_RootTable(disc, top).two_adic) for disc in discs} == {1, 2, 7}
    for disc in discs:
        table = _RootTable(disc, top)
        live = [a for a in range(1, top + 1) if _brute_root_classes(disc, a)]
        for lo in range(1, top + 1):
            for hi in range(lo - 2, top + 1):
                assert list(table.rooted(lo, hi)) == [a for a in live if lo <= a <= hi]


def test_two_adic_closed_form_matches_the_roots_mod_powers_of_two():
    # T_e = #{b mod 2^(e+1) : b^2 = disc (mod 2^(e+2))} by square roots,
    # searched e by e up to the first 0, against the table's closed form;
    # top = isqrt|disc| caps the list at one to eight entries
    checked = 0
    for disc in range(-40000, 40000):
        if not is_fundamental_disc(disc):
            continue
        top = isqrt(abs(disc))
        searched = []
        for e in range(top.bit_length()):
            roots = {y % 2 ** (e + 1) for y in sqrt_mod_prime_power(disc, 2, e + 2)}
            if not roots:
                break
            searched.append(len(roots))
        assert _RootTable(disc, top).two_adic == searched, disc
        checked += 1
    assert checked == 24315


def test_h_plus_real_refuses_a_total_the_cycles_do_not_cover(monkeypatch):
    count = _RootTable.count
    monkeypatch.setattr(_RootTable, "count", lambda self, x: count(self, x) + 1)
    for disc in (5, 12, 904, 34689):
        with pytest.raises(ArithmeticError):
            h_plus_real(disc)


def test_h_plus_real_refuses_cycles_of_unequal_parity(monkeypatch):
    # one half step more on the principal walk flips its parity, and the
    # next cycle's length disagrees with it
    walk = classno._walk
    calls: list[int] = []

    def one_longer(*args):
        covered, length, closed = walk(*args)
        calls.append(length)
        return covered, length + (len(calls) == 1), closed

    monkeypatch.setattr(classno, "_walk", one_longer)
    for disc in (136, 904, 34689):
        calls.clear()
        with pytest.raises(ArithmeticError, match="parity"):
            h_plus_real(disc)


def test_rho_walk_stops_within_the_counted_head(monkeypatch):
    # every cycle holds a form with |a| < sqrt(disc)/2, reached as (a, b, c)
    # or as the partner of (|a|, b, -c): the walk starts its cycles only at
    # the root classes of a in the counted head
    residues = _RootTable.residues
    starts: list[int] = []

    def recording(self, a):
        starts.append(a)
        return residues(self, a)

    monkeypatch.setattr(_RootTable, "residues", recording)
    for disc in [*range(5, 5000), 34572, 34689]:
        if is_fundamental_discriminant(disc):
            starts.clear()
            h_plus_real(disc)
            assert starts and max(starts) <= _counted_bound(disc), disc


def test_h_plus_real_enumerates_only_from_a_equal_one(monkeypatch):
    # the upper half of a is never enumerated: the one table reaches only
    # the counted head, and the starts are its rooted a from a = 1
    build, rooted = _RootTable.__init__, _RootTable.rooted
    calls: list[tuple[str, int, int]] = []

    def recording_build(self, disc, top):
        calls.append(("table", 1, top))
        build(self, disc, top)

    def recording_rooted(self, lo, hi):
        calls.append(("rooted", lo, hi))
        return rooted(self, lo, hi)

    monkeypatch.setattr(_RootTable, "__init__", recording_build)
    monkeypatch.setattr(_RootTable, "rooted", recording_rooted)
    for disc in (5, 12, 904, 34689, *_near_ten_million(1, 1)):
        calls.clear()
        h_plus_real(disc)
        head = _counted_bound(disc)
        assert calls == [("table", 1, head), ("rooted", 1, head)], disc


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
