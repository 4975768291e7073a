"""Family validation, p-rationality reports, and the freeness certificate."""

from __future__ import annotations

import json
import math
import random
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from pratcert import arith, criteria
from pratcert.arith import _PRIME_BOUND, is_prime, padic_valuation
from pratcert.criteria import (
    CERTIFIED_FREE,
    NOT_CERTIFIED,
    FreenessReport,
    RANK,
    _gather,
    _unit_facts,
    certify_freeness,
    family_violations,
    judge,
    prat_biquad,
    prat_imag,
    prat_real,
)
from pratcert.quadratic import GE3, QuadElem, fundamental_unit, make_field
from pratcert.scan import record_for, scan_records
from _oracles import _order_mod, brute_factor, cf_unit_oracle, pth_power_oracle, unit_power

GOLDEN = (7, 13, 2)


def _power(u: QuadElem, k: int) -> QuadElem:
    return QuadElem.make(u.field, *unit_power(u.x, u.y, u.den, u.field.m, k))


def _shifted_norm(u: QuadElem, s: int) -> int:
    # N(u + s) from the coordinates of u
    return QuadElem.make(u.field, u.x + s * u.den, u.y, u.den).norm()


def test_family_violations_golden_is_clean():
    assert family_violations(*GOLDEN) == []
    assert family_violations(5, 149, 2) == []


def test_family_violations_by_name():
    assert "p must be a prime greater than 3" in family_violations(4, 13, 2)
    assert "p must be a prime greater than 3" in family_violations(3, 5, 1)
    assert "q must be an odd prime" in family_violations(7, 14, 2)
    assert "q must be an odd prime" in family_violations(7, 2, 2)
    assert "q must be distinct from p" in family_violations(7, 7, 2)
    assert "q must be congruent to -1 modulo p" in family_violations(7, 29, 2)
    assert "d must be a positive integer" in family_violations(7, 13, 0)
    assert "d must be a positive integer" in family_violations(7, 13, -2)
    assert "d must be squarefree" in family_violations(7, 13, 12)
    assert "d must not be divisible by p" in family_violations(7, 13, 14)
    assert "d must not be divisible by q" in family_violations(7, 13, 26)
    assert "-d must be a quadratic non-residue modulo p" in family_violations(5, 19, 1)
    assert "-d must be a quadratic non-residue modulo q" in family_violations(7, 41, 2)


def test_family_violations_names_every_failure_in_order():
    # the reasons on (p, d) alone and those on q interleave in the order of
    # the conditions
    assert family_violations(7, 14, 14) == [
        "q must be an odd prime",
        "d must not be divisible by p",
    ]
    assert family_violations(4, 15, 12) == [
        "p must be a prime greater than 3",
        "q must be an odd prime",
        "d must be squarefree",
    ]
    assert family_violations(5, 3, 6) == [
        "q must be congruent to -1 modulo p",
        "d must not be divisible by q",
        "-d must be a quadratic non-residue modulo p",
    ]
    assert family_violations(5, 3, 11) == [
        "q must be congruent to -1 modulo p",
        "-d must be a quadratic non-residue modulo p",
        "-d must be a quadratic non-residue modulo q",
    ]
    assert family_violations(5, 3, 15) == [
        "q must be congruent to -1 modulo p",
        "d must not be divisible by p",
        "d must not be divisible by q",
    ]


def test_family_violations_names_parameters_that_are_not_integers():
    # the conditions on (p, d) are cached for integers only: a list or a set
    # is unhashable, and a bool would find the entry of its integer
    assert family_violations([5], 19, 2) == [
        "p must be an integer",
        "-d must be a quadratic non-residue modulo q",
    ]
    assert family_violations(5, 19, {2}) == ["d must be an integer"]
    assert family_violations(1, 19, 2) == [
        "p must be a prime greater than 3",
        "-d must be a quadratic non-residue modulo q",
    ]
    assert family_violations(True, 19, 2) == [
        "p must be an integer",
        "-d must be a quadratic non-residue modulo q",
    ]
    assert family_violations(5, 19, True) == ["d must be an integer"]
    assert family_violations(5, 19.0, 2) == ["q must be an integer"]


def test_family_violations_decides_p_and_d_once_per_pair(monkeypatch):
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(criteria, "is_prime", counting_is_prime)
    p, d = 1_000_003, 2  # a prime no other test asks about
    for q in (1_000_003 * 2 - 1, 1_000_003 * 4 - 1, 19, 7):
        family_violations(p, q, d)
    assert calls.count(p) == 1


def test_prat_imag_examples():
    report = prat_imag(2, 7)
    assert report.verdict is True
    assert report.field_desc == "Q(sqrt(-2))"
    assert report.radicands == (-2,)
    (check,) = report.checks
    assert check.name == "class_number_prime_to_p"
    assert check.value == 1 and check.passed
    assert prat_imag(47, 5).verdict is False
    assert prat_imag(47, 5).checks[0].value == 5
    assert prat_imag(1, 5).verdict is True
    with pytest.raises(ValueError):
        prat_imag(2, 3)
    with pytest.raises(ValueError):
        prat_imag(0, 5)


def test_prat_real_examples():
    report = prat_real(91, 7)
    assert report.verdict is True
    names = [c.name for c in report.checks]
    assert names == ["class_number_prime_to_p", "unit_pth_power_at_p"]
    assert report.checks[0].value == 2
    assert report.checks[1].value is False
    report = prat_real(2, 5)
    assert report.verdict is True
    assert [c.name for c in report.checks] == [
        "class_number_prime_to_p",
        "unit_pth_power_at_p",
    ]
    report = prat_real(11, 5)
    assert report.verdict is True
    assert [c.name for c in report.checks] == [
        "class_number_prime_to_p",
        "unit_pth_power_at_p_first",
        "unit_pth_power_at_p_second",
    ]
    with pytest.raises(ValueError):
        prat_real(1, 5)


def test_prat_biquad_golden():
    report = prat_biquad(91, -2, 7)
    assert report.verdict is True
    assert report.radicands == (91, -2, -182)
    prefixes = {c.name.split(":")[0] for c in report.checks}
    assert prefixes == {"sqrt(91)", "sqrt(-2)", "sqrt(-182)"}


def test_prat_biquad_symmetry_and_core_invariance():
    a = prat_biquad(91, -2, 7)
    b = prat_biquad(-2, 91, 7)
    assert a.verdict == b.verdict
    assert set(a.radicands) == set(b.radicands)
    c = prat_biquad(91 * 4, -2 * 9, 7)
    assert c.radicands == a.radicands
    assert c.verdict == a.verdict


def test_prat_biquad_rejects_degenerate_pair():
    with pytest.raises(ValueError):
        prat_biquad(8, 2, 7)


def _stage_one(p, q, d):
    facts = {}
    next(_gather(p, q, d, False, facts))
    return facts


def test_alpha_s_values():
    # the fact is the tame weight of the place above q: mu_p misses the
    # completion of the real subfield (residue size q) and lives in that of
    # K (residue size q**2); on the family, q = -1 (mod p) gives 1
    for p, q, d in (GOLDEN, (5, 149, 2), (431, 1723, 2)):
        assert (q - 1) % p != 0 and (q * q - 1) % p == 0
        facts = _stage_one(p, q, d)
        assert facts["alpha_S"] == 1 and facts["mu_p_in_local_at_q"] is True
    # outside the family: with q = 1 (mod p) mu_p already lives in the
    # completion of the real subfield, and with q**2 != 1 (mod p) it misses
    # both completions, so the weight drops to 0
    facts = _stage_one(7, 29, 2)
    assert facts["alpha_S"] == 0 and facts["mu_p_in_local_at_q"] is True
    facts = _stage_one(7, 11, 2)
    assert facts["alpha_S"] == 0 and facts["mu_p_in_local_at_q"] is False
    assert list(facts) == ["s", "alpha_S", "mu_p_in_K", "mu_p_in_local_at_q"]


def test_valid_triple_round_trips_through_the_certificate():
    # a triple the guard accepts reaches the report unchanged, with no
    # violations and the stage-1 facts computed
    for p, q, d in (GOLDEN, (5, 149, 2)):
        assert family_violations(p, q, d) == []
        report = certify_freeness(p, q, d, lazy=True)
        assert (report.p, report.q, report.d) == (p, q, d)
        assert report.invalid == ()
        assert report.facts["alpha_S"] == 1


def test_mu_p_in_local_at_q_reads_the_quartic_congruence():
    # mu_p lies in the unramified completion with residue size t iff
    # p | t - 1; the fact takes t = q**2: 13**2 = 1 (mod 7) while 13 is not,
    # and 29**2 = 1 (mod 7) off the family as well
    assert (169 - 1) % 7 == 0 and (13 - 1) % 7 != 0
    assert _stage_one(7, 13, 2)["mu_p_in_local_at_q"] is True
    assert _stage_one(7, 29, 2)["mu_p_in_local_at_q"] is True
    assert _stage_one(7, 11, 2)["mu_p_in_local_at_q"] is False
    # a p that is not a prime > 3, or a q that is not prime, is refused by
    # the family guard before any local fact is read
    for args, reason in (
        ((4, 13, 2), "p must be a prime greater than 3"),
        ((7, 1, 2), "q must be an odd prime"),
    ):
        report = certify_freeness(*args)
        assert reason in report.invalid
        assert "mu_p_in_local_at_q" not in report.facts


def test_stage_one_factors_nothing(monkeypatch):
    certify_freeness(5, 149, 2, lazy=True)  # warms the cache of (p, d)
    calls = []
    for module in (arith, criteria):
        real = module.factor
        monkeypatch.setattr(
            module, "factor", lambda n, real=real: calls.append(n) or real(n)
        )
    report = certify_freeness(5, 149, 2, lazy=True)
    assert report.reasons == ("s = 5, need a single stable place above q in the tower",)
    assert calls == []


def test_direct_summand_check_golden():
    facts = certify_freeness(*GOLDEN).facts
    assert facts["v_p_val"] == 1
    assert facts["v_q_val"] == 1
    assert facts["e_s_generated"] is True


def test_summand_norm_decomposition_feeding_the_valuations():
    eps = fundamental_unit(make_field(91)).elem
    assert _shifted_norm(eps, -1) == -3146
    assert _shifted_norm(eps, 1) == 3150
    # v_13(-3146) = 1 and v_7(3150) = 1 force v(eps**2 - 1) = 1 at both places
    assert (-3146) % 13 == 0 and (-3146) % 169 != 0
    assert 3150 % 7 == 0 and 3150 % 49 != 0


def test_exact_unit_valuations_are_those_of_the_norm_of_eps_squared_minus_one():
    # the exact facts read v(eps**2 - 1) from the trace identity; the direct
    # route squares the unit and takes the valuation of the norm
    high = halves = 0
    for p in (5, 7, 11, 13):
        for q in range(p - 1, 4000, p):
            if not is_prime(q):
                continue
            field = make_field(p * q)
            eps = fundamental_unit(field).elem
            halves += eps.den == 2
            facts = _unit_facts(p, q, field, eps)
            norm = _shifted_norm(_power(eps, 2), -1)
            for ell, key in ((p, "v_p_val"), (q, "v_q_val")):
                assert facts[key] == padic_valuation(norm, ell)[0], (p, q, ell)
                high += facts[key] >= 3
    assert high >= 20 and halves >= 20


def test_certify_golden_exact_facts():
    report = certify_freeness(*GOLDEN)
    assert report.verdict == CERTIFIED_FREE
    assert report.rank == 2
    assert report.mode == "exact"
    assert report.reasons == ()
    assert report.invalid == ()
    facts = report.facts
    assert facts["s"] == 1
    assert facts["alpha_S"] == 1
    assert facts["mu_p_in_K"] is False
    assert facts["mu_p_in_local_at_q"] is True
    assert facts["h_imag_d"] == 1
    assert facts["h_imag_dpq"] == 12
    assert facts["h_plus_real_pq"] == 4
    assert facts["h_real_pq"] == 2
    assert facts["unit"] == "1574 + 165*sqrt(91)"
    assert facts["unit_norm"] == 1
    assert facts["unit_pth_power_at_p"] is False
    assert facts["v_p_val"] == 1
    assert facts["v_q_val"] == 1
    assert facts["e_s_generated"] is True


def test_certify_s_gate():
    report = certify_freeness(5, 149, 2)
    assert report.verdict == NOT_CERTIFIED
    assert report.rank is None
    assert report.facts["s"] == 5
    assert any(r.startswith("s = 5") for r in report.reasons)


def test_certify_lazy_stops_at_first_failing_stage():
    report = certify_freeness(5, 149, 2, lazy=True)
    assert report.verdict == NOT_CERTIFIED
    assert "h_imag_d" not in report.facts
    assert "v_p_val" not in report.facts


def test_certify_additional_table_entry():
    assert certify_freeness(7, 167, 2).verdict == CERTIFIED_FREE


def test_certify_invalid_params_is_an_answer_not_an_exception():
    report = certify_freeness(7, 41, 2)
    assert report.verdict == NOT_CERTIFIED
    assert report.reasons == ("parameters are outside the certified family",)
    assert report.invalid == ("-d must be a quadratic non-residue modulo q",)
    assert report.facts == {}


def test_certify_beyond_64_bits_is_an_invalid_report():
    # primality is decided only below 2^64; a larger p, q or d is named,
    # not raised
    big = 2**64 + 9
    report = certify_freeness(5, big, 2)
    assert report.verdict == NOT_CERTIFIED
    assert report.invalid == ("q must be below 2^64",)
    assert report.facts == {}
    assert family_violations(2**64 + 13, big, 2) == [
        "p must be below 2^64",
        "q must be below 2^64",
    ]
    # 2^64 + 13 has a cofactor above 2^64 that is_prime would refuse
    assert family_violations(7, 13, 2**64 + 13) == ["d must be below 2^64"]
    # the largest prime below 2^64 meets every other condition for p = 7,
    # d = 2, but the discriminants of the certificate would not fit
    assert family_violations(7, 2**64 - 59, 2) == ["4*d*p*q must be below 2^64"]
    report = certify_freeness(7, 2**64 - 59, 2)
    assert report.invalid == ("4*d*p*q must be below 2^64",)
    assert report.facts == {}


def test_family_names_the_limit_of_the_class_numbers_last():
    # 4*d*p*q bounds |disc| of -d, -dpq and pq; the reason comes after every
    # other, and only when p, q and d each pass on their own
    edge = _PRIME_BOUND // (4 * 2 * 7)
    below = next(q for q in range(edge, 0, -1) if (q + 1) % 7 == 0 and is_prime(q))
    above = next(q for q in range(edge + 1, _PRIME_BOUND) if (q + 1) % 7 == 0 and is_prime(q))
    assert 4 * 2 * 7 * below < _PRIME_BOUND <= 4 * 2 * 7 * above
    assert "4*d*p*q must be below 2^64" not in family_violations(7, below, 2)
    assert family_violations(7, above, 2)[-1] == "4*d*p*q must be below 2^64"
    other = next(q for q in range(above + 2, _PRIME_BOUND, 2) if (q + 1) % 7 and is_prime(q))
    reasons = family_violations(7, other, 2)
    assert reasons[0] == "q must be congruent to -1 modulo p"
    assert reasons[-1] == "4*d*p*q must be below 2^64"
    for p, q, d in ((7, above, 4), (7, above + 1, 2), (8, above, 2), (7, 2**64 + 13, 2)):
        assert "4*d*p*q must be below 2^64" not in family_violations(p, q, d), (p, q, d)
    # the parent guard let this triple through to a root table of gigabytes
    assert family_violations(7, 13, 2**64 - 1) == ["4*d*p*q must be below 2^64"]


@pytest.mark.parametrize(
    ("args", "named"),
    [
        ((5.0, 29, 2), "p must be an integer"),
        ((5, 29.0, 2), "q must be an integer"),
        ((5, 29, 2.0), "d must be an integer"),
        (("5", 29, 2), "p must be an integer"),
        ((5, 29, True), "d must be an integer"),
    ],
)
def test_certify_names_a_parameter_that_is_not_an_integer(args, named):
    # (5, 29, 2) is a member; the parameter's other conditions are skipped
    report = certify_freeness(*args)
    assert report.verdict == NOT_CERTIFIED
    assert report.invalid == (named,)
    assert report.facts == {}


def test_certify_exact_unit_beyond_the_digit_limit():
    # facts["unit"] is the unit's text, about 30600 characters here, beyond
    # the interpreter's default limit of 4300 digits per int
    limit = sys.get_int_max_str_digits()
    report = certify_freeness(5, 2000000239, 2)
    assert sys.get_int_max_str_digits() == limit
    assert (report.verdict, report.facts["mode"]) == (CERTIFIED_FREE, "exact")
    assert len(report.facts["unit"]) > 2 * 4300


def test_certify_verdict_invariant_under_unit_renormalization():
    base = certify_freeness(*GOLDEN)
    field = make_field(7 * 13)
    eps = fundamental_unit(field).elem
    inverse = _power(eps, -1)
    for variant in (
        eps,
        QuadElem(field, -eps.x, -eps.y, eps.den),
        inverse,
        QuadElem(field, -inverse.x, -inverse.y, inverse.den),
    ):
        facts = {**base.facts, **_unit_facts(7, 13, field, variant)}
        assert judge(*GOLDEN, facts) == (base.verdict, base.reasons)
        for key in ("v_p_val", "v_q_val", "unit_pth_power_at_p", "e_s_generated"):
            assert facts[key] == base.facts[key], key


def test_certify_rejects_substitute_unit_in_wrong_field():
    with pytest.raises(ValueError):
        _unit_facts(7, 13, make_field(91), QuadElem(make_field(11), 10, 3))


def test_e_s_generated_is_one_power_against_the_whole_order():
    # p misses ord(r^2) mod q iff (r^2)^m = 1, m the p-free part of q - 1;
    # half the draws take q = 1 (mod p), where p | q - 1 and both answers occur
    rng = random.Random(23)
    primes = [p for p in range(5, 432) if is_prime(p)]
    answers = {True: 0, False: 0}
    for _ in range(1500):
        p = rng.choice(primes)
        while True:
            q = rng.randrange(7, 10**6)
            if rng.random() < 0.5:
                q += (1 - q) % p
            if q != p and is_prime(q):
                break
        x, den = rng.randrange(1, q), rng.choice((1, 2))
        r = x * pow(den, -1, q) % q
        expected = arith.mult_order(r * r % q, q) % p != 0
        assert criteria._unit_square_order_prime_to_p(x, den, q, p) is expected, (p, q, x, den)
        answers[expected] += 1
    assert min(answers.values()) >= 300, answers
    with pytest.raises(ArithmeticError):
        criteria._unit_square_order_prime_to_p(2 * 13, 1, 13, 7)


def test_unit_facts_factor_nothing(monkeypatch):
    # stage 4 read e_s_generated off the whole order of eps**2, and so
    # factored q - 1 unless eps**2 = 1 (mod q), that is unless N(eps) = 1;
    # one power decides it.  The fundamental unit of Q(sqrt(5 * 1000249))
    # has norm -1
    q = 1000249
    field = make_field(5 * q)
    calls = []
    for module in (arith, criteria):
        real = module.factor
        monkeypatch.setattr(module, "factor", lambda n, real=real: calls.append(n) or real(n))
    facts = _unit_facts(5, q, field, None)
    assert (facts["unit_norm"], facts["e_s_generated"]) == (-1, True)
    assert calls == []


_LIMIT = "4*d*p*q must be below 2^64"
_TABLE_PRIMES = (5, 7, 13, 29, 431)
# bad p: not prime, too small, negative, not an int, beyond 2^64
_BAD_P = (4, 9, 1, 0, 3, -7, True, False, 5.0, 7.5, 2**64 + 13, 2**65)


@st.composite
def _triples(draw):
    # q below 10^4 or at least 2^64 / (4dp), never in between: no draw sends
    # a discriminant near 2^64 through the class numbers
    p = draw(st.one_of(st.sampled_from(_TABLE_PRIMES), st.sampled_from(_BAD_P)))
    d = draw(st.integers(min_value=-3, max_value=30))
    big = draw(st.booleans())
    if big:
        low = -(-_PRIME_BOUND // (4 * max(d, 1) * max(int(p), 1)))
        q = draw(st.integers(min_value=low, max_value=2**65))
        top = _PRIME_BOUND
    else:
        q = draw(st.integers(min_value=-3, max_value=10**4 - 1))
        top = 10**4
    if type(p) is int and p in _TABLE_PRIMES and q > 0 and draw(st.integers(0, 3)):
        # step to the next q that fails no condition but the limit on 4dpq,
        # if d allows one: a small draw then reaches the class numbers, and
        # a big one meets the limit alone
        family = range(q + (-1 - q) % p, min(top, q + 1000 * p), p)
        members = (c for c in family if family_violations(p, c, d) in ([], [_LIMIT]))
        q = next(members, q)
    return p, q, d, big


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(_triples())
@example((7, 2**64 - 59, 2, True))
@example((5, 461168601842739359, 2, True))
@example((7, 13, 2, False))
def test_no_exception_escapes_the_certificate(triple):
    p, q, d, big = triple
    for exact in (True, False):
        for lazy in (True, False):
            report = certify_freeness(p, q, d, exact=exact, lazy=lazy)
            assert isinstance(report, FreenessReport)
            # beyond 2^64 / (4dp) every triple is refused before stage 1
            assert not big or (report.invalid and report.facts == {}), triple
    rec = record_for(p, q, d)
    assert (rec.verdict, rec.rank) == (report.verdict, report.rank)


def _valuation_capped(w: int, ell: int) -> int | str:
    v = 0
    while w % ell == 0:
        w //= ell
        v += 1
    return GE3 if v >= 3 else v


def test_fast_unit_facts_match_the_oracles_at_the_scale_of_the_scans():
    # seeded family q (p = 5, d = 2) near 10^6, 10^7, 10^8 and 10^9, 6, 6, 4
    # and 4 of them; near 10^9 the units have tens of thousands of bits, so
    # none is ever printed
    rng = random.Random(2026)
    checked = 0
    for k, count in ((6, 6), (7, 6), (8, 4), (9, 4)):
        qs = set()
        while len(qs) < count:
            start = rng.randrange(10**k, 10**k + 10**k // 10)
            qs.add(next(q for q in range(start, 2 * start) if family_violations(5, q, 2) == []))
        for q in sorted(qs):
            m = 5 * q
            facts = _unit_facts(5, q, make_field(m), None)
            x, y, den, norm, _ = cf_unit_oracle(m)
            assert facts["unit_norm"] == norm, q
            assert facts["unit_pth_power_at_p"] == pth_power_oracle(x, y, den, m, 5), q
            trace = 2 * x // den
            w = 2 + 2 * norm - trace * trace
            assert facts["v_p_val"] == _valuation_capped(w, 5), q
            assert facts["v_q_val"] == _valuation_capped(w, q), q
            r = x * pow(den, -1, q) % q
            order = _order_mod(r * r % q, q, q - 1)
            assert q - 1 == math.prod(ell**e for ell, e in brute_factor(q - 1).items())
            assert facts["e_s_generated"] is (order % 5 != 0), q
            checked += 1
    assert checked == 20


def _cap_valuation_text(reason: str) -> str:
    # the exact path prints the true valuation, the reduced one prints >=3;
    # both mean the same failure once the value saturates
    def cap(match: re.Match[str]) -> str:
        value = match.group(1)
        if value != GE3 and int(value) >= 3:
            value = GE3
        return f"v(eps**2 - 1) = {value}"

    return re.sub(r"v\(eps\*\*2 - 1\) = (>=3|\d+)", cap, reason)


def test_certify_fast_agrees_with_exact_on_candidates():
    # every valid family candidate q < 400 for p in {5, 7}, d = 2, and for
    # p = 7, d = 1, where pq = 5 (mod 8) and the unit may be half-integral
    checked = five_mod_8 = 0
    for p, d in ((5, 2), (7, 2), (7, 1)):
        for q in range(2, 400):
            if family_violations(p, q, d):
                continue
            checked += 1
            exact = certify_freeness(p, q, d, exact=True)
            fast = certify_freeness(p, q, d, exact=False)
            assert fast.mode == fast.facts["mode"] == "fast", (p, q, d)
            assert "unit" not in fast.facts
            five_mod_8 += p * q % 8 == 5
            assert exact.verdict == fast.verdict, (p, q, d)
            assert tuple(map(_cap_valuation_text, exact.reasons)) == tuple(
                map(_cap_valuation_text, fast.reasons)
            ), (p, q, d)
            for key, value in fast.facts.items():
                if key in ("mode", "unit"):
                    continue
                expected = exact.facts[key]
                if value == GE3:
                    assert isinstance(expected, int) and expected >= 3
                else:
                    assert value == expected, (p, q, d, key)
    assert checked >= 21 and five_mod_8 >= 4


def test_report_dict_round_trip():
    for args in (GOLDEN, (5, 149, 2), (7, 41, 2)):
        report = certify_freeness(*args)
        assert FreenessReport.from_dict(report.to_dict()) == report


def test_report_dict_rejects_unknown_schema():
    payload = certify_freeness(*GOLDEN).to_dict()
    payload["schema_version"] = 999
    with pytest.raises(ValueError):
        FreenessReport.from_dict(payload)


def test_certified_report_facts_support_the_verdict():
    # a certificate must be re-derivable from its own recorded facts
    report = certify_freeness(*GOLDEN)
    facts = report.facts
    assert facts["s"] == 1
    assert facts["h_imag_d"] % report.p != 0
    assert facts["h_imag_dpq"] % report.p != 0
    assert facts["h_real_pq"] % report.p != 0
    assert facts["unit_pth_power_at_p"] is False
    assert isinstance(facts["v_p_val"], int) and facts["v_p_val"] <= 2
    assert facts["e_s_generated"] is True
    assert facts["alpha_S"] == 1
    assert facts["mu_p_in_K"] is False


def test_judge_reproduces_the_reference_table_records():
    # the 650 lazy fast records of p in {5, 7, 13, 29, 431}, d = 2, q <= 10^4
    records = [rec for p in (5, 7, 13, 29, 431) for rec in scan_records(p, 2, 10**4)]
    assert len(records) == 650
    certified = 0
    for rec in records:
        # the facts of its cache line, which carry an invalid list if any
        facts = json.loads(rec.to_json_line())["facts"]
        verdict, reasons = judge(rec.p, rec.q, rec.d, facts)
        assert (verdict, RANK[verdict]) == (rec.verdict, rec.rank), rec.q
        assert reasons == rec.reasons, rec.q
        certified += verdict == CERTIFIED_FREE
    # both verdicts occur: 185 certified records, 465 others
    assert certified == 185


def test_judge_reproduces_exact_certificates_of_each_stage():
    # the golden field, then one exact, non-lazy reject per stage
    cases = {
        GOLDEN: None,
        (5, 599, 2): "s = 5, need a single stable place above q in the tower",
        (5, 29, 47): "p divides the class number 5 of Q(sqrt(-47))",
        (5, 29, 2): "p divides the class number 20 of Q(sqrt(-290))",
        (5, 1279, 2): "p divides the class number 10 of Q(sqrt(6395))",
        (5, 509, 2): "the fundamental unit is a p-th power in the completion at p",
    }
    for args, first in cases.items():
        report = certify_freeness(*args)
        assert report.reasons[:1] == ((first,) if first else ()), args
        verdict, reasons = judge(*args, report.facts)
        assert (verdict, RANK[verdict], reasons) == (
            report.verdict,
            report.rank,
            report.reasons,
        ), args


def test_judge_lists_every_failed_hypothesis_in_table_order():
    facts = dict(certify_freeness(*GOLDEN).facts)
    facts.update(
        s=7,
        mu_p_in_K=True,
        h_imag_d=7,
        h_imag_dpq=14,
        h_real_pq=21,
        unit_pth_power_at_p=True,
        v_p_val=GE3,
        e_s_generated=False,
        alpha_S=0,
    )
    assert judge(*GOLDEN, facts) == (
        NOT_CERTIFIED,
        (
            "s = 7, need a single stable place above q in the tower",
            "the field contains the p-th roots of unity",
            "p divides the class number 7 of Q(sqrt(-2))",
            "p divides the class number 14 of Q(sqrt(-182))",
            "p divides the class number 21 of Q(sqrt(91))",
            "the fundamental unit is a p-th power in the completion at p",
            "v(eps**2 - 1) = >=3 at the place above p, need at most 2",
            "p divides the residue order of eps**2 at the place above q",
            "the tame place weight alpha_S is not 1",
        ),
    )


def test_judge_stops_where_a_lazy_certificate_stops():
    lazy = certify_freeness(5, 149, 2, lazy=True)
    assert list(lazy.facts) == ["s", "alpha_S", "mu_p_in_K", "mu_p_in_local_at_q", "mode"]
    assert lazy.reasons == ("s = 5, need a single stable place above q in the tower",)
    assert judge(5, 149, 2, lazy.facts) == (lazy.verdict, lazy.reasons)
    # without a failed stage before it, a missing stage cannot certify
    golden = dict(certify_freeness(*GOLDEN).facts)
    del golden["e_s_generated"]
    assert judge(*GOLDEN, golden) == (NOT_CERTIFIED, ("e_s_generated is missing",))
    assert judge(*GOLDEN, {"s": 1, "mu_p_in_K": False})[0] == NOT_CERTIFIED
    # a fact of the wrong type fails its rule instead of raising
    assert judge(*GOLDEN, {**certify_freeness(*GOLDEN).facts, "h_imag_dpq": "12"}) == (
        NOT_CERTIFIED,
        ("p divides the class number 12 of Q(sqrt(-182))",),
    )


def test_judge_of_an_invalid_record_names_the_family():
    facts = json.loads(record_for(7, 41, 2).to_json_line())["facts"]
    assert judge(7, 41, 2, facts) == (
        NOT_CERTIFIED,
        ("parameters are outside the certified family",),
    )
