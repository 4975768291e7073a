"""Integer primitives: primality, factorization, symbols, orders."""

from __future__ import annotations

import math
import random

import pytest

from pratcert import arith
from pratcert.arith import (
    Factorization,
    factor,
    is_prime,
    kronecker,
    mult_order,
    padic_valuation,
    primes_up_to,
    sqrt_mod_prime_power,
)
from pratcert.scan import record_for
from _oracles import brute_factor, naive_kronecker_prime, prime_flags, squares_mod


def test_is_prime_small_table():
    primes_below_60 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
    for n in range(60):
        assert is_prime(n) == (n in primes_below_60)


def test_is_prime_known_hard_composites():
    # Carmichael number and the smallest strong pseudoprime to bases 2..7
    assert not is_prime(561)
    assert not is_prime(3215031751)
    assert is_prime(2_147_483_647)
    assert is_prime((1 << 61) - 1)
    assert not is_prime((1 << 61) - 2)


def test_is_prime_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_prime(-7)
    with pytest.raises(ValueError):
        is_prime(1 << 64)


def test_is_prime_agrees_with_trial_division():
    rng = random.Random(20260815)
    for _ in range(300):
        n = rng.randrange(2, 10**6)
        by_trial = all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == by_trial


# (psi_k, k): the least strong pseudoprime to the first k primes (Jaeschke
# 1993; Jiang-Deng 2014), with k the number of leading bases it fools;
# psi_7 = psi_8 and psi_9 = psi_10 = psi_11
LEAST_STRONG_PSEUDOPRIMES = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 8),
    (3825123056546413051, 11),
)

TWELVE_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _strong_probable_prime(n: int, base: int) -> bool:
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _twelve_base_miller_rabin(n: int) -> bool:
    if n < 2:
        return False
    if any(n % b == 0 for b in TWELVE_BASES):
        return n in TWELVE_BASES
    return all(_strong_probable_prime(n, b) for b in TWELVE_BASES)


def test_is_prime_false_on_every_least_strong_pseudoprime():
    # each psi_k fools the first k bases, so a witness prefix that is one
    # base short, or that runs up to psi_k inclusive, calls it prime
    for psi, k in LEAST_STRONG_PSEUDOPRIMES:
        assert all(_strong_probable_prime(psi, b) for b in TWELVE_BASES[:k]), psi
        assert not _strong_probable_prime(psi, TWELVE_BASES[k]), psi
        assert not is_prime(psi), psi


def test_is_prime_matches_a_sieve_below_a_million():
    limit = 10**6
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


def test_is_prime_matches_twelve_bases_in_every_table_range():
    bounds = (3,) + tuple(psi for psi, _ in LEAST_STRONG_PSEUDOPRIMES) + (1 << 64,)
    rng = random.Random(1993)
    for lo, hi in zip(bounds, bounds[1:]):
        for n in [lo, hi - 1] + [rng.randrange(lo, hi) | 1 for _ in range(2000)]:
            assert is_prime(n) == _twelve_base_miller_rabin(n), n


def test_is_prime_runs_no_witness_below_two_to_the_16(monkeypatch):
    # below 2^16 the answer is one byte of the import-time sieve, with no
    # gcd and no witness, also inside the records of the paper's table
    calls = []
    witnesses = arith._miller_rabin
    monkeypatch.setattr(arith, "_miller_rabin", lambda n: calls.append(n) or witnesses(n))
    assert sum(map(is_prime, range(1 << 16))) == 6542
    outside = record_for(5, 19, 2)
    assert outside.invalid == ("-d must be a quadratic non-residue modulo q",)
    stage_1 = record_for(5, 149, 2)
    assert not stage_1.invalid and "mu_p_in_local_at_q" in stage_1.facts
    assert calls == []
    assert is_prime((1 << 16) + 1) and calls == [(1 << 16) + 1]


def test_odd_prime_flags_match_a_sieve_over_every_n():
    # the one sieve behind is_prime's table, primes_up_to and the class
    # numbers' root tables: one byte per odd n <= top, at index n // 2
    for top in (0, 1, 2, 3, 4, 9, 25, (1 << 16) - 1, 1 << 16, (1 << 16) + 1):
        assert arith._odd_prime_flags(top) == prime_flags(top)[1::2], top


def test_factor_examples():
    f = factor(168)
    assert f.factors == ((2, 3), (3, 1), (7, 1))
    assert f.sign == 1
    assert f.sign * f.n == 168
    assert factor(-3146).factors == ((2, 1), (11, 2), (13, 1))
    assert factor(-3146).sign == -1
    assert factor(1).factors == ()


def test_factor_round_trip_random():
    rng = random.Random(91)
    for _ in range(400):
        n = rng.randrange(2, 10**9)
        if rng.random() < 0.5:
            n = -n
        f = factor(n)
        assert f.sign * f.n == n
        assert dict(f.factors) == brute_factor(n)


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_large_semiprime():
    p, q = 1_000_003, 1_000_033
    f = factor(p * q)
    assert f.factors == ((p, 1), (q, 1))


def _primes_in(lo: int, hi: int) -> list[int]:
    return [n for n in range(lo, hi) if n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))]


def test_factor_matches_trial_division_on_prime_powers_and_products():
    rng = random.Random(2014)
    small, large = _primes_in(2, 2000), _primes_in(10**5, 10**5 + 3000)
    cases = []
    for _ in range(60):
        p, q = rng.choice(small), rng.choice(large)
        cases += [p * q, p * q * q, q, rng.choice(small) * p * q]
        cases.append(p ** rng.randrange(2, 8))
    cases += [2 * 3 * 5 * 7 * 11 * 13, 2**33, 3**20, 999_983 * 2, 999_983 * 999_979]
    for n in cases:
        assert dict(factor(n).factors) == brute_factor(n), n


def test_factor_stops_only_at_a_cofactor_below_two_to_the_64():
    # the cofactor left after 5, or after 2 and 3, is 2**64 or more, where
    # is_prime refuses to answer, so trial division must go on
    assert factor(5 * 7**30).factors == ((5, 1), (7, 30))
    assert factor(2**70 * 3 * 11**25).factors == ((2, 70), (3, 1), (11, 25))
    # a prime cofactor far beyond trial division
    assert factor(5 * ((1 << 61) - 1)).factors == ((5, 1), ((1 << 61) - 1, 1))


def test_factor_names_the_two_to_the_64_limit_on_its_cofactor():
    # 2**64 + 13 has no divisor up to 10**6, and neither has the product of
    # two primes above 10**6 beyond 2**64: primality there is undecided
    limit = r"cofactor left after trial division to 10\*\*6 below 2\^64"
    for n in (2**64 + 13, -(2**64 + 13), 1_000_003 * ((1 << 61) - 1)):
        with pytest.raises(ValueError, match=limit):
            factor(n)


def test_factor_square_of_a_large_prime_goes_through_rho(monkeypatch):
    import pratcert.arith as arith

    calls = []
    rho = arith._brent_rho

    def counted(n: int) -> int:
        calls.append(n)
        return rho(n)

    monkeypatch.setattr(arith, "_brent_rho", counted)
    assert factor(1_000_003**2).factors == ((1_000_003, 2),)
    assert calls == [1_000_003**2]


def test_factorization_validates_itself():
    with pytest.raises(ValueError):
        Factorization(n=12, sign=1, factors=((2, 1), (3, 1)))
    with pytest.raises(ValueError):
        Factorization(n=6, sign=1, factors=((3, 1), (2, 1)))
    # a composite "prime" is refused although the product is right
    with pytest.raises(ValueError):
        Factorization(n=15, sign=1, factors=((15, 1),))
    with pytest.raises(ValueError):
        Factorization(n=2 * 1000001, sign=-1, factors=((2, 1), (1000001, 1)))


def test_factor_equals_the_checked_construction():
    # factor skips the checks of a direct Factorization; its results must
    # pass them all the same
    rng = random.Random(23)
    ns = [*range(-300, 0), *range(1, 3000), *(rng.randrange(1, 1 << 62) for _ in range(200))]
    ns += [5 * 1000003, 2**61 - 1, (10**6 + 3) ** 2]
    for n in ns:
        got = factor(n)
        assert got == Factorization(n=got.n, sign=got.sign, factors=got.factors), n
        assert got.sign * got.n == n, n


def test_squarefree_helpers():
    assert factor(91).is_squarefree()
    assert not factor(98).is_squarefree()
    assert factor(-12).squarefree_core() == -3
    assert factor(98).squarefree_core() == 2
    assert factor(30).squarefree_core() == 30
    assert dict(factor(168).factors).get(2, 0) == 3
    assert dict(factor(168).factors).get(5, 0) == 0


def test_kronecker_examples():
    assert kronecker(-2, 7) == -1
    assert kronecker(-2, 13) == -1
    assert kronecker(5, 5) == 0


def test_kronecker_multiplicative_in_both_arguments():
    rng = random.Random(364)
    for _ in range(10_000):
        a = rng.randrange(-50, 51)
        b = rng.randrange(-50, 51)
        n = rng.randrange(-40, 41)
        # (0|0) is undefined, and (0|-1) = 1 breaks multiplicativity at zero
        if 0 in (a, b) and n in (0, -1):
            continue
        assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


def test_kronecker_matches_euler_criterion_at_odd_primes():
    for p in primes_up_to(200):
        if p == 2:
            continue
        for a in range(-p, p + 1):
            assert kronecker(a, p) == naive_kronecker_prime(a, p)


def test_kronecker_quadratic_reciprocity_by_square_search():
    odd_primes = [p for p in primes_up_to(200) if p > 2]
    for a in odd_primes:
        for n in odd_primes:
            if a == n:
                continue
            expected = 1 if a % n in squares_mod(n) else -1
            assert kronecker(a, n) == expected
            sign = -1 if a % 4 == 3 and n % 4 == 3 else 1
            assert kronecker(a, n) * kronecker(n, a) == sign


def test_padic_valuation_examples():
    assert padic_valuation(168, 7) == (1, 24)
    assert padic_valuation(98, 7) == (2, 2)
    assert padic_valuation(-3146, 13) == (1, -242)


def test_padic_valuation_consistent_with_factor():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 10**7) * rng.choice([1, -1])
        for ell in (2, 3, 5, 7, 13):
            v, cofactor = padic_valuation(n, ell)
            assert v == dict(factor(n).factors).get(ell, 0)
            assert n == ell**v * cofactor
            assert cofactor % ell != 0


def test_mult_order_examples():
    assert mult_order(13, 7) == 2
    assert mult_order(2, 5) == 4
    assert mult_order(1, 97) == 1


def test_mult_order_rejects_shared_factor():
    with pytest.raises(ValueError):
        mult_order(6, 9)


def test_mult_order_matches_naive_loop():
    rng = random.Random(13)
    cases = []
    for _ in range(100):
        m = rng.randrange(3, 2000)
        cases.append((rng.randrange(1, m), m))
        # a = 1 (mod m), which has order 1 before any factoring
        cases.append((1 + m * rng.randrange(0, 5), m))
    # prime moduli, whose Carmichael value is read as m - 1
    for m in (2, 3, 5, 7, 13, 97, 1009, 1999):
        cases += [(rng.randrange(1, m), m), (m + 1, m), (m - 1, m)]
    for a, m in cases:
        if math.gcd(a, m) != 1:
            continue
        k, x = 1, a % m
        while x != 1:
            x = x * a % m
            k += 1
        assert mult_order(a, m) == k, (a, m)


def test_mult_order_at_a_prime_factors_only_its_predecessor(monkeypatch):
    # the order divides q - 1 at a prime q: q itself is not factored
    calls = []
    monkeypatch.setattr(arith, "factor", lambda n: calls.append(n) or factor(n))
    for q in (1_000_003, 1_000_000_007):
        assert is_prime(q)
        calls.clear()
        order = mult_order(4, q)
        assert calls == [q - 1]
        assert pow(4, order, q) == 1 and (q - 1) % order == 0
        assert all(pow(4, order // r, q) != 1 for r, _ in factor(order).factors)


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(2) == [2]
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    sieve = primes_up_to(10_000)
    assert len(sieve) == 1229
    assert all(is_prime(p) for p in sieve)


def test_tonelli_shanks_squares_back_to_every_residue():
    # one power for p = 3 (mod 4), Atkin's for p = 5 (mod 8), and
    # Tonelli-Shanks for p = 1 (mod 8)
    primes = primes_up_to(2000)[1:]
    assert {p % 8 for p in primes} == {1, 3, 5, 7}
    for p in primes:
        for a in squares_mod(p):
            y = arith._tonelli_shanks(a, p)
            assert y * y % p == a, (a, p)


def test_sqrt_mod_prime_power_matches_square_search():
    # odd p through Tonelli-Shanks and Newton, p = 2 and p | a by lifting
    for p, k_max in ((2, 7), (3, 5), (5, 3), (7, 3), (13, 2), (17, 1), (97, 1)):
        for k in range(1, k_max + 1):
            m = p**k
            for a in range(-3 * m, 3 * m, max(1, m // 40)):
                expected = [x for x in range(m) if (x * x - a) % m == 0]
                assert sqrt_mod_prime_power(a, p, k) == expected, (a, p, k)
    with pytest.raises(ValueError):
        sqrt_mod_prime_power(1, 5, 0)
