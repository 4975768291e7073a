"""Exact integer primitives shared by every other module.

Primality below 2**16 is one byte of an odd-only prime sieve built at
import (32 KB).  From 2**16 up to 2**64 it is a deterministic Miller-Rabin
test that runs only the first k prime witnesses, k the least with n below
psi_k, the least strong pseudoprime to the first k primes (Jaeschke, Math.
Comp. 61, 1993; Jiang-Deng, Math. Comp. 83, 2014): three witnesses below
25,326,001.  The one-witness range, below psi_1 = 2047, is never reached.
Factorization runs trial division up to 10**6, stops at a prime cofactor,
and hands a composite one to Brent's variant of Pollard rho.  Nothing here
uses floating point.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from contextlib import contextmanager
from itertools import compress
from math import gcd, isqrt
from typing import Any, Iterator

__all__ = [
    "Factorization",
    "factor",
    "is_prime",
    "kronecker",
    "mult_order",
    "padic_valuation",
    "primes_up_to",
    "sqrt_mod_prime_power",
    "unlimited_int_digits",
]

# Deterministic below psi_12 = 318_665_857_834_031_151_167_461 > 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# n shares a factor with their product iff one of the witnesses divides n
_WITNESS_PRODUCT = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37

# psi_k for k = 1 .. 11: below psi_k the first k witnesses decide
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383)
_PSI += (341550071728321,) * 2 + (3825123056546413051,) * 3

_TRIAL_LIMIT = 10**6

# primality is proven below this bound, and is_prime refuses larger input;
# every module that needs a primality decision checks its input against it
_PRIME_BOUND = 1 << 64

# is_prime looks up every n below this bound in _SMALL_ODD_PRIME
_SMALL_BOUND = 1 << 16


def _odd_prime_flags(top: int) -> bytearray:
    # flags[n // 2] = 1 iff n is an odd prime, for the odd n <= top
    half = (top + 1) // 2
    flags = bytearray([1]) * half
    if half:
        flags[0] = 0
    for i in range(1, (isqrt(top) + 1) // 2):
        if flags[i]:
            n = 2 * i + 1
            flags[n * n // 2 :: n] = bytes(len(range(n * n // 2, half, n)))
    return flags


_SMALL_ODD_PRIME = bytes(_odd_prime_flags(_SMALL_BOUND - 1))


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64.

    Below 2**16 the answer is one byte of a sieve of the odd n, 32 KB
    built at import; above, a Miller-Rabin test whose witnesses are
    proven sufficient.  Inputs outside that range are rejected rather
    than answered probabilistically.
    """
    if n < 0:
        raise ValueError("is_prime expects a nonnegative integer")
    if n < _SMALL_BOUND:
        return _SMALL_ODD_PRIME[n >> 1] == 1 if n & 1 else n == 2
    if n >= _PRIME_BOUND:
        raise ValueError("is_prime is deterministic only for 64-bit inputs")
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    # 2**16 <= n < 2**64, so n is none of the witnesses and needs at least two
    if gcd(n, _WITNESS_PRODUCT) != 1:
        return False
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_WITNESSES[: bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _Record:
    """Base of the package's immutable records.

    A subclass names its fields in __slots__, in order, and its __init__
    fills them through _setters, the slots' own __set__ bound once per
    class (faster than object.__setattr__, and past the refusal below).
    The base refuses later assignment and deletion, and compares, hashes,
    shows and pickles a record by its slot values.
    """

    __slots__ = ()
    _setters: tuple[Any, ...]

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _values(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple[Any, ...]:
        return type(self), self._values()


class Factorization(_Record):
    """Complete factorization of a nonzero integer, sign kept separate.

    ``n`` is the absolute value, ``factors`` lists (prime, exponent) with
    strictly increasing primes.
    """

    __slots__ = ("n", "sign", "factors")

    def __init__(self, n: int, sign: int, factors: tuple[tuple[int, int], ...]) -> None:
        set_n, set_sign, set_factors = self._setters
        set_n(self, n)
        set_sign(self, sign)
        set_factors(self, factors)
        if n < 1 or sign not in (-1, 1):
            raise ValueError("n must be positive and sign must be +-1")
        prod = 1
        last = 1
        for p, e in factors:
            if p <= last or e < 1 or not is_prime(p):
                raise ValueError("factors must be increasing (prime, exponent) pairs")
            last = p
            prod *= p**e
        if prod != n:
            raise ValueError("factor product does not equal n")

    @classmethod
    def _proven(cls, n: int, sign: int, factors: tuple[tuple[int, int], ...]) -> Factorization:
        # factor's own result, whose primes it has just proven: built without
        # __init__, which would run is_prime on each of them again
        self = object.__new__(cls)
        set_n, set_sign, set_factors = cls._setters
        set_n(self, n)
        set_sign(self, sign)
        set_factors(self, factors)
        return self

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)

    def squarefree_core(self) -> int:
        core = 1
        for p, e in self.factors:
            if e % 2:
                core *= p
        return self.sign * core


def _brent_rho(n: int) -> int:
    # n odd composite with no prime factor <= _TRIAL_LIMIT
    for c in range(1, 200):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho could not split {n}")


def _split(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _split(d, out)
    _split(n // d, out)


def _trial_divisors() -> Iterator[int]:
    # 2, 3 and every 6j +- 1 up to _TRIAL_LIMIT, a superset of its primes
    yield from (2, 3)
    for f in range(5, _TRIAL_LIMIT + 1, 6):
        yield f
        yield f + 2


def factor(n: int) -> Factorization:
    """Complete factorization of |n|; the sign is reported separately.

    Raises ValueError when the cofactor left after trial division to 10**6
    is not below 2^64, where primality is decided deterministically.
    """
    if n == 0:
        raise ValueError("0 has no factorization")
    sign = -1 if n < 0 else 1
    m = abs(n)
    out: dict[int, int] = {}
    for f in _trial_divisors():
        if f * f > m:
            break
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            out[f] = e
            if m < _PRIME_BOUND and is_prime(m):
                out[m] = 1
                m = 1
    if m > 1:
        if f * f > m:
            # no divisor up to sqrt(m): the cofactor is prime
            out[m] = out.get(m, 0) + 1
        elif m >= _PRIME_BOUND:
            raise ValueError(
                "factor needs the cofactor left after trial division to 10**6 "
                "below 2^64, where primality is deterministic"
            )
        else:
            _split(m, out)
    return Factorization._proven(abs(n), sign, tuple(sorted(out.items())))


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers not both zero."""
    if n == 0:
        if a == 0:
            raise ValueError("kronecker(0, 0) is undefined")
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    k = 1
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v % 2 == 1 and a % 8 in (3, 5):
        k = -k
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    while True:
        a %= n
        if a == 0:
            return k if n == 1 else 0
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 == 1 and n % 8 in (3, 5):
            k = -k
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a, n = n, a


def padic_valuation(n: int, ell: int) -> tuple[int, int]:
    """Largest v with ell**v | n, together with the exact cofactor n / ell**v."""
    if n == 0:
        raise ValueError("the valuation of 0 is infinite")
    if ell < 2 or not is_prime(ell):
        raise ValueError("ell must be prime")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v, n


def _carmichael(m: int) -> int:
    if m < _PRIME_BOUND and is_prime(m):
        return m - 1
    lam = 1
    for p, e in factor(m).factors:
        if p == 2:
            block = 1 if e == 1 else 2 if e == 2 else 1 << (e - 2)
        else:
            block = (p - 1) * p ** (e - 1)
        lam = lam * block // gcd(lam, block)
    return lam


def mult_order(a: int, m: int) -> int:
    """Least k >= 1 with a**k = 1 (mod m); requires gcd(a, m) = 1.

    The order divides the Carmichael value of m, found by factoring m, or
    m - 1 for a prime m, which is not factored; the order is found by
    factoring that value.  a = 1 (mod m) has order 1 and factors nothing.
    """
    if m < 2:
        raise ValueError("modulus must be at least 2")
    a %= m
    if a == 1:
        return 1
    if gcd(a, m) != 1:
        raise ValueError("mult_order requires gcd(a, m) = 1")
    order = _carmichael(m)
    for p, _ in factor(order).factors:
        while order % p == 0 and pow(a, order // p, m) == 1:
            order //= p
    return order


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, read off the odd-only sieve."""
    if n < 2:
        return []
    return [2, *compress(range(1, n + 1, 2), _odd_prime_flags(n))]


def _tonelli_shanks(a: int, p: int) -> int:
    # a square root of a nonzero quadratic residue a modulo an odd prime p
    a %= p
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    if p % 8 == 5:
        # Atkin: 2 is a non-residue, so i = t v^2 has i^2 = -1 and (a v (i - 1))^2 = a
        t = 2 * a % p
        v = pow(t, (p - 5) // 8, p)
        return a * v * (t * v * v - 1) % p
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    m_, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m_ - i - 1), p)
        m_, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def sqrt_mod_prime_power(a: int, p: int, k: int) -> list[int]:
    """Every x in [0, p**k) with x*x = a (mod p**k), ascending; p prime.

    For odd p not dividing a: Tonelli-Shanks mod p, then Newton (Hensel)
    steps that double the precision, giving exactly the two roots +-x.  For
    p = 2, or p dividing a, each root mod p**j is lifted by trying its p
    lifts mod p**(j+1); every root mod p**(j+1) reduces to a root mod p**j,
    so none is missed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pk = p**k
    if p > 2 and a % p:
        if pow(a, (p - 1) // 2, p) != 1:
            return []
        x, q = _tonelli_shanks(a, p), p
        while q < pk:
            q = min(q * q, pk)
            x = (x - (x * x - a) * pow(2 * x, -1, q)) % q
        return sorted((x, pk - x))
    roots, q = [a % p], p
    while q < pk:
        roots = [y for x in roots for y in range(x, q * p, q) if (y * y - a) % (q * p) == 0]
        q *= p
    return sorted(roots)


@contextmanager
def unlimited_int_digits() -> Iterator[None]:
    """Lift the interpreter's limit on int <-> str conversion for a block.

    Fundamental units run to tens of thousands of digits, beyond the
    default limit of 4300; the previous limit is restored on exit.
    """
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)
