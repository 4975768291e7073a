"""Class numbers of quadratic fields by exact form counting.

Imaginary fields: count reduced positive definite binary quadratic forms.
Below sqrt|D|/2 the forms with leading coefficient a are the N(a) root
classes of b^2 = D (mod 4a), summed from a multiplicative N; above, they
are enumerated.  Real fields: walk the rho-cycles of reduced indefinite
forms up to sign, from the smallest a, until they have visited every form
with a <= sqrt(D)/2, counted the same way beforehand.  The wide h is the
number of these cycles; the parity of the principal one is that of the
unit's continued-fraction period, which gives the narrow h+.  Two
further routines exist purely so the tests can cross-examine the
primary ones: a character-sum formula for imaginary discriminants and a
floating-point Dirichlet formula for real ones.  Neither oracle ever feeds
a verdict.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from math import isqrt
from typing import Iterator

from .arith import factor, kronecker, sqrt_mod_prime_power
from .quadratic import fundamental_unit, make_field

__all__ = [
    "ClassNumberResult",
    "h_charsum_oracle",
    "h_imaginary",
    "h_plus_real",
    "h_real_analytic_oracle",
    "is_fundamental_discriminant",
    "reduced_indefinite_forms",
]


@dataclass(frozen=True)
class ClassNumberResult:
    disc: int
    h: int
    h_plus: int | None
    method: str


def is_fundamental_discriminant(d: int) -> bool:
    if d in (0, 1):
        return False
    if d % 4 == 1:
        return factor(d).is_squarefree()
    if d % 4 == 0:
        q = d // 4
        return q % 4 in (2, 3) and factor(q).is_squarefree()
    return False


def _require_fundamental(disc: int) -> None:
    # factor decides squarefreeness through is_prime, which is proven
    # deterministic below 2^64 and refuses larger input
    if abs(disc) >= 1 << 64:
        raise ValueError("|disc| must be below 2^64")
    if not is_fundamental_discriminant(disc):
        raise ValueError("disc must be a fundamental discriminant")


def _extend_spf(spf: array, hi: int) -> None:
    """Extend a smallest-prime-factor table (spf[k] for 2 <= k < len(spf)) to k < hi."""
    lo = len(spf)
    spf.extend(range(lo, hi))
    # downward, so that each smaller prime overwrites the larger ones; a
    # composite j writes only on multiples that a prime below j overwrites
    # afterwards
    for j in range(isqrt(hi - 1), 1, -1):
        start = max(j * j, -(-lo // j) * j)
        spf[start::j] = array("I", [j]) * len(range(start, hi, j))


def _root_class_count(disc: int, x: int) -> int:
    """The sum of N(a) over 1 <= a <= x, N(a) = #{b mod 2a : b^2 = disc (mod 4a)}.

    N is multiplicative.  For an odd prime l and a fundamental disc,
    N(l^k) = 1 + (disc/l) when l does not divide disc, and N(l) = 1,
    N(l^k) = 0 for k >= 2 when it does.  So on odd n, with l the smallest
    prime factor of n and n = l m, N(n) = N(m) N(l) when l does not divide
    m; when it does, N(n) = N(m) if l does not divide disc and 0 if it
    does.  For a = 2^e n, N(a) = N(n) times the number of roots
    b mod 2^(e+1) of b^2 = disc (mod 2^(e+2)), and n <= x >> e
    (docs/algorithms.md, section 3.1).
    """
    if x < 1:
        return 0
    spf = array("I", [0, 1])
    _extend_spf(spf, x + 1)
    n_odd = array("I", [0]) * (x + 1)
    n_odd[1] = 1
    for n in range(3, x + 1, 2):
        l = spf[n]
        m = n // l
        if m == 1:
            n_odd[n] = 1 if disc % n == 0 else 2 if pow(disc, n // 2, n) == 1 else 0
        elif m % l:
            n_odd[n] = n_odd[m] * n_odd[l]
        else:
            n_odd[n] = n_odd[m] if disc % l else 0
    total = 0
    for e in range(x.bit_length()):
        q = 2 ** (e + 1)
        two_adic = len({r % q for r in sqrt_mod_prime_power(disc, 2, e + 2)})
        if not two_adic:
            # a root mod 2^(e+3) reduces to one mod 2^(e+2): none beyond
            break
        total += two_adic * sum(n_odd[1 : (x >> e) + 1 : 2])
    return total


def _reduced_forms(disc: int, a_lo: int = 1) -> Iterator[tuple[int, int, int]]:
    """Reduced forms (a, b, c) of discriminant disc with a >= a_lo > 0, by a.

    disc < 0: the reduced definite forms, |b| <= a <= c with b >= 0 when
    |b| = a or a = c, so a <= sqrt(|disc|/3).  disc > 0, not a square: the
    reduced indefinite forms with a > 0, 0 < b < sqrt(disc) and
    sqrt(disc) - b < 2a < sqrt(disc) + b, so a <= isqrt(disc).

    For each a, the b with b^2 = disc (mod 4a) form whole classes mod 2a.
    Their residues are combined by CRT from the square roots of disc modulo
    each prime power of 4a, found once per prime power and kept for the
    call; a is factored by a smallest-prime-factor table of 4 bytes per a,
    grown as a advances.
    """
    s = isqrt(abs(disc))
    a_max = isqrt(-disc // 3) if disc < 0 else s
    spf = array("I", [0, 1])
    # modulus -> roots; the empty tuple, shared, where there is none
    roots_by_modulus: dict[int, tuple[int, ...]] = {}

    def roots(p: int, k: int) -> tuple[int, tuple[int, ...]]:
        # b mod p^k with b^2 = disc (mod p^k); for p = 2, k is the exponent
        # of 2 in 4a, and b matters only mod 2^(k-1)
        q = p**k if p > 2 else 2 ** (k - 1)
        if q not in roots_by_modulus:
            rs = sqrt_mod_prime_power(disc, p, k)
            roots_by_modulus[q] = tuple(sorted({r % q for r in rs}))
        return q, roots_by_modulus[q]

    for a in range(a_lo, a_max + 1):
        if a >= len(spf):
            # doubling: the table's memory follows the progress of a
            _extend_spf(spf, min(2 * a, a_max + 1))
        e = (a & -a).bit_length() - 1
        parts = [roots(2, e + 2)]
        n = a >> e
        while n > 1 and parts[-1][1]:
            p, k = spf[n], 0
            while n % p == 0:
                n //= p
                k += 1
            parts.append(roots(p, k))
        if not parts[-1][1]:
            continue
        residues, modulus = [0], 1
        for q, rs in parts:
            inv = pow(modulus, -1, q)
            residues = [r + modulus * ((t - r) * inv % q) for r in residues for t in rs]
            modulus *= q
        two_a, four_a = 2 * a, 4 * a
        if disc < 0:
            for r in residues:
                b = r if r <= a else r - two_a
                c = (b * b - disc) // four_a
                if c > a or (c == a and b >= 0):
                    yield (a, b, c)
        else:
            lo = max(s - two_a + 1, two_a - s)
            for r in residues:
                for b in range(lo + (r - lo) % two_a, s + 1, two_a):
                    yield (a, b, (b * b - disc) // four_a)


def h_imaginary(disc: int) -> ClassNumberResult:
    """Class number of an imaginary quadratic field by counting reduced forms.

    A form (a, b, c) with b^2 - 4ac = disc is reduced when |b| <= a <= c,
    taking b >= 0 whenever |b| = a or a = c.  The forms with leading
    coefficient a <= sqrt(|disc|)/2 are counted as root classes by a table
    pass, O(sqrt|disc|); those with sqrt(|disc|)/2 < a <= sqrt(|disc|/3)
    are enumerated, O(sqrt|disc| * 2^omega(a)) over that top 13 % of a.
    """
    if disc >= 0:
        raise ValueError("disc must be negative")
    _require_fundamental(disc)
    # 4a^2 < |disc|: c = (b^2 - disc)/(4a) > a for every b, so each root
    # class gives one reduced form
    x = isqrt(-disc - 1) // 2
    h = _root_class_count(disc, x) + sum(1 for _ in _reduced_forms(disc, x + 1))
    return ClassNumberResult(disc=disc, h=h, h_plus=None, method="reduced-form count")


def h_charsum_oracle(disc: int) -> int:
    """Character-sum class number for fundamental disc < -4 (test oracle).

    h = sum of kronecker(disc, a) over 0 < a < |disc|/2, divided by
    (2 - kronecker(disc, 2)).  Used only to cross-check h_imaginary.
    """
    if disc >= -4:
        raise ValueError("the character-sum formula needs disc < -4")
    if not is_fundamental_discriminant(disc):
        raise ValueError("disc must be a fundamental discriminant")
    d = -disc
    total = 0
    for a in range(1, (d + 1) // 2):
        total += kronecker(disc, a)
    h, rem = divmod(total, 2 - kronecker(disc, 2))
    if rem:
        raise ArithmeticError("character sum is not divisible by 2 - chi(2)")
    return h


def reduced_indefinite_forms(disc: int) -> set[tuple[int, int, int]]:
    """All reduced indefinite forms (a, b, c) of a nonsquare discriminant disc > 0.

    Reduced means 0 < b < sqrt(disc) and sqrt(disc) - b < 2|a| < sqrt(disc) + b;
    the same inequality then holds for |c| automatically.  Each form with
    a > 0 comes with its partner (-a, b, -c).
    """
    if disc <= 0:
        raise ValueError("disc must be positive")
    forms: set[tuple[int, int, int]] = set()
    for a, b, c in _reduced_forms(disc):
        forms.add((a, b, c))
        forms.add((-a, b, -c))
    return forms


def h_plus_real(disc: int) -> ClassNumberResult:
    """Narrow and wide class numbers of a real quadratic field.

    rho maps -f to -rho(f), so the cycles are walked sign-free, on
    (|a|, b, |c|).  A sign-free cycle of odd length is one narrow cycle
    that holds both f and -f; one of even length is two.  The principal
    cycle (a = 1) is the continued-fraction period of the unit, so its
    parity gives the unit norm, and every cycle has that parity: h is the
    number of sign-free cycles, and h+ is h or 2h.  The walk stops once it
    has visited every positive reduced form with a <= (2s + 1) // 4,
    counted beforehand as root classes: every cycle holds one
    (docs/algorithms.md, section 3.3).
    """
    if disc <= 0:
        raise ValueError("disc must be positive")
    _require_fundamental(disc)
    s = isqrt(disc)
    # 4a <= 2s + 1: the window s - 2a < b <= s holds one b of each root class
    head = (2 * s + 1) // 4
    want = _root_class_count(disc, head)
    seen: set[tuple[int, int]] = set()
    counted = cycles = 0
    for a, b, c in _reduced_forms(disc):
        if (a, b) in seen:
            continue
        c, length = -c, 0
        while (a, b) not in seen:
            seen.add((a, b))
            counted += a <= head
            length += 1
            b = s - (s + b) % (2 * c)
            a, c = c, (disc - b * b) // (4 * c)
        if not cycles:
            odd = length % 2
        elif length % 2 != odd:
            raise ArithmeticError("a rho-cycle's parity differs from the principal cycle's")
        cycles += 1
        if counted >= want:
            break
    if counted != want:
        raise ArithmeticError("the rho-cycles do not cover the counted reduced forms")
    return ClassNumberResult(
        disc=disc, h=cycles, h_plus=cycles if odd else 2 * cycles, method="rho-cycle count"
    )


def _log_plus(x: int, y: int, m: int, den: int) -> float:
    # log((x + y sqrt(m)) / den) for huge integer coordinates
    scale = 10**18
    num = x * scale + y * isqrt(m * scale * scale)
    return math.log(num) - math.log(scale) - math.log(den)


def h_real_analytic_oracle(disc: int) -> float:
    """Dirichlet formula for the wide class number of a real field (oracle).

    Returns the float  -sum_a chi(a) log sin(pi a / disc) / (2 log eps);
    rounding it must reproduce h.  Acceptance cross-check only.
    """
    if disc <= 0 or not is_fundamental_discriminant(disc):
        raise ValueError("disc must be a positive fundamental discriminant")
    m = disc if disc % 4 == 1 else disc // 4
    u = fundamental_unit(make_field(m)).elem
    log_eps = _log_plus(u.x, u.y, m, u.den)
    total = 0.0
    for a in range(1, disc):
        chi = kronecker(disc, a)
        if chi:
            total -= chi * math.log(math.sin(math.pi * a / disc))
    return total / (2 * log_eps)
