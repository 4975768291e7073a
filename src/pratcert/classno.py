"""Class numbers of quadratic fields by exact form counting.

Both class numbers read one table per call, _RootTable: for every a up to
the largest leading coefficient the call needs, N(a), the number of root
classes of b^2 = D (mod 4a), sieved prime by prime from a multiplicative
rule.  Imaginary fields: count reduced positive definite binary quadratic
forms.  Below sqrt|D|/2 the forms with leading coefficient a are the N(a)
root classes, summed from the table; above, the root classes of only the a
with N(a) > 0 are combined by CRT and counted in place against 4a^2 + D.
Real fields: walk the rho-cycles of reduced indefinite forms up to sign,
started only at the root classes of the a <= sqrt(D)/2 with N(a) > 0, until
they have covered every such form, counted from the same table beforehand.
The mirror (a, b, c) -> (c, b, a) reverses the cycles, so a cycle that is
its own mirror is walked only between its two centres, and one that is not
is walked once and counted with its mirror.  The wide h is the number of
these cycles; the parity of the principal one is that of the unit's
continued-fraction period, which gives the narrow h+.  Everything here is
integer arithmetic; the analytic class number formulas that cross-examine
these counts live in the test suite (tests/_oracles.py).
"""

from __future__ import annotations

from itertools import compress
from math import isqrt
from typing import Iterator

from .arith import (
    _PRIME_BOUND,
    _Record,
    _odd_prime_flags,
    _tonelli_shanks,
    factor,
    sqrt_mod_prime_power,
)

__all__ = [
    "ClassNumberResult",
    "h_imaginary",
    "h_plus_real",
    "is_fundamental_discriminant",
    "reduced_indefinite_forms",
]


class ClassNumberResult(_Record):
    __slots__ = ("disc", "h", "h_plus", "method")

    def __init__(self, disc: int, h: int, h_plus: int | None, method: str) -> None:
        set_disc, set_h, set_h_plus, set_method = self._setters
        set_disc(self, disc)
        set_h(self, h)
        set_h_plus(self, h_plus)
        set_method(self, method)


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
    if abs(disc) >= _PRIME_BOUND:
        raise ValueError("|disc| must be below 2^64")
    if not is_fundamental_discriminant(disc):
        raise ValueError("disc must be a fundamental discriminant")


# the exponent byte of an n whose N(n) is 0, and the map that adds one
# split prime to every other exponent
_DEAD = 255
_ONE_MORE = bytes([*range(1, 255), _DEAD, _DEAD])
# the map that marks the n with N(n) > 0
_LIVE = bytes([1]) * _DEAD + bytes(1)


class _RootTable:
    """N(a) = #{b mod 2a : b^2 = disc (mod 4a)} for 1 <= a <= top, one table.

    N is multiplicative.  For odd n, N(n) is 0 when a prime l with
    (disc/l) = -1 divides n, or l^2 divides n for a prime l dividing disc;
    otherwise it is 2^k, k the number of primes with (disc/l) = 1 dividing
    n.  The table keeps k, or _DEAD for 0, in one byte per odd n, sieved
    prime by prime; a prime above top / 3 sets only its own byte.  It
    keeps the prime sieve too, one byte per odd n, for residues.  For
    a = 2^e n, N(a) = two_adic[e] * N(n), two_adic[e] the number of roots
    b mod 2^(e+1) of b^2 = disc (mod 2^(e+2)) (docs/algorithms.md,
    section 3.1).
    """

    __slots__ = ("disc", "prime", "exps", "two_adic", "small", "_roots")

    def __init__(self, disc: int, top: int) -> None:
        # odd n <= top at index n // 2
        prime = _odd_prime_flags(top)
        half = len(prime)
        exps = bytearray(half)
        dead = bytes([_DEAD])
        odd = range(1, top + 1, 2)
        # the odd n above top // 3 start at index cut
        cut = (top // 3 + 1) // 2
        # the odd primes up to sqrt(top) that can divide an a with N(a) > 0
        small: list[int] = []
        for l in compress(odd[:cut], prime[:cut]):
            r = disc % l
            if r and pow(r, l >> 1, l) != 1:
                # (disc/l) = -1: no odd multiple of l has a root
                exps[l >> 1 :: l] = dead * len(range(l >> 1, half, l))
                continue
            if r:
                exps[l >> 1 :: l] = exps[l >> 1 :: l].translate(_ONE_MORE)
            elif l * l <= top:
                # l | disc: no odd multiple of l^2 has a root
                exps[l * l >> 1 :: l * l] = dead * len(range(l * l >> 1, half, l * l))
            if l * l <= top:
                small.append(l)
        for l in compress(odd[cut:], prime[cut:]):
            # 3l > top: l is the only odd multiple of l, and l^2 > top
            r = disc % l
            if r:
                exps[l >> 1] = 1 if pow(r, l >> 1, l) == 1 else _DEAD
        self.disc, self.prime, self.exps, self.small = disc, prime, exps, small
        # modulus -> the roots of disc modulo it
        self._roots: dict[int, list[int]] = {}
        # T_0 = 1, then T_e = 2 (disc = 1 mod 8), T_1 = 1 (disc even) or none
        bits = top.bit_length()
        tail = [2] * bits if disc % 8 == 1 else [] if disc % 2 else [1]
        self.two_adic = ([1] + tail)[:bits]

    def count(self, x: int) -> int:
        """The sum of N(a) over 1 <= a <= x <= top, without a root.

        a = 2^e n <= x exactly when the odd n is at most x >> e, that is
        n // 2 < ((x >> e) + 1) // 2.
        """
        total = 0
        for e, t in enumerate(self.two_adic):
            head = self.exps[: ((x >> e) + 1) // 2]
            k = 0
            while found := head.count(k):
                # an n with k + 1 split primes has a divisor with k
                total += t * found << k
                k += 1
        return total

    def rooted(self, lo: int, hi: int) -> Iterator[int]:
        """The a in [lo, hi] with N(a) > 0, increasing; 1 <= lo, hi <= top.

        One byte per a in [lo, hi], 1 where N(a) > 0, selects them in C: for
        each e with two_adic[e] > 0, the odd n in [ceil(lo / 2^e), hi >> e],
        at indices i to j of exps, give the bytes of a = 2^e n, read as 0 for
        _DEAD and 1 otherwise; every other a keeps 0.
        """
        mask = bytearray(max(hi - lo + 1, 0))
        for e in range(len(self.two_adic)):
            i, j = ((lo + (1 << e) - 1) >> e) // 2, ((hi >> e) + 1) // 2
            if i < j:
                mask[((2 * i + 1) << e) - lo :: 2 << e] = self.exps[i:j].translate(_LIVE)
        return compress(range(lo, hi + 1), mask)

    def residues(self, a: int) -> list[int]:
        """The N(a) classes b mod 2a with b^2 = disc (mod 4a), for N(a) > 0.

        Combined by CRT from the roots of disc modulo 2^(e+1), e = v_2(a),
        and modulo each odd prime power l^k || a as it is found.  No prime
        l with (disc/l) = -1 divides a, so trial division by the others in
        small stops at a cofactor that is 1 or that the prime sieve marks.
        """
        e = (a & -a).bit_length() - 1
        modulus = 2 ** (e + 1)
        residues = list(self._roots_mod(2, e + 2))
        n = a >> e
        prime, small = self.prime, iter(self.small)
        while n > 1:
            if prime[n >> 1]:
                l, k, n = n, 1, 1
            else:
                l, k = next(small), 0
                while n % l == 0:
                    n //= l
                    k += 1
                if not k:
                    continue
            q = l**k
            # the classes mod modulus * q that are residues mod modulus and roots mod q
            inv, roots = pow(modulus, -1, q), self._roots_mod(l, k)
            residues = [r + modulus * ((t - r) * inv % q) for r in residues for t in roots]
            modulus *= q
        return residues

    def _roots_mod(self, l: int, k: int) -> list[int]:
        # the roots of disc modulo l^k, l prime; for l = 2 they matter only
        # modulo 2^(k-1), the 2-part of 2a
        q = l**k if l > 2 else 2 ** (k - 1)
        roots = self._roots.get(q)
        if roots is None:
            if k == 1 and l > 2 and self.disc % l:
                # l divides an a with N(a) > 0, so the table has proved
                # (disc/l) = 1: the roots are +-y
                y = _tonelli_shanks(self.disc, l)
                roots = [y, l - y] if 2 * y < l else [l - y, y]
            else:
                roots = sorted({y % q for y in sqrt_mod_prime_power(self.disc, l, k)})
            self._roots[q] = roots
        return roots


def h_imaginary(disc: int) -> ClassNumberResult:
    """Class number of an imaginary quadratic field by counting reduced forms.

    A form (a, b, c) with b^2 - 4ac = disc is reduced when |b| <= a <= c,
    taking b >= 0 whenever |b| = a or a = c.  One root table is built up
    to a = sqrt(|disc|/3), the largest leading coefficient: O(sqrt|disc|)
    sieve steps and one Euler criterion per prime.  The forms with
    a <= sqrt(|disc|)/2 are counted from it as root classes; in the top
    13 % of a, the root classes of only the a with N(a) > 0 are built by
    CRT and each counted in place, without building its form.
    """
    if disc >= 0:
        raise ValueError("disc must be negative")
    _require_fundamental(disc)
    top = isqrt(-disc // 3)
    table = _RootTable(disc, top)
    # 4a^2 < |disc|: c = (b^2 - disc)/(4a) > a for every b, so each root
    # class gives one reduced form
    x = isqrt(-disc - 1) // 2
    h = table.count(x)
    # above x, the root class b in (-a, a] gives one when c > a, that is
    # b^2 > 4a^2 + disc, or when c = a and b >= 0
    for a in table.rooted(x + 1, top):
        edge = 4 * a * a + disc
        for r in table.residues(a):
            b = r if r <= a else r - 2 * a
            h += b * b > edge or (b * b == edge and b >= 0)
    return ClassNumberResult(disc=disc, h=h, h_plus=None, method="reduced-form count")


def reduced_indefinite_forms(disc: int) -> set[tuple[int, int, int]]:
    """All reduced indefinite forms (a, b, c) of a fundamental discriminant disc > 0.

    Reduced means 0 < b < sqrt(disc) and sqrt(disc) - b < 2|a| < sqrt(disc) + b;
    the same inequality then holds for |c| automatically.  Each form with
    a > 0 comes with its partner (-a, b, -c).  The root table's rule for a
    prime dividing disc holds only when its square does not, so a disc that
    is not fundamental raises ValueError.
    """
    if disc <= 0:
        raise ValueError("disc must be positive")
    _require_fundamental(disc)
    s = isqrt(disc)
    table = _RootTable(disc, s)
    forms: set[tuple[int, int, int]] = set()
    for a in table.rooted(1, s):
        # the reduced b: sqrt(disc) - 2a < b <= s and 2a - sqrt(disc) < b
        two_a = 2 * a
        lo = max(s - two_a + 1, two_a - s)
        for r in table.residues(a):
            for b in range(lo + (r - lo) % two_a, s + 1, two_a):
                c = (b * b - disc) // (4 * a)
                forms.add((a, b, c))
                forms.add((-a, b, -c))
    return forms


def _walk(disc: int, head: int, a0: int, b0: int, c0: int, seen: set[int]) -> tuple[int, int, bool]:
    """Walk the sign-free rho-cycle of (a0, b0, c0) up to its next centre.

    Each walked form adds its key b * (head + 1) + min(a, c) to seen and
    counts for itself and its mirror (c, b, a): its head forms,
    (a <= head) + (c <= head), and two half steps of the cycle's length; a
    node centre (a == c) is its own mirror and counts once.  The walk stops
    after a node centre, before an edge centre (a step that keeps b), or on
    returning to (a0, b0), and returns the head forms, the half steps and
    whether it returned.
    """
    s = isqrt(disc)
    width = head + 1
    covered = length = 0
    a, b, c = a0, b0, c0
    while True:
        if a == c:
            seen.add(b * width + a)
            return covered + (a <= head), length + 1, False
        seen.add(b * width + (a if a < c else c))
        covered += (a <= head) + (c <= head)
        length += 2
        nb = s - (s + b) % (2 * c)
        if nb == b:
            return covered, length, False
        a, b, c = c, nb, (disc - nb * nb) // (4 * c)
        if a == a0 and b == b0:
            return covered, length, True


def h_plus_real(disc: int) -> ClassNumberResult:
    """Narrow and wide class numbers of a real quadratic field.

    rho maps -f to -rho(f), so the cycles are walked sign-free, on
    (|a|, b, |c|).  A sign-free cycle of odd length is one narrow cycle
    that holds both f and -f; one of even length is two.  The principal
    cycle (a = 1) is the continued-fraction period of the unit, so its
    parity gives the unit norm, and every cycle has that parity: h is the
    number of sign-free cycles, and h+ is h or 2h.  Every cycle holds a
    positive reduced form with a <= head = (2s + 1) // 4, so the walks
    start only at those: at each a <= head with N(a) > 0 of a root table
    built up to head, one b in (s - 2a, s] per root class.

    The mirror sigma(a, b, c) = (c, b, a) satisfies sigma rho sigma =
    rho^-1.  A cycle that is its own mirror has two centres, half its
    length apart: a form with a == c, or a step that keeps b.  Its walk
    goes forward from the start to one centre and, from the start's mirror,
    over the mirrors of the forms behind the start to the other, so half
    the cycle is walked, each form standing for itself and its mirror.  A
    walk that meets no centre returns to its start: the cycle's mirror is
    another cycle of the same length, counted with it.  Each walked form
    leaves one key b * (head + 1) + min(a, c) for itself and its mirror, a
    start whose key is known is skipped, and the walks stop once they have
    covered every head form, counted from the same table beforehand
    (docs/algorithms.md, section 3.3).
    """
    if disc <= 0:
        raise ValueError("disc must be positive")
    _require_fundamental(disc)
    s = isqrt(disc)
    # 4a <= 2s + 1: the window s - 2a < b <= s holds one b of each root class
    head = (2 * s + 1) // 4
    table = _RootTable(disc, head)
    want = table.count(head)
    starts = (
        (a, s - (s - r) % (2 * a)) for a in table.rooted(1, head) for r in table.residues(a)
    )
    # one key b * (head + 1) + min(a, c) per walked form and its mirror
    # (c, b, a), one-to-one as 1 <= min(a, c) <= head: a start's key is here
    # once its cycle, or that cycle's mirror, has been walked
    seen: set[int] = set()
    counted = cycles = 0
    for a0, b0 in starts:
        c0 = (disc - b0 * b0) // (4 * a0)
        if b0 * (head + 1) + (a0 if a0 < c0 else c0) in seen:
            continue
        # forward from the start to a centre, or round to the start
        covered, length, closed = _walk(disc, head, a0, b0, c0, seen)
        if closed:
            # no centre: the mirror is another cycle of the same length
            mirrors, length = 2, length // 2
        else:
            # back from the start to the other centre: rho steps from the
            # start's mirror (c0, b0, a0) walk the mirrors of the forms behind
            # it; the first is an edge centre when rho^-1 keeps b0
            mirrors = 1
            b = s - (s + b0) % (2 * a0)
            if b != b0:
                more, back, _ = _walk(disc, head, a0, b, (disc - b * b) // (4 * a0), seen)
                covered, length = covered + more, length + back
        if not cycles:
            odd = length % 2
        elif length % 2 != odd:
            raise ArithmeticError("a rho-cycle's parity differs from the principal cycle's")
        cycles += mirrors
        counted += covered
        if counted >= want:
            break
    if counted != want:
        raise ArithmeticError("the rho-cycles do not cover the counted reduced forms")
    return ClassNumberResult(
        disc=disc, h=cycles, h_plus=cycles if odd else 2 * cycles, method="rho-cycle count"
    )
