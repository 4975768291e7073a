"""Independent oracles for the test suite.

Every routine here recomputes a quantity through a route disjoint from the
package implementation: brute-force search, direct definitions, analytic
class number formulas, or textbook recurrences.  The module imports nothing
from pratcert; its routines take and return plain integers (the real
analytic formula returns a float), so an agreement between package and
oracle is evidence, not circularity.  The floating point of the analytic
formulas lives here, since the package has none.
"""

from __future__ import annotations

import math
from math import isqrt


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def brute_factor(n: int) -> dict[int, int]:
    """Prime factorization of |n| by plain trial division."""
    n = abs(n)
    if n <= 1:
        return {}
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_fundamental_disc(d: int) -> bool:
    """Whether d is a fundamental discriminant, squarefree by trial division.

    d = 1 (mod 4) squarefree, or d = 4k with k = 2, 3 (mod 4) squarefree;
    d = 1 is the discriminant of no quadratic field.
    """
    if d % 4 == 1 and d != 1:
        core = d
    elif d % 4 == 0 and d // 4 % 4 in (2, 3):
        core = d // 4
    else:
        return False
    return all(e == 1 for e in brute_factor(core).values())


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n >= 1, by quadratic reciprocity.

    Each factor 2 of n contributes (a|2): 0 for even a, -1 for a = +-3
    (mod 8), 1 otherwise.  The odd part is a Jacobi symbol, reduced by
    reciprocity and the supplement for 2 without factoring n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    sign = 1
    while n % 2 == 0:
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
        n //= 2
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a, n = n % a, a
    return sign if n == 1 else 0


def naive_kronecker_prime(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    e = pow(a, (p - 1) // 2, p)
    return 1 if e == 1 else -1


def squares_mod(n: int) -> set[int]:
    """All nonzero quadratic residues modulo n."""
    return {x * x % n for x in range(1, n)} - {0}


def prime_flags(top: int) -> bytearray:
    """flags[n] = 1 exactly for the primes n <= top, sieved over every n."""
    flags = bytearray([1]) * (top + 1)
    flags[: min(2, top + 1)] = bytes(min(2, top + 1))
    for p in range(2, isqrt(top) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
    return flags


def _value_less(c1: tuple[int, int, int], c2: tuple[int, int, int], m: int) -> bool:
    # (x1 + y1 sqrt m)/d1 < (x2 + y2 sqrt m)/d2 with all parts positive,
    # decided in exact integer arithmetic
    a = c1[0] * c2[2] - c2[0] * c1[2]
    b = c1[1] * c2[2] - c2[1] * c1[2]
    if a <= 0 and b <= 0:
        return not (a == 0 and b == 0)
    if a >= 0 and b >= 0:
        return False
    if a > 0:
        return a * a < b * b * m
    return a * a > b * b * m


def pell_min_solution(m: int, y_cap: int) -> tuple[int, int, int] | None:
    """Minimal unit (x, y, den) of Q(sqrt(m)) with y <= y_cap, by brute force.

    Scans y ascending over x**2 - m y**2 = +-1 (and +-4 with matching parity
    when m = 1 mod 4).  After the first hit keeps scanning to 2*y_hit + 3:
    any smaller unit has value < (x + y sqrt m)/den <= 2 y sqrt m + 2, and a
    unit's y is below twice its value divided by sqrt m, so nothing beyond
    that bound can undercut the hit.  Returns None if nothing is found.
    """
    best: tuple[int, int, int] | None = None
    y = 0
    while True:
        y += 1
        if best is None:
            if y > y_cap:
                return None
        elif y > 2 * best[1] + 3:
            return best
        my2 = m * y * y
        for n in (1, -1):
            if is_square(my2 + n):
                cand = (isqrt(my2 + n), y, 1)
                if best is None or _value_less(cand, best, m):
                    best = cand
        if m % 4 == 1:
            for n in (4, -4):
                if is_square(my2 + n):
                    x = isqrt(my2 + n)
                    if (x - y) % 2 == 0:
                        cand = (x, y, 2)
                        if best is None or _value_less(cand, best, m):
                            best = cand


def cf_unit_oracle(m: int) -> tuple[int, int, int, int, int]:
    """Fundamental unit of Q(sqrt(m)), squarefree m > 1, by the textbook
    continued fraction: (x, y, den, norm, period) with the unit
    (x + y sqrt m)/den > 1 in lowest terms.

    alpha = sqrt(m), or (1 + sqrt(m))/2 when m = 1 (mod 4), generates the
    maximal order.  Its expansion [a0; a1, ..., ar, a1, ...] is periodic
    from the first complete quotient on; the walk runs over one whole
    period, detected by the state (P, Q) of (P + sqrt m)/Q returning to
    that of the first complete quotient.  With p/q the convergents, the
    unit is p_(r-1) - q_(r-1) conj(alpha).  The norm is read off
    x^2 - m y^2, not from the period's parity.
    """
    s = isqrt(m)
    P, Q = (1, 2) if m % 4 == 1 else (0, 1)
    p_prev, p, q_prev, q = 0, 1, 1, 0
    first = None
    period = 0
    while True:
        a = (P + s) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        P = a * Q - P
        Q = (m - P * P) // Q
        if first is None:
            first = (P, Q)
        else:
            period += 1
            if (P, Q) == first:
                break
    # p_prev/q_prev is p_(r-1)/q_(r-1); conj(alpha) = -sqrt(m) or (1 - sqrt(m))/2
    if m % 4 == 1:
        x, y, den = 2 * p_prev - q_prev, q_prev, 2
        if x % 2 == 0:
            x, y, den = x // 2, y // 2, 1
    else:
        x, y, den = p_prev, q_prev, 1
    norm, rem = divmod(x * x - m * y * y, den * den)
    if rem or norm not in (-1, 1):
        raise AssertionError(f"no unit from the period of sqrt({m})")
    return x, y, den, norm, period


def lucas_v(k: int, t: int, n: int) -> int:
    """V_k(t, n): V_0 = 2, V_1 = t, V_j = t V_{j-1} - n V_{j-2}."""
    if k == 0:
        return 2
    v0, v1 = 2, t
    for _ in range(k - 1):
        v0, v1 = v1, t * v1 - n * v0
    return v1


def kth_root_witness(
    trace: int, norm: int, m: int, k: int
) -> tuple[int, int, int] | None:
    """A unit u of Q(sqrt(m)) with u**k equal to the unit of the given
    trace and norm, found as (t, y, n) with u = (t + y sqrt m)/2, or None.

    If u has trace t and norm n then u**k has trace V_k(t, n) and norm n**k,
    so candidate roots are integer solutions of V_k(t, n) = trace found by
    binary search (V_k is increasing in t over t >= 1 for the admissible n),
    then filtered by t**2 - 4n = m y**2 having an integer y.  Any such
    integer pair (t, y) really is a unit: the parity constraints for
    (t + y sqrt m)/2 to be an algebraic integer follow mod 4.
    """
    if k % 2 == 1:
        signs = (norm,)
    elif norm == 1:
        signs = (1, -1)
    else:
        signs = ()
    for n in signs:
        lo, hi = 1, 2
        while lucas_v(k, hi, n) < trace:
            hi *= 2
        while lo <= hi:
            mid = (lo + hi) // 2
            v = lucas_v(k, mid, n)
            if v == trace:
                num = mid * mid - 4 * n
                if num % m == 0 and is_square(num // m):
                    return (mid, isqrt(num // m), n)
                break
            if v < trace:
                lo = mid + 1
            else:
                hi = mid - 1
    return None


def unit_minimality_certificate(
    x: int, y: int, den: int, norm: int, m: int
) -> tuple[bool, tuple[int, int, int, int] | None]:
    """Proof that the unit (x + y sqrt m)/den is fundamental, by exclusion.

    Any smaller unit would make this one a k-th power for some prime k, and
    every unit above 1 is at least the golden ratio, so k is bounded by
    log(unit)/log(golden).  Returns (True, None) when every prime k is
    excluded, else (False, (k, t, y, n)) with the witness root.
    """
    trace = 2 * x // den
    log_val = _log_value(x, y, den, m)
    k_max = int(log_val / math.log((1 + math.sqrt(5)) / 2)) + 2
    for k in range(2, k_max + 1):
        if any(k % j == 0 for j in range(2, isqrt(k) + 1)):
            continue
        witness = kth_root_witness(trace, norm, m, k)
        if witness is not None:
            return False, (k, *witness)
    return True, None


def _log_value(x: int, y: int, den: int, m: int) -> float:
    # log((x + y sqrt m)/den) robust to huge coordinates
    scale = 10**12
    num = x * scale + y * isqrt(m * scale * scale)
    return math.log(num) - math.log(scale) - math.log(den)


def _order_mod(a: int, modulus: int, group_order: int) -> int:
    """Multiplicative order of a modulo modulus, given a multiple of it."""
    e = group_order
    for r in brute_factor(group_order):
        while e % r == 0 and pow(a, e // r, modulus) == 1:
            e //= r
    return e


def layer_place_count(t: int, p: int, n: int) -> int:
    """Places above a prime with residue size t in layer n of the p-tower.

    The n-th layer is cyclic of degree p**n over the base and unramified at
    the prime; the count is the index of the Frobenius, whose order is the
    p-part of the order of t modulo p**(n+1) (the prime-to-p torsion of
    (Z/p**(n+1))* dies in the layer's Galois group).
    """
    modulus = p ** (n + 1)
    group_order = (p - 1) * p**n
    order = _order_mod(t % modulus, modulus, group_order)
    p_part = 1
    while order % p == 0:
        p_part *= p
        order //= p
    return p**n // p_part


def stabilized_place_count(q: int, f: int, p: int, max_layer: int = 14) -> int:
    """Limit of layer_place_count over deep layers (asserts stabilization)."""
    t = q**f
    prev = layer_place_count(t, p, 1)
    for n in range(2, max_layer + 1):
        cur = layer_place_count(t, p, n)
        if cur == prev:
            return cur
        prev = cur
    raise AssertionError(f"place count did not stabilize by layer {max_layer}")


def brute_h_imaginary(disc: int) -> int:
    """Class number of a fundamental disc < 0 by the O(|disc|) form count.

    For each b of the parity of disc up to sqrt(|disc|/3), every divisor
    a of (b^2 + |disc|)/4 with b <= a <= sqrt of it gives a reduced form
    (a, +-b, c); boundary forms (b = 0, a = b or a = c) count once.
    """
    d = -disc
    h = 0
    b = d & 1
    bmax = isqrt(d // 3)
    while b <= bmax:
        n = (b * b + d) // 4
        for a in range(max(b, 1), isqrt(n) + 1):
            if n % a == 0:
                h += 1 if b == 0 or a == b or a * a == n else 2
        b += 2
    return h


def brute_reduced_indefinite_forms(disc: int) -> set[tuple[int, int, int]]:
    """All reduced indefinite forms of a nonsquare disc > 0, by the
    O(disc) divisor search over 0 < b < sqrt(disc).

    Reduced means sqrt(disc) - b < 2|a| < sqrt(disc) + b; each divisor a
    of (disc - b^2)/4 in that window gives (a, b, -c) and (-a, b, c).
    """
    s = isqrt(disc)
    forms: set[tuple[int, int, int]] = set()
    for b in range(2 - (disc & 1), s + 1, 2):
        n = (disc - b * b) // 4
        lo = (s - b) // 2 + 1
        hi = (s + b) // 2
        for a in range(max(lo, 1), hi + 1):
            if n % a == 0:
                c = n // a
                forms.add((a, b, -c))
                forms.add((-a, b, c))
    return forms


def brute_rho_cycles(disc: int) -> list[set[tuple[int, int, int]]]:
    """The rho-cycles of the reduced indefinite forms of a nonsquare disc > 0.

    The forms come from brute_reduced_indefinite_forms.  The right
    neighbour of (a, b, c) is found by search among them: the reduced form
    (c, b', c') with b + b' = 0 (mod 2c).  Its b' lies in the open window
    (sqrt(disc) - 2|c|, sqrt(disc)) of length 2|c|, so there is at most
    one; that there is exactly one is checked, not assumed.
    """
    forms = brute_reduced_indefinite_forms(disc)
    by_lead: dict[int, list[tuple[int, int, int]]] = {}
    for f in forms:
        by_lead.setdefault(f[0], []).append(f)

    def right(f: tuple[int, int, int]) -> tuple[int, int, int]:
        _, b, c = f
        nxt = [g for g in by_lead.get(c, ()) if (b + g[1]) % (2 * c) == 0]
        if len(nxt) != 1:
            raise AssertionError(f"{f} has {len(nxt)} reduced right neighbours")
        return nxt[0]

    cycles = []
    left = set(forms)
    while left:
        start = left.pop()
        cycle = {start}
        f = right(start)
        while f != start:
            left.remove(f)
            cycle.add(f)
            f = right(f)
        cycles.append(cycle)
    return cycles


def brute_rho_cycle_count(disc: int) -> int:
    """The narrow class number h+ of a fundamental disc > 0, as the number
    of rho-cycles of brute_rho_cycles."""
    return len(brute_rho_cycles(disc))


def h_charsum_oracle(disc: int) -> int:
    """Class number of a fundamental disc < -4 by the character sum.

    h = (sum of kronecker(disc, a) over 0 < a < |disc|/2) / (2 - kronecker(disc, 2))
    (docs/algorithms.md, section 3.2); a sum that 2 - chi(2) does not
    divide raises instead of rounding.
    """
    if disc >= -4:
        raise ValueError("the character-sum formula needs disc < -4")
    if not is_fundamental_disc(disc):
        raise ValueError("disc must be a fundamental discriminant")
    total = sum(kronecker(disc, a) for a in range(1, (1 - disc) // 2))
    h, rem = divmod(total, 2 - kronecker(disc, 2))
    if rem:
        raise ArithmeticError("character sum is not divisible by 2 - chi(2)")
    return h


def h_real_analytic_oracle(disc: int) -> float:
    """Dirichlet's formula for the wide class number of a fundamental disc > 0.

    Returns the float -sum_a chi(a) log sin(pi a / disc) / (2 log eps) over
    0 < a < disc, which must round to h (docs/algorithms.md, section 3.4).
    eps is the unit of cf_unit_oracle.
    """
    if disc <= 0 or not is_fundamental_disc(disc):
        raise ValueError("disc must be a positive fundamental discriminant")
    m = disc if disc % 4 == 1 else disc // 4
    x, y, den, _, _ = cf_unit_oracle(m)
    total = 0.0
    for a in range(1, disc):
        chi = kronecker(disc, a)
        if chi:
            total -= chi * math.log(math.sin(math.pi * a / disc))
    return total / (2 * _log_value(x, y, den, m))


def _pair_power(a: int, b: int, e: int, m: int, mod: int) -> tuple[int, int]:
    # (a + b sqrt m)^e modulo mod, by e plain multiplications
    x, y = 1, 0
    for _ in range(e):
        x, y = (x * a + m * y * b) % mod, (x * b + y * a) % mod
    return x, y


def pth_power_oracle(x: int, y: int, den: int, m: int, p: int) -> bool:
    """Whether (x + y sqrt m)/den is a p-th power in the completion of
    Q(sqrt m) at p, for p in {5, 7} dividing the squarefree m (ramified).

    Enumerates all p**3 candidates a + b sqrt(m) with a mod p**2, b mod p,
    and compares their p-th powers with the target coordinatewise: p**2 on
    the rational part, p on the part at sqrt(m) (docs/algorithms.md,
    section 4.3).
    """
    if p not in (5, 7):
        raise ValueError("the oracle is restricted to p in {5, 7}")
    if m % p:
        raise ValueError("the oracle handles the ramified kind only: p must divide m")
    p2 = p * p
    inv_den = pow(den, -1, p2)
    ta, tb = x * inv_den % p2, y * inv_den % p2
    for a in range(p2):
        for b in range(p):
            wa, wb = _pair_power(a, b, p, m, p2)
            if (wa - ta) % p2 == 0 and (wb - tb) % p == 0:
                return True
    return False


def unit_power(x: int, y: int, den: int, m: int, k: int) -> tuple[int, int, int]:
    """((x + y sqrt m)/den)^k exactly, as (x, y, den) with den halved while
    both coordinates are even, for den a power of 2.

    The power is k plain multiplications of the coordinates; a negative k
    first inverts u through u^-1 = N(u) conj(u), so N(u) must be +-1.
    """
    if k < 0:
        norm, rem = divmod(x * x - m * y * y, den * den)
        if rem or norm not in (-1, 1):
            raise ValueError("only elements of norm +-1 have integral inverses")
        x, y, k = norm * x, -norm * y, -k
    px, py, pden = 1, 0, 1
    for _ in range(k):
        px, py, pden = px * x + m * py * y, px * y + py * x, pden * den
    while pden > 1 and px % 2 == 0 and py % 2 == 0:
        px, py, pden = px // 2, py // 2, pden // 2
    return px, py, pden
