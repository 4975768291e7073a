"""Workload inputs, made from the seed with the benchmark's own arithmetic.

Nothing here imports pratcert: the candidates, windows and radicands are
chosen by an independent sieve and primality test, so the program under
test only ever receives the generated integers.
"""

from __future__ import annotations

import random

WORKLOADS = ("table_ref", "scan_large_q", "unit_exact")

# the paper's table: d = 2, q <= 10^4 (docs/table_notes.md)
TABLE_P = (5, 7, 13, 29, 431)
TABLE_D = 2
TABLE_Q_MAX = 10**4

# the large-q slice of ROADMAP: p = 5, d = 2, q just above 10^6
SCAN_P = 5
SCAN_D = 2
SCAN_Q0 = 10**6
SCAN_ITEMS = 100
# The seed moves the window start by fewer than SCAN_SHIFTS candidates.  An
# item costs 0 s (s > 1), about 0.2 s (rejected on h(-dpq)) or 0.5 s (both
# class numbers), so two disjoint windows of 100 items differ by about 6 %
# (one standard deviation) in total cost; overlapping windows keep wall_s
# comparable between seeds.
SCAN_SHIFTS = 16

# exact units: radicands pq in a band where no single unit dominates a round
UNIT_P = TABLE_P
UNIT_LO = 10**6
UNIT_HI = 10**7
UNIT_ITEMS = 4000


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (bases up to 41)."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in small:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in small:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_through(n: int) -> list[int]:
    """Primes <= n by the sieve of Eratosthenes."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(n + 1) if flags[i]]


def neg2_nonresidue(q: int) -> bool:
    """-2 is a quadratic non-residue modulo the odd prime q iff q = 5, 7 (mod 8)."""
    return q % 8 in (5, 7)


def table_ref_inputs(seed: int) -> list[tuple[int, int, int]]:
    """Every candidate (p, q, 2) that scan_records visits for the table.

    The table is fixed by the paper, so the seed does not change it.
    """
    del seed
    primes = primes_through(TABLE_Q_MAX)
    return [(p, q, TABLE_D) for p in TABLE_P for q in primes if (q + 1) % p == 0]


def scan_large_q_inputs(seed: int) -> list[tuple[int, int, int]]:
    """SCAN_ITEMS family-valid (5, q, 2) with q = -1 (mod 5) from q0 = 10^6 on.

    The seed skips 0 to SCAN_SHIFTS - 1 candidates at the start.  Family
    validity for p = 5, d = 2 reduces to q prime and -2 a non-residue mod q
    (-2 is a non-residue mod 5); candidates outside the family answer in
    microseconds and are left out.
    """
    skip = random.Random(seed).randrange(SCAN_SHIFTS)
    out: list[tuple[int, int, int]] = []
    q = SCAN_Q0 - (SCAN_Q0 + 1) % SCAN_P + SCAN_P
    while len(out) < skip + SCAN_ITEMS:
        if is_prime(q) and neg2_nonresidue(q):
            out.append((SCAN_P, q, SCAN_D))
        q += SCAN_P
    return out[skip:]


def unit_exact_inputs(seed: int) -> list[tuple[int, int]]:
    """UNIT_ITEMS distinct (p, q), q = -1 (mod p) prime, UNIT_LO <= pq < UNIT_HI.

    p is drawn from the table's primes and q uniformly among the
    q = kp - 1 of the band, so every residue class of pq mod 8 occurs,
    5 (mod 8) included.
    """
    rng = random.Random(seed)
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    while len(out) < UNIT_ITEMS:
        p = rng.choice(UNIT_P)
        k = rng.randrange(UNIT_LO // (p * p) + 1, UNIT_HI // (p * p))
        q = k * p - 1
        if (p, q) in seen or not UNIT_LO <= p * q < UNIT_HI or not is_prime(q):
            continue
        seen.add((p, q))
        out.append((p, q))
    return out


def make_inputs(workload: str, seed: int) -> list[tuple[int, ...]]:
    if workload == "table_ref":
        return table_ref_inputs(seed)
    if workload == "scan_large_q":
        return scan_large_q_inputs(seed)
    if workload == "unit_exact":
        return unit_exact_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")
