"""Correctness checks for the benchmark's outputs, independent of pratcert.

Every check recomputes what it compares against with code of its own
(continued fractions, Kronecker symbols, the analytic class number
formulas) or with the independent oracles of tests/_oracles.py, or tests
a property the method must have.  None compares against a stored copy of
the program's output.  Each check returns a list of problems; an empty
list means the outputs passed.
"""

from __future__ import annotations

import json
import math
import sys
from math import isqrt
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_ROWS = ROOT / "tests" / "data" / "reference_rows.json"
sys.path.insert(0, str(ROOT / "tests"))
from _oracles import unit_minimality_certificate  # noqa: E402

CERTIFIED = "certified_free"

# emitted row sizes of the table, from docs/table_notes.md
TABLE_EMITTED = {5: 67, 7: 55, 13: 47, 29: 15, 431: 1}

# the oracle's minimality certificate grows with the square of the unit's
# size (0.05-2 s per unit in the band), so it runs on a few units only
UNIT_MINIMALITY_ITEMS = 4


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n >= 1."""
    result = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def fundamental_discriminant(m: int) -> int:
    """Discriminant of Q(sqrt(m)) for a squarefree m."""
    return m if m % 4 == 1 else 4 * m


def principal_cycle(disc: int) -> tuple[float, int]:
    """(R, L): the regulator of the field of discriminant disc > 0 and the
    period length of the continued fraction of the reduced irrational
    (b + sqrt(disc))/2, b = disc (mod 2) the largest below sqrt(disc).

    The fundamental unit is the product of the complete quotients over
    one period, so R is the sum of their logs, and its norm is (-1)^L.
    """
    s = isqrt(disc)
    b = s if (s - disc) % 2 == 0 else s - 1
    root = math.sqrt(disc)
    P, Q = b, 2
    total, steps = 0.0, 0
    while True:
        total += math.log((P + root) / Q)
        steps += 1
        a = (P + s) // Q
        P = a * Q - P
        Q = (disc - P * P) // Q
        if (P, Q) == (b, 2):
            return total, steps


def unit_norm(disc: int) -> int:
    """Norm of the fundamental unit of the field of discriminant disc > 0."""
    return -1 if principal_cycle(disc)[1] % 2 else 1


def e1(x: float) -> float:
    """Exponential integral E1(x) for x > 0."""
    if x <= 1.0:
        total = -0.5772156649015329 - math.log(x)
        term, k = 1.0, 1
        while True:
            term *= -x / k
            step = -term / k
            total += step
            if abs(step) < 1e-17 * abs(total):
                return total
            k += 1
    # continued fraction, modified Lentz
    b = x + 1.0
    c = 1e300
    d = 1.0 / b
    h = d
    i = 1
    while True:
        an = -i * i
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h * math.exp(-x)
        i += 1


# Terms beyond n = 2.6 sqrt|D| are below exp(-pi * 2.6**2) ~ 6e-10 each.
_TERMS = 2.6


def h_imaginary_analytic(disc: int) -> float:
    """Class number of the imaginary field of discriminant disc < 0 (Cohen,
    GTM 138, §5.3): h = (w/2) sum_n chi(n) [erfc(n sqrt(pi/|D|))
    + sqrt|D|/(pi n) exp(-pi n^2/|D|)], O(sqrt|D|) terms."""
    a = -disc
    k = math.sqrt(math.pi / a)
    c = math.sqrt(a) / math.pi
    total = 0.0
    for n in range(1, int(_TERMS * math.sqrt(a)) + 2):
        chi = kronecker(disc, n)
        if chi:
            total += chi * (math.erfc(n * k) + c / n * math.exp(-math.pi * n * n / a))
    w = 6 if disc == -3 else 4 if disc == -4 else 2
    return total * w / 2


def h_real_analytic(disc: int) -> float:
    """Class number of the real field of discriminant disc > 0 (Cohen, GTM
    138, §5.6): h R = (1/2) sum_n chi(n) [sqrt(D)/n erfc(n sqrt(pi/D))
    + E1(pi n^2/D)], O(sqrt D) terms, with R from principal_cycle()."""
    k = math.sqrt(math.pi / disc)
    root = math.sqrt(disc)
    total = 0.0
    for n in range(1, int(_TERMS * root) + 2):
        chi = kronecker(disc, n)
        if chi:
            total += chi * (root / n * math.erfc(n * k) + e1(math.pi * n * n / disc))
    return total / 2 / principal_cycle(disc)[0]


def class_number_problem(label: str, value: float, h: Any) -> list[str]:
    if not isinstance(h, int) or abs(value - h) > 0.05:
        return [f"{label}: reported h = {h}, analytic formula gives {value:.4f}"]
    return []


def _family_valid(p: int, q: int, d: int) -> bool:
    # p, q prime by construction of the inputs
    return (
        q != p
        and (q + 1) % p == 0
        and d % p != 0
        and d % q != 0
        and kronecker(-d, p) == -1
        and kronecker(-d, q) == -1
    )


def _hypotheses(p: int, f: dict[str, Any]) -> list[tuple[str, bool | None]]:
    """Each hypothesis of docs/algorithms.md §6 with its outcome, None when
    the lazy path stopped before computing it."""

    def test(key: str, ok) -> tuple[str, bool | None]:
        return (key, ok(f[key]) if key in f else None)

    return [
        test("s", lambda v: v == 1),
        test("mu_p_in_K", lambda v: v is False),
        test("alpha_S", lambda v: v == 1),
        test("h_imag_d", lambda v: v % p != 0),
        test("h_imag_dpq", lambda v: v % p != 0),
        test("h_real_pq", lambda v: v % p != 0),
        test("unit_pth_power_at_p", lambda v: v is False),
        test("v_p_val", lambda v: isinstance(v, int) and v <= 2),
        test("e_s_generated", lambda v: v is True),
    ]


def record_problems(rec: dict[str, Any]) -> list[str]:
    """The verdict must follow from the facts by the rule of §6."""
    p, q, d = rec["p"], rec["q"], rec["d"]
    tag = f"p={p} q={q} d={d}"
    facts = rec["facts"]
    certified = rec["verdict"] == CERTIFIED
    if not _family_valid(p, q, d):
        if certified or not facts.get("invalid"):
            return [f"{tag}: outside the family but not refused as invalid"]
        return []
    if facts.get("invalid"):
        return [f"{tag}: inside the family but refused as invalid"]
    outcomes = _hypotheses(p, facts)
    failing = [key for key, ok in outcomes if ok is False]
    missing = [key for key, ok in outcomes if ok is None]
    problems: list[str] = []
    if certified and (failing or missing):
        problems.append(f"{tag}: certified with failing {failing} or missing {missing}")
    if not certified and not failing:
        problems.append(f"{tag}: not certified although no computed hypothesis fails")
    if (rec["rank"] == 2) != certified or bool(facts.get("reasons")) == certified:
        problems.append(f"{tag}: rank or reasons disagree with the verdict")
    return problems


def s_problems(rec: dict[str, Any]) -> list[str]:
    """s = p^(v_p(q+1) - 1), so s = 1 exactly when q != -1 (mod p^2)."""
    p, q = rec["p"], rec["q"]
    v, n = 0, q + 1
    while n % p == 0:
        n //= p
        v += 1
    s = rec["facts"].get("s")
    if s != p ** (v - 1) or (s == 1) != ((q + 1) % (p * p) != 0):
        return [f"p={p} q={q}: s = {s}, expected {p ** (v - 1)}"]
    return []


def check_table(
    inputs: list[tuple[int, int, int]],
    fresh: list[dict[str, Any]],
    resumed: list[dict[str, Any]],
    cache_lines: int,
) -> list[str]:
    """The table's rows against the reference listing by the identity of
    docs/table_notes.md, the row sizes, the §6 rule on every record, and
    resume == fresh with nothing certified again (the cache did not grow)."""
    problems: list[str] = []
    if [(r["p"], r["q"], r["d"]) for r in fresh] != list(inputs):
        return ["fresh records do not match the candidates"]
    if resumed != fresh or cache_lines != len(fresh):
        problems.append(
            f"the resume pass differs from the fresh records or grew the cache to {cache_lines} lines"
        )
    for rec in fresh:
        problems += record_problems(rec)
    for p in TABLE_EMITTED:
        emitted = {r["q"] for r in fresh if r["p"] == p and r["verdict"] == CERTIFIED}
        problems += table_row_problems(p, emitted)
    return problems


def table_row_problems(p: int, emitted: set[int]) -> list[str]:
    """The identity of docs/table_notes.md: the emitted row is the listed
    row without its q = -1 (mod p^2), plus the emitted q whose fundamental
    unit has norm -1; and the row has the documented size."""
    listed = set(json.loads(REFERENCE_ROWS.read_text(encoding="utf-8"))["rows"][str(p)])
    class_1 = {q for q in listed if (q + 1) % (p * p) == 0}
    norm_minus = {q for q in emitted if unit_norm(fundamental_discriminant(p * q)) == -1}
    expected = (listed - class_1) | norm_minus
    problems = []
    if emitted != expected:
        problems.append(f"p={p}: row differs from the identity at {sorted(emitted ^ expected)}")
    if len(emitted) != TABLE_EMITTED[p]:
        problems.append(f"p={p}: {len(emitted)} q emitted, expected {TABLE_EMITTED[p]}")
    return problems


def check_scan(
    inputs: list[tuple[int, int, int]], records: list[dict[str, Any]]
) -> list[str]:
    """The §6 rule, the s criterion, and every computed class number against
    the analytic formulas, with h+ and the unit norm from the period parity."""
    if [(r["p"], r["q"], r["d"]) for r in records] != list(inputs):
        return ["records do not match the window"]
    problems: list[str] = []
    imag_cache: dict[int, float] = {}
    for rec in records:
        p, q, d = rec["p"], rec["q"], rec["d"]
        f = rec["facts"]
        tag = f"p={p} q={q} d={d}"
        problems += record_problems(rec) + s_problems(rec)
        for key, m in (("h_imag_d", -d), ("h_imag_dpq", -d * p * q)):
            if key in f:
                disc = fundamental_discriminant(m)
                if disc not in imag_cache:
                    imag_cache[disc] = h_imaginary_analytic(disc)
                problems += class_number_problem(f"{tag} {key}", imag_cache[disc], f[key])
        if "h_real_pq" in f or "unit_norm" in f:
            norm = unit_norm(fundamental_discriminant(p * q))
            if "unit_norm" in f and f["unit_norm"] != norm:
                problems.append(f"{tag}: unit norm {f['unit_norm']}, period gives {norm}")
        if "h_real_pq" in f:
            value = h_real_analytic(fundamental_discriminant(p * q))
            problems += class_number_problem(f"{tag} h_real_pq", value, f["h_real_pq"])
            if f.get("h_plus_real_pq") != f["h_real_pq"] * (1 if norm == -1 else 2):
                problems.append(f"{tag}: h+ = {f.get('h_plus_real_pq')} against h and the norm")
    return problems


def check_units(
    inputs: list[tuple[int, int]], units: list[tuple[int, int, int, int]]
) -> list[str]:
    """On every unit: x^2 - m y^2 = norm * den^2, its log equal to the
    regulator and its norm equal to (-1)^period, both from principal_cycle.
    On the UNIT_MINIMALITY_ITEMS smallest radicands also minimality by the
    exclusion certificate of tests/_oracles.py."""
    if len(units) != len(inputs):
        return ["one unit per radicand expected"]
    smallest = set(sorted(p * q for p, q in inputs)[:UNIT_MINIMALITY_ITEMS])
    problems: list[str] = []
    for (p, q), (x, y, den, norm) in zip(inputs, units):
        m = p * q
        if x <= 0 or y <= 0 or den not in (1, 2) or norm not in (1, -1):
            problems.append(f"m={m}: malformed unit ({x}, {y}, {den}, {norm})")
            continue
        if x * x - m * y * y != norm * den * den:
            problems.append(f"m={m}: x^2 - m y^2 != {norm} * {den}^2")
            continue
        regulator, period = principal_cycle(fundamental_discriminant(m))
        # log((x + y sqrt(m))/den), with y sqrt(m) taken to 64 fractional bits
        log_unit = math.log((x << 64) + isqrt((m * y * y) << 128)) - 64 * math.log(2) - math.log(den)
        if abs(log_unit - regulator) > 1e-9 * regulator:
            problems.append(f"m={m}: log of the unit {log_unit:.6g}, regulator {regulator:.6g}")
        if norm != (-1) ** period:
            problems.append(f"m={m}: norm {norm} against a period of length {period}")
        if m in smallest and not unit_minimality_certificate(x, y, den, norm, m)[0]:
            problems.append(f"m={m}: the oracle finds a smaller unit")
    return problems
