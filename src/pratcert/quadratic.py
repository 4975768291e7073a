"""Quadratic fields Q(sqrt(m)): exact elements, fundamental units,
and valuations at odd ramified primes.

Units come from half a period of the continued fraction of
omega = (P0 + sqrt(D))/2, D the field discriminant, walked on the exact
(P, Q) state of small integers, and its quotients folded into continuants.
Facts the implementation leans on (proofs in docs/algorithms.md):

  * omega generates the maximal order and is reduced, so its expansion is
    purely periodic, and the quotients a_1 .. a_(L-1) of a period L form a
    palindrome whose centre the state detects: P repeats at a middle
    quotient (L even), Q repeats where there is none (L odd);
  * with k, k_prev the last two convergent denominators of the period,
    eps = k omega + k_prev is the fundamental unit of the maximal order,
    half-integral or not, and N(eps) = (-1)^L; the continuant matrix of
    the first half gives both, since the second half is its transpose;
  * exactly, only the top row of that matrix is folded: it gives k, and
    2 eps = t + k sqrt(D) with t = isqrt(D k^2 + 4 N(eps)); reduced modulo
    n, both rows, with 2 inverted (so n odd) when D = m, give the unit's
    coordinates modulo n without building them;
  * for an odd prime l dividing the discriminant, the valuation of e at the
    unique prime above l equals the l-adic valuation of N(e);
  * N(u^2 - 1) = 2 + 2 N(u) - T(u)^2 when |N(u)| = 1, so deciding whether
    that valuation is 0, 1, 2 or >= 3 needs the trace only modulo l^3.
"""

from __future__ import annotations

from math import isqrt

from .arith import _Record, factor, unlimited_int_digits

__all__ = [
    "GE3",
    "FundUnit",
    "QuadElem",
    "QuadField",
    "fundamental_unit",
    "fundamental_unit_mod",
    "make_field",
    "unit_norm_sign",
    "unit_sq_minus_one_valuation",
]

# symbolic valuation used by the reduced (modular) scan path
GE3 = ">=3"


def _discriminant(m: int) -> int:
    return m if m % 4 == 1 else 4 * m


class QuadField(_Record):
    """Q(sqrt(m)) for squarefree m != 0, 1, with its fundamental discriminant."""

    __slots__ = ("m", "disc", "is_real")

    def __init__(self, m: int, disc: int, is_real: bool) -> None:
        set_m, set_disc, set_is_real = self._setters
        set_m(self, m)
        set_disc(self, disc)
        set_is_real(self, is_real)
        if m in (0, 1) or not factor(m).is_squarefree():
            raise ValueError("field radicand must be squarefree and not 0 or 1")
        if disc != _discriminant(m) or is_real != (m > 0):
            raise ValueError("inconsistent field data")


def make_field(m0: int) -> QuadField:
    """Field generated by sqrt(m0); m0 is replaced by its squarefree core."""
    if m0 == 0:
        raise ValueError("radicand must be nonzero")
    if m0 > 0 and isqrt(m0) ** 2 == m0:
        raise ValueError("radicand must not be a perfect square")
    m = factor(m0).squarefree_core()
    # a verified factorization's core is squarefree: skip __init__'s re-check
    field = object.__new__(QuadField)
    set_m, set_disc, set_is_real = QuadField._setters
    set_m(field, m)
    set_disc(field, _discriminant(m))
    set_is_real(field, m > 0)
    return field


class QuadElem(_Record):
    """(x + y sqrt(m)) / den with den in {1, 2}.

    den = 2 is the canonical shape of half-integral elements of the maximal
    order: it requires m = 1 (mod 4) and x, y both odd.
    """

    __slots__ = ("field", "x", "y", "den")

    def __init__(self, field: QuadField, x: int, y: int, den: int = 1) -> None:
        set_field, set_x, set_y, set_den = self._setters
        set_field(self, field)
        set_x(self, x)
        set_y(self, y)
        set_den(self, den)
        if den == 1:
            return
        if den != 2:
            raise ValueError("den must be 1 or 2")
        if field.m % 4 != 1 or x % 2 == 0 or y % 2 == 0:
            raise ValueError("den = 2 requires m = 1 (mod 4) and odd x, y")

    @classmethod
    def make(cls, field: QuadField, x: int, y: int, den: int = 1) -> "QuadElem":
        """Build an element from coordinates over any power-of-two denominator."""
        if den < 1 or den & (den - 1):
            raise ValueError("den must be a positive power of 2")
        while den % 2 == 0 and x % 2 == 0 and y % 2 == 0:
            x //= 2
            y //= 2
            den //= 2
        if den > 2:
            raise ValueError("coordinates do not describe an algebraic integer")
        return cls(field=field, x=x, y=y, den=den)

    def norm(self) -> int:
        n4 = self.x * self.x - self.field.m * self.y * self.y
        num, rem = divmod(n4, self.den * self.den)
        assert rem == 0
        return num

    def trace(self) -> int:
        num, rem = divmod(2 * self.x, self.den)
        assert rem == 0
        return num

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        # no verdict multiplies elements; bench/tests squares a unit with it
        if self.field != other.field:
            raise ValueError("elements live in different fields")
        m = self.field.m
        x = self.x * other.x + m * self.y * other.y
        y = self.x * other.y + self.y * other.x
        return QuadElem.make(self.field, x, y, self.den * other.den)

    def __str__(self) -> str:
        sign = "-" if self.y < 0 else "+"
        with unlimited_int_digits():
            body = f"{self.x} {sign} {abs(self.y)}*sqrt({self.field.m})"
        return f"({body})/2" if self.den == 2 else body


class FundUnit(_Record):
    """Fundamental unit > 1 of the maximal order of a real quadratic field."""

    __slots__ = ("elem", "unit_norm")

    def __init__(self, elem: QuadElem, unit_norm: int) -> None:
        set_elem, set_unit_norm = self._setters
        set_elem(self, elem)
        set_unit_norm(self, unit_norm)
        if unit_norm not in (-1, 1) or elem.norm() != unit_norm:
            raise ValueError("unit norm mismatch")
        if elem.x <= 0 or elem.y <= 0:
            raise ValueError("the fundamental unit is taken > 1")


def _half_period(disc: int) -> tuple[int, list[int], int | None]:
    """(P0, u, c): the first half u of the period of the continued fraction
    of omega = (P0 + sqrt(disc))/2, P0 the largest integer below sqrt(disc)
    with P0 = disc (mod 2), and its middle quotient c.  The walk runs on the
    exact (P, Q) state and stops at the centre of the palindrome
    a_1 .. a_(L-1): P repeating marks c (L = 2i, u = a_1 .. a_(i-1)), Q
    repeating marks none (c None, L = 2i + 1, u = a_1 .. a_i, empty at L = 1).
    """
    s = isqrt(disc)
    p0 = s - (s - disc) % 2
    # a_0 = P0, so state 1 is (P0, (disc - P0^2)/2); Q = 2 again is period 1
    P, Q = p0, (disc - p0 * p0) // 2
    quotients: list[int] = []
    if Q == 2:
        return p0, quotients, None
    while True:
        a = (P + s) // Q
        P_next = a * Q - P
        if P_next == P:
            return p0, quotients, a
        quotients.append(a)
        Q_next = (disc - P_next * P_next) // Q
        if Q_next == Q:
            return p0, quotients, None
        P, Q = P_next, Q_next


def unit_norm_sign(m: int) -> int:
    """Norm of the fundamental unit of Q(sqrt(m)) from the CF period alone."""
    # a middle quotient means an even period, and N(eps) = (-1)^L
    return -1 if _half_period(_discriminant(m))[2] is None else 1


def fundamental_unit(field: QuadField) -> FundUnit:
    """Fundamental unit > 1 of the maximal order, exact."""
    if not field.is_real:
        raise ValueError("imaginary quadratic fields have no fundamental unit")
    _, quotients, c = _half_period(field.disc)
    # 2 eps = t + k sqrt(disc): k is the top-left entry of
    # M(u) [[c, 1], [1, 0]] M(u)^T, or of M(u) M(u)^T without c, so the top
    # row (A, B) of M(u) gives it, and t^2 = disc k^2 + 4 N(eps)
    A, B = 1, 0
    for a in quotients:
        A, B = a * A + B, A
    k = A * A + B * B if c is None else A * (c * A + 2 * B)
    norm = -1 if c is None else 1
    t = isqrt(field.disc * k * k + 4 * norm)
    # sqrt(disc) is sqrt(m), or 2 sqrt(m) when disc = 4m
    y = k if field.disc == field.m else 2 * k
    return FundUnit(elem=QuadElem.make(field, t, y, den=2), unit_norm=norm)


def fundamental_unit_mod(field: QuadField, modulus: int) -> tuple[int, int, int]:
    """Fundamental unit coordinates reduced mod ``modulus``: (x, y, norm).

    eps = (x + y sqrt(m)) with the denominator 2 of a half-integral unit
    inverted modulo ``modulus``, which must then be odd: for m = 1 (mod 4)
    an even modulus is refused.  The norm is exact.
    """
    if not field.is_real:
        raise ValueError("imaginary quadratic fields have no fundamental unit")
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    if field.disc == field.m and modulus % 2 == 0:
        raise ValueError("the modulus must be odd when m = 1 (mod 4)")
    p0, quotients, c = _half_period(field.disc)
    # 2 eps = t + k sqrt(disc) with t = k P0 + 2 k_prev, (k, k_prev) the top
    # row of M(u) [[c, 1], [1, 0]] M(u)^T, or of M(u) M(u)^T without c, and
    # M(u) = [[A, B], [C, E]] folded modulo modulus
    A, B, C, E = 1, 0, 0, 1
    for a in quotients:
        A, B, C, E = (a * A + B) % modulus, A, (a * C + E) % modulus, C
    if c is None:
        k, k_prev = A * A + B * B, A * C + B * E
    else:
        k, k_prev = A * (c * A + 2 * B), (c * A + B) * C + A * E
    k, k_prev = k % modulus, k_prev % modulus
    norm = -1 if c is None else 1
    t = k * p0 + 2 * k_prev
    if field.disc == field.m:
        half = (modulus + 1) // 2
        return t * half % modulus, k * half % modulus, norm
    # disc = 4m: P0 and t are even and eps = t/2 + k sqrt(m)
    return t // 2 % modulus, k, norm


def unit_sq_minus_one_valuation(trace: int, unit_norm: int, ell: int) -> int | str:
    """Valuation of u^2 - 1 above ell for a unit u, from T(u) mod ell**3.

    Exact when the answer is 0, 1 or 2; returns the symbol GE3 otherwise.
    The callers only ever need to distinguish those four cases.
    """
    if unit_norm not in (-1, 1):
        raise ValueError("unit norm must be +-1")
    mod = ell**3
    w = (2 + 2 * unit_norm - trace * trace) % mod
    if w == 0:
        return GE3
    v = 0
    while w % ell == 0:
        w //= ell
        v += 1
    return v
