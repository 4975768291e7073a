"""Local tests at primes p >= 5: splitting type, p-th power criteria for
units, and place counts along cyclotomic towers.

Every criterion reduces to finite congruences modulo p**2, after the
Teichmuller part of a unit has been killed by raising it to the residue
group order (p - 1 in residue field F_p, p**2 - 1 in F_{p^2}).  The mod-p**2
precision suffices because the p-th powers of principal units form exactly
1 + m**3 in the ramified case and 1 + p**2 O in the unramified case; the
derivations live in docs/algorithms.md.  p = 2 and p = 3 are rejected
everywhere, by _require_p: the criteria below assume p >= 5.  The tests
check the ramified criterion by exhaustion (tests/_oracles.py).
"""

from __future__ import annotations

from .arith import _Record, is_prime, mult_order, sqrt_mod_prime_power
from .quadratic import QuadElem, QuadField

__all__ = [
    "LocalContext",
    "classify_splitting",
    "is_pth_power_local",
    "tower_places",
]


class LocalContext(_Record):
    """How p >= 5 behaves in a quadratic field, with sqrt(m) mod p**2 when split."""

    __slots__ = ("p", "field", "kind", "sqrt_lifts")

    def __init__(
        self, p: int, field: QuadField, kind: str, sqrt_lifts: tuple[int, int] | None
    ) -> None:
        set_p, set_field, set_kind, set_sqrt_lifts = self._setters
        set_p(self, p)
        set_field(self, field)
        set_kind(self, kind)
        set_sqrt_lifts(self, sqrt_lifts)
        if kind not in ("split", "inert", "ramified"):
            raise ValueError("kind must be split, inert or ramified")
        if (kind == "split") != (sqrt_lifts is not None):
            raise ValueError("sqrt lifts are stored exactly for the split case")


def _require_p(p: int) -> None:
    if type(p) is not int:
        raise ValueError("p must be an integer")
    if p < 5 or not is_prime(p):
        raise ValueError("p must be a prime >= 5")


def classify_splitting(field: QuadField, p: int) -> LocalContext:
    """Splitting of p in the field: ramified iff p | disc, split iff
    kronecker(disc, p) = +1, inert otherwise."""
    _require_p(p)
    if field.disc % p == 0:
        return LocalContext(p=p, field=field, kind="ramified", sqrt_lifts=None)
    lifts = sqrt_mod_prime_power(field.m, p, 2)
    if lifts:
        return LocalContext(p=p, field=field, kind="split", sqrt_lifts=tuple(lifts))
    return LocalContext(p=p, field=field, kind="inert", sqrt_lifts=None)


def _pair_mul(u: tuple[int, int], v: tuple[int, int], m: int, mod: int) -> tuple[int, int]:
    a, b = u
    c, d = v
    return ((a * c + m * b * d) % mod, (a * d + b * c) % mod)


def _pair_pow(u: tuple[int, int], e: int, m: int, mod: int) -> tuple[int, int]:
    result = (1, 0)
    while e:
        if e & 1:
            result = _pair_mul(result, u, m, mod)
        u = _pair_mul(u, u, m, mod)
        e >>= 1
    return result


def _pth_power_flags(x: int, y: int, den: int, ctx: LocalContext) -> tuple[bool, ...]:
    # Core of the test; accepts raw coordinates so the scanner can pass
    # unit coordinates that were already reduced modulo a multiple of p**2.
    p = ctx.p
    p2 = p * p
    inv_den = pow(den, -1, p2)
    a = x * inv_den % p2
    b = y * inv_den % p2
    m = ctx.field.m % p2
    if ctx.kind == "ramified":
        wa, wb = _pair_pow((a, b), p - 1, m, p2)
        return ((wa - 1) % p2 == 0 and wb % p == 0,)
    if ctx.kind == "inert":
        wa, wb = _pair_pow((a, b), p2 - 1, m, p2)
        return (wa == 1 and wb == 0,)
    assert ctx.sqrt_lifts is not None
    return tuple(pow((a + b * r) % p2, p - 1, p2) == 1 for r in ctx.sqrt_lifts)


def is_pth_power_local(u: QuadElem, ctx: LocalContext) -> tuple[bool, ...]:
    """Whether the unit u is a p-th power in each completion above p.

    One flag for the ramified and inert kinds, two (ordered by the stored
    sqrt lifts) for the split kind.  The test is exact:

      ramified:  w = u**(p-1) mod p**2; u is a p-th power iff, writing
                 w - 1 = A + B sqrt(m), p**2 | A and p | B;
      inert:     w = u**(p**2-1) mod p**2; u is a p-th power iff w = 1;
      split:     the image of u under each embedding is a p-th power in Z_p
                 iff its (p-1)-th power is 1 mod p**2.
    """
    if u.field != ctx.field:
        raise ValueError("element and context belong to different fields")
    if abs(u.norm()) != 1:
        raise ValueError("the local p-th power test expects a unit of norm +-1")
    return _pth_power_flags(u.x, u.y, u.den, ctx)


def tower_places(q: int, f: int, p: int) -> int:
    """Stable number of places above a prime q along the cyclotomic Z_p-tower
    of a field where q has residue degree f.

    With t = q**f and d0 the order of t mod p, the count is
    p**max(0, v_p(t**d0 - 1) - 1).
    """
    _require_p(p)
    if q == p:
        raise ValueError("q must differ from p")
    if q < 2 or not is_prime(q):
        raise ValueError("q must be prime")
    if f < 1:
        raise ValueError("f must be a positive integer")
    t = q**f
    d0 = mult_order(t % p, p)
    v = 1
    while pow(t, d0, p ** (v + 1)) == 1:
        v += 1
    return p ** (v - 1)
