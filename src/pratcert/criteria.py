"""p-rationality reports for quadratic and biquadratic fields, and the
freeness certificate for Q(sqrt(pq), sqrt(-d)).

The certificate checks sufficient conditions only.  CERTIFIED_FREE means
every hypothesis was verified exactly; NOT_CERTIFIED means some hypothesis
failed or could not be established, never that the module is non-free.

All verdict-driving arithmetic for the quartic field happens inside its real
quadratic subfield: with E the unit group of the quartic field, Z_p (x) E has
rank 1 and the index of the subgroup generated by eps**2 is prime to p, so
the p-adic tests see only the real-subfield fundamental unit eps.  The docs
spell this out (docs/algorithms.md).
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Mapping

from ._version import __version__
from .arith import _PRIME_BOUND, _Record, factor, is_prime, kronecker, padic_valuation
from .classno import h_imaginary, h_plus_real
from .localfield import (
    LocalContext,
    _pth_power_flags,
    _require_p,
    classify_splitting,
    is_pth_power_local,
    tower_places,
)
from .quadratic import (
    QuadElem,
    QuadField,
    fundamental_unit,
    fundamental_unit_mod,
    make_field,
    unit_sq_minus_one_valuation,
)

__all__ = [
    "CERTIFIED_FREE",
    "NOT_CERTIFIED",
    "Check",
    "FreenessReport",
    "PRationalityReport",
    "certify_freeness",
    "family_violations",
    "judge",
    "prat_biquad",
    "prat_imag",
    "prat_real",
]

CERTIFIED_FREE = "certified_free"
NOT_CERTIFIED = "not_certified"

SCHEMA_VERSION = 1

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _pd_conditions(
    p: int, d: int
) -> tuple[bool, bool, tuple[str, ...], tuple[str, ...], tuple[str, ...]]:
    """The half of family_violations that reads p and d alone.

    Whether p and whether d pass on their own, then the reasons that name
    p, those that name d (and d with p), and the residue condition mod p,
    each in family order.
    """
    p_ok = type(p) is int and 3 < p < _PRIME_BOUND and is_prime(p)
    if type(p) is not int:
        p_reasons = ("p must be an integer",)
    elif p >= _PRIME_BOUND:
        p_reasons = ("p must be below 2^64",)
    else:
        p_reasons = () if p_ok else ("p must be a prime greater than 3",)
    d_ok = type(d) is int and 1 <= d < _PRIME_BOUND
    d_reasons: tuple[str, ...] = ()
    if type(d) is not int:
        d_reasons = ("d must be an integer",)
    elif d >= _PRIME_BOUND:
        d_reasons = ("d must be below 2^64",)
    elif not d_ok:
        d_reasons = ("d must be a positive integer",)
    elif d > 1 and not factor(d).is_squarefree():
        d_reasons = ("d must be squarefree",)
        d_ok = False
    if d_ok and p_ok and d % p == 0:
        d_reasons += ("d must not be divisible by p",)
    residue: tuple[str, ...] = ()
    if d_ok and p_ok and d % p != 0 and kronecker(-d, p) != -1:
        residue = ("-d must be a quadratic non-residue modulo p",)
    return p_ok, d_ok, p_reasons, d_reasons, residue


# a scan, and a load of its cache, ask about one (p, d) for every q; only
# integers are looked up, since a bool equals 1 and a list is unhashable
_pd_conditions_cached = lru_cache(maxsize=64)(_pd_conditions)


def family_violations(p: int, q: int, d: int) -> list[str]:
    """Every violated family condition, by name; empty list means valid.

    Conditions: p prime > 3; q an odd prime distinct from p with
    q = -1 (mod p); d >= 1 squarefree, coprime to pq, with -d a quadratic
    non-residue mod p and mod q.  p, q and d must be integers (a bool is
    not one), named and checked no further otherwise, and below 2^64,
    where primality (and so the squarefree test of d) is decided
    deterministically.  Last, when p, q and d each pass on their own,
    4*d*p*q must be below 2^64: it bounds the discriminants -dpq and pq
    (and -d) whose class numbers the certificate computes.  The conditions
    on p and d alone are decided once per integer pair (p, d).
    """
    pd = _pd_conditions_cached if type(p) is int and type(d) is int else _pd_conditions
    p_ok, d_ok, p_reasons, d_reasons, residue = pd(p, d)
    reasons = list(p_reasons)
    q_ok = type(q) is int and 3 <= q < _PRIME_BOUND and q % 2 == 1 and is_prime(q)
    if type(q) is not int:
        reasons.append("q must be an integer")
    elif q >= _PRIME_BOUND:
        reasons.append("q must be below 2^64")
    elif not q_ok:
        reasons.append("q must be an odd prime")
    if p_ok and q_ok and q == p:
        reasons.append("q must be distinct from p")
    if p_ok and q_ok and q != p and (q + 1) % p != 0:
        reasons.append("q must be congruent to -1 modulo p")
    reasons += d_reasons
    if d_ok and q_ok and d % q == 0:
        reasons.append("d must not be divisible by q")
    reasons += residue
    if d_ok and q_ok and q != p and d % q != 0 and kronecker(-d, q) != -1:
        reasons.append("-d must be a quadratic non-residue modulo q")
    if p_ok and q_ok and d_ok and 4 * d * p * q >= _PRIME_BOUND:
        reasons.append("4*d*p*q must be below 2^64")
    return reasons


class Check(_Record):
    """One named fact with the value observed and whether it passed."""

    __slots__ = ("name", "value", "passed")

    def __init__(self, name: str, value: Any, passed: bool) -> None:
        set_name, set_value, set_passed = self._setters
        set_name(self, name)
        set_value(self, value)
        set_passed(self, passed)


class PRationalityReport(_Record):
    """p-rationality verdict for a quadratic or biquadratic field."""

    __slots__ = ("field_desc", "radicands", "p", "checks", "verdict")

    def __init__(
        self,
        field_desc: str,
        radicands: tuple[int, ...],
        p: int,
        checks: tuple[Check, ...],
        verdict: bool,
    ) -> None:
        set_field_desc, set_radicands, set_p, set_checks, set_verdict = self._setters
        set_field_desc(self, field_desc)
        set_radicands(self, radicands)
        set_p(self, p)
        set_checks(self, checks)
        set_verdict(self, verdict)


def prat_imag(d0: int, p: int) -> PRationalityReport:
    """p-rationality of the imaginary quadratic field Q(sqrt(-d0)), d0 > 0.

    For an imaginary quadratic field and p >= 5 the criterion is a single
    class-number condition: the field is p-rational iff p does not divide h.
    """
    _require_p(p)
    if d0 < 1:
        raise ValueError("d0 must be a positive integer")
    field = make_field(-d0)
    h = h_imaginary(field.disc).h
    checks = (Check(name="class_number_prime_to_p", value=h, passed=h % p != 0),)
    return PRationalityReport(
        field_desc=f"Q(sqrt({field.m}))",
        radicands=(field.m,),
        p=p,
        checks=checks,
        verdict=all(c.passed for c in checks),
    )


def _place_labels(ctx: LocalContext) -> tuple[str, ...]:
    if ctx.kind == "split":
        return ("p_first", "p_second")
    return ("p",)


def prat_real(m: int, p: int) -> PRationalityReport:
    """p-rationality of the real quadratic field Q(sqrt(m)), m > 1.

    Criterion for p >= 5: p does not divide the class number, and the
    fundamental unit is not a p-th power in any completion above p.
    """
    _require_p(p)
    if m < 2:
        raise ValueError("m must be an integer > 1")
    field = make_field(m)
    cn = h_plus_real(field.disc)
    fu = fundamental_unit(field)
    ctx = classify_splitting(field, p)
    flags = is_pth_power_local(fu.elem, ctx)
    checks = [Check(name="class_number_prime_to_p", value=cn.h, passed=cn.h % p != 0)]
    for label, flag in zip(_place_labels(ctx), flags):
        checks.append(
            Check(name=f"unit_pth_power_at_{label}", value=flag, passed=not flag)
        )
    return PRationalityReport(
        field_desc=f"Q(sqrt({field.m}))",
        radicands=(field.m,),
        p=p,
        checks=tuple(checks),
        verdict=all(c.passed for c in checks),
    )


def prat_biquad(m1: int, m2: int, p: int) -> PRationalityReport:
    """p-rationality of the biquadratic field Q(sqrt(m1), sqrt(m2)).

    The field is p-rational iff its three quadratic subfields are, with
    radicands m1, m2 and the squarefree core of m1*m2, each dispatched to
    the real or imaginary criterion by sign.
    """
    _require_p(p)
    f1 = make_field(m1)
    f2 = make_field(m2)
    if f1.m == f2.m:
        raise ValueError("radicands generate the same quadratic field")
    f3 = make_field(f1.m * f2.m)
    checks: list[Check] = []
    verdict = True
    for sub in (f1, f2, f3):
        rep = prat_real(sub.m, p) if sub.is_real else prat_imag(-sub.m, p)
        verdict = verdict and rep.verdict
        for c in rep.checks:
            checks.append(
                Check(name=f"sqrt({sub.m}):{c.name}", value=c.value, passed=c.passed)
            )
    return PRationalityReport(
        field_desc=f"Q(sqrt({f1.m}), sqrt({f2.m}))",
        radicands=(f1.m, f2.m, f3.m),
        p=p,
        checks=tuple(checks),
        verdict=verdict,
    )


def _unit_square_order_prime_to_p(x: int, den: int, q: int, p: int) -> bool:
    # whether p misses the order of eps**2 mod the ramified prime above q,
    # where sqrt(pq) vanishes, so only the rational coordinate survives; the
    # order divides q - 1, so p misses it iff eps**2 dies in the power that
    # strips the p-part from q - 1
    r = x * pow(den, -1, q) % q
    r2 = r * r % q
    if r2 == 0:
        raise ArithmeticError("a unit cannot vanish at an unramified coordinate")
    m = q - 1
    while m % p == 0:
        m //= p
    return pow(r2, m, q) == 1


class FreenessReport(_Record):
    """Freeness certificate for Q(sqrt(pq), sqrt(-d)).

    verdict is "certified_free" (with rank 2) when every hypothesis was
    verified, else "not_certified" with the failing conditions in reasons.
    invalid lists parameter violations when (p, q, d) is outside the family.
    facts records every quantity the verdict consumed, keyed by name.
    """

    __slots__ = ("p", "q", "d", "verdict", "rank", "mode", "facts", "reasons", "invalid")

    def __init__(
        self,
        p: int,
        q: int,
        d: int,
        verdict: str,
        rank: int | None,
        mode: str,
        facts: dict[str, Any] | None = None,
        reasons: tuple[str, ...] = (),
        invalid: tuple[str, ...] = (),
    ) -> None:
        # a scan builds one report per candidate, and _setters is the
        # cheapest store that keeps the report frozen; facts=None gives each
        # report a dict of its own
        (set_p, set_q, set_d, set_verdict, set_rank, set_mode,
         set_facts, set_reasons, set_invalid) = self._setters
        set_p(self, p)
        set_q(self, q)
        set_d(self, d)
        set_verdict(self, verdict)
        set_rank(self, rank)
        set_mode(self, mode)
        set_facts(self, {} if facts is None else facts)
        set_reasons(self, reasons)
        set_invalid(self, invalid)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "p": self.p,
            "q": self.q,
            "d": self.d,
            "verdict": self.verdict,
            "rank": self.rank,
            "mode": self.mode,
            "facts": dict(self.facts),
            "reasons": list(self.reasons),
            "invalid": list(self.invalid),
        }

    def to_json_line(self) -> str:
        """The report as one scan cache line: compact, key-sorted JSON whose
        facts also carry its reasons, and its invalid list if it has one."""
        facts = dict(self.facts)
        facts["reasons"] = self.reasons
        if self.invalid:
            facts["invalid"] = self.invalid
        return _ENCODER.encode({
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "p": self.p,
            "q": self.q,
            "d": self.d,
            "verdict": self.verdict,
            "rank": self.rank,
            "facts": facts,
        })

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FreenessReport":
        if data.get("schema_version") != SCHEMA_VERSION:
            raise ValueError("unsupported schema_version")
        return cls(
            p=data["p"],
            q=data["q"],
            d=data["d"],
            verdict=data["verdict"],
            rank=data["rank"],
            mode=data["mode"],
            facts=dict(data["facts"]),
            reasons=tuple(data["reasons"]),
            invalid=tuple(data["invalid"]),
        )


def _prime_to_p(v: Any, p: int) -> bool:
    return type(v) is int and v % p != 0


def _is(expected: Any) -> Callable[[Any, int], bool]:
    return lambda v, p: type(v) is type(expected) and v == expected


# The hypotheses of docs/algorithms.md section 6, one tuple of rules per
# stage of the certificate: the fact a rule reads, the test it must pass,
# and the reason given when it fails, with the fact as {v}, -d as {d}, -dpq
# as {dpq} and pq as {pq}.  A certificate lists its reasons in this order.
# A fact that is absent fails as _MISSING; parameters outside the family
# fail every rule at once, as _OUTSIDE_FAMILY.
_OUTSIDE_FAMILY = "parameters are outside the certified family"
_MISSING = "{key} is missing"
_RULES: tuple[tuple[tuple[str, Callable[[Any, int], bool], str], ...], ...] = (
    (
        ("s", _is(1), "s = {v}, need a single stable place above q in the tower"),
        ("mu_p_in_K", _is(False), "the field contains the p-th roots of unity"),
    ),
    (
        ("h_imag_d", _prime_to_p, "p divides the class number {v} of Q(sqrt({d}))"),
        ("h_imag_dpq", _prime_to_p, "p divides the class number {v} of Q(sqrt({dpq}))"),
    ),
    (("h_real_pq", _prime_to_p, "p divides the class number {v} of Q(sqrt({pq}))"),),
    (
        ("unit_pth_power_at_p", _is(False),
         "the fundamental unit is a p-th power in the completion at p"),
        ("v_p_val", lambda v, p: type(v) is int and v <= 2,
         "v(eps**2 - 1) = {v} at the place above p, need at most 2"),
        ("e_s_generated", _is(True),
         "p divides the residue order of eps**2 at the place above q"),
        ("alpha_S", _is(1), "the tame place weight alpha_S is not 1"),
    ),
)

# the rank of the module that a certificate proves, by verdict
RANK = {CERTIFIED_FREE: 2, NOT_CERTIFIED: None}


def judge(
    p: int, q: int, d: int, facts: Mapping[str, Any], *, stages: Iterable[object] = ()
) -> tuple[str, tuple[str, ...]]:
    """The verdict on (p, q, d) that facts support, and its reasons.

    The rules run stage by stage.  After the first stage with a failing
    rule, judging stops where the facts stop, as a lazy certificate does;
    before it, a missing fact fails.  A cache line's facts carry
    ``invalid`` when (p, q, d) is outside the family.  The verdict is
    CERTIFIED_FREE, of rank RANK[verdict] = 2, iff no rule fails.

    ``stages``, if given, adds the facts of one more stage each time it is
    advanced; judge advances it before each stage while no rule has failed,
    which is how certify_freeness stops lazily.
    """
    if "invalid" in facts:
        return NOT_CERTIFIED, (_OUTSIDE_FAMILY,)
    pending = iter(stages)
    reasons: list[str] = []
    for rules in _RULES:
        if not reasons:
            next(pending, None)
        elif rules[0][0] not in facts:
            break
        for key, test, reason in rules:
            if key not in facts:
                reasons.append(_MISSING.format(key=key))
            elif not test(facts[key], p):
                reasons.append(reason.format(v=facts[key], d=-d, dpq=-d * p * q, pq=p * q))
    return (NOT_CERTIFIED if reasons else CERTIFIED_FREE), tuple(reasons)


def _unit_facts(p: int, q: int, field: QuadField, elem: QuadElem | None) -> dict[str, Any]:
    """Stage-4 facts of the unit elem of field = Q(sqrt(pq)).

    With elem None, of the fundamental unit reduced modulo p**5 * q**3.
    """
    if elem is None:
        x, y, norm = fundamental_unit_mod(field, p**5 * q**3)
        den = 1
        facts: dict[str, Any] = {"mode": "fast", "unit_norm": norm}
        v_p = unit_sq_minus_one_valuation(2 * x, norm, p)
        v_q = unit_sq_minus_one_valuation(2 * x, norm, q)
    elif elem.field != field:
        raise ValueError("the unit lives in the wrong field")
    else:
        x, y, den = elem.x, elem.y, elem.den
        norm, t = elem.norm(), elem.trace()
        facts = {"mode": "exact", "unit_norm": norm, "unit": str(elem)}
        # v(u^2 - 1) above a ramified ell is that of N(u^2 - 1) = 2 + 2N(u) - T(u)^2
        w = 2 + 2 * norm - t * t
        v_p, v_q = padic_valuation(w, p)[0], padic_valuation(w, q)[0]
    ctx = classify_splitting(field, p)
    facts["unit_pth_power_at_p"] = _pth_power_flags(x, y, den, ctx)[0]
    facts["v_p_val"] = v_p
    facts["v_q_val"] = v_q
    facts["e_s_generated"] = _unit_square_order_prime_to_p(x, den, q, p)
    return facts


def _gather(p: int, q: int, d: int, exact: bool, facts: dict[str, Any]) -> Iterator[None]:
    """Add the facts of each stage of _RULES to facts, yielding after each."""

    # stage 1: congruence-level facts (cheap, no class numbers, no units).
    # q has residue degree 2 in K (section 5 of the docs), and K never
    # contains mu_p for p >= 5 (section 4.4)
    facts["s"] = tower_places(q, 2, p)
    # the tame weight of the place above q (section 6, item 6): mu_p misses
    # the completion of Q(sqrt(pq)), of residue size q, and lives in that
    # of K, of residue size q**2 (section 4.4)
    in_quartic_completion = (q * q - 1) % p == 0
    facts["alpha_S"] = 1 if (q - 1) % p != 0 and in_quartic_completion else 0
    facts["mu_p_in_K"] = False
    facts["mu_p_in_local_at_q"] = in_quartic_completion
    yield

    # stage 2: imaginary subfield class numbers; the large discriminant
    # -4*d*p*q dominates the runtime of the whole certificate
    facts["h_imag_d"] = h_imaginary(make_field(-d).disc).h
    facts["h_imag_dpq"] = h_imaginary(make_field(-d * p * q).disc).h
    yield

    # stage 3: real subfield class number (narrow count, wide value)
    real_field = make_field(p * q)
    cn = h_plus_real(real_field.disc)
    facts["h_plus_real_pq"] = cn.h_plus
    facts["h_real_pq"] = cn.h
    yield

    # stage 4: fundamental unit of the real subfield
    elem = fundamental_unit(real_field).elem if exact else None
    facts.update(_unit_facts(p, q, real_field, elem))
    yield


def certify_freeness(
    p: int, q: int, d: int, *, exact: bool = True, lazy: bool = False
) -> FreenessReport:
    """Freeness certificate for the quartic field Q(sqrt(pq), sqrt(-d)).

    Pipeline: validate the parameters; count the stable places above q in
    the cyclotomic tower (s); check that p is prime to the class numbers of
    the three quadratic subfields; test the fundamental unit of Q(sqrt(pq))
    at the place above p; bound the valuation of eps**2 - 1 at p; check the
    residue order at q.  Certification needs all of: s = 1, the three
    class-number conditions, unit not a local p-th power, v_p_val <= 2,
    e_s_generated, and no p-th roots of unity in the field.  judge decides
    the verdict from the facts gathered.

    exact=False reduces the unit coordinates modulo p**5 * q**3 during the
    continued-fraction walk (orders of magnitude faster for scans), with the
    denominator 2 of a half-integral unit inverted, and reports valuations
    >= 3 as the symbol ">=3".  lazy=True stops at the first failing stage,
    recording the facts computed so far.

    Parameter violations produce a NOT_CERTIFIED report with the violations
    in ``invalid``; no exception escapes for bad (p, q, d).  That includes a
    family triple with 4*d*p*q >= 2^64, beyond the class numbers' limit.
    """
    mode_requested = "exact" if exact else "fast"
    violations = family_violations(p, q, d)
    if violations:
        return FreenessReport(
            p=p,
            q=q,
            d=d,
            verdict=NOT_CERTIFIED,
            rank=None,
            mode=mode_requested,
            facts={},
            reasons=(_OUTSIDE_FAMILY,),
            invalid=tuple(violations),
        )
    facts: dict[str, Any] = {}
    stages = _gather(p, q, d, exact, facts)
    verdict, reasons = judge(p, q, d, facts, stages=stages if lazy else list(stages))
    facts.setdefault("mode", mode_requested)
    return FreenessReport(
        p=p,
        q=q,
        d=d,
        verdict=verdict,
        rank=RANK[verdict],
        mode=facts["mode"],
        facts=facts,
        reasons=reasons,
    )
