"""Spans around calls into pratcert's modules, recorded from the outside.

A traced run replaces each target function, in every pratcert module that
binds it, by a wrapper that records one span: name, start, end, the span
that was open when it was called (its parent), the item it belongs to, and
an optional note (a discriminant, a verdict, a bit size).  Spans stay in a
list in memory and are written out when the round ends.  Nothing under
src/ changes.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    item: int | None
    start: float
    end: float
    parent: int | None
    note: Any = None


def _unit_bits(result: Any) -> int:
    return max(result.elem.x.bit_length(), result.elem.y.bit_length())


# (module, function, span name, note taken from (args, result)).  The layers
# are pratcert's modules; cli has no target because no workload goes
# through the command line, only through the library functions it calls.
TARGETS: tuple[tuple[str, str, str, Callable[[tuple, Any], Any] | None], ...] = (
    ("arith", "primes_up_to", "arith.sieve", None),
    ("arith", "factor", "arith.factor", None),
    ("classno", "h_imaginary", "classno.h_imaginary", lambda a, r: a[0]),
    ("classno", "h_plus_real", "classno.h_plus_real", None),
    ("classno", "reduced_indefinite_forms", "classno.real_forms", None),
    ("quadratic", "fundamental_unit", "quadratic.unit_exact", lambda a, r: _unit_bits(r)),
    ("quadratic", "fundamental_unit_mod", "quadratic.unit_mod", None),
    ("quadratic", "unit_norm_sign", "quadratic.norm_sign", None),
    ("localfield", "tower_places", "localfield.tower", None),
    ("localfield", "classify_splitting", "localfield.splitting", None),
    # the one p-th power test that both certify_freeness and
    # is_pth_power_local go through
    ("localfield", "_pth_power_flags", "localfield.pth_power", None),
    ("criteria", "family_violations", "criteria.family", None),
    ("criteria", "certify_freeness", "criteria.certify", lambda a, r: r.verdict),
    ("scan", "scan_records", "scan.resume", None),
)


class Tracer:
    """Collects spans; ``item`` is the index of the item being worked on."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.item: int | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, note: Callable | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else None
            self._open.append(sid)
            result, returned = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                self._open.pop()
                noted = note(args, result) if returned and note is not None else None
                self.spans[sid] = Span(sid, name, self.item, start, end, parent, noted)

        return traced

    def install(self) -> None:
        """Route every binding of each target in pratcert through a wrapper."""
        loaded = [
            mod
            for key, mod in sys.modules.items()
            if key == "pratcert" or key.startswith("pratcert.")
        ]
        for module, func, name, note in TARGETS:
            orig = getattr(sys.modules[f"pratcert.{module}"], func)
            wrapper = self.wrap(name, orig, note)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]


def self_time(span: Span, children: list[Span]) -> float:
    """Duration of span minus the part of it that its children cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo = max(child.start, cursor)
        hi = min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span.end - span.start) - covered


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one round, keyed by the per-layer metric names."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def total(name: str) -> float:
        return sum(s.end - s.start for s in spans if s.name == name)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    certify = [s for s in spans if s.name == "criteria.certify"]
    reached_classno = reached_unit = certified = 0
    for s in certify:
        below = {c.name for c in children.get(s.sid, [])}
        unit = bool(below & {"quadratic.unit_mod", "quadratic.unit_exact"})
        reached_classno += "classno.h_imaginary" in below
        reached_unit += unit
        certified += s.note == "certified_free"
    unit_bits = [s.note for s in spans if s.name == "quadratic.unit_exact"]
    return {
        "classno.h_imaginary_s": total("classno.h_imaginary"),
        "classno.h_plus_real_s": total("classno.h_plus_real"),
        "classno.real_forms_s": total("classno.real_forms"),
        "classno.h_imaginary_calls": calls("classno.h_imaginary"),
        "classno.h_imaginary_distinct": len(
            {s.note for s in spans if s.name == "classno.h_imaginary"}
        ),
        "classno.h_plus_real_calls": calls("classno.h_plus_real"),
        "quadratic.unit_exact_s": total("quadratic.unit_exact"),
        "quadratic.unit_exact_calls": calls("quadratic.unit_exact"),
        "quadratic.unit_mod_s": total("quadratic.unit_mod"),
        "quadratic.unit_mod_calls": calls("quadratic.unit_mod"),
        "quadratic.norm_sign_s": total("quadratic.norm_sign"),
        "quadratic.unit_max_bits": max(unit_bits, default=0),
        "arith.sieve_s": total("arith.sieve"),
        "arith.factor_s": total("arith.factor"),
        "arith.factor_calls": calls("arith.factor"),
        "localfield.tower_s": total("localfield.tower"),
        "localfield.splitting_s": total("localfield.splitting"),
        "localfield.pth_power_s": total("localfield.pth_power"),
        "criteria.family_s": total("criteria.family"),
        "criteria.certify_self_s": sum(
            self_time(s, children.get(s.sid, [])) for s in certify
        ),
        "criteria.reached_classno": reached_classno,
        "criteria.reached_unit": reached_unit,
        "criteria.certified": certified,
        "criteria.unit_rejects_after_classno": reached_unit - certified,
        "scan.resume_s": total("scan.resume"),
    }


def write_spans(path: str, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(
                json.dumps(
                    {
                        "id": s.sid,
                        "name": s.name,
                        "item": s.item,
                        "start": s.start,
                        "end": s.end,
                        "parent": s.parent,
                        "note": s.note,
                    }
                )
                + "\n"
            )
