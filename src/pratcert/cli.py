"""Command line surface: certification checks, scans, table reproduction,
and low-level quadratic-field utilities.

Exit codes: 0 for answers (a NOT_CERTIFIED verdict too), 2 for invalid
input (a table with one bad p too), 1 for internal errors.
Output is deterministic: no timings, hostnames or worker counts reach stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

from ._version import __version__
from .arith import unlimited_int_digits
from .classno import h_imaginary, h_plus_real
from .criteria import CERTIFIED_FREE, SCHEMA_VERSION, certify_freeness, prat_imag, prat_real
from .quadratic import fundamental_unit, make_field
from .scan import reproduce_table, scan_q

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2

_FORMATS = ("text", "json", "csv")


def _color_enabled() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _verdict_text(verdict: str) -> str:
    label = verdict.upper()
    if not _color_enabled():
        return label
    code = "32" if verdict == CERTIFIED_FREE else "33"
    return f"\x1b[{code}m{label}\x1b[0m"


def _csv_escape(value: Any) -> str:
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _emit(fmt: str, payload: dict[str, Any], rows: list[list[Any]], lines: list[str]) -> int:
    """Print one answer in fmt: payload as versioned JSON, rows as CSV, or
    lines as text."""
    if fmt == "json":
        header = {"schema_version": SCHEMA_VERSION, "tool_version": __version__}
        print(json.dumps({**payload, **header}, sort_keys=True, indent=2))
    elif fmt == "csv":
        for row in rows:
            print(",".join(_csv_escape(v) for v in row))
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    report = certify_freeness(args.p, args.q, args.d, exact=True)
    if report.invalid:
        for violation in report.invalid:
            print(f"error: {violation}", file=sys.stderr)
        return EXIT_USAGE
    rows: list[list[Any]] = [["key", "value"]]
    rows += [["p", report.p], ["q", report.q], ["d", report.d]]
    rows += [["verdict", report.verdict], ["rank", report.rank], ["mode", report.mode]]
    rows += [[f"facts.{k}", v] for k, v in report.facts.items()]
    rows += [["reason", r] for r in report.reasons]
    field = f"Q(sqrt({report.p * report.q}), sqrt({-report.d}))"
    lines = [f"field {field} with p={report.p} q={report.q} d={report.d}"]
    if report.verdict == CERTIFIED_FREE:
        lines.append(f"verdict: {_verdict_text(report.verdict)} (rank {report.rank})")
    else:
        lines.append(f"verdict: {_verdict_text(report.verdict)}")
        lines.append("the verdict does not assert non-freeness, only that some")
        lines.append("hypothesis could not be verified")
    if report.facts:
        lines += ["facts:"] + [f"  {key} = {value}" for key, value in report.facts.items()]
    if report.reasons:
        lines += ["reasons:"] + [f"  - {reason}" for reason in report.reasons]
    return _emit(args.format, report.to_dict(), rows, lines)


def _cmd_scan(args: argparse.Namespace) -> int:
    qs = scan_q(args.p, args.d, args.q_max, cache=args.cache, jobs=args.jobs)
    payload = {"p": args.p, "d": args.d, "q_max": args.q_max, "certified_q": qs}
    rows = [["p", "d", "q"]] + [[args.p, args.d, q] for q in qs]
    lines = [f"p={args.p} d={args.d} q_max={args.q_max}", " ".join(str(q) for q in qs)]
    return _emit(args.format, payload, rows, lines)


def _cmd_table(args: argparse.Namespace) -> int:
    p_list = _parse_p_list(args.p_list)
    table = reproduce_table(p_list, args.q_max, args.d, jobs=args.jobs)
    payload = {
        "d": args.d,
        "q_max": args.q_max,
        "rows": [{"p": r.p, "certified_q": list(r.certified)} for r in table],
    }
    rows = [["p", "d", "q"]] + [[r.p, args.d, q] for r in table for q in r.certified]
    lines = [f"p={r.p}: " + " ".join(str(q) for q in r.certified) for r in table]
    return _emit(args.format, payload, rows, lines)


def _parse_p_list(raw: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"--p-list must be comma-separated integers, got {raw!r}")
    if not values:
        raise ValueError("--p-list must name at least one prime")
    return values


def _cmd_quad_unit(args: argparse.Namespace) -> int:
    field = make_field(args.m)
    fu = fundamental_unit(field)
    e = fu.elem
    payload = {"m": field.m, "x": e.x, "y": e.y, "den": e.den, "norm": fu.unit_norm}
    rows = [list(payload), list(payload.values())]
    return _emit(args.format, payload, rows, [f"{e}, norm {fu.unit_norm:+d}"])


def _cmd_quad_classno(args: argparse.Namespace) -> int:
    result = h_imaginary(args.disc) if args.disc < 0 else h_plus_real(args.disc)
    disc, h, h_plus, method = result.disc, result.h, result.h_plus, result.method
    payload = {"disc": disc, "h": h, "h_plus": h_plus, "method": method}
    rows = [list(payload), [disc, h, "" if h_plus is None else h_plus, method]]
    if h_plus is None:
        line = f"disc {disc}: h = {h} ({method})"
    else:
        line = f"disc {disc}: h+ = {h_plus}, h = {h} ({method})"
    return _emit(args.format, payload, rows, [line])


def _cmd_quad_prat(args: argparse.Namespace) -> int:
    report = prat_imag(-args.m, args.p) if args.m < 0 else prat_real(args.m, args.p)
    payload = {
        "field": report.field_desc,
        "radicands": list(report.radicands),
        "p": report.p,
        "checks": [{"name": c.name, "value": c.value, "passed": c.passed} for c in report.checks],
        "verdict": report.verdict,
    }
    rows: list[list[Any]] = [["name", "value", "passed"]]
    rows += [[c.name, c.value, c.passed] for c in report.checks]
    rows.append(["p_rational", "", report.verdict])
    lines = [f"field {report.field_desc}, p = {report.p}"]
    lines += [f"  {c.name} = {c.value} ({'pass' if c.passed else 'fail'})" for c in report.checks]
    lines.append(f"p-rational: {'yes' if report.verdict else 'no'}")
    return _emit(args.format, payload, rows, lines)


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=_FORMATS, default="text", help="output format"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pratcert",
        description=(
            "Freeness certificates for the Galois module of the quartic "
            "fields Q(sqrt(pq), sqrt(-d)), plus quadratic-field utilities."
        ),
    )
    parser.add_argument("--version", action="version", version=f"pratcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="certify one (p, q, d) with exact arithmetic")
    check.add_argument("--p", type=int, required=True, help="prime > 3")
    check.add_argument("--q", type=int, required=True, help="odd prime, q = -1 mod p")
    check.add_argument("--d", type=int, required=True, help="positive squarefree integer")
    _add_format(check)
    check.set_defaults(func=_cmd_check)

    scan = sub.add_parser("scan", help="sweep candidate q for fixed (p, d)")
    scan.add_argument("--p", type=int, required=True, help="prime >= 5")
    scan.add_argument("--d", type=int, required=True, help="positive squarefree integer")
    scan.add_argument("--q-max", type=int, required=True, help="upper bound for q")
    scan.add_argument("--jobs", type=int, default=1, help="parallel workers")
    scan.add_argument("--cache", help="append-only JSON lines record cache")
    _add_format(scan)
    scan.set_defaults(func=_cmd_scan)

    table = sub.add_parser("table", help="one scan row per p")
    table.add_argument("--p-list", required=True, help="comma-separated primes")
    table.add_argument("--d", type=int, required=True, help="positive squarefree integer")
    table.add_argument("--q-max", type=int, required=True, help="upper bound for q")
    table.add_argument("--jobs", type=int, default=1, help="parallel workers")
    _add_format(table)
    table.set_defaults(func=_cmd_table)

    quad = sub.add_parser("quad", help="quadratic-field utilities")
    qsub = quad.add_subparsers(dest="quad_command", required=True)

    unit = qsub.add_parser("unit", help="fundamental unit of Q(sqrt(m))")
    unit.add_argument("--m", type=int, required=True, help="radicand > 1")
    _add_format(unit)
    unit.set_defaults(func=_cmd_quad_unit)

    classno = qsub.add_parser("classno", help="class number for a fundamental discriminant")
    classno.add_argument("--disc", type=int, required=True, help="fundamental discriminant")
    _add_format(classno)
    classno.set_defaults(func=_cmd_quad_classno)

    prat = qsub.add_parser("prat", help="p-rationality of a quadratic field")
    prat.add_argument("--m", type=int, required=True, help="radicand, sign selects the field")
    prat.add_argument("--p", type=int, required=True, help="prime >= 5")
    _add_format(prat)
    prat.set_defaults(func=_cmd_quad_prat)

    return parser


def main(argv: list[str] | None = None) -> int:
    # units are printed as text and JSON, both beyond the default digit limit
    with unlimited_int_digits():
        return _run(argv)


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return EXIT_INTERNAL
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
