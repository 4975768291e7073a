"""End-to-end tests for the command line interface via main(argv)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from pratcert import scan
from pratcert._version import __version__
from pratcert.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, main
from pratcert.criteria import FreenessReport, certify_freeness

ROOT = Path(__file__).resolve().parent.parent
# stdout, stderr and exit code of every subcommand in every format, recorded
# from the command line as it was when the renderers were merged into one
TRANSCRIPT = json.loads((ROOT / "tests" / "data" / "cli_transcript.json").read_text("utf-8"))


def run(capsys, argv: list[str]) -> tuple[int, str, str]:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_json_round_trips_the_report(capsys) -> None:
    code, out, err = run(capsys, ["check", "--p", "7", "--q", "13", "--d", "2", "--format", "json"])
    assert code == EXIT_OK
    assert err == ""
    report = FreenessReport.from_dict(json.loads(out))
    assert report == certify_freeness(7, 13, 2, exact=True)


def test_check_invalid_params_exit_usage(capsys) -> None:
    code, out, err = run(capsys, ["check", "--p", "7", "--q", "12", "--d", "2"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: q must be an odd prime" in err


def test_check_beyond_64_bits_exits_usage(capsys) -> None:
    code, out, err = run(capsys, ["check", "--p", "5", "--q", str(2**64 + 13), "--d", "2"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "error: q must be below 2^64\n"


def test_quad_classno_beyond_64_bits_exits_usage(capsys) -> None:
    for disc in (2**64 + 13, -(2**64) - 3):
        code, out, err = run(capsys, ["quad", "classno", "--disc", str(disc)])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: |disc| must be below 2^64\n"


def test_quad_unit_beyond_the_factor_limit_exits_usage(capsys) -> None:
    code, out, err = run(capsys, ["quad", "unit", "--m", str(2**64 + 13)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err == (
        "error: factor needs the cofactor left after trial division to 10**6 "
        "below 2^64, where primality is deterministic\n"
    )


def test_quad_unit_prints_units_beyond_the_digit_limit(capsys) -> None:
    # the unit has about 14100 digits, above the interpreter's default
    # 4300-digit limit on int <-> str conversion, which main lifts and restores
    m = 10000000055
    limit = sys.get_int_max_str_digits()
    code, text, err = run(capsys, ["quad", "unit", "--m", str(m)])
    assert (code, err) == (EXIT_OK, "")
    code, out, err = run(capsys, ["quad", "unit", "--m", str(m), "--format", "json"])
    assert (code, err) == (EXIT_OK, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        payload = json.loads(out)
        body, norm = text.rstrip("\n").split(", norm ")
        x, y = body.split(f"*sqrt({m})")[0].split(" + ")
        parsed = (int(x), int(y), 1, int(norm))  # m = 3 (mod 4): den is 1
    finally:
        sys.set_int_max_str_digits(limit)
    x, y, den, norm = (payload[key] for key in ("x", "y", "den", "norm"))
    assert x.bit_length() > 4300 * 3.33  # more than 4300 decimal digits
    assert (x, y, den, norm) == parsed
    assert x * x - m * y * y == norm * den * den


def test_quad_unit_rejects_bad_radicand(capsys) -> None:
    code, out, err = run(capsys, ["quad", "unit", "--m", "-7"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")


def test_quad_classno_rejects_non_fundamental(capsys) -> None:
    code, _, err = run(capsys, ["quad", "classno", "--disc", "0"])
    assert code == EXIT_USAGE
    assert err.startswith("error: ")


def test_scan_formats(capsys) -> None:
    # the transcript pins each format at one worker; two give the same bytes
    argv = ["scan", "--p", "7", "--d", "2", "--q-max", "500"]
    for fmt in ("text", "json", "csv"):
        code, out, _ = run(capsys, argv + ["--format", fmt])
        assert code == EXIT_OK
        assert run(capsys, argv + ["--format", fmt, "--jobs", "2"]) == (code, out, "")


def test_scan_cache_round_trip(capsys, tmp_path) -> None:
    cache = tmp_path / "scan.jsonl"
    argv = ["scan", "--p", "5", "--d", "2", "--q-max", "200", "--cache", str(cache)]
    code, first, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert cache.exists()
    code, second, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert second == first


def test_scan_rejects_bad_p(capsys) -> None:
    code, out, err = run(capsys, ["scan", "--p", "4", "--d", "2", "--q-max", "100"])
    assert code == EXIT_USAGE
    assert out == ""
    assert "error: p must be a prime >= 5" in err


def test_table_with_a_bad_p_exits_usage_in_every_format(capsys) -> None:
    # one refused p refuses the whole table, as scan --p 4 does, wherever
    # it stands in the list
    for p_list in ("4,7", "5,7,4"):
        for fmt in ("text", "json", "csv"):
            argv = ["table", "--p-list", p_list, "--d", "2", "--q-max", "150", "--format", fmt]
            code, out, err = run(capsys, argv)
            assert (code, out) == (EXIT_USAGE, ""), fmt
            assert err == "error: p=4: p must be a prime >= 5\n", fmt


def test_table_internal_error_in_a_row_exits_internal(capsys, monkeypatch) -> None:
    # an exception while a row is scanned is an internal error, whatever
    # the format
    def broken_scan_q(p, d, q_max, *, jobs=1):
        raise RuntimeError("scan failed")

    monkeypatch.setattr(scan, "scan_q", broken_scan_q)
    for fmt in ("text", "json", "csv"):
        argv = ["table", "--p-list", "5", "--d", "2", "--q-max", "50", "--format", fmt]
        code, out, err = run(capsys, argv)
        assert (code, out) == (EXIT_INTERNAL, ""), fmt
        assert err == "internal error: RuntimeError: scan failed\n", fmt


def test_table_rejects_bad_table_wide_flags_once(capsys) -> None:
    base = ["table", "--p-list", "5,7", "--d", "2"]
    for flags, message in (
        (["--q-max", "-1"], "q_max must be >= 0"),
        (["--q-max", "50", "--jobs", "0"], "jobs must be >= 1"),
    ):
        code, out, err = run(capsys, base + flags)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("error:") == 1 and message in err, err


def test_table_json_shape(capsys) -> None:
    code, out, _ = run(
        capsys,
        ["table", "--p-list", "5,7", "--d", "2", "--q-max", "150", "--format", "json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["rows"] == [
        {"p": 5, "certified_q": [79, 109]},
        {"p": 7, "certified_q": [13]},
    ]


def test_table_rejects_malformed_p_list(capsys) -> None:
    code, _, err = run(capsys, ["table", "--p-list", "a,b", "--d", "2", "--q-max", "50"])
    assert code == EXIT_USAGE
    assert "error: --p-list must be comma-separated integers, got 'a,b'" in err


def test_argparse_failures_exit_usage(capsys) -> None:
    assert run(capsys, ["check", "--p", "7", "--q", "13"])[0] == EXIT_USAGE
    assert run(capsys, ["check", "--p", "abc", "--q", "13", "--d", "2"])[0] == EXIT_USAGE
    assert run(capsys, ["no-such-command"])[0] == EXIT_USAGE
    assert run(capsys, [])[0] == EXIT_USAGE


def test_version_flag(capsys) -> None:
    code, out, _ = run(capsys, ["--version"])
    assert code == EXIT_OK
    assert out == f"pratcert {__version__}\n"


@pytest.mark.parametrize("entry", TRANSCRIPT, ids=[entry["argv"] for entry in TRANSCRIPT])
def test_transcript_is_byte_identical(capsys, entry) -> None:
    code, out, err = run(capsys, entry["argv"].split())
    assert (out, err, code) == (entry["stdout"], entry["stderr"], entry["exit"])


def test_default_format_is_text(capsys) -> None:
    # the transcript always names its format; without one, every command
    # prints what --format text prints
    for entry in TRANSCRIPT:
        argv = entry["argv"].split()
        if argv[-2:] == ["--format", "text"]:
            expected = (entry["exit"], entry["stdout"], entry["stderr"])
            assert run(capsys, argv[:-2]) == expected, entry["argv"]


def test_transcript_covers_every_subcommand_in_every_format() -> None:
    covered = {
        (tuple(argv[: 2 if argv[0] == "quad" else 1]), argv[-1])
        for argv in (entry["argv"].split() for entry in TRANSCRIPT)
    }
    commands = [("check",), ("scan",), ("table",)]
    commands += [("quad", sub) for sub in ("unit", "classno", "prat")]
    assert covered == {(cmd, fmt) for cmd in commands for fmt in ("text", "json", "csv")}


def _readme_examples() -> list[tuple[list[str], list[str]]]:
    # every "$ pratcert ..." line inside a fenced block of README.md, with the
    # lines shown under it up to the next "$" line or the end of the block
    examples: list[tuple[list[str], list[str]]] = []
    shown: list[str] | None = None
    for line in (ROOT / "README.md").read_text("utf-8").splitlines():
        if line.startswith("```"):
            shown = [] if shown is None else None
        elif shown is not None and line.startswith("$ pratcert "):
            shown = []
            examples.append((line.split()[2:], shown))
        elif shown is not None:
            shown.append(line)
    return [(argv, "\n".join(lines).rstrip("\n").split("\n")) for argv, lines in examples]


def _shows(shown: list[str], actual: list[str]) -> bool:
    # a "..." line stands for any run of lines; every other shown line
    # matches one actual line, in order, from the first line to the last
    segments: list[list[str]] = [[]]
    for line in shown:
        if line.strip() == "...":
            segments.append([])
        else:
            segments[-1].append(line)
    if len(segments) == 1:
        return actual == shown
    first, *middle, last = segments
    start, end = len(first), len(actual) - len(last)
    if start > end or actual[:start] != first or actual[end:] != last:
        return False
    for segment in middle:
        while actual[start : start + len(segment)] != segment:
            if start + len(segment) >= end:
                return False
            start += 1
        start += len(segment)
    return start <= end


README_EXAMPLES = _readme_examples()


def test_readme_has_an_example_for_every_command() -> None:
    assert len(README_EXAMPLES) == 8
    assert {argv[0] for argv, _ in README_EXAMPLES} == {"check", "scan", "table", "quad"}


@pytest.mark.parametrize(
    "argv, shown", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES]
)
def test_readme_example_output_matches(capsys, argv, shown) -> None:
    code, out, err = run(capsys, argv)
    assert (code, err) == (EXIT_OK, "")
    assert _shows(shown, out.splitlines()), out


def test_readme_matcher_treats_dots_as_any_run_of_lines() -> None:
    actual = ["a", "b", "c", "d"]
    assert _shows(["a", "...", "d"], actual)
    assert _shows(["a", "b", "...", "c", "d"], actual)
    assert _shows(["...", "c", "..."], actual)
    assert not _shows(["a", "c", "d"], actual)
    assert not _shows(["a", "...", "c"], actual)
    assert not _shows(["a", "...", "e", "...", "d"], actual)
    assert not _shows(["a", "b", "c"], actual)
