"""End-to-end tests for the command line interface via main(argv)."""

from __future__ import annotations

import json
import sys

from pratcert._version import __version__
from pratcert.cli import EXIT_OK, EXIT_USAGE, main
from pratcert.criteria import FreenessReport, certify_freeness


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


def test_check_text_certified(capsys) -> None:
    code, out, err = run(capsys, ["check", "--p", "7", "--q", "13", "--d", "2"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "field Q(sqrt(91), sqrt(-2)) with p=7 q=13 d=2"
    assert lines[1] == "verdict: CERTIFIED_FREE (rank 2)"
    assert "facts:" in lines
    assert "reasons:" not in lines


def test_check_text_facts_match_json_facts(capsys) -> None:
    _, text_out, _ = run(capsys, ["check", "--p", "7", "--q", "13", "--d", "2"])
    _, json_out, _ = run(capsys, ["check", "--p", "7", "--q", "13", "--d", "2", "--format", "json"])
    facts = json.loads(json_out)["facts"]
    rendered: dict[str, str] = {}
    in_facts = False
    for line in text_out.splitlines():
        if line == "facts:":
            in_facts = True
            continue
        if in_facts and line.startswith("  "):
            key, value = line[2:].split(" = ", 1)
            rendered[key] = value
            continue
        in_facts = False
    assert rendered == {k: str(v) for k, v in facts.items()}


def test_check_not_certified_is_still_an_answer(capsys) -> None:
    code, out, err = run(capsys, ["check", "--p", "5", "--q", "149", "--d", "2"])
    assert code == EXIT_OK
    assert err == ""
    assert "verdict: NOT_CERTIFIED" in out
    assert "the verdict does not assert non-freeness, only that some" in out
    assert "hypothesis could not be verified" in out
    assert "  - s = 5, need a single stable place above q in the tower" in out


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


def test_check_csv_has_key_value_rows(capsys) -> None:
    code, out, _ = run(capsys, ["check", "--p", "7", "--q", "13", "--d", "2", "--format", "csv"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert "p,7" in lines
    assert "verdict,certified_free" in lines


def test_quad_unit_formats(capsys) -> None:
    code, out, _ = run(capsys, ["quad", "unit", "--m", "91"])
    assert code == EXIT_OK
    assert out == "1574 + 165*sqrt(91), norm +1\n"
    _, out, _ = run(capsys, ["quad", "unit", "--m", "5"])
    assert out == "(1 + 1*sqrt(5))/2, norm -1\n"
    _, out, _ = run(capsys, ["quad", "unit", "--m", "91", "--format", "json"])
    payload = json.loads(out)
    assert (payload["m"], payload["x"], payload["y"]) == (91, 1574, 165)
    assert (payload["den"], payload["norm"]) == (1, 1)
    _, out, _ = run(capsys, ["quad", "unit", "--m", "91", "--format", "csv"])
    assert out.splitlines() == ["m,x,y,den,norm", "91,1574,165,1,1"]


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


def test_quad_classno_formats(capsys) -> None:
    code, out, _ = run(capsys, ["quad", "classno", "--disc", "-8"])
    assert code == EXIT_OK
    assert out == "disc -8: h = 1 (reduced-form count)\n"
    _, out, _ = run(capsys, ["quad", "classno", "--disc", "12"])
    assert out == "disc 12: h+ = 2, h = 1 (rho-cycle count)\n"
    _, out, _ = run(capsys, ["quad", "classno", "--disc", "-8", "--format", "json"])
    payload = json.loads(out)
    assert (payload["disc"], payload["h"], payload["h_plus"]) == (-8, 1, None)
    _, out, _ = run(capsys, ["quad", "classno", "--disc", "12", "--format", "csv"])
    assert out.splitlines() == ["disc,h,h_plus,method", "12,1,2,rho-cycle count"]


def test_quad_classno_rejects_non_fundamental(capsys) -> None:
    code, _, err = run(capsys, ["quad", "classno", "--disc", "0"])
    assert code == EXIT_USAGE
    assert err.startswith("error: ")


def test_quad_prat_imaginary_text(capsys) -> None:
    code, out, _ = run(capsys, ["quad", "prat", "--m", "-2", "--p", "7"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "field Q(sqrt(-2)), p = 7"
    assert lines[1] == "  class_number_prime_to_p = 1 (pass)"
    assert lines[-1] == "p-rational: yes"


def test_quad_prat_real_json(capsys) -> None:
    code, out, _ = run(capsys, ["quad", "prat", "--m", "91", "--p", "7", "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["field"] == "Q(sqrt(91))"
    assert payload["p"] == 7
    names = [c["name"] for c in payload["checks"]]
    assert names[0] == "class_number_prime_to_p"
    assert all(c["passed"] for c in payload["checks"]) == payload["verdict"]


def test_scan_formats(capsys) -> None:
    argv = ["scan", "--p", "7", "--d", "2", "--q-max", "500"]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert out.splitlines() == ["p=7 d=2 q_max=500", "13 167 181 223 461"]
    _, jobs_out, _ = run(capsys, argv + ["--jobs", "2"])
    assert jobs_out == out
    _, json_out, _ = run(capsys, argv + ["--format", "json"])
    payload = json.loads(json_out)
    assert payload["certified_q"] == [13, 167, 181, 223, 461]
    assert payload["tool_version"] == __version__
    _, csv_out, _ = run(capsys, argv + ["--format", "csv"])
    assert csv_out.splitlines()[:2] == ["p,d,q", "7,2,13"]


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


def test_table_text_and_error_rows(capsys) -> None:
    code, out, _ = run(
        capsys, ["table", "--p-list", "5,7", "--d", "2", "--q-max", "150"]
    )
    assert code == EXIT_OK
    assert out.splitlines() == ["p=5: 79 109", "p=7: 13"]
    code, out, _ = run(capsys, ["table", "--p-list", "4", "--d", "2", "--q-max", "50"])
    assert code == EXIT_OK
    assert out.splitlines() == ["p=4: error: ValueError: p must be a prime >= 5"]


def test_table_json_shape(capsys) -> None:
    code, out, _ = run(
        capsys,
        ["table", "--p-list", "5,7", "--d", "2", "--q-max", "150", "--format", "json"],
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["rows"] == [
        {"p": 5, "certified_q": [79, 109], "error": None},
        {"p": 7, "certified_q": [13], "error": None},
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
