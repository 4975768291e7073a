"""Facts byte for byte, and the theorems that tie separately computed facts
together.

The digest (tests/data/facts_digest.json, rewritten by
tests/data/regen_facts_digest.py) pins every report, scan line and resumed
record of a fixed grid and of fixed large q; a deliberate output change
regenerates it.  The theorems hold at every q, so they guard the class
numbers and units where the brute oracles cannot reach: on the full fast
certificates of the grid's family triples and of the digest's decades.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from pratcert.quadratic import GE3, make_field
from _oracles import brute_factor

DATA = Path(__file__).resolve().parent / "data"

_spec = importlib.util.spec_from_file_location("regen_facts_digest", DATA / "regen_facts_digest.py")
assert _spec is not None and _spec.loader is not None
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_facts_digest_is_unchanged() -> None:
    expected = json.loads((DATA / "facts_digest.json").read_text(encoding="utf-8"))
    fresh = regen.compute()
    assert [key for key in expected if fresh.get(key) != expected[key]] == []
    assert fresh.keys() == expected.keys()


def _genus_order(disc: int) -> int:
    # 2^(t-1), t the number of primes dividing the discriminant
    return 2 ** (len(brute_factor(abs(disc))) - 1)


def test_full_fast_certificates_obey_genus_and_norm_theorems() -> None:
    reports = [
        report
        for p in regen.GRID_P
        for d in regen.GRID_D
        for report in regen.reports(p, d, regen.GRID_Q, "fast")
        if not report.invalid
    ]
    assert len(reports) == 105
    reports += [report for decade in regen.decade_reports("fast") for report in decade]
    for report in reports:
        p, q, d, facts = report.p, report.q, report.d, report.facts
        where = (p, q, d)
        # genus theory: the genus group, of order 2^(t-1), is a quotient of
        # the class group, and for a real field of the narrow one
        for m, fact in ((-d, "h_imag_d"), (-d * p * q, "h_imag_dpq"), (p * q, "h_plus_real_pq")):
            assert facts[fact] % _genus_order(make_field(m).disc) == 0, (where, fact)
        # narrow against wide: h+ = h when the unit has norm -1, else 2h
        norm = facts["unit_norm"]
        assert norm in (-1, 1), where
        assert facts["h_plus_real_pq"] == (1 if norm == -1 else 2) * facts["h_real_pq"], where
        # docs/algorithms.md section 2.3: v(eps^2 - 1) above a ramified prime
        for fact in ("v_p_val", "v_q_val"):
            v = facts[fact]
            if norm == -1:
                assert v == 0, (where, fact)
            else:
                assert v == GE3 or (type(v) is int and v % 2 == 1), (where, fact)
