"""Regenerate tests/data/cli_transcript.json from the command line as it is.

Each entry's argv is run through pratcert.cli.main with stdout and stderr
captured, and the entry is rewritten as argv, exit, stdout, stderr, in that
key order; the file keeps its entries in their order and its JSON layout.
The argv of every entry whose exit, stdout or stderr changed is printed.  A
new entry needs only its argv: add {"argv": "..."} to the file and run

    PYTHONPATH=src python tests/data/regen_cli_transcript.py

from the root of the repository.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from pratcert.cli import main

TRANSCRIPT = Path(__file__).resolve().parent / "cli_transcript.json"


def record(argv: str) -> dict[str, object]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def regenerate(path: Path = TRANSCRIPT) -> list[str]:
    """Rewrite the transcript at path; return the argv of each changed entry."""
    entries = json.loads(path.read_text(encoding="utf-8"))
    fresh = [record(entry["argv"]) for entry in entries]
    path.write_text(json.dumps(fresh, indent=1) + "\n", encoding="utf-8")
    return [new["argv"] for old, new in zip(entries, fresh) if old != new]


if __name__ == "__main__":
    for argv in regenerate():
        print(argv)
