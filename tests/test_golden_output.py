"""Golden CLI output: SHA-256 digests of stdout and the exit code of a fixed command list.

Every command runs in process through ``cli.main``, with ``COLUMNS=80`` so that
the help texts wrap the same way on every terminal.  The recorded digests in
``golden_digests.json`` pin the byte-identical output that every change must
keep; a change that means to alter an output re-records them with

    PYTHONPATH=src python tests/test_golden_output.py > tests/golden_digests.json

and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from tracestab import catalog
from tracestab.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

# Every command path of the CLI; each one's ``--help`` is pinned with the top-level one.
COMMAND_PATHS = ("i-number", "elliptic", "sigma", "verify ei", "verify central-quotient",
                 "verify stabilization", "packets verify", "stabilize verify", "report")


def commands() -> list[list[str]]:
    out = [["report", "--seed", "0"], ["report", "--seed", "7"],
           ["sigma", "--catalog"], ["sigma", "--catalog", "--format", "tsv"],
           ["stabilize", "verify"], ["stabilize", "verify", "--seed", "42"]]
    for name in catalog.component_names():
        out += [["elliptic", "--group", name], ["i-number", "--group", name],
                ["verify", "ei", "--group", name]]
    out += [["sigma", "--group", name] for name in catalog.datum_names()]
    out += [["--help"], ["verify", "--help"]]
    out += [[*path.split(), "--help"] for path in COMMAND_PATHS]
    return out


def digest(argv: list[str]) -> dict:
    buf = io.StringIO()
    with (contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()),
          mock.patch.dict(os.environ, {"COLUMNS": "80"})):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help prints and exits
            code = exc.code
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


def test_cli_output_matches_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    assert [r["argv"] for r in recorded] == commands()
    for entry in recorded:
        assert digest(entry["argv"]) == entry, entry["argv"]


if __name__ == "__main__":
    sys.stdout.write("[\n" + ",\n".join(json.dumps(digest(a)) for a in commands()) + "\n]\n")
