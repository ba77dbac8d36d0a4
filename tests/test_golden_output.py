"""Golden CLI output: SHA-256 digests of stdout and stderr and the exit code of a fixed command list.

Every command runs in process through ``cli.main``, from the repository root
(the datum files under ``tests/data`` are named relative to it) and with
``COLUMNS=80`` so that the help texts wrap the same way on every terminal.
The recorded digests in
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
ROOT = Path(__file__).resolve().parent.parent

# Datum files under tests/data: a B2 × G2 × A2 whose factors' simple roots interleave
# (0,3 / 1,4 / 2,5); F4, E6 and E7 simply connected, whose σ recurses through marks
# 2 to 4; and E8 simply connected, which σ refuses.
PRODUCT = "tests/data/b2_g2_a2_interleaved.json"
EXCEPTIONAL = ("tests/data/f4.json", "tests/data/e6_sc.json", "tests/data/e7_sc.json")
E8_SC = "tests/data/e8_sc.json"
# SL3 under the coordinate swap, an outer twist that ``elliptic`` and ``verify ei``
# refuse; and a model set whose discrete sets come from the central torus: GL1
# inverted with dim S_M = 1, a rank-2 torus inverted on one coordinate, and SL2 × SL2
# swapped.
SL3_SWAP = "tests/data/sl3_swap.json"
CENTRAL_TORUS_MODELS = "tests/data/central_torus_models.json"
# The O2 and SL2 fixtures with a nontrivial Z̄ = ⟨1/2⟩ in every descriptor: |S̄° ∩ Z̄| is 1
# on the inverted GL1 component and 2 on both untwisted SL2 components.
ZBAR_DESCRIPTORS = "tests/data/zbar_descriptors.json"

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
    out += [[*path.split(), "--group", PRODUCT] for path in ("sigma", "i-number", "elliptic",
                                                              "verify ei")]
    out += [["sigma", "--group", path] for path in (*EXCEPTIONAL, E8_SC)]
    out += [[*path.split(), "--group", SL3_SWAP] for path in ("i-number", "elliptic", "verify ei")]
    out += [["stabilize", "verify", "--models", path, "--trials", "2"]
            for path in (CENTRAL_TORUS_MODELS, ZBAR_DESCRIPTORS)]
    return out


def digest(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              mock.patch.dict(os.environ, {"COLUMNS": "80"})):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help prints and exits
                code = exc.code
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr_sha256": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def test_cli_output_matches_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    assert [r["argv"] for r in recorded] == commands()
    for entry in recorded:
        assert digest(entry["argv"]) == entry, entry["argv"]


if __name__ == "__main__":
    sys.stdout.write("[\n" + ",\n".join(json.dumps(digest(a)) for a in commands()) + "\n]\n")
