"""The frontier seeds in tests/data/frontier.json: each answers its value or refuses at once."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers_oracle import labelled_datum
from tracestab.errors import TraceStabError
from tracestab.sigma import sigma
from tracestab.weylcoset import i_number, untwisted_component

ROWS = json.loads((Path(__file__).with_name("data") / "frontier.json").read_text())["rows"]
CALLS = {"sigma": sigma, "i_number": lambda d: i_number(untwisted_component(d))}


@pytest.mark.parametrize("row", ROWS, ids=[f"{row['call']}-{row['input']['type']}-"
                                           f"{row['input']['form']}" for row in ROWS])
def test_frontier_row(row):
    """The row's exact value, or, unless the row is strict, its refusal within 1 s."""
    assert row["strict"] == ("refusal" not in row) and row["provenance"]["commit"]
    d = labelled_datum(row["input"]["type"], "given", row["input"]["form"])
    start = time.perf_counter()
    try:
        value = CALLS[row["call"]](d)
    except TraceStabError as refusal:
        assert not row["strict"] and type(refusal).__name__ == row["refusal"], refusal
        assert time.perf_counter() - start < 1
    else:
        assert value == Fraction(row["value"])
