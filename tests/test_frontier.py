"""The frontier seeds in tests/data/frontier.json: each answers its value or refuses at once."""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from helpers_oracle import labelled_datum
from tracestab.errors import TraceStabError
from tracestab.sigma import e_number, sigma
from tracestab.weylcoset import component, i_number, untwisted_component

ROWS = json.loads((Path(__file__).with_name("data") / "frontier.json").read_text())["rows"]
CALLS = {"sigma": lambda c: sigma(c.base), "i_number": i_number,
         "e_number": lambda c: e_number(c)[0]}


def _component(row):
    """The row's component: its datum, twisted by its θ if it has one."""
    d = labelled_datum(row["input"]["type"], "given", row["input"]["form"])
    theta = row["input"].get("theta")
    return untwisted_component(d) if theta is None else component(d, theta)


@pytest.mark.parametrize("row", ROWS, ids=[f"{row['call']}-{row['input']['type']}-"
                                           f"{row['input']['form']}"
                                           + ("-twisted" if "theta" in row["input"] else "")
                                           for row in ROWS])
def test_frontier_row(row):
    """The row's exact value, or, unless the row is strict, its refusal within 1 s."""
    assert row["strict"] == ("refusal" not in row) and row["provenance"]["commit"]
    c = _component(row)
    start = time.perf_counter()
    try:
        value = CALLS[row["call"]](c)
    except TraceStabError as refusal:
        assert not row["strict"] and type(refusal).__name__ == row["refusal"], refusal
        assert time.perf_counter() - start < 1
    else:
        assert value == Fraction(row["value"])
