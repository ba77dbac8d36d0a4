"""Fuzz the CLI's JSON inputs: malformed files never end in a traceback.

Each example starts from a valid ``stabilize verify --models`` or
``packets verify --model`` document and breaks it: a value replaced by JSON
of the wrong type, a key dropped or added, two models with one id, a bad
component bitstring or a bad descriptor field.  The command runs in process
through ``cli.main``; it must return an exit code in 0–5 and write no
traceback.  Integers stay small, so every group has rank ≤ 2 or is tiny, and
|S| stays ≤ 64.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tracestab.cli import main

SCALARS = (st.none() | st.booleans() | st.integers(-2, 3)
           | st.text(alphabet="01ab/-", max_size=4) | st.sampled_from(["sl2", "gl1", "1/2"]))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(alphabet="abdimrs_", max_size=6), inner, max_size=3),
                    max_leaves=6)

O2 = {"id": "o2", "sM_dim": 0, "r_dim": 1,
      "dual_group": {"base": "gl1", "thetas": {"0": [[1]], "1": [[-1]]}}}
SL2 = {"id": "sl2phi", "sM_dim": 1, "r_dim": 0,
       "dual_group": {"base": "sl2", "thetas": {"0": [[1]], "1": [[1]]}}}
O2_DESCRIPTOR = {"group_label": "u1", "model_id": "o2", "x": "1", "class_index": 0,
                 "out_card": 2, "out_phi_card": 2, "zbar_generators": [["1/2"]],
                 "sprime": "trivial", "splus_over_s_card": 2, "s_phi_prime_card": 1}
SL2_DESCRIPTORS = [{"group_label": "principal:sl2phi" if (x, index) == ("0", 0)
                    else f"point:sl2phi:{x}:{index}", "model_id": "sl2phi", "x": x,
                    "class_index": index, "out_card": 1, "out_phi_card": 1,
                    "zbar_generators": [], "sprime": "sl2", "splus_over_s_card": 2,
                    "s_phi_prime_card": 2} for x in "01" for index in (0, 1)]
MODELS = {"models": [O2, SL2], "descriptors": [O2_DESCRIPTOR, *SL2_DESCRIPTORS]}
PACKET = {"id": "p", "sM_dim": 1, "r_dim": 1,
          "dual_group": {"base": {"rank": 1, "simple_roots": [[2]], "simple_coroots": [[1]]},
                         "thetas": {"00": [[1]], "10": [[1]], "01": [[1]], "11": [[1]]}}}
BAD_BITS = st.sampled_from(["", "2", "01", "111", "1a", "x"])
BAD_FIELDS = {"class_index": st.sampled_from([-1, 1, 7, True, "0", None]),
              "out_card": st.sampled_from([0, -2, 3, "2", [2]]),
              "out_phi_card": st.sampled_from([0, -1, 4, True, None]),
              "splus_over_s_card": st.sampled_from([0, -2, 1, "2"]),
              "s_phi_prime_card": st.sampled_from([0, -1, 2, {}]),
              "group_label": st.sampled_from([1, None, ["u1"], {"a": 1}, True]),
              "zbar_generators": st.sampled_from([[["1/0"]], [[1, 2]], [["1/3"]], [[]], "1/2"]),
              "sprime": st.sampled_from(["sl2", "nope", 3, {"rank": 1}]),
              "x": BAD_BITS, "model_id": st.sampled_from(["sl2phi", "none", 3, ["o2"]])}
SETTINGS = settings(max_examples=120, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _paths(obj, prefix=()):
    """Every (container path, key) pair of a JSON document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def broken(draw, valid):
    """A deep copy of a valid document with one to three mutations."""
    doc = json.loads(json.dumps(valid))
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(doc, dict) or not doc:
            break
        path, key = draw(st.sampled_from(list(_paths(doc))))
        holder = _at(doc, path)
        action = draw(st.sampled_from(["replace", "drop", "add", "rekey"]))
        if action == "replace":
            holder[key] = draw(JSON)
        elif action == "drop" and isinstance(holder, dict):
            del holder[key]
        elif action == "add" and isinstance(holder, dict):
            holder[draw(st.sampled_from(["extra", "id", "theta", "rank"]))] = draw(JSON)
        elif action == "rekey" and isinstance(holder, dict) and isinstance(holder[key], dict):
            holder[key][draw(BAD_BITS)] = [[1]]
    return doc


@st.composite
def broken_models(draw):
    """Stabilize inputs: generic breakage, duplicate ids or one bad descriptor field."""
    kind = draw(st.sampled_from(["generic", "duplicate", "descriptor"]))
    if kind == "generic":
        return draw(broken(MODELS))
    doc = json.loads(json.dumps(MODELS))
    if kind == "duplicate":
        doc["models"][1]["id"] = draw(st.sampled_from(["o2", "sl2phi"]))
        doc["models"].append(draw(st.sampled_from([O2, SL2])))
        return doc
    fields = draw(st.lists(st.sampled_from(sorted(BAD_FIELDS)), min_size=1, max_size=2))
    for name in fields:
        doc["descriptors"][0][name] = draw(BAD_FIELDS[name])
    return doc


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _check(tmp_path_factory, name, doc, argv):
    path = tmp_path_factory.getbasetemp() / name
    path.write_text(json.dumps(doc))
    code, err = _run([*argv, str(path)])
    assert code in range(6), (code, doc)
    assert "Traceback" not in err


@SETTINGS
@given(doc=broken_models())
def test_stabilize_models_fuzz_exits_0_to_5_without_traceback(tmp_path_factory, doc):
    _check(tmp_path_factory, "fuzz-models.json", doc,
           ["stabilize", "verify", "--trials", "1", "--models"])


@SETTINGS
@given(doc=broken(PACKET))
def test_packets_model_fuzz_exits_0_to_5_without_traceback(tmp_path_factory, doc):
    _check(tmp_path_factory, "fuzz-packet.json", doc,
           ["packets", "verify", "--trials", "1", "--model"])


def test_valid_fuzz_seeds_pass(tmp_path_factory):
    for name, doc, argv in (("models.json", MODELS, ["stabilize", "verify", "--models"]),
                            ("packet.json", PACKET, ["packets", "verify", "--model"])):
        path = tmp_path_factory.getbasetemp() / name
        path.write_text(json.dumps(doc))
        assert _run([*argv, str(path)]) == (0, "")
