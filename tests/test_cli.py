import json
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

import pytest

from helpers_oracle import classical_datum, datum_from_cartan, e_cartan, oracle_packet_checks
from tracestab import catalog, cli_packets, stabilize
from tracestab.packets import ParameterModel, TwoGroup, with_flipped_pairing
from tracestab.cli import (
    EXIT_MALFORMED,
    EXIT_MISSING_FILE,
    EXIT_MODULE_ERROR,
    EXIT_OK,
    fmt_q,
    main,
    parse_args,
)


def _run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "tracestab.cli", *args],
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_args_examples():
    cfg = parse_args(["i-number", "--group", "sl2.json"])
    assert cfg.subcommand == "i-number" and cfg.group == "sl2.json"
    cfg = parse_args(["sigma", "--catalog"])
    assert cfg.subcommand == "sigma" and cfg.catalog_flag
    cfg = parse_args(["verify", "stabilization", "--models", "m.json", "--seed", "7"])
    assert cfg.subcommand == "verify" and cfg.target == "stabilization"
    assert cfg.seed == 7 and cfg.trials == 100
    cfg = parse_args(["verify", "central-quotient", "--group", "sl2", "--z", "z.json"])
    assert cfg.target == "central-quotient" and cfg.z == "z.json" and not hasattr(cfg, "theta")
    cfg = parse_args(["verify", "ei", "--group", "sl2", "--format", "tsv"])
    assert cfg.target == "ei" and cfg.fmt == "tsv" and not hasattr(cfg, "models")
    cfg = parse_args(["packets", "--model", "m.json", "verify"])
    assert cfg.target == "verify" and cfg.model == "m.json" and cfg.trials == 100


def test_seed_and_trials_defaults():
    cfg = parse_args(["stabilize", "verify"])
    assert cfg.seed == 0 and cfg.trials == 100 and cfg.models == "fixtures"


@pytest.mark.parametrize("argv", [
    ["packets", "verify", "--model", "m.json", "--trials", "-3"],
    ["stabilize", "verify", "--trials", "-1"],
    ["verify", "stabilization", "--trials", "-1"],
])
def test_negative_trials_is_a_usage_error(tmp_path, capsys, argv):
    (tmp_path / "m.json").write_text(json.dumps({"sM_dim": 1, "r_dim": 1}))
    argv = [str(tmp_path / a) if a == "m.json" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--trials" in err and "non-negative" in err


def test_zero_trials_still_runs(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"sM_dim": 1, "r_dim": 1}))
    assert main(["packets", "verify", "--model", str(model), "--trials", "0"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["pass"]
    assert main(["stabilize", "verify", "--trials", "0"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["trials"] == 0


def test_stabilize_verify_computes_each_value_once(monkeypatch, capsys):
    """One discrete part per test vector, i_φ once per (model, x) besides the weights, e once
    per component."""
    calls = {"discrete_part": 0, "i_phi": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(stabilize, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(stabilize, name, counted)
    stabilize._elliptic_sum.cache_clear()
    assert main(["stabilize", "verify", "--trials", "3"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["pass"]
    models = catalog.fixture_models()
    assert calls["discrete_part"] == 4
    # discrete_weights reads i_φ at ι(τ) for each of the |S| rows τ; the report once per x.
    assert calls["i_phi"] == sum(2 * m.s_size for m in models)
    components = {m.component_at(x) for m in models for x in m.s_elements()}
    assert stabilize._elliptic_sum.cache_info().misses == len(components)


def test_unknown_subcommand_exits_2():
    rc, _, _ = _run_cli(["frobnicate"])
    assert rc == 2


def test_missing_file_exits_3():
    rc, _, err = _run_cli(["sigma", "--group", "/nonexistent/nowhere.json"])
    assert rc == EXIT_MISSING_FILE


@pytest.mark.parametrize("args", [["packets", "verify", "--model"], ["sigma", "--group"]])
def test_directory_input_exits_3_without_traceback(tmp_path, args):
    rc, out, err = _run_cli([*args, str(tmp_path)])
    assert rc == EXIT_MISSING_FILE
    assert out == b"" and b"Traceback" not in err


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100_000],
                         ids=["not-utf-8", "nested-100000-deep"])
def test_undecodable_or_overdeep_json_exits_4_without_traceback(tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    rc, out, err = _run_cli(["sigma", "--group", str(bad)])
    assert rc == EXIT_MALFORMED and out == b"" and b"Traceback" not in err
    assert json.loads(err)["error"]["kind"] == "malformed-input"


def test_malformed_json_exits_4(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc, _, _ = _run_cli(["sigma", "--group", str(bad)])
    assert rc == EXIT_MALFORMED


def test_unknown_fields_rejected(tmp_path):
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({"rank": 1, "simple_roots": [[2]],
                                "simple_coroots": [[1]], "color": "red"}))
    rc, _, _ = _run_cli(["sigma", "--group", str(spec)])
    assert rc == EXIT_MALFORMED


def test_floats_rejected(tmp_path):
    spec = tmp_path / "g.json"
    spec.write_text('{"rank": 1, "simple_roots": [[2.0]], "simple_coroots": [[1]]}')
    rc, _, _ = _run_cli(["sigma", "--group", str(spec)])
    assert rc == EXIT_MALFORMED


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_internal_error_is_not_reported_as_malformed_input(monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("internal")

    # The CLI calls sigma through its defining module, so patch it there.
    monkeypatch.setattr(sys.modules["tracestab.sigma"], "sigma", broken)
    # The error propagates (a process would exit 1 with a traceback); run()
    # does not turn it into exit 4.
    with pytest.raises(error):
        main(["sigma", "--group", "sl2"])


DESCRIPTOR = {"group_label": "g", "model_id": "m", "x": "1", "class_index": 0,
              "out_card": 1, "out_phi_card": 1, "zbar_generators": [], "sprime": "sl2",
              "splus_over_s_card": 1, "s_phi_prime_card": 1}
MODEL = {"id": "m", "sM_dim": 1, "r_dim": 0,
         "dual_group": {"base": "sl2", "thetas": {"0": [[1]], "1": [[-1]]}}}


@pytest.mark.parametrize("args,name,content", [
    (["sigma", "--group"], "g.json", {"rank": 1, "simple_roots": [[2]]}),
    (["stabilize", "verify", "--models"], "m.json", {"models": 5}),
    (["stabilize", "verify", "--models"], "m.json", {"models": [MODEL], "descriptors": [
        {**DESCRIPTOR, "zbar_generators": 5}]}),
    (["stabilize", "verify", "--models"], "m.json", {"models": [MODEL], "descriptors": [
        {k: v for k, v in DESCRIPTOR.items() if k != "sprime"}]}),
    (["verify", "central-quotient", "--group", "sl2", "--z"], "z.json", {"generators": 1}),
    (["verify", "central-quotient", "--group", "sl2", "--z"], "z.json",
     {"generators": [["1/0"]]}),
    (["stabilize", "verify", "--models"], "m.json", {"models": [
        {**MODEL, "dual_group": {"base": "sl2", "thetas": []}}]}),
    (["stabilize", "verify", "--models"], "m.json", {"models": [
        {"id": "m", "sM_dim": 1, "r_dim": 0}], "descriptors": [DESCRIPTOR]}),
    # JSON true/false are bools, which Python counts as integers; none is one here.
    (["sigma", "--group"], "g.json", {"rank": True, "simple_roots": [[2]],
                                      "simple_coroots": [[1]]}),
    (["sigma", "--group"], "g.json", {"rank": 1, "simple_roots": [[2]],
                                      "simple_coroots": [[True]]}),
    (["verify", "central-quotient", "--group", "sl2", "--z"], "z.json",
     {"generators": [[True]]}),
    (["stabilize", "verify", "--models"], "m.json", {"models": [
        {**MODEL, "dual_group": {"base": "sl2", "thetas": {"0": [[1]], "1": [[True]]}}}]}),
    # A list of one bitstring is not a bitstring.
    (["stabilize", "verify", "--models"], "m.json", {"models": [MODEL], "descriptors": [
        {**DESCRIPTOR, "x": ["1"]}]}),
], ids=["missing-rank", "models-not-a-list", "generators-not-a-list", "missing-sprime",
        "generators-int", "bad-rational", "thetas-not-an-object", "descriptor-without-dual",
        "rank-bool", "matrix-bool", "generator-bool", "theta-bool", "x-list"])
def test_wrongly_shaped_input_exits_4_without_traceback(tmp_path, args, name, content):
    path = tmp_path / name
    path.write_text(json.dumps(content))
    rc, out, err = _run_cli([*args, str(path)])
    assert rc == EXIT_MALFORMED and out == b""
    assert b"Traceback" not in err
    assert json.loads(err)["error"]["kind"] == "malformed-input"


def test_duplicate_model_ids_exit_4_without_traceback(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"models": [{"sM_dim": 0, "r_dim": 0, "id": "a"},
                                           {"sM_dim": 0, "r_dim": 0, "id": "a"}]}))
    rc, out, err = _run_cli(["stabilize", "verify", "--models", str(path)])
    assert rc == EXIT_MALFORMED and out == b""
    assert b"Traceback" not in err
    assert json.loads(err)["error"] == {"kind": "malformed-input",
                                        "detail": "model ids must be unique"}


def test_module_error_exits_5(tmp_path):
    spec = tmp_path / "g.json"
    # Valid JSON, invalid Cartan data.
    spec.write_text(json.dumps({"rank": 1, "simple_roots": [[1]],
                                "simple_coroots": [[1]]}))
    rc, _, err = _run_cli(["sigma", "--group", str(spec)])
    assert rc == EXIT_MODULE_ERROR
    assert b"NonCartan" in err


def test_sigma_group_sl2():
    rc, out, _ = _run_cli(["sigma", "--group", "sl2"])
    assert rc == EXIT_OK
    assert json.loads(out)["sigma"] == "-1/8"


def test_sigma_group_from_file(tmp_path):
    spec = tmp_path / "sl2.json"
    spec.write_text(json.dumps({"rank": 1, "simple_roots": [[2]],
                                "simple_coroots": [[1]]}))
    rc, out, _ = _run_cli(["sigma", "--group", str(spec)])
    assert rc == EXIT_OK and json.loads(out)["sigma"] == "-1/8"


def test_sigma_catalog_tsv():
    rc, out, _ = _run_cli(["sigma", "--catalog", "--format", "tsv"])
    assert rc == EXIT_OK
    lines = out.decode().strip().split("\n")
    assert len(lines) == 10
    for line in lines:
        key, ctype, value = line.split("\t")
        assert "/" in value
    # One row per catalog datum, sorted by name: Cartan type, |π₀ Z|, central rank.
    assert [line.split("\t")[0] for line in lines] == [
        "datum;v2;types=G2;z=1;central=0",
        "datum;v2;types=;z=1;central=1",
        "datum;v2;types=A1;z=1;central=0",
        "datum;v2;types=A2;z=1;central=0",
        "datum;v2;types=A1;z=2;central=0",
        "datum;v2;types=A1,A1;z=4;central=0",
        "datum;v2;types=A2;z=3;central=0",
        "datum;v2;types=B2;z=1;central=0",
        "datum;v2;types=B2;z=2;central=0",
        "datum;v2;types=;z=1;central=0",
    ]


def test_i_number_group_file_with_theta(tmp_path):
    spec = tmp_path / "o2.json"
    spec.write_text(json.dumps({
        "group": {"rank": 1, "simple_roots": [], "simple_coroots": []},
        "theta": [[-1]],
    }))
    rc, out, _ = _run_cli(["i-number", "--group", str(spec)])
    assert rc == EXIT_OK and json.loads(out)["i"] == "+1/2"


def test_separate_theta_file(tmp_path):
    group = tmp_path / "gl1.json"
    group.write_text(json.dumps({"rank": 1, "simple_roots": [],
                                 "simple_coroots": []}))
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"theta": [[-1]]}))
    rc, out, _ = _run_cli(["i-number", "--group", str(group),
                           "--theta", str(theta)])
    assert rc == EXIT_OK and json.loads(out)["i"] == "+1/2"


def test_verify_ei_gl1():
    rc, out, _ = _run_cli(["verify", "ei", "--group", "gl1"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["e"] == "0/1" and obj["i"] == "0/1" and obj["equal"]


def test_verify_central_quotient(tmp_path):
    z = tmp_path / "z.json"
    z.write_text(json.dumps({"generators": [["1/2"]]}))
    rc, out, _ = _run_cli(["verify", "central-quotient", "--group", "sl2",
                           "--z", str(z)])
    assert rc == EXIT_OK and json.loads(out)["pass"]


def test_elliptic_json_and_tsv():
    rc, out, _ = _run_cli(["elliptic", "--group", "sl2"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["count"] == 2
    assert obj["classes"][0]["rep"] == ["0/1"]
    rc, out, _ = _run_cli(["elliptic", "--group", "o2_twist", "--format", "tsv"])
    assert rc == EXIT_OK
    assert out.decode().strip().split("\t")[1] == "2"


def test_packets_verify(tmp_path):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"sM_dim": 1, "r_dim": 1}))
    rc, out, _ = _run_cli(["packets", "verify", "--model", str(model),
                           "--trials", "5"])
    assert rc == EXIT_OK
    assert json.loads(out)["pass"]


def test_packets_verify_with_dual_group(tmp_path):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "sM_dim": 0, "r_dim": 1, "id": "o2",
        "dual_group": {"base": "gl1", "thetas": {"0": [[1]], "1": [[-1]]}},
    }))
    rc, out, _ = _run_cli(["packets", "verify", "--model", str(model),
                           "--trials", "3"])
    assert rc == EXIT_OK and json.loads(out)["pass"]


@pytest.mark.parametrize("dims", [{"sM_dim": -1, "r_dim": 1}, {"sM_dim": True, "r_dim": 1},
                                  {"sM_dim": 1, "r_dim": -2}, {"sM_dim": 1, "r_dim": "1"}])
def test_packets_verify_malformed_dimensions_exit_4(tmp_path, dims):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(dims))
    rc, out, err = _run_cli(["packets", "verify", "--model", str(model)])
    assert rc == EXIT_MALFORMED and out == b""
    assert b"Traceback" not in err
    assert json.loads(err)["error"]["kind"] == "malformed-input"


@pytest.mark.parametrize("dims", [{"sM_dim": 40, "r_dim": 0}, {"sM_dim": 0, "r_dim": 40},
                                  {"sM_dim": 5, "r_dim": 4}])
def test_packets_verify_oversized_dimensions_exit_4_quickly(tmp_path, dims):
    assert dims["sM_dim"] + dims["r_dim"] > cli_packets.MAX_PACKET_DIM >= 6
    model = tmp_path / "m.json"
    model.write_text(json.dumps(dims))
    proc = subprocess.run([sys.executable, "-m", "tracestab.cli", "packets", "verify",
                           "--model", str(model)], capture_output=True, timeout=60)
    assert proc.returncode == EXIT_MALFORMED and proc.stdout == b""
    assert b"above the limit" in proc.stderr and b"Traceback" not in proc.stderr


def test_sigma_on_e8_exits_5_quickly(tmp_path):
    group = tmp_path / "e8.json"
    ident = [[int(i == j) for j in range(8)] for i in range(8)]
    group.write_text(json.dumps({"rank": 8, "simple_roots": e_cartan(8),
                                 "simple_coroots": ident}))
    proc = subprocess.run([sys.executable, "-m", "tracestab.cli", "sigma", "--group", str(group)],
                          capture_output=True, timeout=60)
    assert proc.returncode == EXIT_MODULE_ERROR and proc.stdout == b""
    error = json.loads(proc.stderr)["error"]
    assert error["kind"] == "WeylGroupTooLarge"
    assert "W(E8)" in error["detail"] and "696729600" in error["detail"]


def _datum_file(path, d):
    path.write_text(json.dumps({"rank": d.rank, "simple_roots": d.simple_roots,
                                "simple_coroots": d.simple_coroots}))
    return str(path)


@pytest.mark.parametrize("name,d", [("e8", datum_from_cartan(e_cartan(8), "sc")),
                                    ("b20", classical_datum("B", 20, "sc"))],
                         ids=["E8", "B20"])
def test_elliptic_refuses_orbits_past_the_limit_quickly(tmp_path, name, d):
    proc = subprocess.run([sys.executable, "-m", "tracestab.cli", "elliptic", "--group",
                           _datum_file(tmp_path / f"{name}.json", d)],
                          capture_output=True, timeout=60)
    assert proc.returncode == EXIT_MODULE_ERROR and proc.stdout == b""
    error = json.loads(proc.stderr)["error"]
    assert error["kind"] == "WeylGroupTooLarge" and "above the limit 51840" in error["detail"]


@pytest.mark.parametrize("n,form,expected", [
    (6, "sc", "14317/629856"), (6, "ad", "14317/209952"),
    (7, "sc", "-24826523/509607936"), (7, "ad", "-24826523/254803968"),
], ids=["E6-sc", "E6-ad", "E7-sc", "E7-ad"])
def test_sigma_on_e6_and_e7(tmp_path, capsys, n, form, expected):
    group = _datum_file(tmp_path / f"e{n}.json", datum_from_cartan(e_cartan(n), form))
    assert main(["sigma", "--group", group]) == EXIT_OK
    out, err = capsys.readouterr()
    assert json.loads(out) == {"sigma": fmt_q(Fraction(expected))} and err == ""


@pytest.mark.parametrize("form", ["sc", "ad"])
def test_verify_ei_passes_on_e7(tmp_path, capsys, form):
    group = _datum_file(tmp_path / "e7.json", datum_from_cartan(e_cartan(7), form))
    assert main(["verify", "ei", "--group", group]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["equal"] and report["e"] == report["i"] == fmt_q(Fraction(-1150651, 10616832))


@pytest.mark.parametrize("name,d,label,order", [
    ("e8", datum_from_cartan(e_cartan(8), "sc"), "E8", 696729600),
    ("b8", classical_datum("B", 8, "sc"), "B8", 10321920),
], ids=["E8", "B8"])
def test_i_number_past_w_e7_exits_5_quickly(tmp_path, name, d, label, order):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "tracestab.cli", "i-number", "--group",
                           _datum_file(tmp_path / f"{name}.json", d)],
                          capture_output=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert proc.returncode == EXIT_MODULE_ERROR and proc.stdout == b""
    error = json.loads(proc.stderr)["error"]
    assert error["kind"] == "WeylGroupTooLarge"
    assert error["detail"] == f"W({label}) has order {order}, above the limit 2903040"


def test_sigma_past_rank_32_refuses_the_weyl_group_not_the_datum(tmp_path, capsys):
    """B33 is of finite type; σ refuses it for the order of W(B33), as it does B8."""
    group = _datum_file(tmp_path / "b33.json", classical_datum("B", 33, "sc"))
    assert main(["sigma", "--group", group]) == EXIT_MODULE_ERROR
    out, err = capsys.readouterr()
    error = json.loads(err)["error"]
    assert out == "" and error["kind"] == "WeylGroupTooLarge"
    assert error["detail"] == (f"W(B33) has order {2 ** 33 * factorial(33)}, "
                               "above the limit 2903040")


@pytest.mark.parametrize("argv", [
    ["verify", "central-quotient", "--group", "sl2", "--theta", "t.json", "--z", "z.json"],
    ["verify", "stabilization", "--group", "g.json"],
    ["verify", "ei", "--group", "sl2", "--z", "z.json"],
    ["report", "--format", "json"],
    ["packets", "verify", "--model", "m.json", "--format", "json"],
    ["stabilize", "verify", "--format", "json"],
    ["verify", "stabilization", "--format", "json"],
    ["verify", "central-quotient", "--group", "sl2", "--z", "z.json", "--format", "json"],
])
def test_verify_targets_refuse_options_they_do_not_read(tmp_path, capsys, argv):
    (tmp_path / "t.json").write_text(json.dumps({"theta": [[-1]]}))
    (tmp_path / "z.json").write_text(json.dumps({"generators": []}))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments" in err


def _assert_packets_verify_passes(tmp_path, capsys, sm, r, trials):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"sM_dim": sm, "r_dim": r}))
    assert main(["packets", "verify", "--model", str(model), "--trials", str(trials)]) == EXIT_OK
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == {"route_agreement": True, "scaling_law": True,
                      "adjoint_relations": True, "transfer_roundtrip": True}


@pytest.mark.parametrize("sm, r", [(3, 3), (2, 4)])
def test_packets_verify_order_64(tmp_path, capsys, sm, r):
    _assert_packets_verify_passes(tmp_path, capsys, sm, r, 2)


@pytest.mark.parametrize("sm, r", [(4, 4), (0, 8)])
def test_packets_verify_at_the_size_limit(tmp_path, capsys, sm, r):
    assert sm + r == cli_packets.MAX_PACKET_DIM
    _assert_packets_verify_passes(tmp_path, capsys, sm, r, 1)


def _packet_model(sm, r):
    return ParameterModel(f"m{sm}{r}", TwoGroup(sm), TwoGroup(r))


SMALL_SHAPES = [(sm, r) for sm in range(5) for r in range(5) if sm + r <= 4]


@pytest.mark.parametrize("sm, r", SMALL_SHAPES)
def test_integer_packet_checks_equal_the_fraction_oracle(sm, r):
    m = _packet_model(sm, r)
    for seed in range(3):
        assert cli_packets._packet_checks(m, seed, 3) == oracle_packet_checks(m, seed, 3)


@pytest.mark.parametrize("sm, r", [s for s in SMALL_SHAPES if sum(s) <= 3])
def test_integer_packet_checks_equal_the_oracle_on_every_flip(sm, r):
    m = _packet_model(sm, r)
    for char in m.s_elements():
        for x in m.s_elements():
            bad = with_flipped_pairing(m, char, x)
            assert cli_packets._packet_checks(bad, 0, 2) == oracle_packet_checks(bad, 0, 2)


def _negate_entry(table):
    return ((-table[0][0],) + table[0][1:],) + table[1:]


def _double_row(table):
    return table[:2] + (tuple(2 * n for n in table[2]),) + table[3:]


def _swap_rows(table):
    return (table[1], table[0]) + table[2:]


def _fill_zero_entry(table):
    # Row (η, r) = (0, 0) is zero at every x with x_R ≠ 0, such as x = (0, 1).
    return ((table[0][0], table[0][1] + 1) + table[0][2:],) + table[1:]


def test_integer_packet_checks_catch_a_corrupted_table():
    # Planted in the cached table itself, so the check reads the same numbers as
    # the Fraction factors; between them the corruptions fail every integer check.
    # On (0, 2) each row has one nonzero entry, so a doubled row moves only a norm.
    failed = set()
    for corrupt in (_negate_entry, _double_row, _swap_rows, _fill_zero_entry):
        for sm, r in [(0, 2), (1, 2), (2, 1)]:
            m = _packet_model(sm, r)
            vars(m)["transfer_numerators"] = corrupt(m.transfer_numerators)
            checks = cli_packets._packet_checks(m, 5, 2)
            assert checks == oracle_packet_checks(m, 5, 2)
            assert not checks["route_agreement"] and checks["scaling_law"]
            failed |= {key for key, ok in checks.items() if not ok}
    assert failed == {"route_agreement", "adjoint_relations", "transfer_roundtrip"}


def test_stabilize_verify_fixtures():
    rc, out, _ = _run_cli(["stabilize", "verify", "--trials", "3"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["pass"]
    names = {item["identity"] for item in obj["identities"]}
    assert any(n.startswith("discrete=stable") for n in names)
    assert any(n.startswith("endoscopic=discrete") for n in names)


def test_stabilize_verify_documented_fixture_value():
    rc, out, _ = _run_cli(["stabilize", "verify", "--trials", "0"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    first = obj["identities"][0]
    assert first["identity"] == "discrete=stable[0]"
    # Fixture sum with f = 1: o2 gives 1/4, sl2 model -1/4, swap -1/8+..., etc.
    assert first["lhs"] == first["rhs"]


def test_stabilize_verify_models_file(tmp_path):
    models = tmp_path / "models.json"
    models.write_text(json.dumps({
        "models": [{
            "sM_dim": 0, "r_dim": 1, "id": "o2",
            "dual_group": {"base": "gl1", "thetas": {"0": [[1]], "1": [[-1]]}},
        }],
        "descriptors": [{
            "group_label": "u1", "model_id": "o2", "x": "1", "class_index": 0,
            "out_card": 2, "out_phi_card": 2, "zbar_generators": [["1/2"]],
            "sprime": "trivial", "splus_over_s_card": 2, "s_phi_prime_card": 1,
        }],
    }))
    rc, out, _ = _run_cli(["stabilize", "verify", "--models", str(models),
                           "--trials", "4", "--seed", "3"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["pass"]
    # The documented fixture vector (f = 1) gives 1/4 on both sides.
    first = obj["identities"][0]
    assert first["lhs"] == {"im": "0/1", "re": "+1/4"}
    assert first["rhs"] == {"im": "0/1", "re": "+1/4"}


def test_determinism_byte_identical():
    rc1, out1, _ = _run_cli(["stabilize", "verify", "--seed", "42", "--trials", "10"])
    rc2, out2, _ = _run_cli(["stabilize", "verify", "--seed", "42", "--trials", "10"])
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2


def test_report_json_roundtrip():
    rc, out, _ = _run_cli(["stabilize", "verify", "--trials", "2"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    redumped = json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=2) + "\n"
    assert redumped.encode() == out


def test_fmt_q():
    assert fmt_q(Fraction(-1, 8)) == "-1/8"
    assert fmt_q(Fraction(1, 2)) == "+1/2"
    assert fmt_q(Fraction(0)) == "0/1"
    assert fmt_q(Fraction(2, 4)) == "+1/2"


def test_sigma_has_no_theta_option(tmp_path, capsys):
    theta = tmp_path / "theta.json"
    theta.write_text(json.dumps({"theta": [[-1]]}))
    with pytest.raises(SystemExit) as exc:
        main(["sigma", "--group", "sl2", "--theta", str(theta)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--theta" in err


def test_removed_threads_flag_exits_2_without_traceback():
    rc, out, err = _run_cli(["--threads", "2", "sigma", "--group", "sl2"])
    assert rc == 2
    assert b"Traceback" not in err and out == b""


def test_report_subcommand():
    rc, out, _ = _run_cli(["report"])
    assert rc == EXIT_OK
    obj = json.loads(out)
    assert obj["pass"]
    assert all(item["pass"] for item in obj["sections"]["e_equals_i"])
    sigmas = {item["name"]: item["sigma"] for item in obj["sections"]["sigma"]}
    assert sigmas["sl2"] == "-1/8" and sigmas["g2"] == "+151/864"
