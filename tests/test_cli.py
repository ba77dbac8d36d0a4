import json
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations, product

import pytest

from helpers_oracle import classical_datum, datum_from_cartan, e_cartan, oracle_packet_checks
from tracestab import catalog, cli, cli_packets, stabilize
from tracestab.packets import ParameterModel, TwoGroup, with_flipped_pairing
from tracestab.sigma import e_number
from tracestab.cli import (
    EXIT_MALFORMED,
    EXIT_MISSING_FILE,
    EXIT_MODULE_ERROR,
    EXIT_OK,
    MAX_FILE_RANK,
    _datum_from_obj,
    fmt_q,
    main,
    parse_args,
)


def _run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "tracestab.cli", *args],
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


# Runs tracestab.cli as ``__main__``, as ``python -m`` does (alter_sys is argv[1]), listing
# the executions of cli.py's module body and the name of the module ``tracestab.cli`` holds.
RUN_AS_MAIN = """
import json, os, runpy, sys
alter_sys = sys.argv[1] == "True"
runs = []
sys.addaudithook(lambda event, args: event == "exec"
                 and getattr(args[0], "co_filename", "").endswith(os.sep + "cli.py")
                 and runs.append(args[0].co_name))
sys.argv = ["tracestab", "sigma", "--group", "sl2"]
try:
    runpy.run_module("tracestab.cli", run_name="__main__", alter_sys=alter_sys)
except SystemExit as exc:
    print(json.dumps([exc.code, runs, sys.modules["tracestab.cli"].__name__]))
"""


@pytest.mark.parametrize("alter_sys, runs, holder", [
    (True, ["<module>"], "__main__"),
    # Without alter_sys the file runs in a bare namespace that no import can find.
    (False, ["<module>", "<module>"], "tracestab.cli"),
])
def test_running_the_module_as_main_runs_cli_once(alter_sys, runs, holder):
    # The command module's ``from .cli import …`` must find the running copy, not load another.
    proc = subprocess.run([sys.executable, "-c", RUN_AS_MAIN, str(alter_sys)],
                          capture_output=True, text=True, timeout=60)
    *report, last = proc.stdout.splitlines()
    assert json.loads("\n".join(report)) == {"sigma": "-1/8"}
    assert json.loads(last) == [0, runs, holder]


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


def _argparse_outcome(monkeypatch, argv):
    """What the argparse parser alone makes of ``argv``: its options, or its exit code."""
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_read_table", lambda args: None)
        try:
            return vars(parse_args(argv))
        except SystemExit as exc:
            return exc.code


# A valid value for each option that takes one.
VALID = {"--group": "sl2", "--theta": "theta.json", "--z": "z.json", "--model": "m.json",
         "--models": "models.json", "--seed": "7", "--trials": "0", "--format": "tsv"}


def _well_formed_lines():
    """Every command path with every subset of its options, in every order."""
    for path, _runner, options in cli.COMMANDS:
        flags = options.split()
        for k in range(len(flags) + 1):
            for chosen in permutations(flags, k):
                argv = path.split()
                for flag in chosen:
                    argv += [flag, VALID[flag]] if flag in VALID else [flag]
                yield argv
    # Values argparse takes as they stand: empty, spaced, a command word, signed, padded.
    yield from (["sigma", "--group", ""], ["i-number", "--group", "a b", "--theta", "verify"],
                ["report", "--seed", "+5"], ["stabilize", "verify", "--trials", " 3 "],
                ["verify", "ei", "--format", "json", "--group", "sigma"])


def test_the_table_reader_equals_argparse_on_every_well_formed_line(monkeypatch):
    checked = 0
    for argv in _well_formed_lines():
        expected = _argparse_outcome(monkeypatch, argv)
        config = cli._read_table(argv)
        if expected == 2:  # only a line without the required --model
            assert argv[:2] == ["packets", "verify"] and "--model" not in argv, argv
            assert config is None, argv
        else:
            assert vars(config) == expected, argv
            checked += 1
    assert checked == 119


# Lines the table reader hands to argparse, with what argparse makes of them: 2, or
# some of the options it reads.
HAND_OFF = [
    (["--help"], 0), (["-h"], 0), (["sigma", "-h"], 0), (["verify", "ei", "--help"], 0),
    (["stabilize", "verify", "--mod", "m.json"], {"models": "m.json"}),
    (["sigma", "--format=tsv", "--group", "sl2"], {"fmt": "tsv", "group": "sl2"}),
    (["sigma", "--group", "sl2", "--group", "pgl2"], {"group": "pgl2"}),
    (["sigma", "--catalog", "--catalog"], {"catalog_flag": True}),
    (["report", "--seed", "-3"], {"seed": -3}),
    (["packets", "--model", "m.json", "verify"], {"target": "verify", "model": "m.json"}),
    (["packets", "verify", "--model", "m.json", "--trials", "-1"], 2),
    (["stabilize", "verify", "--trials", "x"], 2), (["report", "--seed", "x"], 2),
    (["sigma", "--format", "xml"], 2), (["sigma", "--group", "sl2", "--theta", "x"], 2),
    (["--threads", "2", "sigma", "--group", "sl2"], 2), (["frobnicate"], 2), ([], 2),
    (["sigma", "--group"], 2), (["sigma", "extra"], 2), (["sigma", "--catalog", "yes"], 2),
    (["packets", "verify"], 2), (["verify", "nope"], 2), (["verify"], 2),
]


@pytest.mark.parametrize("argv, outcome", HAND_OFF)
def test_the_table_reader_hands_every_other_line_to_argparse(monkeypatch, argv, outcome):
    assert cli._read_table(argv) is None
    got = _argparse_outcome(monkeypatch, argv)
    if isinstance(outcome, dict):
        assert {key: got[key] for key in outcome} == outcome
    else:
        assert got == outcome


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
    e_number.cache_clear()
    assert main(["stabilize", "verify", "--trials", "3"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["pass"]
    models = catalog.fixture_models()
    assert calls["discrete_part"] == 4
    # discrete_weights reads i_φ at ι(τ) for each of the |S| rows τ; the report once per x.
    assert calls["i_phi"] == sum(2 * m.s_size for m in models)
    components = {m.component_at(x) for m in models for x in m.s_elements()}
    assert e_number.cache_info().misses == len(components)


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
    (["i-number", "--group"], "g.json", {"rank": -1, "simple_roots": [], "simple_coroots": []}),
    (["stabilize", "verify", "--models"], "m.json", {"models": [MODEL], "descriptors": [
        {**DESCRIPTOR, "sprime": {"rank": -2, "simple_roots": [], "simple_coroots": []}}]}),
    # Generators are a list of lists: a string is not read one character at a time.
    (["verify", "central-quotient", "--group", "sl2", "--z"], "z.json", {"generators": "12"}),
    (["verify", "central-quotient", "--group", "sl3", "--z"], "z.json", {"generators": ["12"]}),
    (["verify", "central-quotient", "--group", "sl2", "--z"], "z.json", {"generators": [1]}),
    (["stabilize", "verify", "--models"], "m.json", {"models": [MODEL], "descriptors": [
        {**DESCRIPTOR, "zbar_generators": "1"}]}),
    (["stabilize", "verify", "--models"], "m.json", {"models": [MODEL], "descriptors": [
        {**DESCRIPTOR, "zbar_generators": ["1"]}]}),
], ids=["missing-rank", "models-not-a-list", "generators-not-a-list", "missing-sprime",
        "generators-int", "bad-rational", "thetas-not-an-object", "descriptor-without-dual",
        "rank-bool", "matrix-bool", "generator-bool", "theta-bool", "x-list",
        "negative-rank", "negative-sprime-rank", "generators-string", "generator-string",
        "generator-int", "zbar-generators-string", "zbar-generator-string"])
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


@pytest.mark.parametrize("command", ["sigma", "verify central-quotient"])
def test_a_combined_files_theta_is_read_then_ignored(tmp_path, capsys, command):
    """σ does not depend on θ; a θ that is not an integer matrix is still malformed input."""
    z = tmp_path / "z.json"
    z.write_text(json.dumps({"generators": [["1/2"]]}))
    argv = command.split() + ([] if command == "sigma" else ["--z", str(z)])
    assert main([*argv, "--group", "sl2"]) == EXIT_OK
    plain = capsys.readouterr().out
    spec = tmp_path / "combined.json"
    for theta in ([[-1]], [[1, 0], [0, 1]]):  # the shape is not checked
        spec.write_text(json.dumps({"group": "sl2", "theta": theta}))
        assert main([*argv, "--group", str(spec)]) == EXIT_OK
        assert capsys.readouterr().out == plain
    for theta in ("junk", [1], [["1"]], [[True]]):
        spec.write_text(json.dumps({"group": "sl2", "theta": theta}))
        assert main([*argv, "--group", str(spec)]) == EXIT_MALFORMED
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"]["kind"] == "malformed-input"


@pytest.mark.parametrize("name,base,z,expected", [
    ("a1a1_swap", "sl2xsl2", [["1/2", "1/2"]], "+1/64"),
    ("o2_twist", "gl1", [["1/2"]], "0/1"),
], ids=["a1a1_swap", "o2_twist"])
def test_a_twisted_catalog_name_gives_its_base(tmp_path, capsys, monkeypatch, name, base, z,
                                              expected):
    """σ takes no twist, so a twisted name reads as its base unless a file has that name."""
    def out(*argv):
        assert main(list(argv)) == EXIT_OK
        return capsys.readouterr().out

    monkeypatch.chdir(tmp_path)
    (tmp_path / "z.json").write_text(json.dumps({"generators": z}))
    assert json.loads(out("sigma", "--group", name)) == {"sigma": expected}
    for argv in (["sigma"], ["verify", "central-quotient", "--z", "z.json"]):
        assert out(*argv, "--group", name) == out(*argv, "--group", base)
    classes = out("elliptic", "--group", name)
    (tmp_path / name).write_text(json.dumps(
        {"rank": 2, "simple_roots": [[2, -1], [-1, 2]], "simple_coroots": [[1, 0], [0, 1]]}))
    assert out("sigma", "--group", name) == out("sigma", "--group", "sl3")
    assert out("elliptic", "--group", name) == classes  # a twisted command reads the name first
    assert classes != out("elliptic", "--group", "sl3")


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


@pytest.mark.parametrize("name,d,outcome", [
    ("e8", datum_from_cartan(e_cartan(8), "sc"),
     {"kind": "WeylGroupTooLarge", "detail": "W(E8) has order 696729600, above the limit 2903040"}),
    ("b8", classical_datum("B", 8, "sc"), {"i": "+480675/8388608"}),
], ids=["E8", "B8"])
def test_i_number_past_w_e7_exits_5_quickly(tmp_path, name, d, outcome):
    """Past |W(E7)| = 2 903 040 E8 exits 5, and B8 answers in closed form; both within 2 s.

    i(B8) = Π_{k≤8}(4k − 3)/(4k); |W(B8)| = 10 321 920 is never walked.
    """
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "tracestab.cli", "i-number", "--group",
                           _datum_file(tmp_path / f"{name}.json", d)],
                          capture_output=True, timeout=60)
    assert time.perf_counter() - start < 2
    if "i" in outcome:
        assert proc.returncode == EXIT_OK and json.loads(proc.stdout) == outcome
        return
    assert proc.returncode == EXIT_MODULE_ERROR and proc.stdout == b""
    assert json.loads(proc.stderr)["error"] == outcome


def test_sigma_past_rank_32_refuses_the_weyl_group_not_the_datum(tmp_path, capsys):
    """B33 is read as a finite-type datum, and σ answers although |W(B33)| = 2³³·33!.

    σ(B33 ad) = σ(B33 sc)·2, the order of the center, with the adjoint value
    read off the closed forms of i(Bₖ) and i(Dₖ).
    """
    values = {}
    for form in ("sc", "ad"):
        group = _datum_file(tmp_path / f"b33_{form}.json", classical_datum("B", 33, form))
        assert main(["sigma", "--group", group]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        values[form] = Fraction(json.loads(out)["sigma"])
    assert values["ad"] == 2 * values["sc"] == Fraction(
        -105798249578494421672892780375075, 10384593717069655257060992658440192)


def test_group_file_rank_above_the_limit_is_malformed(tmp_path, capsys):
    """A rank above 256 is refused as it is read, before any rank² matrix is formed."""
    spec = {"rank": MAX_FILE_RANK, "simple_roots": [], "simple_coroots": []}
    assert MAX_FILE_RANK == 256 and _datum_from_obj(spec).rank == 256
    group = tmp_path / "torus.json"
    group.write_text(json.dumps(dict(spec, rank=MAX_FILE_RANK + 1)))
    assert main(["i-number", "--group", str(group)]) == EXIT_MALFORMED
    out, err = capsys.readouterr()
    error = json.loads(err)["error"]
    assert out == "" and error["kind"] == "malformed-input"
    assert error["detail"] == "rank 257 is above the limit 256"


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


@pytest.mark.parametrize("sm,r", [(sm, r) for sm in range(5) for r in range(5 - sm)])
def test_component_keys_round_trip(sm, r):
    """Every x of every shape with dim S_M + dim R ≤ 4 reads back from its key, and back again."""
    keys = set()
    for x in ParameterModel("m", TwoGroup(sm), TwoGroup(r)).s_elements():
        key = cli_packets._pair_to_bits(x, sm, r)
        assert cli_packets._bits_to_pair(key, sm, r) == x
        keys.add(key)
    assert keys == {"".join(bits) for bits in product("01", repeat=sm + r)}


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


def test_stabilize_verify_answers_on_an_inner_twist(tmp_path, capsys):
    """``MODEL``'s θ = −1 on SL2 lies in W, so its component has SL2's classes and e = i."""
    models = tmp_path / "models.json"
    models.write_text(json.dumps({"models": [MODEL]}))
    assert main(["stabilize", "verify", "--models", str(models), "--trials", "2"]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert obj["pass"] and [(row["x"], row["e"], row["i"]) for row in obj["e_equals_i"]] == [
        ("0", "-1/4", "-1/4"), ("1", "-1/4", "-1/4")]


S0_SWAP = [[0, -1], [1, 0]]  # s₀·swap on SL2 × SL2: same pinned part as the swap, order 4


def test_a_composite_factor_swap_answers(tmp_path, capsys):
    """θ = s₀·swap lies in G°·swap, so ``elliptic`` and ``verify ei`` read the swap's fold."""
    spec = tmp_path / "composite.json"
    spec.write_text(json.dumps({"group": "sl2xsl2", "theta": S0_SWAP}))
    assert main(["elliptic", "--group", str(spec)]) == EXIT_OK
    classes = json.loads(capsys.readouterr().out)
    assert main(["elliptic", "--group", "a1a1_swap"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == classes and classes["count"] == 2
    assert main(["verify", "ei", "--group", str(spec)]) == EXIT_OK
    obj = json.loads(capsys.readouterr().out)
    assert (obj["e"], obj["i"], obj["equal"]) == ("-1/4", "-1/4", True)


def test_stabilize_verify_reads_a_composite_swap_as_the_swap(tmp_path, capsys):
    """A model whose R-component is s₀·swap prints what the pure-swap model prints."""
    def verify(theta):
        models = tmp_path / "models.json"
        models.write_text(json.dumps({"models": [{
            "id": "a1a1", "sM_dim": 0, "r_dim": 1,
            "dual_group": {"base": "sl2xsl2", "thetas": {"0": [[1, 0], [0, 1]], "1": theta}}}]}))
        assert main(["stabilize", "verify", "--models", str(models), "--trials", "3"]) == EXIT_OK
        return capsys.readouterr().out

    swapped = verify([[0, 1], [1, 0]])
    assert json.loads(swapped)["pass"] and verify(S0_SWAP) == swapped


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
