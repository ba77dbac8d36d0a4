"""Which layer modules a command loads, and the package surface that lazy loading keeps."""

import ast
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tracestab
from tracestab import cli

SRC = Path(__file__).resolve().parent.parent / "src"

LAYERS = ("errors", "linalg", "rootdata", "weylcoset", "elliptic", "sigma", "packets",
          "stabilize", "catalog")
COMMAND_MODULES = ("cli_rootdata", "cli_packets", "cli_stabilize")
EVERYTHING = frozenset(LAYERS + COMMAND_MODULES) | {"cli"}
ROOT_DATA_COMMAND = {"cli", "errors", "cli_rootdata", "linalg", "rootdata", "weylcoset"}
SIGMA_COMMAND = ROOT_DATA_COMMAND | {"sigma"}

# Runs main(argv) in a fresh interpreter, then prints its exit code and the
# tracestab modules whose code ran (a registered but unread layer is still lazy).
PROBE = """
import contextlib, io, json, sys, types
sys.path.insert(0, sys.argv[1])
from tracestab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(name[len("tracestab."):] for name, m in sys.modules.items()
                               if name.startswith("tracestab.") and type(m) is types.ModuleType)]))
"""


def _loaded_by(argv, cwd):
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", PROBE, str(SRC), *argv],
                          capture_output=True, text=True, timeout=120, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    return code, set(loaded)


@pytest.mark.parametrize("argv, expected", [
    (["--help"], {"cli", "errors"}),
    (["packets", "verify", "--model", "model.json", "--trials", "3"],
     {"cli", "errors", "cli_packets", "linalg", "packets"}),
    (["sigma", "--group", "group.json"], SIGMA_COMMAND),
    (["sigma", "--group", "sl2"], SIGMA_COMMAND),
    (["stabilize", "verify", "--trials", "2"], EVERYTHING - {"cli_rootdata"}),
    (["stabilize", "verify", "--models", "models.json", "--trials", "2"],
     EVERYTHING - {"cli_rootdata", "catalog"}),
    (["elliptic", "--group", "group.json"], ROOT_DATA_COMMAND | {"elliptic"}),
    (["i-number", "--group", "group.json"], ROOT_DATA_COMMAND),
    (["verify", "central-quotient", "--group", "group.json", "--z", "z.json"],
     SIGMA_COMMAND | {"elliptic"}),
    (["report"], EVERYTHING - {"cli_rootdata"}),
])
def test_each_command_runs_only_the_layers_it_calls(tmp_path, argv, expected):
    (tmp_path / "model.json").write_text(json.dumps({"sM_dim": 1, "r_dim": 2}))
    (tmp_path / "models.json").write_text(json.dumps({"models": [
        {"id": "a", "sM_dim": 1, "r_dim": 0,
         "dual_group": {"base": "sl2", "thetas": {"0": [[1]], "1": [[1]]}}}]}))
    (tmp_path / "group.json").write_text(json.dumps(
        {"rank": 2, "simple_roots": [[2, -1], [-1, 2]], "simple_coroots": [[1, 0], [0, 1]]}))
    (tmp_path / "z.json").write_text(json.dumps({"generators": [["1/3", "2/3"]]}))
    code, loaded = _loaded_by(argv, tmp_path)
    assert code == 0
    assert loaded == expected


def test_a_catalog_name_wins_over_a_file_of_that_name(tmp_path, monkeypatch, capsys):
    """``--group sl2`` is the named SL2 even with a PGL2 datum file called ``sl2`` at hand."""
    def out(*argv):
        assert cli.main(list(argv)) == 0
        return capsys.readouterr().out

    (tmp_path / "sl2").write_text(json.dumps(
        {"rank": 1, "simple_roots": [[1]], "simple_coroots": [[2]]}))
    monkeypatch.chdir(tmp_path)
    for command in ("sigma", "elliptic"):  # a datum, and a component
        assert out(command, "--group", "./sl2") == out(command, "--group", "pgl2")
        assert out(command, "--group", "sl2") != out(command, "--group", "pgl2")


def test_every_runner_in_the_command_table_resolves():
    for path, runner, _options in cli.COMMANDS:
        module, _, name = runner.partition(".")
        assert module in COMMAND_MODULES, path
        assert callable(getattr(sys.modules[f"tracestab.{module}"], name)), path


def test_importing_the_cli_registers_every_layer_and_runs_only_errors():
    probe = ("import sys, types; sys.path.insert(0, sys.argv[1]); import tracestab.cli; "
             "print(sorted(n for n in sys.modules if n.startswith('tracestab.'))); "
             "print(sorted(n for n, m in sys.modules.items() "
             "if n.startswith('tracestab.') and type(m) is types.ModuleType))")
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", probe, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    registered, executed = proc.stdout.splitlines()
    assert registered == str(sorted(f"tracestab.{name}" for name in EVERYTHING))
    assert executed == str(["tracestab.cli", "tracestab.errors"])


def test_package_exports_are_unchanged():
    assert tracestab.__all__ == [
        "CentralSubgroup", "DiscreteModelSet", "DualGroupModel", "DuplicateModelId",
        "EndoscopicDescriptor", "GaussianRational", "InconsistentDescriptor", "InfiniteOrder",
        "InfiniteType", "MalformedInput", "MismatchedModel", "MissingDualGroup", "NonCartan",
        "NotAutomorphism", "NotCentral", "ParameterModel", "RootDatum", "SemisimpleClass",
        "SigmaTable", "TestVector", "TorusPoint", "TraceStabError", "TwistedComponent",
        "TwistedUnsupported", "TwoGroup", "WeylElement", "WeylGroupTooLarge", "adjoint_factor",
        "build_root_datum", "canonical_key", "cartan_type", "central_subgroup", "component",
        "discrete_part", "e_phi", "elliptic", "elliptic_classes", "endoscopic_form", "errors",
        "i_number", "i_phi", "invert_transfer", "iota_coefficient", "is_elliptic", "linalg",
        "packets", "quotient_by_central", "rootdata", "s_disc", "sigma", "stabilize",
        "stable_form", "theta_transfer", "torus_point", "transfer_factor",
        "untwisted_component", "verify_adjoint", "verify_central_quotient",
        "verify_coefficients", "verify_ei", "weyl_group", "weyl_set", "weylcoset"]
    for name in tracestab.__all__:
        assert getattr(tracestab, name) is not None
    assert set(tracestab.__all__) <= set(dir(tracestab))
    with pytest.raises(AttributeError):
        tracestab.no_such_name  # noqa: B018


def test_sigma_is_the_function_and_layers_are_modules():
    sigma_module = sys.modules["tracestab.sigma"]
    assert tracestab.sigma is sigma_module.sigma and callable(tracestab.sigma)
    from tracestab import rootdata
    assert isinstance(rootdata, types.ModuleType)
    assert rootdata is sys.modules["tracestab.rootdata"]
    assert tracestab.RootDatum is rootdata.RootDatum
    assert tracestab.weyl_set is sys.modules["tracestab.weylcoset"].weyl_set


def test_no_function_imports_and_no_type_checking_blocks():
    """Layers are reached through the lazy module bindings at the top of each module."""
    offenders = []
    for path in sorted((SRC / "tracestab").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                offenders += [f"{path.name}:{inner.lineno} import in {node.name}"
                              for inner in ast.walk(node)
                              if isinstance(inner, (ast.Import, ast.ImportFrom))]
            elif (isinstance(node, ast.Name) and node.id == "TYPE_CHECKING"
                  or isinstance(node, ast.alias) and node.name == "TYPE_CHECKING"):
                offenders.append(f"{path.name}:{node.lineno} TYPE_CHECKING")
    assert offenders == []


def _places(name: str) -> set[str]:
    """module.scope for every top-level statement of the package that names ``name``."""
    places = set()
    for path in sorted((SRC / "tracestab").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            scope = (top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef))
                     else "import" if isinstance(top, (ast.Import, ast.ImportFrom)) else "module")
            if any(isinstance(node, ast.Name) and node.id == name
                   or isinstance(node, ast.Attribute) and node.attr == name
                   or isinstance(node, ast.alias) and node.name == name
                   for node in ast.walk(top)):
                places.add(f"{path.stem}.{scope}")
    return places


def test_only_weyl_set_and_full_rank_subsystems_reach_weyl_group():
    """W is built element by element, so its callers are pinned: no other code may reach it."""
    assert _places("weyl_group") == {"elliptic.import", "elliptic.full_rank_subsystems",
                                     "weylcoset.import", "weylcoset.weyl_set"}


def test_only_weylcoset_forms_the_central_cocharacter_test():
    """Whether a coset has a regular element is decided in one place, ``weylcoset``.

    i, the elliptic class list and the discrete set take their zero case from
    it, so none of them reads semisimplicity or forms the test again.
    """
    defined = {f"{path.stem}.{top.name}" for path in (SRC / "tracestab").glob("*.py")
               for top in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(top, ast.FunctionDef)
               and ("central_cocharacter" in top.name or "regular_element" in top.name)}
    assert defined == {"weylcoset.fixes_a_central_cocharacter", "weylcoset.has_regular_element"}
    # stabilize forms θ − 1 only for the image basis, and no rank or kernel at all.
    linear_algebra = set().union(*map(_places, ("int_kernel", "matrix_rank", "minus_identity")))
    assert {p for p in linear_algebra if p.startswith("stabilize.")} == {
        "stabilize.import", "stabilize._twist_image"}
    assert _places("fixes_a_central_cocharacter") == {
        "weylcoset.has_regular_element", "stabilize.import", "stabilize.phi_disc"}
    assert _places("has_regular_element") == {
        "weylcoset.i_number", "elliptic.import",
        "elliptic.elliptic_classes", "stabilize.import", "stabilize.s_disc_set"}
    assert _places("is_semisimple") == {
        "rootdata.central_torsion_points", "weylcoset.fixes_a_central_cocharacter",
        "elliptic.full_rank_subsystems", "sigma.sigma", "stabilize.phi_s_disc"}


def test_only_e_number_reaches_elliptic_from_sigma():
    """σ is read off the affine diagram; only ``e_number`` sums the class list.

    ``elliptic`` is bound as a lazy module, so the ``sigma`` command never runs it.
    """
    places = set()
    for top in ast.parse((SRC / "tracestab" / "sigma.py").read_text(encoding="utf-8")).body:
        if isinstance(top, ast.ImportFrom):
            if top.module == "elliptic":
                places.add("from-import")
            elif any(alias.name == "elliptic" for alias in top.names):
                places.add("module binding")
            continue
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "module"
        if any(isinstance(node, ast.Name) and node.id == "elliptic"
               or isinstance(node, ast.Attribute) and node.attr == "elliptic"
               for node in ast.walk(top)):
            places.add(scope)
    assert places == {"module binding", "e_number"}
