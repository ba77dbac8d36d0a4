"""Which layer modules a command loads, and the package surface that lazy loading keeps."""

import ast
import importlib
import importlib.util
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


def test_one_sparse_reflection_walks_w_and_its_cosets():
    """W and Wθ are walked element by element, so their callers are pinned.

    Nothing in the package reads W itself; a coset is walked only for
    ``weyl_group`` and ``weyl_set``; one helper applies a simple reflection
    to a matrix, for the walk and for ``pinned_part``'s descent; and one
    helper lets W act on root subsets as positive-root masks, for the flats
    and the full-rank subsystems.
    """
    assert _places("weyl_group") == set()
    assert _places("mask_reflections") == {"weylcoset.import", "weylcoset.flat_orbits",
                                           "elliptic.import", "elliptic.full_rank_subsystems"}
    assert _places("_closure_under_reflections") == set()
    assert _places("coset_walk") == {"rootdata.weyl_group", "weylcoset.import",
                                     "weylcoset.weyl_set"}
    assert _places("_simple_reflections") == {"rootdata.pinned_part", "rootdata.coset_walk"}
    for name in ("simple_reflection_matrix", "_coset_element", "quotient_with_map"):
        assert _places(name) == set(), name
        assert not any(hasattr(importlib.import_module(f"tracestab.{module}"), name)
                       for module in ("rootdata", "weylcoset")), name
    assert not {place for place in _places("WeylElement") if place.startswith("weylcoset.")}


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
    # stabilize forms θ − 1 only to count S̄° ∩ Z̄, and no rank or kernel at all.
    linear_algebra = set().union(*map(_places, ("int_kernel", "matrix_rank", "minus_identity")))
    assert {p for p in linear_algebra if p.startswith("stabilize.")} == {
        "stabilize.import", "stabilize.fixed_intersection_order"}
    assert _places("fixes_a_central_cocharacter") == {
        "weylcoset.has_regular_element", "stabilize.import", "stabilize.phi_disc"}
    assert _places("has_regular_element") == {
        "weylcoset.i_number", "elliptic.import", "elliptic.is_elliptic",
        "elliptic.elliptic_classes", "stabilize.import", "stabilize.s_disc_set"}
    assert _places("is_semisimple") == {
        "weylcoset.fixes_a_central_cocharacter",
        "elliptic.full_rank_subsystems", "sigma.sigma", "stabilize.phi_s_disc"}


def test_one_descent_owns_a_twists_weyl_coset():
    """θ = w·τ from ``rootdata.pinned_part`` decides validity, the sign and the cocycle.

    No other code reflects a matrix back to the chamber, and neither
    ``weylcoset`` nor ``packets`` inverts a matrix.
    """
    assert _places("pinned_part") == {"weylcoset.import", "weylcoset.component",
                                      "weylcoset.coset_sign", "packets.ParameterModel"}
    for name in ("contragredient", "invert"):
        assert not {place for place in _places(name)
                    if place.split(".")[0] in ("weylcoset", "packets")}, name
    assert _places("in_weyl_group") == set()
    assert not hasattr(sys.modules["tracestab.rootdata"], "in_weyl_group")


def test_one_memo_mechanism():
    """Memos are ``functools.cache``; the two per-label tables are the only module-level dicts.

    ``sigma._ADJOINT`` (σ of the adjoint quotient per Cartan label, whose hits
    the benchmark counts) and ``weylcoset._ELLIPTIC`` (the elliptic series per
    label) are filled as they are read.  Any other empty dict bound at module
    level would be a hand-kept memo beside ``functools.cache``.
    """
    def empty_dict(node) -> bool:
        return (isinstance(node, ast.Dict) and not node.keys
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("dict", "SigmaTable") and not node.args and not node.keywords)

    bound = set()
    for path in sorted((SRC / "tracestab").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, (ast.Assign, ast.AnnAssign)) and top.value and empty_dict(top.value):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                bound |= {f"{path.stem}.{ast.unparse(t)}" for t in targets}
    assert bound == {"sigma._ADJOINT", "weylcoset._ELLIPTIC"}


def test_sigma_builds_no_root_datum():
    """σ reads its centralizers off the extended Cartan matrix, so it builds no datum."""
    assert not {place for name in ("build_root_datum", "identity_matrix")
                for place in _places(name) if place.startswith("sigma.")}


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


def test_one_hermite_index_counts_central_subgroups():
    """|Z̄|, |S̄° ∩ Z̄| and [X : ZΦ] are ratios of ``pivot_product``s: nothing lists Z̄.

    ``root_lattice_index`` is the one copy of [X : ZΦ], which σ divides by and
    ``canonical_key`` prints; ``subgroup_mod1`` is a test oracle.
    """
    assert _places("pivot_product") == {
        "rootdata.import", "rootdata.central_subgroup",
        "rootdata.root_lattice_index", "stabilize.import", "stabilize.fixed_intersection_order"}
    assert _places("root_lattice_index") == {"rootdata.canonical_key", "sigma.import",
                                             "sigma.sigma"}
    assert not _places("subgroup_mod1") | _places("in_integer_row_span") | _places("_twist_image")
    assert _places("iota_coefficient") == {"stabilize.verify_coefficients",
                                           "stabilize._fold_descriptors"}


def test_root_closure_owns_the_finite_type_check():
    """The datum build checks its Cartan matrix through ``root_closure`` and forms no rank."""
    assert not {p for p in _places("matrix_rank") if p.startswith("rootdata.")}
    assert not _places("_validate_cartan")
    assert {p for p in _places("bareiss_pivots") if p.startswith("rootdata.")} == {
        "rootdata.import", "rootdata.root_closure"}


# Documented entry points that nothing in the package calls.
ENTRY_POINTS = {"elliptic.centralizer", "packets.with_flipped_pairing", "catalog.random_model",
                "catalog.descriptors_sl2_central"}


def test_every_top_level_name_is_used_exported_traced_or_an_entry_point():
    """A top-level function or class that nothing reaches is dead code.

    It passes if another top-level statement of the package names it (a
    ``COMMANDS`` runner string counts), if ``tracestab.__all__`` exports it,
    if ``bench/tracer.py``'s ``LAYERS`` wraps it, or if it is a documented
    entry point.  Dunder functions are exempt.
    """
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  SRC.parent / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = {f"{module}.{name.split('.')[0]}" for module, names in tracer.LAYERS.items()
              for name in names}
    tops = [(path.stem, top) for path in sorted((SRC / "tracestab").glob("*.py"))
            for top in ast.parse(path.read_text(encoding="utf-8")).body]

    def named_elsewhere(name, own):
        return any(isinstance(node, ast.Name) and node.id == name
                   or isinstance(node, ast.Attribute) and node.attr == name
                   or isinstance(node, ast.alias) and node.name == name
                   or isinstance(node, ast.Constant) and isinstance(node.value, str)
                   and node.value.rpartition(".")[2] == name and "." in node.value
                   for _, top in tops if top is not own for node in ast.walk(top))

    dead = [f"{stem}.{top.name}" for stem, top in tops
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and not (top.name.startswith("__") and top.name.endswith("__"))
            and top.name not in tracestab.__all__
            and f"{stem}.{top.name}" not in traced | ENTRY_POINTS
            and not named_elsewhere(top.name, top)]
    assert dead == []
