import importlib
from fractions import Fraction

import pytest

from helpers_oracle import (
    F4_CARTAN,
    catalog_and_ladder_data,
    central_torsion_points,
    classical_datum,
    datum_from_cartan,
    direct_sum,
    e_cartan,
    labelled_datum,
    oracle_sigma,
)
from tracestab import catalog
from tracestab import rootdata as rootdata_module
from tracestab import weylcoset as weylcoset_module
from tracestab.elliptic import elliptic_classes
from tracestab.errors import WeylGroupTooLarge
from tracestab.rootdata import (
    build_root_datum,
    canonical_key,
    cartan_type,
    central_subgroup,
    quotient_by_central,
)
from tracestab.sigma import SigmaTable, e_number, sigma, verify_central_quotient, verify_ei
from tracestab.weylcoset import component, i_number, untwisted_component

# The package re-exports the function ``sigma``, which shadows the submodule.
sigma_module = importlib.import_module("tracestab.sigma")


def _empty_memos(monkeypatch) -> SigmaTable:
    """Empty the process-wide σ memos: the datum cache, the adjoint table and the e sums."""
    sigma.cache_clear()
    e_number.cache_clear()
    table = SigmaTable()
    monkeypatch.setattr(sigma_module, "_ADJOINT", table)
    return table


@pytest.fixture
def cold(monkeypatch):
    """Cold σ memos for the test; the datum cache and the e sums are emptied again afterwards."""
    yield _empty_memos(monkeypatch)
    sigma.cache_clear()
    e_number.cache_clear()


@pytest.mark.parametrize("name,expected", [
    ("trivial", Fraction(1)),
    ("gl1", Fraction(0)),
    ("sl2", Fraction(-1, 8)),
    ("pgl2", Fraction(-1, 4)),
    ("sl3", Fraction(1, 27)),
    ("pgl3", Fraction(1, 9)),
    ("sl2xsl2", Fraction(1, 64)),
])
def test_sigma_values(name, expected):
    assert sigma(catalog.datum(name)) == expected


def test_sigma_zero_for_positive_central_rank():
    d = build_root_datum(2, [(2, 0)], [(1, 0)])  # SL2 x GL1
    assert sigma(d) == 0
    assert sigma(build_root_datum(3, [], [])) == 0


@pytest.mark.parametrize("form", ["sc", "ad"])
def test_sigma_f4_regression_seed(form):
    # Recorded when F4 first became feasible; no independent check exists yet.
    d = datum_from_cartan(F4_CARTAN, form)
    assert len(elliptic_classes(untwisted_component(d))) == 5  # the extended-diagram nodes
    assert sigma(d) == Fraction(493013, 3981312)


def test_sigma_product_law():
    assert sigma(catalog.datum("sl2xsl2")) == sigma(catalog.datum("sl2")) ** 2


def test_central_quotient_sl2():
    d = catalog.datum("sl2")
    z = central_subgroup(d, [(Fraction(1, 2),)])
    assert verify_central_quotient(d, z)
    assert sigma(d) == sigma(catalog.datum("pgl2")) / 2


def test_central_quotient_trivial():
    d = catalog.datum("sp4")
    assert verify_central_quotient(d, central_subgroup(d, []))


def test_central_quotient_sl3():
    d = catalog.datum("sl3")
    z = central_subgroup(d, [(Fraction(1, 3), Fraction(2, 3))])
    assert z.order == 3
    assert verify_central_quotient(d, z)
    assert sigma(d) == sigma(catalog.datum("pgl3")) / 3


def test_central_quotient_sp4():
    d = catalog.datum("sp4")
    z = central_subgroup(d, [(Fraction(1, 2), Fraction(1, 2))])
    assert z.order == 2
    assert verify_central_quotient(d, z)


def test_central_quotient_fails_on_a_corrupted_adjoint_value(cold):
    # σ(d) = σ(d/z)·|z|⁻¹ holds for any adjoint table; e = i on d and d/z does not.
    cold["A1"] = Fraction(-1, 2)
    d = catalog.datum("sl2")
    z = central_subgroup(d, [(Fraction(1, 2),)])
    assert sigma(d) == sigma(quotient_by_central(d, z)) / z.order
    assert not verify_central_quotient(d, z)


SEMISIMPLE = [(name, catalog.datum(name)) for name in catalog.datum_names()
              if catalog.datum(name).is_semisimple()]
SEMISIMPLE += [(f"{kind}3-sc", classical_datum(kind, 3, "sc")) for kind in "ABC"]


@pytest.mark.parametrize("name, d", SEMISIMPLE, ids=[name for name, _ in SEMISIMPLE])
def test_central_quotient_every_cyclic_subgroup(name, d):
    # Each central torsion point generates a cyclic subgroup; the quotient
    # maps go through ``invert`` on Fraction matrices.
    for t in central_torsion_points(d):
        assert verify_central_quotient(d, central_subgroup(d, [t])), t


@pytest.mark.parametrize("name", catalog.component_names())
def test_verify_ei_on_catalog(name):
    report = verify_ei(catalog.named_component(name))
    assert report.equal, f"e={report.e} != i={report.i} on {name}"


def test_verify_ei_examples():
    rep = verify_ei(catalog.named_component("sl2"))
    assert rep.e == rep.i == Fraction(-1, 4)
    rep = verify_ei(catalog.named_component("o2_twist"))
    assert rep.e == rep.i == Fraction(1, 2)
    assert rep.per_class[0].pi0 == 2
    rep = verify_ei(catalog.named_component("gl1"))
    assert rep.e == rep.i == 0 and rep.per_class == ()


def test_recursion_order_independence(cold, monkeypatch):
    names = catalog.datum_names()
    runs = []
    for order in (names, names[::-1]):
        _empty_memos(monkeypatch)
        runs.append({name: sigma(catalog.datum(name)) for name in order})
    assert runs[0] == runs[1]


def test_table_idempotence(cold):
    d = catalog.datum("g2")
    cold_value = sigma(d)
    assert cold
    assert sigma(d) == cold_value


def test_table_reuse_across_isogenous_data(cold, monkeypatch):
    hits = []

    def get(key):
        value = SigmaTable.get(cold, key)
        hits.append(value is not None)
        return value

    monkeypatch.setattr(cold, "get", get)
    assert sigma(catalog.datum("sl2")) == Fraction(-1, 8)
    assert sigma(catalog.datum("pgl2")) == Fraction(-1, 4)
    assert list(cold) == ["A1"]
    assert hits == [False, True]


def test_rank0_base_case():
    assert sigma(catalog.datum("trivial")) == 1


def _transposed(label, form):
    """The datum of ``label`` built from the transpose of its Cartan matrix.

    The plain transpose of B_n is C_n as ``classical_datum`` numbers it, so
    B_n and C_n are read with their nodes reversed as well.
    """
    if label[0] not in "BC":
        return labelled_datum(label, "transposed", form)
    # ``datum_from_cartan(c)`` has Cartan matrix cᵀ, so its own matrix is the transposed input.
    cartan = labelled_datum(label, "standard", form).cartan_matrix()
    return datum_from_cartan(tuple(row[::-1] for row in cartan[::-1]), form)


SIMPLE_LABELS = ("G2", "A5", "A6", "A7", "B5", "B6", "C4", "C5", "C6", "D5", "D6", "E6")
TRANSPOSED_LABELS = ("B3", "B4", "B5", "B6", "C3", "C4", "C5", "C6", "F4", "G2")

# σ from the affine diagram against the class-walk recursion, which sums
# ``elliptic_classes`` over every centralizer.
ORACLE_DATA = catalog_and_ladder_data() + [
    (f"F4-{form}", datum_from_cartan(F4_CARTAN, form)) for form in ("sc", "ad")] + [
    (f"{label}-{form}", labelled_datum(label, "standard", form))
    for label in SIMPLE_LABELS for form in ("sc", "ad")] + [
    (f"{label}T-{form}", _transposed(label, form))
    for label in TRANSPOSED_LABELS for form in ("sc", "ad")]


@pytest.mark.parametrize("name, d", ORACLE_DATA, ids=[name for name, _ in ORACLE_DATA])
def test_sigma_matches_recursion_on_the_datum_itself(name, d):
    assert sigma(d) == oracle_sigma(d)


SIMPLE_ADJOINT = [(name, d) for name, d in ORACLE_DATA
                  if name.endswith("-ad") and len(cartan_type(d)) == 1]


@pytest.mark.parametrize("name, d", SIMPLE_ADJOINT, ids=[name for name, _ in SIMPLE_ADJOINT])
def test_e_equals_i_on_simple_adjoint_types(name, d):
    # σ of a simple adjoint group comes from its affine diagram, not from the
    # class list that ``verify_ei`` sums, so this can fail.
    assert verify_ei(untwisted_component(d)).equal


@pytest.mark.parametrize("label, order", [
    ("E8", 696729600), ("D8", 5160960), ("B20", 2551082656125828464640000),
], ids=["E8", "D8", "B20"])
def test_past_w_e7_sigma_refuses_before_any_smaller_sigma(cold, label, order):
    with pytest.raises(WeylGroupTooLarge) as refusal:
        sigma(labelled_datum(label, "standard", "ad"))
    assert str(refusal.value) == f"W({label}) has order {order}, above the limit 2903040"
    assert cold == {}


@pytest.mark.parametrize("n", range(1, 9))
def test_sigma_of_sl_and_pgl(n):
    # Every mark of A_n is 1, so σ(PGL_{n+1}) = i(A_n) and σ(SL_{n+1}) = i(A_n)/(n+1).
    assert sigma(classical_datum("A", n, "sc")) == Fraction((-1) ** n, (n + 1) ** 3)
    adjoint = classical_datum("A", n, "ad")
    assert sigma(adjoint) == i_number(untwisted_component(adjoint))


@pytest.mark.parametrize("d, expected", [
    (classical_datum("B", 4, "ad"), Fraction(613, 8192)),
    (datum_from_cartan(F4_CARTAN, "sc"), Fraction(493013, 3981312)),
    (datum_from_cartan(e_cartan(7), "sc"), Fraction(-24826523, 509607936)),
], ids=["B4-ad", "F4", "E7-sc"])
def test_sigma_builds_no_root_datum(cold, monkeypatch, d, expected):
    # σ reads every centralizer C_k off the extended Cartan matrix: with σ, i and
    # E_W computed afresh, not one datum is built or looked up on the way down.
    i_number.cache_clear()
    monkeypatch.setattr(weylcoset_module, "_ELLIPTIC", {})
    built = []
    build = rootdata_module._build_root_datum
    monkeypatch.setattr(rootdata_module, "_build_root_datum",
                        lambda *args: built.append(args) or build(*args))
    assert sigma(d) == expected
    assert built == []
    assert cold


def test_e_equals_i_on_isogeny_quotients():
    # Quotient lattices exercise non-standard coordinates end to end.
    half = Fraction(1, 2)
    d = catalog.datum("sl2xsl2")
    so4 = quotient_by_central(d, central_subgroup(d, [(half, half)]))
    assert verify_ei(untwisted_component(so4)).equal
    assert sigma(so4) == 2 * sigma(d)
    adjoint = quotient_by_central(d, central_subgroup(d, [(half, Fraction(0)),
                                                          (Fraction(0), half)]))
    assert verify_ei(untwisted_component(adjoint)).equal
    assert sigma(adjoint) == sigma(catalog.datum("pgl2")) ** 2
    sp4 = catalog.datum("sp4")
    q = quotient_by_central(sp4, central_subgroup(sp4, [(half, half)]))
    assert canonical_key(q) == canonical_key(catalog.datum("so5"))
    assert verify_ei(untwisted_component(q)).equal


def test_so4_and_sl2_x_pgl2_share_a_key_and_sigma():
    # SO4 = (SL2×SL2)/μ2 is not a direct product of its factors, yet the keys agree.
    half = Fraction(1, 2)
    sl2xsl2 = catalog.datum("sl2xsl2")
    so4 = quotient_by_central(sl2xsl2, central_subgroup(sl2xsl2, [(half, half)]))
    sl2_x_pgl2 = build_root_datum(2, [(2, 0), (0, 1)], [(1, 0), (0, 2)])
    assert canonical_key(so4) == canonical_key(sl2_x_pgl2) == b"datum;v2;types=A1,A1;z=2;central=0"
    expected = sigma(catalog.datum("sl2")) * sigma(catalog.datum("pgl2"))
    assert expected == Fraction(1, 32)
    for d in (so4, sl2_x_pgl2):
        assert verify_ei(untwisted_component(d)).equal
        assert sigma(d) == expected


def _isogeny_forms(sc):
    """The quotient of ``sc`` by each cyclic central subgroup, and by the whole center."""
    points = central_torsion_points(sc)
    subgroups = [central_subgroup(sc, [t]) for t in points]
    subgroups.append(central_subgroup(sc, points))
    return [(z, quotient_by_central(sc, z)) for z in subgroups]


@pytest.mark.parametrize("kind, n", [("A", 3), ("B", 4), ("D", 4)])
def test_e_equals_i_on_every_isogeny_form(kind, n):
    # With σ read off the simple adjoint factors, e = i on the other forms is
    # the independent check of the product and central-quotient rules.
    sc = classical_datum(kind, n, "sc")
    for z, form in _isogeny_forms(sc):
        report = verify_ei(untwisted_component(form))
        assert report.equal, (z.generators, report.e, report.i)
        assert verify_central_quotient(sc, z), z.generators


def test_a_twist_fixing_a_central_direction_has_e_and_i_zero_without_w():
    """E7 × GL1 × GL1 with θ = 1 on E7 and the GL1 swapped: θ fixes the central (1, 1).

    So the coset has no regular element, i = 0 and there is no elliptic class,
    although W(E7) is above the walk's limit and the shape has no enumeration.
    """
    gl1 = build_root_datum(1, (), ())
    base = direct_sum(direct_sum(datum_from_cartan(e_cartan(7), "sc"), gl1), gl1)
    theta = tuple(tuple(int(j == i) for j in range(9)) for i in range(7))
    c = component(base, theta + ((0,) * 8 + (1,), (0,) * 7 + (1, 0)))
    assert i_number(c) == 0
    assert elliptic_classes(c) == ()
    assert verify_ei(c).equal
