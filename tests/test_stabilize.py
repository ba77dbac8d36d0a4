import importlib
import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from helpers_oracle import (
    catalog_and_ladder_data,
    central_torsion_points,
    datum_from_cartan,
    direct_sum,
    e_cartan,
    fraction_splus,
    oracle_discrete_part,
    oracle_endoscopic_form,
    oracle_fixed_intersection_order,
    oracle_stable_form,
    simple_reflection_matrix,
)
from tracestab import catalog
from tracestab.elliptic import elliptic_classes
from tracestab.errors import (
    DuplicateModelId,
    InconsistentDescriptor,
    MissingDualGroup,
    TwistedUnsupported,
    WeylGroupTooLarge,
)
from tracestab.linalg import identity_matrix, mat_mul
from tracestab.packets import (
    DualGroupModel,
    GaussianRational,
    ParameterModel,
    TestVector,
    TwoGroup,
    with_flipped_pairing,
)
from tracestab.rootdata import (
    build_root_datum,
    central_subgroup,
    classical_weyl_order,
)
from tracestab.stabilize import (
    DiscreteModelSet,
    coefficient_report,
    discrete_part,
    e_phi,
    endoscopic_form,
    fixed_intersection_order,
    i_phi,
    iota_coefficient,
    phi_disc,
    phi_s_disc,
    s_disc,
    s_disc_set,
    stable_form,
    verify_coefficients,
)
from tracestab.weylcoset import (
    component,
    has_regular_element,
    i_number,
    untwisted_component,
    weyl_set,
)

rootdata_module = importlib.import_module("tracestab.rootdata")
stabilize_module = importlib.import_module("tracestab.stabilize")


def _fixture_set():
    ms = DiscreteModelSet(catalog.fixture_models())
    descriptors = tuple(d for _, ds in sorted(catalog.fixture_descriptors().items())
                        for d in ds)
    return ms, descriptors


def _gr(x) -> GaussianRational:
    return GaussianRational.of(Fraction(x))


# ---------------------------------------------------------------------------
# i_phi / e_phi
# ---------------------------------------------------------------------------

def test_i_phi_o2_model():
    m = catalog.model_o2()
    assert i_phi(m, (0, 0)) == 0
    assert i_phi(m, (0, 1)) == Fraction(1, 2)
    assert s_disc_set(m) == frozenset({(0, 1)})


UNTWISTED_DATA = catalog_and_ladder_data() + [
    ("sl3xgl1", build_root_datum(3, [(2, -1, 0), (-1, 2, 0)], [(1, 0, 0), (0, 1, 0)]))]


def _model_components(models):
    return tuple({m.component_at(x): None for m in models for x in m.s_elements()})


def _twisted_inputs():
    """(id, components) for the twisted side of the regular-element test."""
    def minus_one(n):
        return tuple(tuple(-x for x in row) for row in identity_matrix(n))

    swap = catalog.SWAP2
    sl3, pgl3 = catalog.datum("sl3"), catalog.datum("pgl3")
    s1 = simple_reflection_matrix(sl3, 0)
    gl2 = build_root_datum(2, [(1, -1)], [(1, -1)])
    sl2xgl1 = build_root_datum(2, [(2, 0)], [(1, 0)])
    rng = Random(5)
    inputs = [(name, (catalog.named_component(name),)) for name in ("o2_twist", "a1a1_swap")]
    inputs += [("fixture-models", _model_components(catalog.fixture_models())),
               ("bank-200", _model_components(catalog.random_model(rng, i) for i in range(200)))]
    inputs += [(f"{name}-minus-one", (component(d, minus_one(d.rank)),))
               for name, d in catalog_and_ladder_data() if classical_weyl_order(d) <= 2000]
    twists = [("sl3-swap", sl3, swap), ("pgl3-swap", pgl3, swap), ("sl3-s1", sl3, s1),
              ("sl3-s1-swap", sl3, mat_mul(s1, swap)), ("gl2-swap", gl2, swap),
              ("gl2-minus-one", gl2, ((-1, 0), (0, -1))), ("gl2-minus-swap", gl2, ((0, -1), (-1, 0))),
              ("sl2xgl1-gl1-inverted", sl2xgl1, ((1, 0), (0, -1)))]
    return inputs + [(name, (component(d, theta),)) for name, d, theta in twists]


REGULAR_ELEMENT_INPUTS = [(name, (untwisted_component(d),)) for name, d in UNTWISTED_DATA]
REGULAR_ELEMENT_INPUTS += _twisted_inputs()


@pytest.mark.parametrize("name,components", REGULAR_ELEMENT_INPUTS,
                         ids=[n for n, _ in REGULAR_ELEMENT_INPUTS])
def test_untwisted_coset_has_a_regular_element_exactly_on_semisimple_data(name, components):
    """The central-torus test agrees with the coset walk; on θ = 1 it is semisimplicity.

    Without a regular element a component has i = 0 and no elliptic class.
    """
    for c in components:
        has_regular = has_regular_element(c)
        assert has_regular == any(e.regular for e in weyl_set(c)), c
        if c.untwisted:
            assert has_regular == c.base.is_semisimple()
        if not has_regular:
            assert i_number(c) == 0 and elliptic_classes(c) == (), c


def test_i_phi_trivial_model():
    m = catalog.model_trivial()
    assert i_phi(m, (0, 0)) == 1


def test_i_phi_requires_dual_group():
    m = ParameterModel("bare", TwoGroup(1), TwoGroup(0))
    with pytest.raises(MissingDualGroup):
        i_phi(m, (0, 0))


def test_e_phi_examples():
    o2 = catalog.model_o2()
    assert e_phi(o2, (0, 1)) == Fraction(1, 2)
    assert e_phi(o2, (0, 0)) == 0  # empty elliptic set
    sl2 = catalog.model_sl2()
    assert e_phi(sl2, (0, 0)) == Fraction(-1, 4)


def test_e_phi_on_an_e6_factor_swap_never_asks_for_i():
    """e_φ sums the folded E6 classes; i_φ still walks W(E6, E6) and refuses."""
    e6 = datum_from_cartan(e_cartan(6), "sc")
    swap = tuple(tuple(int(j == (i + 6) % 12) for j in range(12)) for i in range(12))
    dual = DualGroupModel(direct_sum(e6, e6), {(0, 0): identity_matrix(12), (0, 1): swap})
    m = ParameterModel("e6e6-swap", TwoGroup(0), TwoGroup(1), dual)
    assert e_phi(m, (0, 1)) == Fraction(2513, 34992)
    with pytest.raises(WeylGroupTooLarge,
                       match=r"^W\(E6,E6\) has order 2687385600, above the limit 51840$"):
        i_phi(m, (0, 1))


def test_e_equals_i_componentwise():
    for m in catalog.fixture_models():
        for x in m.s_elements():
            assert e_phi(m, x) == i_phi(m, x)


def test_coset_constancy():
    rng = Random(11)
    models = list(catalog.fixture_models())
    models += [catalog.random_model(rng, i) for i in range(20)]
    for m in models:
        for x in m.s_elements():
            for y in m.s_elements():
                if x[1] == y[1]:
                    assert i_phi(m, x) == i_phi(m, y)


# ---------------------------------------------------------------------------
# Discreteness predicates
# ---------------------------------------------------------------------------

def test_phi_disc_flags():
    assert phi_disc(catalog.model_o2())  # the flip kills the central line
    assert not phi_s_disc(catalog.model_o2())  # but the base is a torus
    assert phi_disc(catalog.model_sl2())
    assert phi_s_disc(catalog.model_sl2())
    untwisted_torus = ParameterModel(
        "t1", TwoGroup(0), TwoGroup(0),
        DualGroupModel(catalog.datum("gl1"), {(0, 0): ((1,),)}))
    assert not phi_disc(untwisted_torus)


@pytest.mark.parametrize("theta, flag", [(((0, -1), (-1, 0)), True), (((1, 0), (0, 1)), False)])
def test_phi_disc_gl2(theta, flag):
    # A central line alongside a root: the swap negates (1, 1), the identity keeps it.
    base = build_root_datum(2, ((1, -1),), ((1, -1),))
    m = ParameterModel("gl2", TwoGroup(0), TwoGroup(1),
                       DualGroupModel(base, {(0, 0): ((1, 0), (0, 1)), (0, 1): theta}))
    assert phi_disc(m) is flag


# ---------------------------------------------------------------------------
# discrete_part / stable_form
# ---------------------------------------------------------------------------

def test_o2_discrete_part_worked_example():
    ms = DiscreteModelSet((catalog.model_o2(),))
    ones = TestVector.constant(ms.models, 1)
    assert discrete_part(ms, ones, ones) == _gr(Fraction(1, 4))
    assert stable_form(ms, ones, ones) == _gr(Fraction(1, 4))
    # (1/4)·f'_1(x_-)·conj(f'_2(x_-)): only the twisted component contributes.
    f = TestVector({("o2", (0, 1)): GaussianRational(Fraction(2), Fraction(3))})
    value = discrete_part(ms, f, f)
    assert value == _gr(Fraction(13, 4))  # (1/4)·|2+3i|^2


def test_empty_model_set():
    ms = DiscreteModelSet(())
    ones = TestVector.constant((), 1)
    assert discrete_part(ms, ones, ones) == _gr(0)
    assert stable_form(ms, ones, ones) == _gr(0)


def test_two_disjoint_copies_additivity():
    base = catalog.model_o2()
    copy = ParameterModel("o2copy", base.s_m, base.r, base.dual_group)
    ms = DiscreteModelSet((base, copy))
    f = TestVector({("o2", (0, 1)): GaussianRational(Fraction(1))})
    single = DiscreteModelSet((base,))
    assert discrete_part(ms, f, f) == discrete_part(single, f, f)


def test_discrete_equals_stable_on_fixtures_random_vectors():
    ms, _ = _fixture_set()
    rng = Random(5)
    for _ in range(25):
        f1 = TestVector.random(rng, ms.models)
        f2 = TestVector.random(rng, ms.models)
        assert discrete_part(ms, f1, f2) == stable_form(ms, f1, f2)


def test_discrete_equals_stable_on_basis_vectors():
    # Equality as multilinear forms: checking all basis pairs certifies it
    # for every input.
    ms = DiscreteModelSet((catalog.model_o2(), catalog.model_swap()))
    supports = [(m.model_id, x) for m in ms.models for x in m.s_elements()]
    for s1 in supports:
        for s2 in supports:
            f1 = TestVector({s1: GaussianRational(Fraction(1))})
            f2 = TestVector({s2: GaussianRational(Fraction(1))})
            assert discrete_part(ms, f1, f2) == stable_form(ms, f1, f2)


def test_discrete_equals_stable_on_random_models():
    rng = Random(42)
    for i in range(40):
        m = catalog.random_model(rng, i)
        ms = DiscreteModelSet((m,))
        f1 = TestVector.random(rng, ms.models)
        f2 = TestVector.random(rng, ms.models)
        assert discrete_part(ms, f1, f2) == stable_form(ms, f1, f2), f"model {i}"


def test_theta_transfer_discrete_restriction_agrees_on_discrete_triples():
    # Restricting the transfer sum to the discrete component set changes
    # nothing for triples whose R-part lies over it: the factors vanish off
    # the matching fiber.
    from tracestab.packets import theta_transfer

    m = catalog.model_o2()
    disc = s_disc_set(m)
    rng = Random(31)
    f = TestVector.random(rng, [m])
    for tau in m.taus():
        if m.iota(tau) in disc:
            assert (theta_transfer(m, tau, f, restrict_to=disc)
                    == theta_transfer(m, tau, f))


def test_duplicate_model_ids_raise_a_package_error():
    m = catalog.model_o2()
    with pytest.raises(DuplicateModelId):
        DiscreteModelSet((m, m))


# ---------------------------------------------------------------------------
# Integer kernels against the Fraction loops they replaced
# ---------------------------------------------------------------------------

def _derivable_descriptors(m):
    """Principal descriptors where catalog can derive splus, else none."""
    if m.s_size > 2 and not all(m.component_at(x).untwisted for x in m.s_elements()):
        return ()
    return catalog.principal_descriptors(m)


def _assert_forms_match_oracles(ms, descriptors, rng, trials):
    for _ in range(trials):
        f1 = TestVector.random(rng, ms.models)
        f2 = TestVector.random(rng, ms.models)
        assert discrete_part(ms, f1, f2) == oracle_discrete_part(ms, f1, f2)
        assert stable_form(ms, f1, f2) == oracle_stable_form(ms, f1, f2)
        assert (endoscopic_form(ms, descriptors, f1, f2)
                == oracle_endoscopic_form(ms, descriptors, f1, f2))


def test_forms_match_fraction_oracles_on_fixtures():
    ms, descriptors = _fixture_set()
    _assert_forms_match_oracles(ms, descriptors, Random(71), 10)
    ones = TestVector.constant(ms.models, 1)
    assert discrete_part(ms, ones, ones) == oracle_discrete_part(ms, ones, ones)


def test_forms_match_fraction_oracles_on_random_bank():
    rng = Random(73)
    for i in range(12):
        models = tuple(catalog.random_model(rng, 3 * i + j) for j in range(rng.randint(1, 3)))
        ms = DiscreteModelSet(models)
        descriptors = [d for m in models for d in _derivable_descriptors(m)]
        subset = tuple(d for d in descriptors if rng.random() < 0.7)
        _assert_forms_match_oracles(ms, subset, rng, 3)


def test_forms_match_oracles_on_sparse_and_foreign_vectors():
    # Keys outside the model set are ignored; missing keys count as zero.
    ms, descriptors = _fixture_set()
    f1 = TestVector({("o2", (0, 1)): GaussianRational(Fraction(2, 3), Fraction(-1, 5)),
                     ("elsewhere", (0, 0)): GaussianRational(Fraction(7))})
    f2 = TestVector({("o2", (0, 1)): GaussianRational(Fraction(1, 4)),
                     ("sl2phi", (0, 0)): GaussianRational(Fraction(0), Fraction(3, 7))})
    assert discrete_part(ms, f1, f2) == oracle_discrete_part(ms, f1, f2)
    assert stable_form(ms, f1, f2) == oracle_stable_form(ms, f1, f2)
    assert (endoscopic_form(ms, descriptors, f1, f2)
            == oracle_endoscopic_form(ms, descriptors, f1, f2))


def test_weights_are_built_once_per_model_set(monkeypatch):
    ms, descriptors = _fixture_set()
    stabilize_module._fold_descriptors.cache_clear()
    calls = {"e_phi": 0, "i_phi": 0}
    for name in calls:
        original = getattr(stabilize_module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(stabilize_module, name, counted)
    rng = Random(79)
    for _ in range(3):
        f1 = TestVector.random(rng, ms.models)
        f2 = TestVector.random(rng, ms.models)
        discrete_part(ms, f1, f2)
        stable_form(ms, f1, f2)
        endoscopic_form(ms, descriptors, f1, f2)
    assert calls["e_phi"] == sum(m.s_size for m in ms.models)
    assert calls["i_phi"] == sum(m.s_size for m in ms.models)  # once per τ; ι is a bijection
    fold = stabilize_module._fold_descriptors.cache_info()
    assert (fold.misses, fold.hits, fold.currsize) == (1, 2, 1)


@pytest.mark.parametrize("model", [catalog.model_o2(), catalog.model_sl2(),
                                   catalog.model_swap()], ids=lambda m: m.model_id)
def test_flipped_pairing_breaks_both_identities(model):
    # Every single flipped sign moves the discrete part, and only it: the
    # stable and endoscopic forms do not read the pairing.
    descriptors = catalog.principal_descriptors(model)
    rng = Random(83)
    for char in model.s_elements():
        for x in model.s_elements():
            ms = DiscreteModelSet((with_flipped_pairing(model, char, x),))
            f1 = TestVector.random(rng, ms.models)
            f2 = TestVector.random(rng, ms.models)
            discrete = discrete_part(ms, f1, f2)
            assert discrete == oracle_discrete_part(ms, f1, f2)
            assert discrete != stable_form(ms, f1, f2), (char, x)
            assert discrete != endoscopic_form(ms, descriptors, f1, f2), (char, x)


@pytest.mark.parametrize("field,delta", [("s_phi_prime_card", 1), ("splus_over_s_card", 1),
                                         ("out_phi_card", 1), ("class_index", 5)])
def test_corrupted_descriptor_raises_before_any_sum(field, delta):
    ms, descriptors = _fixture_set()
    bad = list(descriptors)
    bad[1] = bad[1]._replace(**{field: getattr(bad[1], field) + delta})
    ones = TestVector.constant(ms.models, 1)
    stabilize_module._fold_descriptors.cache_clear()
    for form in (endoscopic_form, oracle_endoscopic_form):
        with pytest.raises(InconsistentDescriptor):
            form(ms, bad, ones, ones)
    assert stabilize_module._fold_descriptors.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# Endoscopic side
# ---------------------------------------------------------------------------

def test_iota_coefficient():
    assert iota_coefficient(1, 2) == Fraction(1, 2)
    assert iota_coefficient(2, 2) == Fraction(1, 4)
    assert iota_coefficient(1, 1) == 1


def test_fixed_intersection_orders():
    o2 = catalog.model_o2()
    gl1 = catalog.datum("gl1")
    zbar = central_subgroup(gl1, ((Fraction(1, 2),),))
    # Untwisted component: the whole subgroup has fixed lifts.
    assert fixed_intersection_order(o2, (0, 0), zbar) == 2
    # Inverted component: only the identity.
    assert fixed_intersection_order(o2, (0, 1), zbar) == 1
    subgroups = [central_subgroup(gl1, ((Fraction(1, k),),)) for k in (2, 3, 4)]
    orders = [[fixed_intersection_order(o2, x, z) for z in subgroups] for x in o2.s_elements()]
    assert orders == [[2, 3, 4], [1, 1, 1]]


def test_a_trivial_zbar_forms_no_hermite_basis(monkeypatch):
    def refuse(*args):
        raise AssertionError("enlarged_basis called for a trivial zbar")

    monkeypatch.setattr(stabilize_module, "enlarged_basis", refuse)
    for m in (catalog.model_o2(), catalog.model_swap(), catalog.model_trivial()):
        trivial = central_subgroup(m.dual_group.base, ())
        assert trivial.order == 1
        assert {fixed_intersection_order(m, x, trivial) for x in m.s_elements()} == {1}


def _signed_involution(rng: Random, n: int):
    """A random signed permutation matrix θ with θ² = 1."""
    while True:
        perm = rng.sample(range(n), n)
        theta = tuple(tuple(rng.choice((-1, 1)) if perm[i] == j else 0 for j in range(n))
                      for i in range(n))
        if mat_mul(theta, theta) == identity_matrix(n):
            return theta


def _count_cases(rng: Random, tori: int):
    """(model, Z̄): S = R = Z/2 with θ on the far component, Z̄ on the base.

    First ``tori`` seeded tori of rank ≤ 3 under signed-permutation
    involutions, with one or two generators of denominator ≤ 12; then
    semisimple bases, inner and outer, with Z̄ each central point and the
    whole center.
    """
    for _ in range(tori):
        n = rng.randint(1, 3)
        base = build_root_datum(n, (), ())
        gens = [tuple(Fraction(rng.randrange(q), q) for _ in range(n))
                for q in (rng.randint(1, 12) for _ in range(rng.randint(1, 2)))]
        yield _two_component_model(base, _signed_involution(rng, n)), central_subgroup(base, gens)
    sl3_swap = json.loads((Path(__file__).with_name("data") / "sl3_swap.json").read_text())
    for name, theta in (("sl2xsl2", catalog.SWAP2), ("sl3", sl3_swap["theta"]),
                        ("sp4", ((-1, 0), (0, -1))), ("pgl3", ((-1, 0), (0, -1))),
                        ("sl2", ((-1,),))):
        base = catalog.datum(name)
        m = _two_component_model(base, tuple(map(tuple, theta)))
        points = central_torsion_points(base)
        for gens in [(p,) for p in points] + [points]:
            yield m, central_subgroup(base, gens)


def _two_component_model(base, theta) -> ParameterModel:
    twists = {(0, 0): identity_matrix(base.rank), (0, 1): theta}
    return ParameterModel("zbar", TwoGroup(0), TwoGroup(1), DualGroupModel(base, twists))


def test_fixed_intersection_order_matches_the_listing():
    below = 0
    for m, zbar in _count_cases(Random(30), 600):
        rank = m.dual_group.base.rank
        for x in m.s_elements():
            got = fixed_intersection_order(m, x, zbar)
            theta = m.component_at(x).theta
            assert got == oracle_fixed_intersection_order(theta, zbar.generators, rank), (
                theta, zbar)
            below += got < zbar.order
    assert below > 200


def test_fixed_intersection_order_lists_no_element():
    assert not hasattr(rootdata_module, "subgroup_mod1")
    assert not hasattr(stabilize_module, "subgroup_mod1")
    o2 = catalog.model_o2()
    zbar = central_subgroup(catalog.datum("gl1"), ((Fraction(1, 300007),),))
    assert [fixed_intersection_order(o2, x, zbar) for x in o2.s_elements()] == [300007, 1]


def test_zbar_of_another_rank_is_refused_not_skipped():
    (d,) = catalog.descriptors_o2()
    zbar = central_subgroup(build_root_datum(2, (), ()), ((Fraction(1, 2), Fraction(1, 3)),))
    assert zbar.order == 6
    with pytest.raises(InconsistentDescriptor, match="u1/o2"):
        verify_coefficients(catalog.model_o2(), d._replace(zbar=zbar))
    # A swap class's centralizer lives on the folded rank-1 lattice: a Z̄ of the base
    # rank is not tested against it, and its report is still made.
    swap = catalog.model_swap()
    center = central_subgroup(catalog.datum("sl2xsl2"), ((Fraction(1, 2), Fraction(1, 2)),))
    for d in catalog.principal_descriptors(swap):
        if d.x == (0, 1):
            assert len(verify_coefficients(swap, d._replace(zbar=center)).checks) == 4
    assert fixed_intersection_order(swap, (0, 1), center) == 2


def _splus_models():
    """Fixtures, plus sl3, sp4 and sl2xsl2 with |S| = 2 and 4 and inner and outer twists."""
    ident, neg, swap = identity_matrix(2), ((-1, 0), (0, -1)), catalog.SWAP2
    # Outer on A2 and A1×A1; on B2 everything is in W, and s₀ moves (0, 1/2).
    twists = {"sl3": (swap, neg),
              "sp4": (neg, simple_reflection_matrix(catalog.datum("sp4"), 0)),
              "sl2xsl2": (swap, ((-1, 0), (0, 1)))}
    models = list(catalog.fixture_models())
    for name, (t1, t2) in twists.items():
        for r_dim, thetas in ((1, (ident, t1)), (2, (ident, t1, t2, mat_mul(t1, t2)))):
            dg = DualGroupModel(catalog.datum(name), {(0, r): th for r, th in enumerate(thetas)})
            models.append(ParameterModel(f"{name}{len(thetas)}", TwoGroup(0), TwoGroup(r_dim), dg))
    return models


def test_splus_matches_fraction_orbit_walk():
    below_s = 0
    for m in _splus_models():
        for x in m.s_elements():
            if m.component_at(x).untwisted:
                for cls in elliptic_classes(m.component_at(x)):
                    splus = catalog._splus(m, x, cls)
                    assert splus == fraction_splus(m, x, cls), (m.model_id, x, cls.rep)
                    below_s += splus < m.s_size
    assert below_s  # some twist moves a class off its Weyl orbit


def test_underived_splus_is_unsupported_not_malformed_input():
    # No splus rule exists yet for a class on a twisted component of a model
    # with |S| > 2: that is an unsupported computation (exit 5), not bad input.
    rng = Random(7)
    raised = 0
    for m in (catalog.random_model(rng, i) for i in range(60)):
        try:
            catalog.principal_descriptors(m)
        except TwistedUnsupported as exc:
            assert "splus is only derived" in str(exc)
            raised += 1
    assert raised == 27


def test_verify_coefficients_o2_fixture():
    (d,) = catalog.descriptors_o2()
    report = verify_coefficients(catalog.model_o2(), d)
    assert report.passed, report.checks


def test_verify_coefficients_negative_controls():
    (d,) = catalog.descriptors_o2()
    m = catalog.model_o2()
    trivial_z = central_subgroup(catalog.datum("gl1"), ())
    controls = {
        "zbar": d._replace(zbar=trivial_z),
        "out_phi_card": d._replace(out_phi_card=1),
        "splus_over_s_card": d._replace(splus_over_s_card=3),
        "s_phi_prime_card": d._replace(s_phi_prime_card=2),
        "sprime_datum": d._replace(sprime_datum=catalog.datum("sl2")),
        "out_card": d._replace(out_card=3),
    }
    for field, bad in controls.items():
        report = verify_coefficients(m, bad)
        assert not report.passed, f"perturbing {field} must fail"


def test_verify_coefficients_zbar_perturbation_fails_product():
    (d,) = catalog.descriptors_o2()
    bad = d._replace(zbar=central_subgroup(catalog.datum("gl1"), ()))
    report = verify_coefficients(catalog.model_o2(), bad)
    assert "coefficient_product" in report.failed_names()


def test_verify_coefficients_trivial_quotient_reduces_to_identity():
    m = catalog.model_sl2()
    (d0, *_) = catalog.principal_descriptors(m)
    report = verify_coefficients(m, d0)
    assert report.passed
    named = dict((name, (l, r, ok)) for name, l, r, ok in report.checks)
    lhs, rhs, ok = named["sigma_quotient"]
    assert lhs == rhs and ok


def test_endoscopic_form_equals_discrete_part_on_fixtures():
    ms, descriptors = _fixture_set()
    rng = Random(9)
    for _ in range(10):
        f1 = TestVector.random(rng, ms.models)
        f2 = TestVector.random(rng, ms.models)
        assert (endoscopic_form(ms, descriptors, f1, f2)
                == discrete_part(ms, f1, f2))


def test_endoscopic_degenerates_to_stable_with_trivial_iota():
    # zbar trivial and out = 1 makes iota = 1 and the weighted sum collapse
    # to the stable form of the same data.
    m = catalog.model_swap()
    ms = DiscreteModelSet((m,))
    descriptors = catalog.principal_descriptors(m)
    assert all(iota_coefficient(d.out_card, d.zbar.order) == 1 for d in descriptors)
    rng = Random(13)
    f1 = TestVector.random(rng, ms.models)
    f2 = TestVector.random(rng, ms.models)
    assert (endoscopic_form(ms, descriptors, f1, f2)
            == stable_form(ms, f1, f2))


def test_endoscopic_alternate_covering_with_central_zbar():
    ms = DiscreteModelSet((catalog.model_sl2(),))
    descriptors = catalog.descriptors_sl2_central()
    rng = Random(17)
    f1 = TestVector.random(rng, ms.models)
    f2 = TestVector.random(rng, ms.models)
    assert (endoscopic_form(ms, descriptors, f1, f2)
            == discrete_part(ms, f1, f2))


def test_endoscopic_form_rejects_inconsistent_descriptor():
    ms, descriptors = _fixture_set()
    bad = list(descriptors)
    bad[0] = bad[0]._replace(s_phi_prime_card=bad[0].s_phi_prime_card + 1)
    ones = TestVector.constant(ms.models, 1)
    with pytest.raises(InconsistentDescriptor):
        endoscopic_form(ms, bad, ones, ones)


def test_each_descriptor_is_checked_once(monkeypatch):
    ms, descriptors = _fixture_set()
    calls = []

    def counted(m, d):
        calls.append(d)
        return verify_coefficients(m, d)

    monkeypatch.setattr(stabilize_module, "verify_coefficients", counted)
    coefficient_report.cache_clear()
    stabilize_module._fold_descriptors.cache_clear()
    ones = TestVector.constant(ms.models, 1)
    first = endoscopic_form(ms, descriptors, ones, ones)
    assert endoscopic_form(ms, descriptors, ones, ones) == first
    by_id = {m.model_id: m for m in ms.models}
    for d in descriptors:
        assert coefficient_report(by_id[d.model_id], d) == verify_coefficients(
            by_id[d.model_id], d)
    assert len(calls) == len(set(descriptors)) and set(calls) == set(descriptors)


def test_inconsistent_descriptor_fails_every_time_with_the_same_message():
    ms, descriptors = _fixture_set()
    bad = list(descriptors)
    bad[0] = bad[0]._replace(s_phi_prime_card=bad[0].s_phi_prime_card + 1)
    ones = TestVector.constant(ms.models, 1)
    messages = set()
    for _ in range(2):
        with pytest.raises(InconsistentDescriptor) as info:
            endoscopic_form(ms, bad, ones, ones)
        messages.add(str(info.value))
    assert len(messages) == 1 and "fails" in messages.pop()


def test_endoscopic_form_rejects_mixed_iota_in_group():
    ms, _ = _fixture_set()
    m = catalog.model_sl2()
    d1, d2, *rest = catalog.principal_descriptors(m)
    clash = catalog.descriptors_o2()[0]._replace(group_label=d1.group_label)
    ones = TestVector.constant(ms.models, 1)
    with pytest.raises(InconsistentDescriptor):
        endoscopic_form(ms, [d1, clash], ones, ones)


# ---------------------------------------------------------------------------
# s_disc and the induction shape
# ---------------------------------------------------------------------------

def test_s_disc_sl2_model():
    ms = DiscreteModelSet((catalog.model_sl2(),))
    ones = TestVector.constant(ms.models, 1)
    assert s_disc(ms, ones, ones) == _gr(Fraction(-1, 16))


def test_s_disc_skips_central_torus_bases():
    ms = DiscreteModelSet((catalog.model_o2(),))
    ones = TestVector.constant(ms.models, 1)
    assert s_disc(ms, ones, ones) == _gr(0)


def test_s_disc_empty():
    ms = DiscreteModelSet(())
    assert s_disc(ms, TestVector({}), TestVector({})) == _gr(0)


def test_induction_consistency():
    # Dropping the principal term from the endoscopic sum matches dropping
    # the stable distribution from the discrete part.
    models = (catalog.model_sl2(), catalog.model_swap(), catalog.model_trivial())
    ms = DiscreteModelSet(models)
    descriptors = [d for m in models for d in catalog.principal_descriptors(m)]
    principal = [d for d in descriptors if d.group_label.startswith("principal:")]
    rng = Random(23)
    for _ in range(5):
        f1 = TestVector.random(rng, ms.models)
        f2 = TestVector.random(rng, ms.models)
        full = endoscopic_form(ms, descriptors, f1, f2)
        principal_term = endoscopic_form(ms, principal, f1, f2)
        assert (full - principal_term
                == discrete_part(ms, f1, f2) - s_disc(ms, f1, f2))
