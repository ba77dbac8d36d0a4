import re
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracle import (
    adjoint_factor_closed,
    catalog_and_ladder_data,
    datum_from_cartan,
    e_cartan,
    oracle_adjoint_factor,
    oracle_theta,
    oracle_transfer_factor,
    transfer_factor_closed,
)
from tracestab import catalog, rootdata, weylcoset
from tracestab.errors import InvalidDimension, MismatchedModel, NotAutomorphism, TraceStabError
from tracestab.linalg import identity_matrix, mat_mul
from tracestab.packets import (
    GR_ZERO,
    DualGroupModel,
    GaussianRational,
    ParameterModel,
    TestVector,
    TwoGroup,
    adjoint_factor,
    invert_transfer,
    theta_transfer,
    transfer_factor,
    verify_adjoint,
    with_flipped_pairing,
)

ALL_DIMS = [(sm, r) for sm in range(3) for r in range(3)]
ORACLE_DIMS = [(sm, r) for sm in range(6) for r in range(6) if sm + r <= 5]
FLIP_DIMS = [(1, 1), (1, 2), (2, 1), (0, 2), (2, 0)]


def _model(sm, r, model_id=None):
    return ParameterModel(model_id or f"m{sm}{r}", TwoGroup(sm), TwoGroup(r))


def test_gaussian_rational_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(1, 3))
    b = GaussianRational(Fraction(2), Fraction(-1))
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(-2, 3))
    assert a * b == GaussianRational(Fraction(4, 3), Fraction(1, 6))
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0


def test_trivial_model_factors():
    m = _model(0, 0)
    assert transfer_factor(m, (0, 0), (0, 0)) == 1
    assert adjoint_factor(m, (0, 0), (0, 0)) == 1
    assert verify_adjoint(m)


def test_transfer_factor_r_only_model():
    m = _model(0, 1)
    r0 = 1
    assert transfer_factor(m, (0, r0), (0, r0)) == 1
    assert transfer_factor(m, (0, r0), (0, 0)) == 0


def test_adjoint_factor_closed_form_examples():
    m = _model(1, 1)
    eta, r0, x0 = 1, 1, 1
    # x with matching R-part evaluates the S_M character at the S_M part.
    assert adjoint_factor(m, (x0, r0), (eta, r0)) == TwoGroup.char(eta, x0) == -1
    # mismatched R-part vanishes.
    assert adjoint_factor(m, (x0, 0), (eta, r0)) == 0


@pytest.mark.parametrize("dims", ALL_DIMS)
def test_route_agreement_exhaustive(dims):
    m = _model(*dims)
    for tau in m.taus():
        for x in m.s_elements():
            assert transfer_factor(m, tau, x) == transfer_factor_closed(m, tau, x)
            assert adjoint_factor(m, x, tau) == adjoint_factor_closed(m, x, tau)


@pytest.mark.parametrize("dims", ALL_DIMS)
def test_scaling_law(dims):
    m = _model(*dims)
    ratio = Fraction(m.r.size, m.s_size)
    for tau in m.taus():
        for x in m.s_elements():
            value = transfer_factor(m, tau, x)
            assert value == ratio * adjoint_factor(m, x, tau)
            assert Fraction(value).denominator >= 1  # rational, hence real


@pytest.mark.parametrize("dims", ALL_DIMS)
def test_adjoint_relations_exhaustive(dims):
    assert verify_adjoint(_model(*dims))


def _assert_matches_oracle(m):
    for tau in m.taus():
        for x in m.s_elements():
            assert transfer_factor(m, tau, x) == oracle_transfer_factor(m, tau, x)
            assert adjoint_factor(m, x, tau) == oracle_adjoint_factor(m, x, tau)


@pytest.mark.parametrize("dims", ORACLE_DIMS)
def test_transfer_table_matches_character_sums(dims):
    _assert_matches_oracle(_model(*dims))


@pytest.mark.parametrize("dims", FLIP_DIMS)
def test_every_single_flip_matches_oracle_and_fails_adjoint(dims):
    m = _model(*dims)
    for char in m.s_elements():
        for x in m.s_elements():
            bad = with_flipped_pairing(m, char, x)
            _assert_matches_oracle(bad)
            assert not verify_adjoint(bad), f"flip {char}, {x} slipped through"


def test_flipped_copy_gets_its_own_table():
    m = _model(1, 1)
    assert verify_adjoint(m)
    bad = with_flipped_pairing(m, (1, 0), (1, 1))
    assert bad.transfer_numerators != m.transfer_numerators
    assert verify_adjoint(m) and not verify_adjoint(bad)


@pytest.mark.parametrize("dim", [-1, True, 1.0, "2"])
def test_two_group_rejects_bad_dimension(dim):
    with pytest.raises(InvalidDimension):
        TwoGroup(dim)
    assert issubclass(InvalidDimension, TraceStabError)


def test_two_group_char_is_parity_of_common_bits():
    for c in range(16):
        for v in range(16):
            assert TwoGroup.char(c, v) == (-1) ** bin(c & v).count("1")


def test_corrupted_pairing_fails_adjoint():
    m = _model(1, 1)
    bad = with_flipped_pairing(m, (1, 0), (1, 1))
    assert not verify_adjoint(bad)


def test_corrupted_pairing_breaks_route_agreement():
    m = _model(1, 1)
    bad = with_flipped_pairing(m, (1, 1), (0, 1))
    mismatches = [
        (tau, x)
        for tau in bad.taus() for x in bad.s_elements()
        if transfer_factor(bad, tau, x) != transfer_factor_closed(bad, tau, x)
    ]
    assert mismatches


def test_theta_transfer_constant_vector():
    m = _model(2, 1)
    ones = TestVector.constant([m], 1)
    for r in m.r.elements():
        assert theta_transfer(m, (0, r), ones) == GaussianRational(Fraction(1))
        for eta in m.s_m.elements():
            if eta != 0:
                assert theta_transfer(m, (eta, r), ones) == GR_ZERO


def test_theta_transfer_trivial_model_constant():
    m = _model(0, 0)
    c = GaussianRational(Fraction(3, 7), Fraction(-2, 5))
    f = TestVector({(m.model_id, (0, 0)): c})
    assert theta_transfer(m, (0, 0), f) == c


def test_integer_view_is_one_denominator_and_exact_numerators():
    f = TestVector({("m", (0, 0)): GaussianRational(Fraction(1, 6), Fraction(-3, 4)),
                    ("m", (1, 0)): GaussianRational(Fraction(5), Fraction(0)),
                    ("n", (0, 1)): GaussianRational(Fraction(2, 9))})
    denom, nums = f.integer_view
    assert denom == 36
    assert nums == {("m", (0, 0)): (6, -27), ("m", (1, 0)): (180, 0), ("n", (0, 1)): (8, 0)}
    assert f.integer_view is f.integer_view  # built once per vector
    assert TestVector({}).integer_view == (1, {})
    m = _model(1, 0, "m")
    assert f.column(m) == [(6, -27), (180, 0)]


@pytest.mark.parametrize("dims", FLIP_DIMS)
def test_theta_transfer_matches_fraction_oracle(dims):
    # Honest and flipped models, whole and restricted sums, against the
    # per-entry character sums in Fractions.
    rng = Random(300 + 10 * dims[0] + dims[1])
    honest = _model(*dims)
    for m in (honest, with_flipped_pairing(honest, (0, 0), (0, 0))):
        f = TestVector.random(rng, [m])
        subset = frozenset(x for x in m.s_elements() if rng.random() < 0.5)
        for tau in m.taus():
            assert theta_transfer(m, tau, f) == oracle_theta(m, tau, f)
            restricted = TestVector({k: v for k, v in f.values.items() if k[1] in subset})
            assert theta_transfer(m, tau, f, restrict_to=subset) == oracle_theta(m, tau, restricted)


def test_invert_transfer_recovers_constants():
    m = _model(1, 1)
    ones = TestVector.constant([m], 1)
    theta = {tau: theta_transfer(m, tau, ones) for tau in m.taus()}
    for x in m.s_elements():
        assert invert_transfer(m, x, theta) == GaussianRational(Fraction(1))


def test_invert_transfer_zero():
    m = _model(1, 1)
    for x in m.s_elements():
        assert invert_transfer(m, x, {}) == GR_ZERO


@pytest.mark.parametrize("dims", [(1, 1), (2, 2), (2, 1), (0, 2)])
def test_transfer_inversion_roundtrip_random(dims):
    m = _model(*dims)
    rng = Random(20_000 + dims[0] * 10 + dims[1])
    for _ in range(50):
        f = TestVector.random(rng, [m])
        theta = {tau: theta_transfer(m, tau, f) for tau in m.taus()}
        for x in m.s_elements():
            assert invert_transfer(m, x, theta) == f.value(m.model_id, x)


@given(st.integers(-40, 40), st.integers(1, 12), st.integers(-40, 40), st.integers(1, 12))
@settings(max_examples=40, deadline=None)
def test_roundtrip_single_point_mass(p, q, r, s):
    m = _model(1, 1)
    value = GaussianRational(Fraction(p, q), Fraction(r, s))
    f = TestVector({(m.model_id, (1, 0)): value})
    theta = {tau: theta_transfer(m, tau, f) for tau in m.taus()}
    assert invert_transfer(m, (1, 0), theta) == value
    assert invert_transfer(m, (0, 1), theta) == GR_ZERO


def test_mismatched_model_rejected():
    m = _model(1, 1)
    with pytest.raises(MismatchedModel):
        transfer_factor(m, (5, 0), (0, 0))
    with pytest.raises(MismatchedModel):
        adjoint_factor(m, (0, 4), (0, 0))


def test_iota_respects_projection():
    m = _model(2, 2)
    for tau in m.taus():
        assert m.iota(tau)[1] == tau[1]


def test_iota_is_bijective():
    m = _model(2, 1)
    images = {m.iota(tau) for tau in m.taus()}
    assert len(images) == len(m.taus()) == m.s_size


def _refuse_weyl_group(monkeypatch):
    """No W and no coset Wθ may be walked."""
    def refuse(*_):
        raise AssertionError("the Weyl group was walked")

    monkeypatch.setattr(rootdata, "weyl_group", refuse)
    monkeypatch.setattr(rootdata, "coset_walk", refuse)
    monkeypatch.setattr(weylcoset, "coset_walk", refuse)


def test_dual_group_cocycle_enforced(monkeypatch):
    _refuse_weyl_group(monkeypatch)
    base = catalog.datum("gl1")
    # Nonidentity twist on the identity component is rejected.
    with pytest.raises(MismatchedModel):
        ParameterModel("bad", TwoGroup(0), TwoGroup(1),
                       DualGroupModel(base, {(0, 0): ((-1,),), (0, 1): ((1,),)}))


def test_components_exist_from_construction():
    sl2 = catalog.datum("sl2")
    model = DualGroupModel(sl2, {(0, 1): [[-1]], (0, 0): ((1,),)})
    assert model.component_at((0, 0)) == weylcoset.untwisted_component(sl2)
    assert model.component_at((0, 1)) == weylcoset.component(sl2, ((-1,),))
    assert list(model.thetas.items()) == [((0, 0), ((1,),)), ((0, 1), ((-1,),))]
    with pytest.raises(NotAutomorphism):  # a bad twist raises before any model is built
        DualGroupModel(sl2, {(0, 0): ((1,),), (0, 1): ((2,),)})


@pytest.mark.parametrize("x", [(0, 2), (1, 0), "00", [0, 0]], ids=repr)
def test_component_at_without_a_twist_names_the_component(x):
    model = DualGroupModel(catalog.datum("sl2"), {(0, 0): ((1,),), (0, 1): ((-1,),)})
    with pytest.raises(MismatchedModel, match=rf"component {re.escape(str(x))} has no twist"):
        model.component_at(x)


def test_a_shared_dual_group_is_not_changed_by_the_models_built_on_it():
    sl2 = catalog.datum("sl2")
    shared = DualGroupModel(sl2, {(xm, xr): ((1,),) for xm in range(2) for xr in range(2)})
    before = {name: dict(value) if isinstance(value, dict) else value
              for name, value in vars(shared).items()}
    small = ParameterModel("small", TwoGroup(0), TwoGroup(1), shared)
    large = ParameterModel("large", TwoGroup(1), TwoGroup(1), shared)
    with pytest.raises(MismatchedModel, match=r"missing twist for component \(0, 2\)"):
        ParameterModel("too-large", TwoGroup(0), TwoGroup(2), shared)
    assert vars(shared) == before
    for m in (small, large):
        assert all(m.component_at(x) is shared.component_at(x) for x in m.s_elements())


def test_list_twists_are_read_through_their_components():
    sl2 = catalog.datum("sl2")
    as_lists = ParameterModel("m", TwoGroup(0), TwoGroup(1),
                              DualGroupModel(sl2, {(0, 0): [[1]], (0, 1): [[-1]]}))
    as_tuples = ParameterModel("m", TwoGroup(0), TwoGroup(1),
                               DualGroupModel(sl2, {(0, 0): ((1,),), (0, 1): ((-1,),)}))
    for x in as_tuples.s_elements():
        assert as_lists.component_at(x) == as_tuples.component_at(x)
    o2_lists = ParameterModel("o2", TwoGroup(0), TwoGroup(1), DualGroupModel(
        catalog.datum("gl1"), {(0, 0): [[1]], (0, 1): [[-1]]}))
    assert (catalog.principal_descriptors(o2_lists)
            == catalog.principal_descriptors(catalog.model_o2()))
    with pytest.raises(MismatchedModel, match="identity component must be untwisted"):
        ParameterModel("bad", TwoGroup(0), TwoGroup(1),
                       DualGroupModel(catalog.datum("gl1"), {(0, 0): [[-1]], (0, 1): [[1]]}))


def test_dual_group_cocycle_failure_names_the_pair(monkeypatch):
    _refuse_weyl_group(monkeypatch)
    # theta(0,1)·theta(0,2) = 1 is not a Weyl element times theta(0,3)^-1 = swap.
    swap = ((0, 1), (1, 0))
    thetas = {(0, 0): ((1, 0), (0, 1)), (0, 1): swap, (0, 2): swap, (0, 3): swap}
    with pytest.raises(MismatchedModel, match=r"twist cocycle fails at \(0, 1\), \(0, 2\)"):
        ParameterModel("bad", TwoGroup(0), TwoGroup(2),
                       DualGroupModel(catalog.datum("sl2xsl2"), thetas))


def test_component_table_keeps_model_checks():
    m = catalog.model_swap()
    built = {x: m.component_at(x) for x in m.s_elements()}
    assert all(m.component_at(x) is c for x, c in built.items())
    for x in ((0, 2), (2, 0), (-1, 0), (0, -1)):
        with pytest.raises(MismatchedModel):
            m.component_at(x)


# ---------------------------------------------------------------------------
# The twist cocycle compares pinned parts (rootdata.pinned_part); W is never built.
# ---------------------------------------------------------------------------

MEMBERSHIP_DATA = catalog_and_ladder_data()


@pytest.mark.parametrize("name, d", MEMBERSHIP_DATA, ids=[n for n, _ in MEMBERSHIP_DATA])
def test_in_weyl_group_matches_weyl_group_membership(name, d):
    """m lies in W exactly when its pinned part is 1; on w ∈ W the descent takes ℓ(w) steps."""
    group = {w.matrix for w in rootdata.weyl_group(d)}
    one = identity_matrix(d.rank)
    minus_one = tuple(tuple(-x for x in row) for row in one)
    twists = [minus_one] + ([((0, 1), (1, 0))] if name == "sl2xsl2" else [])
    for w in rootdata.weyl_group(d):
        assert rootdata.pinned_part(d, w.matrix) == (one, len(w.word))
        for twist in twists:
            product = mat_mul(w.matrix, twist)
            assert (rootdata.pinned_part(d, product)[0] == one) == (product in group)


def test_models_validate_without_building_w(monkeypatch):
    _refuse_weyl_group(monkeypatch)
    built = [model() for model in (catalog.model_o2, catalog.model_sl2, catalog.model_swap,
                                   catalog.model_trivial)]
    rng = Random(73)
    built += [catalog.random_model(rng, i) for i in range(24)]
    assert all(m.dual_group is not None for m in built)


def _e_model(n):
    """(Z/2)² over E_n with θ = −1 on one generator and 1 on the other two elements.

    The cocycle at the two generators is θ·1·1⁻¹ = −1, which lies in W(E7)
    but not in W(E6).
    """
    base = datum_from_cartan(e_cartan(n), "sc")
    ident = identity_matrix(n)
    minus_one = tuple(tuple(-x for x in row) for row in ident)
    thetas = {(0, 0): ident, (1, 0): minus_one, (0, 1): ident, (1, 1): ident}
    return ParameterModel(f"e{n}", TwoGroup(1), TwoGroup(1), DualGroupModel(base, thetas))


def test_e6_cocycle_failure_is_refused_quickly(monkeypatch):
    _refuse_weyl_group(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(MismatchedModel, match=r"twist cocycle fails at \(0, 1\), \(1, 0\)"):
        _e_model(6)
    assert time.perf_counter() - start < 2


def test_e7_dual_group_validates(monkeypatch):
    _refuse_weyl_group(monkeypatch)
    start = time.perf_counter()
    m = _e_model(7)
    assert time.perf_counter() - start < 2
    assert m.component_at((1, 0)).order_theta == 2
