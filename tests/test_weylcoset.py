from fractions import Fraction
from itertools import permutations, product
from math import prod
from random import Random

import pytest

from helpers_oracle import (
    catalog_and_ladder_data,
    classical_datum,
    data_file_datum,
    direct_sum,
    fraction_coset_dets,
    fraction_det,
    labelled_datum,
    oracle_cocycle_holds,
    oracle_component,
    oracle_coset_sign,
)

from tracestab import catalog
from tracestab import rootdata as rootdata_module
from tracestab import weylcoset as weylcoset_module
from tracestab.errors import (
    InconsistentFlats,
    InfiniteOrder,
    MismatchedModel,
    NotAutomorphism,
    TraceStabError,
    WeylGroupTooLarge,
)
from tracestab.linalg import det, identity_matrix, invert, mat_mul, mat_vec
from tracestab.packets import DualGroupModel, ParameterModel, TwoGroup
from tracestab.rootdata import (
    build_root_datum,
    central_subgroup,
    classical_i_number,
    contragredient,
    exponents,
    quotient_by_central,
    simple_factors,
    simple_types,
    weyl_group,
)
from tracestab.weylcoset import (
    component,
    coset_sign,
    flat_orbits,
    i_number,
    untwisted_component,
    weyl_set,
)


def test_untwisted_sl2_weyl_set():
    c = untwisted_component(catalog.datum("sl2"))
    elements = weyl_set(c)
    assert len(elements) == 2
    regular = [e for e in elements if e.regular]
    assert len(regular) == 1
    assert regular[0].det_w_minus_1 == -2
    assert regular[0].sign == -1


def test_o2_minus_weyl_set():
    c = catalog.named_component("o2_twist")
    elements = weyl_set(c)
    assert len(elements) == 1
    e = elements[0]
    assert e.regular and e.det_w_minus_1 == -2 and e.sign == 1


def test_untwisted_gl1_not_regular():
    c = untwisted_component(catalog.datum("gl1"))
    (e,) = weyl_set(c)
    assert e.det_w_minus_1 == 0 and not e.regular


def test_component_rejects_non_automorphism():
    with pytest.raises(NotAutomorphism):
        component(catalog.datum("sl2"), ((2,),))
    with pytest.raises(NotAutomorphism):
        component(catalog.datum("sl2xsl2"), ((1, 1), (0, 1)))


def test_component_rejects_non_integral_twist():
    # int() would read 3/2 as the identity, the untwisted component of order 1.
    gl1 = catalog.datum("gl1")
    with pytest.raises(NotAutomorphism, match="3/2 is not an integer"):
        component(gl1, ((Fraction(3, 2),),))
    assert component(gl1, ((Fraction(-2, 2),),)) == catalog.named_component("o2_twist")


def test_component_rejects_infinite_order():
    d = build_root_datum(2, [], [])
    with pytest.raises(InfiniteOrder, match="no power up to 64 is the identity"):
        component(d, ((1, 1), (0, 1)))


def test_swap_component_accepted():
    c = catalog.named_component("a1a1_swap")
    assert c.order_theta == 2


@pytest.mark.parametrize("name,expected", [
    ("sl2", Fraction(-1, 4)),
    ("o2_twist", Fraction(1, 2)),
    ("gl1", Fraction(0)),
    ("trivial", Fraction(1)),
    ("a1a1_swap", Fraction(-1, 4)),
    ("sl3", Fraction(1, 9)),
    ("sl2xsl2", Fraction(1, 16)),
])
def test_i_number_values(name, expected):
    assert i_number(catalog.named_component(name)) == expected


def test_i_number_zero_for_central_torus():
    d = build_root_datum(2, [(2, 0)], [(1, 0)])  # SL2 x GL1
    assert i_number(untwisted_component(d)) == 0


def test_i_number_invariant_under_coset_conjugation():
    c = catalog.named_component("a1a1_swap")
    base = c.base
    for v0 in weyl_group(base):
        v0_inv = tuple(tuple(int(x) for x in row) for row in invert(v0.matrix))
        conj = mat_mul(mat_mul(v0.matrix, c.theta), v0_inv)
        assert i_number(component(base, conj)) == i_number(c)


def test_i_number_invariant_under_basis_change():
    u = ((1, 1), (0, 1))
    d = catalog.datum("sl2xsl2")
    ut = contragredient(u)
    roots = [tuple(mat_vec(ut, a)) for a in d.simple_roots]
    coroots = [tuple(mat_vec(u, a)) for a in d.simple_coroots]
    changed = build_root_datum(2, roots, coroots)
    u_inv = tuple(tuple(int(x) for x in row) for row in invert(u))
    theta_changed = mat_mul(mat_mul(u, ((0, 1), (1, 0))), u_inv)
    assert (i_number(component(changed, theta_changed))
            == i_number(catalog.named_component("a1a1_swap")))


@pytest.mark.parametrize("name", ["sl2", "sl3", "sp4", "g2", "a1a1_swap", "o2_twist"])
def test_sign_stable_under_positive_system_change(name):
    """Counted against the positive system v(Φ⁺), the inversions of w are those of v⁻¹·w·v
    against Φ⁺; the sign must not depend on v."""
    c = catalog.named_component(name)
    base = c.base
    for v in weyl_group(base)[:4]:
        v_inv = tuple(tuple(int(x) for x in row) for row in invert(v.matrix))
        for e in weyl_set(c):
            assert coset_sign(base, mat_mul(mat_mul(v_inv, e.total), v.matrix)) == e.sign


@pytest.mark.parametrize("name", ["sl2", "sp4", "g2", "a1a1_swap", "o2_twist", "sl2xsl2"])
def test_det_w_minus_1_is_integer(name):
    for e in weyl_set(catalog.named_component(name)):
        assert Fraction(e.det_w_minus_1).denominator == 1


def test_untwisted_sign_equals_det_on_root_span():
    for name in ("sl2", "sl3", "sp4", "g2"):
        c = untwisted_component(catalog.datum(name))
        for e in weyl_set(c):
            assert e.sign == det(e.total)


def _sign_cases():
    cases = [(name, catalog.named_component(name)) for name in catalog.component_names()]
    for m in catalog.fixture_models():
        for x in m.s_elements():
            cases.append((f"{m.model_id}-{x[0]}{x[1]}", m.component_at(x)))
    cases += [(f"{kind}3-sc", untwisted_component(classical_datum(kind, 3, "sc")))
              for kind in "ABC"]
    # Twists that send an odd number of positive roots to negative ones.
    cases.append(("sl2xsl2-reflect", component(catalog.datum("sl2xsl2"), ((1, 0), (0, -1)))))
    cases.append(("sl3-minus1", component(catalog.datum("sl3"), ((-1, 0), (0, -1)))))
    return cases


SIGN_CASES = _sign_cases()


@pytest.mark.parametrize("name,c", SIGN_CASES, ids=[n for n, _ in SIGN_CASES])
def test_reduced_word_sign_equals_inversion_count(name, c):
    for e in weyl_set(c):
        assert e.sign == coset_sign(c.base, e.total) == oracle_coset_sign(c.base, e.total)


DET_CASES = SIGN_CASES + [(f"{kind}3-ad", untwisted_component(classical_datum(kind, 3, "ad")))
                          for kind in "ABC"]


@pytest.mark.parametrize("name,c", DET_CASES, ids=[n for n, _ in DET_CASES])
def test_integer_det_matches_fraction_elimination(name, c):
    dets = [e.det_w_minus_1 for e in weyl_set(c)]
    assert dets == fraction_coset_dets(c)
    assert all(type(d) is Fraction for d in dets)


def test_det_matches_fraction_elimination_on_random_matrices():
    rng = Random(5)
    for n in range(6):
        for _ in range(40):
            # Small entries with many zeros force row swaps and singular cases.
            m = tuple(tuple(rng.choice((-2, -1, 0, 0, 0, 1, 2, 3)) for _ in range(n))
                      for _ in range(n))
            value = det(m)
            assert type(value) is Fraction and value == fraction_det(m)


def _weyl_set_i(c):
    """i(S) summed element by element over ``weyl_set``: the oracle for the flats route."""
    elements = weyl_set(c)
    return sum((Fraction(e.sign) / abs(e.det_w_minus_1) for e in elements if e.regular),
               Fraction(0)) / len(elements)


ORACLE_LABELS = ([f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 6)]
                 + [f"C{n}" for n in range(3, 6)] + ["D4", "D5", "F4", "G2"])


@pytest.mark.parametrize("form", ["sc", "ad"])
@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_flats_i_matches_the_weyl_set_sum(label, form):
    c = untwisted_component(labelled_datum(label, "given", form))
    assert i_number(c) == _weyl_set_i(c)


ORACLE_PRODUCTS = [(f"{a}x{b}-{form}", direct_sum(labelled_datum(a, "given", form),
                                                    labelled_datum(b, "given", form)))
                   for a, b in (("A1", "G2"), ("A2", "B2"), ("B3", "A1")) for form in ("sc", "ad")]


@pytest.mark.parametrize("name,d", ORACLE_PRODUCTS, ids=[n for n, _ in ORACLE_PRODUCTS])
def test_flats_i_matches_the_weyl_set_sum_on_products(name, d):
    c = untwisted_component(d)
    assert i_number(c) == _weyl_set_i(c)


def test_flats_i_is_0_with_a_central_torus_and_1_at_rank_0():
    sl3_times_gl1 = build_root_datum(3, [(2, -1, 0), (-1, 2, 0)], [(1, 0, 0), (0, 1, 0)])
    for d, expected in ((sl3_times_gl1, 0), (build_root_datum(0, [], []), 1)):
        c = untwisted_component(d)
        assert i_number(c) == _weyl_set_i(c) == expected


def test_a_product_refuses_before_walking_any_factors_flats(monkeypatch):
    def walk(t, terms):
        raise AssertionError(f"the flats of {t.label} were walked")

    monkeypatch.setattr(weylcoset_module, "elliptic_series", walk)
    d = direct_sum(labelled_datum("A1", "given", "sc"), labelled_datum("E8", "given", "sc"))
    with pytest.raises(WeylGroupTooLarge) as refusal:
        i_number(untwisted_component(d))
    assert str(refusal.value) == "W(E8) has order 696729600, above the limit 2903040"


def _simple_type(label):
    d = labelled_datum(label, "given", "sc")
    (t,) = simple_factors(d)
    return t


@pytest.mark.parametrize("label,flats", [("D4", None), ("F4", None), ("E6", 4598), ("E7", 90408)])
def test_flat_counts_satisfy_the_orlik_solomon_factorization(label, flats):
    """Σ_L μ(L)·t^{dim L} = Π(t − mᵢ), with μ(L) = (−1)^{codim L}·Π(exponents of W_L)."""
    t = _simple_type(label)
    n = len(t.cartan)
    orbits = flat_orbits(t) + ((1, tuple(range(n))),)
    if flats is not None:
        assert sum(size for size, _ in orbits) == flats
    by_dim = [0] * (n + 1)
    for size, k in orbits:
        w_l = [c for c in t.positives if sum(c[i] for i in k) == sum(c)]
        by_dim[n - len(k)] += size * (-1) ** len(k) * prod(exponents(w_l))
    expected = [1]  # coefficients of Π(t − mᵢ), constant term first
    for m in exponents(t.positives):
        expected = [(expected[k - 1] if k else 0) - m * (expected[k] if k < len(expected) else 0)
                    for k in range(len(expected) + 1)]
    assert by_dim == expected


OS_TYPES = {f"{name}-{t.label}-{t.nodes[0]}": t
            for name, d in catalog_and_ladder_data() + [
                (stem, data_file_datum(stem)) for stem in ("f4", "e6_sc", "e7_sc")]
            for t in simple_factors(d)}


@pytest.mark.parametrize("t", list(OS_TYPES.values()), ids=list(OS_TYPES))
def test_flat_orbits_satisfy_orlik_solomon_by_parabolic_mobius(t):
    """Π(s − mᵢ) = (−1)ⁿ·Π mᵢ + Σ_{(size, K)} size·μ(L_K)·s^{n−|K|}, μ(L_K) = (−1)^{|K|}·Π m(W_K).

    The Möbius value of L_K is read off the parabolic W_K, the diagram's
    pieces on K, so the flat counts are checked apart from the E-series.
    """
    n = len(t.cartan)
    orbits = flat_orbits(t)
    got = [(-1) ** n * prod(exponents(t.positives))] + [0] * n  # constant term first
    for size, k in orbits:
        got[n - len(k)] += size * (-1) ** len(k) * prod(
            prod(exponents(p.positives)) for p in simple_types(t.cartan, k))
    expected = [1]
    for m in exponents(t.positives):  # times (s − m)
        expected = [a - m * b for a, b in zip([0] + expected, expected + [0])]
    assert got == expected
    if t.label == "F4":
        assert orbits == ((1, ()), (12, (0,)), (12, (2,)), (16, (0, 1)), (72, (0, 2)),
                          (18, (1, 2)), (16, (2, 3)), (12, (0, 1, 2)), (48, (0, 1, 3)),
                          (48, (0, 2, 3)), (12, (1, 2, 3)))
    if t.label == "E7":
        assert got == [-765765, 1286963, -663957, 162939, -21735, 1617, -63, 1]
        assert len(orbits) == 31


def _fresh_i(monkeypatch, d):
    """i_number(d) with empty memos, restored afterwards."""
    monkeypatch.setattr(weylcoset_module, "_ELLIPTIC", {})
    i_number.cache_clear()
    try:
        return i_number(untwisted_component(d))
    finally:
        i_number.cache_clear()


def test_a_wrong_flat_count_raises_the_library_error(monkeypatch):
    real = weylcoset_module.flat_orbits

    def one_too_many(t):
        (size, k), *rest = real(t)
        return ((size + 1, k), *rest)

    monkeypatch.setattr(weylcoset_module, "flat_orbits", one_too_many)
    with pytest.raises(InconsistentFlats, match="minus its flats leaves a pole"):
        _fresh_i(monkeypatch, labelled_datum("G2", "given", "sc"))  # a classical i walks none
    assert issubclass(InconsistentFlats, TraceStabError)


CLASSICAL_LABELS = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 8)]
                    + [f"C{n}" for n in range(3, 8)] + [f"D{n}" for n in range(4, 8)])


@pytest.mark.parametrize("form", ["sc", "ad"])
@pytest.mark.parametrize("label", CLASSICAL_LABELS)
def test_classical_closed_forms_equal_the_flats(label, form):
    """i(Aₙ), i(Bₙ) = i(Cₙ) and i(Dₙ) in closed form equal (−1)ⁿ·E_W(1)/|W| read off the flats.

    ``elliptic_series`` still walks the flats of any type, so it is the oracle.
    """
    d = labelled_datum(label, "given", form)
    (t,) = simple_factors(d)
    flats = (-1) ** len(t.cartan) * weylcoset_module.elliptic_series(t, 1)[0] / t.order
    assert t.label == label
    assert classical_i_number(t) == flats == i_number(untwisted_component(d))


def test_exceptional_types_have_no_closed_form():
    for label in ("E6", "E7", "E8", "F4", "G2"):
        (t,) = simple_factors(labelled_datum(label, "given", "sc"))
        assert classical_i_number(t) is None, label


def test_untwisted_i_builds_no_weyl_group(monkeypatch):
    def refuse(*_):
        raise AssertionError("the Weyl group was built")

    monkeypatch.setattr(weylcoset_module, "weyl_set", refuse)
    monkeypatch.setattr(rootdata_module, "weyl_group", refuse)
    monkeypatch.setattr(rootdata_module, "coset_walk", refuse)
    monkeypatch.setattr(weylcoset_module, "coset_walk", refuse)
    assert _fresh_i(monkeypatch, classical_datum("B", 4, "ad")) == Fraction(195, 2048)
    # B4 reads its closed form; F4 and E6 walk the flats for E_W, and build no W either.
    for label, value in (("F4", Fraction(30145, 165888)), ("E6", Fraction(2513, 34992))):
        assert _fresh_i(monkeypatch, labelled_datum(label, "given", "sc")) == value, label


# ---------------------------------------------------------------------------
# component, coset_sign and the model cocycle read θ = w·τ off pinned_part;
# the definition checks of helpers_oracle are the reference.
# ---------------------------------------------------------------------------

def _equivalence_data():
    sl2, pgl2, sl3, gl1, sl2xsl2 = map(catalog.datum, ("sl2", "pgl2", "sl3", "gl1", "sl2xsl2"))
    half = Fraction(1, 2)
    return [(name, catalog.datum(name)) for name in catalog.datum_names()] + [
        ("gl2", build_root_datum(2, [(1, -1)], [(1, -1)])),
        ("gl3", build_root_datum(3, [(1, -1, 0), (0, 1, -1)], [(1, -1, 0), (0, 1, -1)])),
        ("so4", quotient_by_central(sl2xsl2, central_subgroup(sl2xsl2, [(half, half)]))),
        ("sl2xpgl2", direct_sum(sl2, pgl2)),
        ("sl3xgl1", direct_sum(sl3, gl1)),
        ("B3-sc", classical_datum("B", 3, "sc")),
    ]


def _signed_permutations(n):
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            yield tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(n))
                        for i in range(n))


def _verdict(d, theta):
    try:
        return component(d, theta).order_theta
    except (NotAutomorphism, InfiniteOrder) as exc:
        return type(exc)


EQUIVALENCE_DATA = _equivalence_data()


@pytest.mark.parametrize("name,d", EQUIVALENCE_DATA, ids=[n for n, _ in EQUIVALENCE_DATA])
def test_pinned_part_agrees_with_the_definition_checks(name, d):
    """Acceptance, order θ, the coset sign and the model cocycle, against the oracle."""
    rng = Random(f"pinned-{name}")
    n = d.rank
    group = [w.matrix for w in weyl_group(d)]
    candidates = list(_signed_permutations(n))
    candidates += [tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
                   for _ in range(250)]
    accepted = []
    for theta in candidates + [mat_mul(rng.choice(group), t) for t in candidates[:60]]:
        verdict = _verdict(d, theta)
        assert verdict == oracle_component(d, theta), theta
        if isinstance(verdict, int):
            accepted.append(theta)
            assert coset_sign(d, theta) == oracle_coset_sign(d, theta), theta
    assert accepted
    for _ in range(80):
        sm = rng.randint(0, 2)
        r = rng.randint(0, 2 - sm)
        elements = [(xm, xr) for xm in range(1 << sm) for xr in range(1 << r)]
        thetas = {x: rng.choice(accepted) for x in elements}
        thetas[(0, 0)] = identity_matrix(n)
        try:
            ParameterModel("m", TwoGroup(sm), TwoGroup(r), DualGroupModel(d, thetas))
            holds = True
        except MismatchedModel as exc:
            assert "cocycle" in str(exc)
            holds = False
        assert holds == oracle_cocycle_holds(d, thetas), thetas
