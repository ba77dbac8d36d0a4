from fractions import Fraction
from math import prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracle import (
    catalog_and_ladder_data,
    classical_datum,
    data_file_datum,
    datum_from_cartan,
    direct_sum,
    e_cartan,
    fraction_elliptic_classes,
    fraction_stabilizer_order,
    interleaved_product,
    labelled_datum,
    oracle_classes,
    oracle_points,
    oracle_reflection_order,
    sorted_image_subsystems,
    validate_twisted_candidates,
    weyl_image_orbit,
)

from tracestab import catalog, rootdata
from tracestab import elliptic as elliptic_module
from tracestab.elliptic import (
    _alcove_vertices,
    _weyl_orbit,
    centralizer,
    elliptic_classes,
    full_rank_subsystems,
    is_elliptic,
    sub_datum,
    torus_point,
)
from tracestab.errors import TwistedUnsupported
from tracestab.linalg import clear_denominators, det, identity_matrix, mat_mul, mat_vec
from tracestab.rootdata import (
    build_root_datum,
    cartan_type,
    contragredient,
    simple_factors,
    weyl_group,
)
from tracestab.sigma import sigma, verify_ei
from tracestab.weylcoset import component, i_number, untwisted_component

RANK_LE_2 = ["trivial", "gl1", "sl2", "pgl2", "sl3", "pgl3", "sp4", "so5", "g2", "sl2xsl2"]


@pytest.mark.parametrize("name", RANK_LE_2)
def test_untwisted_enumeration_matches_grid_oracle(name):
    d = catalog.datum(name)
    expected = oracle_classes(d) if d.is_semisimple() else []
    got = elliptic_classes(untwisted_component(d))
    assert len(got) == len(expected)
    for cls, (rep, pi0, ctype) in zip(got, expected):
        assert cls.rep.coords == rep
        assert cls.pi0 == pi0
        assert cartan_type(cls.centralizer_datum) == ctype


# The alcove-vertex enumeration against the search-based Fraction reference,
# and the root-index subsystem dedup against the sorted-image one, on the
# catalog and on the whole sigma ladder.
FAST_PATH_DATA = catalog_and_ladder_data()


@pytest.mark.parametrize("name,d", FAST_PATH_DATA, ids=[n for n, _ in FAST_PATH_DATA])
def test_integer_orbit_walk_matches_fraction_oracle(name, d):
    got = elliptic_classes(untwisted_component(d))
    assert [(c.rep.coords, c.pi0) for c in got] == fraction_elliptic_classes(d)


@pytest.mark.parametrize("name,d", FAST_PATH_DATA, ids=[n for n, _ in FAST_PATH_DATA])
def test_subsystem_dedup_matches_sorted_image_oracle(name, d):
    assert full_rank_subsystems(d) == sorted_image_subsystems(d)


@pytest.mark.parametrize("name,d", FAST_PATH_DATA, ids=[n for n, _ in FAST_PATH_DATA])
def test_simple_reflection_walk_matches_weyl_image_orbit(name, d):
    if not d.is_semisimple() or d.rank == 0:
        return
    for t in _alcove_vertices(d):
        a, n = clear_denominators(t)
        assert set(_weyl_orbit(d, a, n)) == weyl_image_orbit(d, a, n), t


def _class_and_descriptor_values(models):
    elliptic_classes.cache_clear()
    return ([elliptic_classes(untwisted_component(catalog.datum(name)))
             for name in catalog.datum_names()],
            [catalog.principal_descriptors(m) for m in models])


def test_untwisted_classes_and_descriptors_never_build_w(monkeypatch):
    models = catalog.fixture_models()
    with monkeypatch.context() as patch:
        # The orbit by every element of W, as the classes were found before the walk.
        patch.setattr(elliptic_module, "_weyl_orbit", weyl_image_orbit)
        expected = _class_and_descriptor_values(models)

    def refuse(d):
        raise AssertionError("weyl_group was called")

    monkeypatch.setattr(rootdata, "weyl_group", refuse)
    try:
        assert _class_and_descriptor_values(models) == expected
    finally:
        elliptic_classes.cache_clear()


@pytest.mark.parametrize("stem,types", [
    ("f4", [("A1", "A1", "A1", "A1"), ("A1", "A1", "B2"), ("A1", "A3"), ("A1", "C3"),
            ("A2", "A2"), ("B4",), ("D4",), ("F4",)]),
    ("e6_sc", [("A1", "A5"), ("A2", "A2", "A2"), ("E6",)]),
    ("e7_sc", [("A1",) * 7, ("A1", "A1", "A1", "D4"), ("A1", "A3", "A3"), ("A1", "D6"),
               ("A2", "A5"), ("A7",), ("E7",)]),
    ("e8_sc", [("A1",) * 8, ("A1", "A1", "A1", "A1", "D4"), ("A1", "A1", "A3", "A3"),
               ("A1", "A1", "D6"), ("A1", "A2", "A5"), ("A1", "A7"), ("A1", "E7"),
               ("A2", "A2", "A2", "A2"), ("A2", "E6"), ("A3", "D5"), ("A4", "A4"), ("A8",),
               ("D4", "D4"), ("D8",), ("E8",)]),
], ids=["f4", "e6_sc", "e7_sc", "e8_sc"])
def test_full_rank_subsystems_walk_masks_without_w(monkeypatch, stem, types):
    # E7 and E8 are past MAX_WEYL_ORDER: the classes come from positive-root masks, never
    # from W, and each orbit of masks is walked once (E8 yields 120 children in 15 classes).
    def refuse(*_):
        raise AssertionError("the Weyl group was built")

    monkeypatch.setattr(rootdata, "weyl_group", refuse)
    monkeypatch.setattr(rootdata, "coset_walk", refuse)
    d = data_file_datum(stem)
    assert sorted(cartan_type(sub_datum(d, s)) for s in full_rank_subsystems(d)) == types


def test_e7_classes_regression():
    sc = elliptic_classes(untwisted_component(datum_from_cartan(e_cartan(7), "sc")))
    assert len(sc) == 8 and all(c.pi0 == 1 for c in sc)
    ad = elliptic_classes(untwisted_component(datum_from_cartan(e_cartan(7), "ad")))
    assert [(cartan_type(c.centralizer_datum), c.pi0) for c in ad] == [
        (("E7",), 1), (("A1", "D6"), 1), (("A2", "A5"), 1), (("A7",), 2), (("A1", "A3", "A3"), 2)]


# ---------------------------------------------------------------------------
# Worked examples.
# ---------------------------------------------------------------------------

def test_sl2_classes():
    got = elliptic_classes(catalog.named_component("sl2"))
    assert [c.rep.coords for c in got] == [(Fraction(0),), (Fraction(1, 2),)]
    assert all(c.pi0 == 1 for c in got)
    assert all(cartan_type(c.centralizer_datum) == ("A1",) for c in got)


def test_pgl2_single_class():
    got = elliptic_classes(catalog.named_component("pgl2"))
    assert [c.rep.coords for c in got] == [(Fraction(0),)]


def test_gl1_no_classes():
    assert elliptic_classes(catalog.named_component("gl1")) == ()


def test_o2_minus_class():
    (cls,) = elliptic_classes(catalog.named_component("o2_twist"))
    assert cls.pi0 == 2
    assert cls.centralizer_datum.rank == 0
    assert cls.elliptic


def test_swap_classes_fold_to_diagonal():
    got = elliptic_classes(catalog.named_component("a1a1_swap"))
    assert len(got) == 2
    assert all(cartan_type(c.centralizer_datum) == ("A1",) for c in got)
    assert all(c.pi0 == 1 for c in got)


def test_torus_twist_general_rank2():
    d = build_root_datum(2, [], [])
    c = component(d, ((-1, 0), (0, -1)))
    (cls,) = elliptic_classes(c)
    assert cls.pi0 == 4  # |det(theta - 1)| on a rank-2 torus
    assert cls.centralizer_datum.rank == 0


def test_torus_twist_with_fixed_directions_is_empty():
    d = build_root_datum(2, [], [])
    c = component(d, ((-1, 0), (0, 1)))
    assert elliptic_classes(c) == ()


def test_unsupported_twist_raises():
    # SL3 ⋊ swap (tests/data/sl3_swap.json): outer, not a torus twist, not a factor swap.
    # Its composites w·swap, such as s₁·swap, have the same pinned part and refuse too.
    sl3 = catalog.datum("sl3")
    swap = ((0, 1), (1, 0))
    for w in weyl_group(sl3):
        with pytest.raises(TwistedUnsupported):
            elliptic_classes(component(sl3, mat_mul(w.matrix, swap)))


def _factor_swap(a):
    """a × a with the factor swap on X∨ ⊕ X∨."""
    n = a.rank
    return direct_sum(a, a), tuple(tuple(int(j == (i + n) % (2 * n)) for j in range(2 * n))
                                   for i in range(2 * n))


@pytest.mark.parametrize("name", ["sl2", "sl3", "sp4", "g2"])
def test_every_composite_of_a_factor_swap_has_its_classes(name):
    """G°·w·τ = G°·τ, so each w·swap has the classes of the swap, and e = i on it.

    The swap of a × a folds to the diagonal a, so those are the untwisted
    classes of a.  The fold is read off the pinned part τ, so every w ∈ W
    answers, not only those whose w·swap is itself an involution.
    """
    a = catalog.datum(name)
    d, swap = _factor_swap(a)
    classes = elliptic_classes(untwisted_component(a))
    for w in weyl_group(d):
        c = component(d, mat_mul(w.matrix, swap))
        assert elliptic_classes(c) == classes, w.word
        assert verify_ei(c).equal, w.word


def test_inner_twists_have_the_untwisted_classes():
    """θ ∈ W has pinned part 1 and Wθ = W, so the classes are the untwisted ones and e = i.

    Every w ∈ W of every catalog datum with roots, 48 components, is checked,
    among them SL2 with θ = −1 and s₁ = diag(1, −1) on SL2 × SL2.
    """
    count = 0
    for name in catalog.datum_names():
        d = catalog.datum(name)
        plain = untwisted_component(d)
        for w in weyl_group(d) if d.roots else ():
            c = component(d, w.matrix)
            report = verify_ei(c)
            assert elliptic_classes(c) == elliptic_classes(plain), (name, w.word)
            assert report.equal and report.i == i_number(plain), (name, w.word)
            count += 1
    assert count == 48


def test_centralizer_examples():
    sl2 = untwisted_component(catalog.datum("sl2"))
    datum, pi0 = centralizer(sl2, torus_point((0,)))
    assert len(datum.roots) == 2 and pi0 == 1
    datum, pi0 = centralizer(sl2, torus_point((Fraction(1, 2),)))
    assert len(datum.roots) == 2 and pi0 == 1
    pgl2 = untwisted_component(catalog.datum("pgl2"))
    datum, pi0 = centralizer(pgl2, torus_point((Fraction(1, 2),)))
    assert datum.roots == () and pi0 == 2


@pytest.mark.parametrize("name", RANK_LE_2)
def test_centralizer_matches_fraction_stabilizer_on_grid(name):
    # Every elliptic grid point, not only the class representatives.
    d = catalog.datum(name)
    w_matrices = [w.matrix for w in weyl_group(d)]
    for t in oracle_points(d):
        roots_t = [alpha for alpha in d.roots if sum(map(mul, alpha, t)) % 1 == 0]
        datum, pi0 = centralizer(untwisted_component(d), torus_point(t))
        assert set(datum.roots) == set(roots_t)
        assert pi0 == (fraction_stabilizer_order(w_matrices, t)
                       // oracle_reflection_order(d, roots_t))


def test_is_elliptic_examples():
    sl2 = untwisted_component(catalog.datum("sl2"))
    pgl2 = untwisted_component(catalog.datum("pgl2"))
    gl1 = untwisted_component(catalog.datum("gl1"))
    assert is_elliptic(sl2, torus_point((Fraction(1, 2),)))
    assert not is_elliptic(pgl2, torus_point((Fraction(1, 2),)))
    assert not is_elliptic(gl1, torus_point((0,)))


TORUS_POINTS = [(0, 0), (Fraction(1, 2), 0), (Fraction(1, 3), Fraction(2, 5))]


@pytest.mark.parametrize("theta", [((-1, 0), (0, -1)), ((-1, 0), (0, 1)), ((0, 1), (1, 0)),
                                   ((0, -1), (-1, 0)), ((0, -1), (1, 0))])
def test_torus_twist_is_elliptic_exactly_when_theta_fixes_nothing(theta):
    o2 = catalog.named_component("o2_twist")
    assert all(is_elliptic(o2, torus_point(t[:1])) for t in TORUS_POINTS)
    c = component(build_root_datum(2, [], []), theta)
    delta = tuple(tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(theta))
    assert {is_elliptic(c, torus_point(t)) for t in TORUS_POINTS} == {det(delta) != 0}


def test_swap_points_are_read_in_folded_coordinates():
    # SL2 × SL2 swapped folds to the diagonal SL2, whose root pairs with t as 2t.
    swap = catalog.named_component("a1a1_swap")
    assert is_elliptic(swap, torus_point((0,)))
    assert is_elliptic(swap, torus_point((Fraction(1, 2),)))
    assert not is_elliptic(swap, torus_point((Fraction(1, 4),)))
    with pytest.raises(TwistedUnsupported) as raised:
        is_elliptic(swap, torus_point((Fraction(1, 2), Fraction(1, 2))))
    assert str(raised.value) == "swap-component points use folded coordinates"


def test_is_elliptic_is_false_where_no_element_is_regular():
    # GL2 with its coordinates swapped fixes the central (1, 1): the coset has no
    # regular element, so no point is elliptic, though the twist shape has no reduction.
    c = component(build_root_datum(2, [(1, -1)], [(1, -1)]), ((0, 1), (1, 0)))
    assert elliptic_classes(c) == ()
    assert not any(is_elliptic(c, torus_point(t)) for t in TORUS_POINTS)
    o2 = catalog.named_component("o2_twist")
    assert all(is_elliptic(o2, torus_point(t[:1])) for t in TORUS_POINTS)
    swap = catalog.named_component("a1a1_swap")
    assert [is_elliptic(swap, torus_point((x,))) for x in (0, Fraction(1, 2), Fraction(1, 4))] == [
        True, True, False]


def test_is_elliptic_refuses_an_unsupported_twist():
    # The coordinate swap on SL3 is its diagram automorphism: an outer twist.
    c = component(catalog.datum("sl3"), ((0, 1), (1, 0)))
    with pytest.raises(TwistedUnsupported) as raised:
        is_elliptic(c, torus_point((0, 0)))
    assert str(raised.value) == "ellipticity test for this twist shape"


# ---------------------------------------------------------------------------
# Structural invariants.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["sl2", "pgl2", "sl3", "sp4", "g2", "sl2xsl2"])
def test_classes_are_elliptic_and_full_rank(name):
    d = catalog.datum(name)
    for cls in elliptic_classes(untwisted_component(d)):
        assert cls.elliptic
        assert cls.centralizer_datum.is_semisimple()


@pytest.mark.parametrize("name", ["sl2", "pgl2", "sl3", "pgl3", "sp4", "so5", "g2"])
def test_pi0_divides_weyl_order(name):
    d = catalog.datum(name)
    order = len(weyl_group(d))
    for cls in elliptic_classes(untwisted_component(d)):
        assert cls.pi0 >= 1
        assert order % cls.pi0 == 0


@pytest.mark.parametrize("name", ["sl2", "sl3", "sp4"])
def test_steinberg_connectedness_for_simply_connected(name):
    for cls in elliptic_classes(catalog.named_component(name)):
        assert cls.pi0 == 1


def test_class_count_invariant_under_basis_change():
    u = ((1, 2), (1, 1))
    d = catalog.datum("sp4")
    ut = contragredient(u)
    roots = [tuple(mat_vec(ut, a)) for a in d.simple_roots]
    coroots = [tuple(mat_vec(u, a)) for a in d.simple_coroots]
    changed = build_root_datum(2, roots, coroots)
    got = elliptic_classes(untwisted_component(changed))
    expected = elliptic_classes(untwisted_component(d))
    assert len(got) == len(expected)
    assert sorted(c.pi0 for c in got) == sorted(c.pi0 for c in expected)
    assert (sorted(cartan_type(c.centralizer_datum) for c in got)
            == sorted(cartan_type(c.centralizer_datum) for c in expected))


BASIS_CHANGE_DATA = [catalog.datum(name) for name in catalog.datum_names()] + [
    classical_datum(kind, 3, form) for kind in "ABC" for form in ("sc", "ad")] + [
    interleaved_product()]


@st.composite
def unimodular(draw, n):
    """A random element of GL_n(Z): signed elementary row operations, then a permutation."""
    if n == 0:
        return ()
    u = [list(row) for row in identity_matrix(n)]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            k = draw(st.integers(-2, 2))
            u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    return tuple(tuple(u[p]) for p in draw(st.permutations(range(n))))


def _invariants(d):
    c = untwisted_component(d)
    classes = elliptic_classes(c)
    return (len(classes), sorted((k.pi0, cartan_type(k.centralizer_datum)) for k in classes),
            i_number(c), sigma(d),
            sorted(cartan_type(sub_datum(d, s)) for s in full_rank_subsystems(d)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_invariants_under_random_integral_basis_change(data):
    d = data.draw(st.sampled_from(BASIS_CHANGE_DATA))
    u = data.draw(unimodular(d.rank))
    ut = contragredient(u) if u else ()
    changed = build_root_datum(d.rank, [mat_vec(ut, a) for a in d.simple_roots],
                               [mat_vec(u, a) for a in d.simple_coroots])
    assert _invariants(changed) == _invariants(d)


ALCOVE_DATA = FAST_PATH_DATA + [("B2xG2xA2-interleaved", interleaved_product())]


@pytest.mark.parametrize("name,d", ALCOVE_DATA, ids=[n for n, _ in ALCOVE_DATA])
def test_alcove_vertices_are_elliptic(name, d):
    if not d.is_semisimple() or d.rank == 0:
        return
    vertices = _alcove_vertices(d)
    assert len(vertices) == prod(len(t.nodes) + 1 for t in simple_factors(d))
    c = untwisted_component(d)
    assert all(is_elliptic(c, torus_point(t)) for t in vertices)


# Invariants of the class list that σ, when it was solved from that list, checked at run time.
CENTRAL_DATA = [(name, d) for name, d in FAST_PATH_DATA if d.is_semisimple()] + [
    (f"{label}-{form}", labelled_datum(label, "standard", form))
    for label in ("F4", "G2", "E6") for form in ("sc", "ad")]


@pytest.mark.parametrize("name,d", CENTRAL_DATA, ids=[n for n, _ in CENTRAL_DATA])
def test_central_classes_count_the_center_and_are_connected(name, d):
    # Φ_t = Φ at exactly the |Z| = |det(simple roots)| central points; the
    # centralizer of each is G itself, so π₀ = 1.  An adjoint datum has one.
    central = [c for c in elliptic_classes(untwisted_component(d))
               if len(c.centralizer_datum.roots) == len(d.roots)]
    assert len(central) == abs(det(d.simple_roots))
    assert all(c.pi0 == 1 for c in central)
    if name.endswith("-ad"):
        assert len(central) == 1


def test_validate_twisted_candidates():
    c = catalog.named_component("o2_twist")
    report = validate_twisted_candidates(c, [(Fraction(0),)])
    assert report["pairwise_distinct"]
    assert report["elliptic"] == (True,)
    # All rank-1 torsion points are twisted-conjugate under theta = -1.
    report = validate_twisted_candidates(c, [(Fraction(0),), (Fraction(1, 3),)])
    assert not report["pairwise_distinct"]

def test_centralizer_rejects_twisted_component():
    c = catalog.named_component("o2_twist")
    with pytest.raises(TwistedUnsupported):
        centralizer(c, torus_point((0,)))
