from fractions import Fraction
from random import Random

import pytest

from helpers_oracle import classical_datum, fraction_coset_dets, fraction_det

from tracestab import catalog
from tracestab.errors import InfiniteOrder, NotAutomorphism
from tracestab.linalg import det, invert, mat_mul, mat_vec
from tracestab.rootdata import build_root_datum, contragredient, weyl_group
from tracestab.weylcoset import (
    component,
    coset_sign,
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
    c = catalog.named_component(name)
    base = c.base
    default_positives = base.positive_roots()
    w_elements = weyl_group(base)
    # Alternative positive systems: images of the default one under W.
    for v in w_elements[:4]:
        action = contragredient(v.matrix)
        alt = tuple(tuple(int(x) for x in mat_vec(action, a)) for a in default_positives)
        for e in weyl_set(c):
            assert coset_sign(base, e.total, alt) == e.sign


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
        assert e.sign == coset_sign(c.base, e.total)


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
