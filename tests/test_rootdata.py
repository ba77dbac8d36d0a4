import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_oracle import (
    F4_CARTAN,
    catalog_and_ladder_data,
    central_torsion_points,
    classical_datum,
    datum_from_cartan,
    direct_sum,
    e_cartan,
    expansion_positive_roots,
    fraction_coords_in_rows,
    interleaved_product,
    labelled_cartan,
    labelled_datum,
    oracle_datum_accepts,
    oracle_weyl_group,
    oracle_weyl_set,
    random_based_datum,
    simple_reflection_matrix,
    subgroup_mod1,
    vertex_centralizer,
)
from tracestab import catalog
from tracestab.elliptic import elliptic_classes
from tracestab import rootdata as rootdata_module
from tracestab.errors import NonCartan, NotAutomorphism, NotCentral, WeylGroupTooLarge
from tracestab.linalg import det, dot, identity_matrix, mat_mul, mat_vec, matrix_rank, transpose
from tracestab.rootdata import (
    CentralSubgroup,
    build_root_datum,
    canonical_key,
    cartan_type,
    central_subgroup,
    MAX_WEYL_ORDER,
    classical_weyl_order,
    contragredient,
    coset_walk,
    extended_cartan,
    pinned_part,
    quotient_by_central,
    simple_factors,
    simple_types,
    weyl_group,
)
from tracestab.sigma import verify_central_quotient
from tracestab.weylcoset import component, i_number, untwisted_component, weyl_set

SL2 = catalog.datum("sl2")
PGL2 = catalog.datum("pgl2")
GL1 = catalog.datum("gl1")


def test_sl2_convention():
    d = build_root_datum(1, [[2]], [[1]])
    assert d.roots == ((-2,), (2,))
    assert d.coroots == ((-1,), (1,))


def test_pgl2_convention():
    d = build_root_datum(1, [[1]], [[2]])
    assert d.roots == ((-1,), (1,))


def test_torus_datum():
    d = build_root_datum(1, [], [])
    assert d.roots == ()
    assert not d.is_semisimple()


def test_build_root_datum_is_built_once_per_normalized_input():
    first = build_root_datum(2, [[2, -1], [-1, 2]], [[1, 0], [0, 1]])
    again = build_root_datum(2, ((2, -1), (-1, 2)), ((Fraction(1), 0), (0, 1)))
    assert again is first
    # Invalid data raises on every call; nothing is cached for it.
    for _ in range(2):
        with pytest.raises(NonCartan):
            build_root_datum(1, [[1]], [[1]])
    with pytest.raises(NonCartan):
        build_root_datum(-1, [], [])


@pytest.mark.parametrize("rank", [True, False, 1.0, "1", None])
def test_a_rank_that_is_not_an_int_is_refused(rank):
    with pytest.raises(NonCartan, match="is not a non-negative integer"):
        build_root_datum(rank, [], [])
    with pytest.raises(NonCartan, match="is not a non-negative integer"):
        build_root_datum(rank, ((2,),), ((1,),))
    # Nothing was memoized under a bool: the int rank builds its own datum.
    assert type(build_root_datum(1, ((2,),), ((1,),)).rank) is int


def test_rejects_non_integral_entries():
    # int() would read 5/2 and 3/2 as the A1 datum with roots ±2 and coroots ±1.
    with pytest.raises(NonCartan, match="5/2 is not an integer"):
        build_root_datum(1, [(Fraction(5, 2),)], [(Fraction(3, 2),)])
    with pytest.raises(NonCartan, match="3/2 is not an integer"):
        build_root_datum(1, [(2,)], [(Fraction(3, 2),)])
    assert build_root_datum(1, [(Fraction(4, 2),)], [(1,)]) == catalog.datum("sl2")


def test_rejects_bad_diagonal_pairing():
    with pytest.raises(NonCartan):
        build_root_datum(1, [[1]], [[1]])


def test_rejects_positive_off_diagonal():
    with pytest.raises(NonCartan):
        build_root_datum(2, [(2, 1), (1, 2)], [(1, 0), (0, 1)])


def test_rejects_affine_cartan():
    # The A1~ matrix [[2,-2],[-2,2]] has a vanishing principal minor.
    with pytest.raises(NonCartan):
        build_root_datum(2, [(2, -2), (-2, 2)], [(1, -1), (-1, 1)])


@pytest.mark.parametrize("cartan, size", [
    (((2, -2), (-2, 2)), 2),  # A1~: the minor vanishes
    (((2, -3), (-3, 2)), 2),  # hyperbolic: the minor is negative
    (((2, -1, 0), (-1, 2, -3), (0, -3, 2)), 3),  # the first two minors are positive
    (((2, -2, 0, 0), (-2, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2)), 2),  # A1~ then A2
])
def test_the_first_non_positive_leading_minor_is_named(cartan, size):
    """Each root carries a unit vector of its own, so the roots are independent even where
    the Cartan matrix is singular, and only the minors can refuse."""
    k = len(cartan)
    unit = [[int(i == j) for j in range(k)] for i in range(k)]
    roots = [[row[j] for row in cartan] + unit[j] for j in range(k)]
    message = f"non-positive principal minor on {tuple(range(size))}"
    with pytest.raises(NonCartan, match=f"^{re.escape(message)}$"):
        build_root_datum(2 * k, roots, [u + [0] * k for u in unit])


@pytest.mark.parametrize("kind, n, count", [
    ("B", 33, 2 * 33 ** 2), ("C", 33, 2 * 33 ** 2), ("D", 34, 2 * 34 * 33), ("A", 64, 64 * 65),
])
def test_classical_data_past_rank_32_build(kind, n, count):
    """The Cartan check proves finite type, so no root-count bound refuses these."""
    d = classical_datum(kind, n, "sc")
    assert len(d.roots) == count and len(d.positive_roots()) == count // 2
    assert cartan_type(d) == (f"{kind}{n}",)


def test_rejects_dependent_simples():
    with pytest.raises(NonCartan):
        build_root_datum(2, [(2, 0), (2, 0)], [(1, 0), (1, 0)])


def test_root_closure_refuses_what_is_not_finite_type():
    """A1~ and [[2, −3], [−3, 2]] raise ``NonCartan`` from ``simple_types`` and ``root_closure``.

    A closure that does not check its matrix never ends on them, so the calls
    run in a child process under a timeout.
    """
    code = """
from tracestab.errors import NonCartan
from tracestab.rootdata import root_closure, simple_types
for cartan in (((2, -2), (-2, 2)), ((2, -3), (-3, 2))):
    for call in (lambda: simple_types(cartan, range(2)), lambda: root_closure(cartan)):
        try:
            call()
        except NonCartan as exc:
            print(type(exc).__name__)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=20)
    assert proc.stdout.split() == ["NonCartan"] * 4, proc.stderr


def test_build_root_datum_accepts_what_the_rank_and_cartan_checks_accepted():
    """Without its two rank eliminations, the build accepts exactly the same inputs."""
    rng = Random(29)
    accepted = 0
    for _ in range(3000):
        rank, roots, coroots = random_based_datum(rng)
        expected = oracle_datum_accepts(rank, roots, coroots)
        try:
            build_root_datum(rank, roots, coroots)
        except NonCartan:
            assert not expected, (rank, roots, coroots)
        else:
            assert expected, (rank, roots, coroots)
            accepted += 1
    assert 1000 < accepted < 2000


@pytest.mark.parametrize("name,expected", [
    ("sl2", 2), ("sl3", 6), ("sp4", 8), ("so5", 8), ("g2", 12),
    ("sl2xsl2", 4), ("pgl2", 2), ("pgl3", 6),
])
def test_weyl_group_orders(name, expected):
    d = catalog.datum(name)
    w = weyl_group(d)
    assert len(w) == expected
    assert len(w) == classical_weyl_order(d)


def _weyl_order_by_family(d):
    """|W| from the closed form per simple family: the oracle for the height rule."""
    exceptional = {"G2": 12, "F4": 1152, "E6": 51840, "E7": 2903040, "E8": 696729600}
    order = 1
    for label in cartan_type(d):
        family, n = label[0], int(label[1:])
        if family == "A":
            order *= factorial(n + 1)
        elif family in ("B", "C"):
            order *= 2 ** n * factorial(n)
        elif family == "D":
            order *= 2 ** (n - 1) * factorial(n)
        else:
            order *= exceptional[label]
    return order


def _weyl_order_datum(label):
    if label == "G2xA1+T1":  # reducible, with a central torus
        return build_root_datum(4, [(2, -1, 0, 0), (-3, 2, 0, 0), (0, 0, 2, 0)],
                                [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    family, n = label[0], int(label[1:])
    if family in "ABCD":
        return classical_datum(family, n, "sc")
    cartan = e_cartan(n) if family == "E" else F4_CARTAN if family == "F" else ((2, -1), (-3, 2))
    return datum_from_cartan(cartan, "ad")


@pytest.mark.parametrize("label", [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
                         + [f"C{n}" for n in range(3, 7)] + [f"D{n}" for n in range(4, 7)]
                         + ["E6", "E7", "E8", "F4", "G2", "G2xA1+T1"])
def test_weyl_order_from_root_heights_matches_family_table(label):
    d = _weyl_order_datum(label)
    expected_type = ("A1", "G2") if label == "G2xA1+T1" else (label,)
    assert cartan_type(d) == expected_type
    assert classical_weyl_order(d) == _weyl_order_by_family(d)


@pytest.mark.parametrize("n, order", [(7, 2903040), (8, 696729600)])
def test_weyl_group_refuses_e7_and_e8_before_building(monkeypatch, n, order):
    def no_generators(d):
        raise AssertionError("a generator was built for an oversized Weyl group")

    monkeypatch.setattr(rootdata_module, "_simple_reflections", no_generators)
    d = datum_from_cartan(e_cartan(n), "sc")
    with pytest.raises(WeylGroupTooLarge, match=f"W\\(E{n}\\) has order {order}"):
        weyl_group(d)


def test_weyl_group_limit_admits_e6():
    e6 = datum_from_cartan(e_cartan(6), "sc")
    assert classical_weyl_order(e6) == 51840 <= MAX_WEYL_ORDER
    assert classical_weyl_order(datum_from_cartan(e_cartan(7), "ad")) > MAX_WEYL_ORDER


def test_weyl_group_closure_and_identity():
    d = catalog.datum("sl3")
    w = weyl_group(d)
    mats = {e.matrix for e in w}
    ident = tuple(tuple(1 if i == j else 0 for j in range(2)) for i in range(2))
    assert ident in mats
    for a in w:
        for b in w:
            assert mat_mul(a.matrix, b.matrix) in mats


@pytest.mark.parametrize("name", ["sl2", "sl3", "sp4", "g2", "sl2xsl2"])
def test_weyl_permutes_coroots(name):
    d = catalog.datum(name)
    coroots = set(d.coroots)
    for w in weyl_group(d):
        assert {tuple(mat_vec(w.matrix, c)) for c in coroots} == coroots


def test_weyl_words_are_consistent():
    d = catalog.datum("sp4")
    gens = [simple_reflection_matrix(d, i) for i in range(2)]
    for w in weyl_group(d):
        prod = tuple(tuple(1 if i == j else 0 for j in range(2)) for i in range(2))
        for i in w.word:
            prod = mat_mul(prod, gens[i])
        assert prod == w.matrix


@pytest.mark.parametrize("name,expected", [
    ("sl2", ("A1",)), ("sl3", ("A2",)), ("sp4", ("B2",)), ("so5", ("B2",)),
    ("g2", ("G2",)), ("sl2xsl2", ("A1", "A1")), ("gl1", ()),
])
def test_cartan_type(name, expected):
    assert cartan_type(catalog.datum(name)) == expected


def test_simple_factors_keep_their_nodes_and_highest_roots():
    # The factors' simple roots interleave; each factor's own coordinates follow its nodes.
    factors = simple_factors(interleaved_product())
    assert [(t.label, t.nodes, t.highest, t.order) for t in factors] == [
        ("B2", (0, 3), (1, 2), 8), ("G2", (1, 4), (3, 2), 12), ("A2", (2, 5), (1, 1), 6)]
    assert [t.cartan for t in factors] == [((2, -1), (-2, 2)), ((2, -3), (-1, 2)),
                                           ((2, -1), (-1, 2))]
    assert cartan_type(interleaved_product()) == ("A2", "B2", "G2")
    assert classical_weyl_order(interleaved_product()) == 8 * 12 * 6


def _relabelled(d, seed):
    """The same datum with its simple roots listed in a seeded random order."""
    order = list(range(d.semisimple_rank))
    Random(seed).shuffle(order)
    return build_root_datum(d.rank, [d.simple_roots[i] for i in order],
                            [d.simple_coroots[i] for i in order])


SIMPLE_LABELS = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
                 + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
                 + ["E6", "E7", "E8"])
ORIENTED = [(label, "given") for label in SIMPLE_LABELS] + [
    (label, orientation) for label in ("F4", "G2") for orientation in ("given", "transposed")]
ORIENTED_IDS = [f"{label}-{orientation}" for label, orientation in ORIENTED]


@pytest.mark.parametrize("form", ["sc", "ad"])
@pytest.mark.parametrize("label, orientation", ORIENTED, ids=ORIENTED_IDS)
def test_cartan_type_labels_every_simple_type(label, orientation, form):
    d = labelled_datum(label, orientation, form)
    expected = ("B2",) if label == "C2" else (label,)  # C2 and B2 are one root system
    assert cartan_type(d) == expected
    for seed in range(3):
        assert cartan_type(_relabelled(d, seed)) == expected


PRODUCTS = [("A1", "A1"), ("A1", "G2"), ("B3", "C3"), ("C2", "A4"), ("D4", "F4"), ("A2", "E6"),
            ("B4", "D5"), ("G2", "F4"), ("A3", "D4"), ("C4", "B2")]


@pytest.mark.parametrize("first, second", PRODUCTS)
@pytest.mark.parametrize("form", ["sc", "ad"])
def test_cartan_type_labels_two_factor_products(first, second, form):
    d = direct_sum(labelled_datum(first, "given", form), labelled_datum(second, "given", form))
    expected = tuple(sorted("B2" if label == "C2" else label for label in (first, second)))
    assert cartan_type(d) == expected
    assert cartan_type(_relabelled(d, len(first + second))) == expected


def test_quotient_sl2_by_center_is_pgl2():
    z = central_subgroup(SL2, [(Fraction(1, 2),)])
    assert z.order == 2
    q = quotient_by_central(SL2, z)
    assert canonical_key(q) == canonical_key(PGL2)


def test_quotient_by_trivial_is_identity_up_to_basis():
    z = central_subgroup(SL2, [])
    q = quotient_by_central(SL2, z)
    assert canonical_key(q) == canonical_key(SL2)


def test_noncentral_generator_rejected():
    with pytest.raises(NotCentral):
        central_subgroup(PGL2, [(Fraction(1, 2),)])
    # A hand-built subgroup skips central_subgroup's check; the quotient still
    # refuses it, whatever order it claims.
    for order in (1, 2):
        with pytest.raises(NotCentral):
            quotient_by_central(PGL2, CentralSubgroup(((Fraction(1, 2),),), order))


def test_a_central_subgroup_of_another_rank_is_refused():
    z = central_subgroup(catalog.datum("sl2xsl2"), [(Fraction(1, 2), Fraction(1, 2))])
    with pytest.raises(NotCentral, match="generator length does not match the rank"):
        quotient_by_central(SL2, z)
    with pytest.raises(NotCentral, match="generator length does not match the rank"):
        verify_central_quotient(SL2, z)


def test_central_torsion_points():
    assert len(central_torsion_points(SL2)) == 2
    assert len(central_torsion_points(PGL2)) == 1
    assert len(central_torsion_points(catalog.datum("sl3"))) == 3
    assert len(central_torsion_points(catalog.datum("sp4"))) == 2
    assert len(central_torsion_points(catalog.datum("g2"))) == 1


def test_canonical_key_separates_isogeny_types():
    assert canonical_key(SL2) != canonical_key(PGL2)
    assert canonical_key(GL1) != canonical_key(catalog.datum("trivial"))
    gl1x2 = build_root_datum(2, [], [])
    assert canonical_key(GL1) != canonical_key(gl1x2)
    assert canonical_key(catalog.datum("sp4")) != canonical_key(catalog.datum("so5"))


def test_canonical_key_invariant_under_basis_permutation():
    permuted = build_root_datum(2, [(0, 2), (2, 0)], [(0, 1), (1, 0)])
    assert canonical_key(permuted) == canonical_key(catalog.datum("sl2xsl2"))


UNIMODULAR = [
    ((1, 1), (0, 1)),
    ((1, 0), (3, 1)),
    ((2, 1), (1, 1)),
    ((0, 1), (-1, 0)),
]


@pytest.mark.parametrize("u", UNIMODULAR)
@pytest.mark.parametrize("name", ["sl3", "sp4", "sl2xsl2", "pgl3"])
def test_canonical_key_invariant_under_basis_change(name, u):
    d = catalog.datum(name)
    ut = contragredient(u)  # roots transform contragrediently to coroots
    roots = [tuple(mat_vec(ut, a)) for a in d.simple_roots]
    coroots = [tuple(mat_vec(u, a)) for a in d.simple_coroots]
    changed = build_root_datum(2, roots, coroots)
    assert canonical_key(changed) == canonical_key(d)


SL2 = catalog.datum("sl2")


@pytest.mark.parametrize("call,error", [
    (lambda: build_root_datum(1, [["a"]], [[1]]), NonCartan),
    (lambda: build_root_datum(1, [[None]], [[1]]), NonCartan),
    (lambda: component(SL2, [[None]]), NotAutomorphism),
    (lambda: component(SL2, 5), NotAutomorphism),
    (lambda: central_subgroup(SL2, [("a",)]), NotCentral),
    (lambda: central_subgroup(SL2, [(None,)]), NotCentral),
    (lambda: central_subgroup(SL2, [1]), NotCentral),
], ids=["root-str", "root-none", "theta-none", "theta-int", "gen-str", "gen-none", "gen-int"])
def test_non_numeric_input_raises_a_package_error(call, error):
    with pytest.raises(error):
        call()


def test_double_quotient_composes():
    # (SL2 x SL2) / diagonal, then / its center, the image of the full center,
    # equals the one-step quotient by the full center.
    d = catalog.datum("sl2xsl2")
    half = Fraction(1, 2)
    once = quotient_by_central(d, central_subgroup(d, [(half, half)]))
    center = central_subgroup(once, central_torsion_points(once))
    assert center.order == 2
    twice = quotient_by_central(once, center)
    full = quotient_by_central(d, central_subgroup(d, [(half, Fraction(0)),
                                                       (Fraction(0), half)]))
    assert canonical_key(twice) == canonical_key(full)


def test_quotient_key_independent_of_generating_set():
    d = catalog.datum("sl2xsl2")
    half = Fraction(1, 2)
    gens_a = [(half, Fraction(0)), (Fraction(0), half)]
    gens_b = [(half, half), (half, Fraction(0))]
    qa = quotient_by_central(d, central_subgroup(d, gens_a))
    qb = quotient_by_central(d, central_subgroup(d, gens_b))
    assert canonical_key(qa) == canonical_key(qb)


@given(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
@settings(max_examples=30, deadline=None)
def test_central_subgroup_order_matches_closure(p, q):
    gen = (Fraction(p, 4) % 1, Fraction(q, 4) % 1)
    d = build_root_datum(2, [], [])
    z = central_subgroup(d, [gen])
    elems = set()
    cur = (Fraction(0), Fraction(0))
    for _ in range(16):
        elems.add(cur)
        cur = tuple((a + b) % 1 for a, b in zip(cur, gen))
    assert z.order == len(elems)


@pytest.mark.parametrize("name, gens", [
    ("gl1", [(Fraction(1, 6),), (Fraction(1, 4),)]),
    ("gl1", [(Fraction(1, 6),)]),
    ("sl2", [(Fraction(1, 2),)]),
    ("sl3", [(Fraction(1, 3), Fraction(2, 3))]),
    ("sl2xsl2", [(Fraction(1, 2), Fraction(1, 2))]),
    ("sl2xsl2", [(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 2))]),
])
def test_central_subgroup_order_matches_the_listed_elements(name, gens):
    d = catalog.datum(name)
    z = central_subgroup(d, gens)
    assert z.order == len(subgroup_mod1(z.generators, d.rank))


def test_central_subgroup_order_is_read_off_the_hermite_basis():
    """|Z| = Dⁿ / Π hᵢᵢ: a subgroup of order 300 007 is never listed element by element."""
    assert not hasattr(rootdata_module, "subgroup_mod1")
    assert central_subgroup(GL1, [(Fraction(1, 300007),)]).order == 300007


# ---------------------------------------------------------------------------
# pinned_part writes m = w·τ by simple reflections; τ preserves the pinning.
# ---------------------------------------------------------------------------

def _twists():
    """(id, datum, θ): 1 and −1 on every catalog and ladder datum, and the two swaps."""
    cases = [(f"{name}-{sign}", d, tuple(tuple(x if sign == "one" else -x for x in row)
                                         for row in identity_matrix(d.rank)))
             for name, d in catalog_and_ladder_data() if d.rank for sign in ("one", "minus_one")]
    swap = catalog.named_component("a1a1_swap")
    spec = json.loads((Path(__file__).with_name("data") / "sl3_swap.json").read_text())
    sl3_swap = component(catalog.datum(spec["group"]), spec["theta"])
    return cases + [("a1a1_swap", swap.base, swap.theta), ("sl3_swap", sl3_swap.base, sl3_swap.theta)]


TWISTS = _twists()


@pytest.mark.parametrize("name,d,theta", TWISTS, ids=[n for n, _, _ in TWISTS])
def test_pinned_part_is_one_pinned_automorphism_per_weyl_coset(name, d, theta):
    """Every w·θ has the pinned part of θ, and it permutes the simple (coroot, root) pairs."""
    tau, _ = pinned_part(d, theta)
    for w in weyl_group(d):
        assert pinned_part(d, mat_mul(w.matrix, theta))[0] == tau
    tau_x = contragredient(tau)
    pinning = set(zip(d.simple_coroots, d.simple_roots))
    assert {(mat_vec(tau, v), mat_vec(tau_x, a)) for v, a in pinning} == pinning


def _a_n_swap(n):
    """A_n sc with its diagram automorphism, which reverses the simple coroots."""
    return component(classical_datum("A", n, "sc"),
                     tuple(tuple(int(j == n - 1 - i) for j in range(n)) for i in range(n)))


WALKS = ([("trivial", untwisted_component(catalog.datum("trivial"))),
          ("o2_twist", catalog.named_component("o2_twist"))]
         + [(name, component(d, theta)) for name, d, theta in TWISTS]
         + [(f"A{n}-sc-tau", _a_n_swap(n)) for n in (3, 4, 5)])


@pytest.mark.parametrize("name,c", WALKS, ids=[n for n, _ in WALKS])
def test_coset_walk_is_the_dense_weyl_group_times_theta(name, c):
    """The sparse walk from θ reaches the oracle's vθ, each with a word of v of its BFS depth.

    ``weyl_set`` read off the walk equals the reference built one product vθ at a time.
    """
    oracle = oracle_weyl_group(c.base)
    depths = {mat_mul(v, c.theta): depth for v, depth in oracle.items()}
    walk = coset_walk(c.base, c.theta)
    assert walk.keys() == depths.keys()
    gens = [simple_reflection_matrix(c.base, i) for i in range(c.base.semisimple_rank)]
    for total, word in walk.items():
        assert len(word) == depths[total]
        product = c.theta
        for i in reversed(word):
            product = mat_mul(gens[i], product)
        assert product == total
    assert list(weyl_set(c)) == oracle_weyl_set(c)


# ---------------------------------------------------------------------------
# Datum invariants are cached on the datum's value, never on canonical_key.
# SO4 = (SL2 x SL2)/mu2,diag and SL2 x PGL2 share a canonical key.
# ---------------------------------------------------------------------------

def _so4():
    d = catalog.datum("sl2xsl2")
    return quotient_by_central(d, central_subgroup(d, [(Fraction(1, 2), Fraction(1, 2))]))


def _sl2_pgl2():
    return build_root_datum(2, [(2, 0), (0, 1)], [(1, 0), (0, 2)])


def _invariants(d):
    return (tuple((w.matrix, w.word) for w in weyl_group(d)),
            d.positive_roots(),
            weyl_set(untwisted_component(d)),
            i_number(untwisted_component(d)),
            elliptic_classes(untwisted_component(d)))


MEMOS = (weyl_group, canonical_key, weyl_set, i_number, elliptic_classes)


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def test_invariant_caches_distinguish_data_with_equal_keys():
    assert canonical_key(_so4()) == canonical_key(_sl2_pgl2())
    assert _so4() != _sl2_pgl2()
    fresh = {}
    for build in (_so4, _sl2_pgl2):
        _clear_memos()
        fresh[build] = _invariants(build())
    for order in ((_so4, _sl2_pgl2), (_sl2_pgl2, _so4)):
        _clear_memos()
        for build in order:
            assert _invariants(build()) == fresh[build]
    assert fresh[_so4] != fresh[_sl2_pgl2]


def _swap_component():
    base = build_root_datum(2, [(2, 0), (0, 2)], [(1, 0), (0, 1)])
    return component(base, ((0, 1), (1, 0)))


def test_equal_components_built_apart_share_invariants():
    first, second = _swap_component(), _swap_component()
    assert first == second and first is not second
    _clear_memos()
    fresh = (weyl_set(first), i_number(first), elliptic_classes(first))
    assert (weyl_set(second), i_number(second), elliptic_classes(second)) == fresh
    _clear_memos()
    assert (weyl_set(second), i_number(second), elliptic_classes(second)) == fresh


def test_twist_is_part_of_the_component_memo_key():
    base = catalog.datum("sl2xsl2")
    untwisted, swapped = untwisted_component(base), component(base, ((0, 1), (1, 0)))
    assert untwisted.base == swapped.base
    assert weyl_set(untwisted) != weyl_set(swapped)
    assert ({e.total for e in weyl_set(swapped)}
            == {mat_mul(e.total, swapped.theta) for e in weyl_set(untwisted)})


@pytest.mark.parametrize("name", catalog.datum_names())
def test_x_matrices_are_contragredient(name):
    # full_rank_subsystems takes W's action on X from transposes: transpose(w)
    # is the contragredient of w⁻¹, so the two sets agree (not element by element).
    group = weyl_group(catalog.datum(name))
    assert {transpose(w.matrix) for w in group} == {contragredient(w.matrix) for w in group}


@pytest.mark.parametrize("m", [((2,),), ((1, 1), (0, 2)), ((0,),), ((1, 2), (2, 4)), ((1, 2),),
                               ((Fraction(1, 2),),)])
def test_contragredient_refuses_a_matrix_outside_gl_n_z(m):
    with pytest.raises(NotAutomorphism):
        contragredient(m)


POSITIVE_DATA = catalog_and_ladder_data()


@pytest.mark.parametrize("name,d", POSITIVE_DATA, ids=[n for n, _ in POSITIVE_DATA])
def test_closure_positive_system_matches_expansion_rule(name, d):
    assert d.positive_roots() == expansion_positive_roots(d)
    assert all(d.is_positive(r) == (r in d.positive_roots()) for r in d.roots)
    for root, coeffs in zip(d.roots, d.coefficients):
        assert tuple(sum(c * a[j] for c, a in zip(coeffs, d.simple_roots))
                     for j in range(d.rank)) == root


def _lattice_closure(d):
    """Roots and their coroots, reflected as lattice vectors: s_j(v) = v − ⟨v, α_j∨⟩·α_j."""
    found = dict(zip(d.simple_roots, d.simple_coroots))
    frontier = list(found.items())
    while frontier:
        new = []
        for root, coroot in frontier:
            images = [(tuple(-x for x in root), tuple(-x for x in coroot))]
            for alpha, alpha_v in zip(d.simple_roots, d.simple_coroots):
                p, q = dot(root, alpha_v), dot(alpha, coroot)
                images.append((tuple(r - p * a for r, a in zip(root, alpha)),
                               tuple(k - q * a for k, a in zip(coroot, alpha_v))))
            for image in images:
                if image[0] not in found:
                    found[image[0]] = image[1]
                    new.append(image)
        frontier = new
    return tuple(sorted(found.items()))


CLOSURE_DATA = POSITIVE_DATA + [
    (f"{label}-{form}", labelled_datum(label, "given", form))
    for label in ("F4", "G2", "E6") for form in ("sc", "ad")] + [
    ("G2xB3-sc", direct_sum(labelled_datum("G2", "given", "sc"), classical_datum("B", 3, "sc")))]
# Past rank 32 a root's coefficient vector and the simple roots are mostly zeros.
CLOSURE_DATA += [(f"{kind}{n}-sc", classical_datum(kind, n, "sc"))
                 for kind, n in (("B", 33), ("C", 33), ("D", 34))]


@pytest.mark.parametrize("name,d", CLOSURE_DATA, ids=[n for n, _ in CLOSURE_DATA])
def test_coefficient_closure_matches_lattice_closure(name, d):
    assert tuple(zip(d.roots, d.coroots)) == _lattice_closure(d)


EXTENDED_LABELS = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 8)]
                   + [f"C{n}" for n in range(3, 8)] + [f"D{n}" for n in range(4, 8)]
                   + ["E6", "E7", "F4", "G2"])


@pytest.mark.parametrize("orientation", ["given", "transposed"])
@pytest.mark.parametrize("label", EXTENDED_LABELS)
def test_extended_cartan_is_the_affine_diagram(label, orientation):
    cartan = labelled_cartan(label)
    if orientation == "transposed":
        cartan = transpose(cartan)
    n = len(cartan)
    (t,) = simple_types(cartan, range(n))
    extended = extended_cartan(t)
    assert matrix_rank(extended) == n
    assert mat_vec(extended, t.highest + (1,)) == (0,) * (n + 1)
    # θ∨ from the lattice closure of the adjoint datum, whose simple coroots are C's rows.
    adjoint = build_root_datum(n, identity_matrix(n), cartan)
    theta_v = fraction_coords_in_rows(cartan, dict(_lattice_closure(adjoint))[t.highest])
    assert mat_vec(transpose(extended), tuple(theta_v) + (1,)) == (0,) * (n + 1)
    for k, mark in enumerate(t.highest):
        if mark >= 2:
            pieces = simple_types(extended, [j for j in range(n + 1) if j != k])
            c_k = vertex_centralizer(t, k)
            assert tuple(sorted(piece.label for piece in pieces)) == cartan_type(c_k)
            assert abs(det(c_k.simple_roots)) == mark
