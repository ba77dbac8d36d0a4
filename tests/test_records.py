"""Value semantics of the package's records, and what importing the CLI costs.

Records are named tuples or short immutable classes: equal and hashed by
value, never assignable, and built without ``dataclasses``.
"""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import tracestab
from helpers_oracle import catalog_and_ladder_data
from tracestab import catalog
from tracestab.elliptic import elliptic_classes
from tracestab.packets import (
    DualGroupModel,
    GaussianRational,
    ParameterModel,
    TestVector,
    TwoGroup,
    with_flipped_pairing,
)
from tracestab.rootdata import _build_root_datum, build_root_datum
from tracestab.stabilize import DiscreteModelSet, _fold_descriptors, endoscopic_form
from tracestab.weylcoset import component, untwisted_component

SRC = Path(tracestab.__file__).resolve().parent.parent


@pytest.mark.parametrize("name, d", catalog_and_ladder_data(), ids=lambda v: str(v)[:12])
def test_two_builds_of_one_datum_are_equal_and_hash_equal(name, d):
    rebuilt = _build_root_datum.__wrapped__(d.rank, d.simple_roots, d.simple_coroots)
    assert rebuilt is not d
    assert rebuilt == d and hash(rebuilt) == hash(d)
    assert build_root_datum(d.rank, list(d.simple_roots), list(d.simple_coroots)) is d
    assert untwisted_component(rebuilt) == untwisted_component(d)
    assert hash(untwisted_component(rebuilt)) == hash(untwisted_component(d))


def test_built_apart_components_and_classes_are_equal_and_hash_equal():
    base = catalog.datum("sl2xsl2")
    rebuilt = _build_root_datum.__wrapped__(base.rank, base.simple_roots, base.simple_coroots)
    first, second = component(base, ((0, 1), (1, 0))), component(rebuilt, ((0, 1), (1, 0)))
    assert first == second and hash(first) == hash(second)
    assert first != untwisted_component(base)
    classes = elliptic_classes(first)
    assert classes and {hash(c) for c in classes} == {hash(c) for c in elliptic_classes(second)}


def test_gaussian_rational_arithmetic_equality_and_hashing():
    a = GaussianRational(Fraction(1, 2), Fraction(-3))
    b = GaussianRational(Fraction(2), Fraction(1, 3))
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(-8, 3))
    assert a - b == GaussianRational(Fraction(-3, 2), Fraction(-10, 3))
    assert a * b == GaussianRational(Fraction(2), Fraction(-35, 6))
    assert -a == GaussianRational(Fraction(-1, 2), Fraction(3))
    assert a.conjugate() == GaussianRational(Fraction(1, 2), Fraction(3))
    assert 1 + a == a + 1 == GaussianRational(Fraction(3, 2), Fraction(-3))
    assert Fraction(2) * a == a * 2 == GaussianRational(Fraction(1), Fraction(-6))
    assert GaussianRational.of(3) == GaussianRational(Fraction(3))
    assert GaussianRational.of(a) is a
    assert GaussianRational() == GaussianRational(Fraction(0), Fraction(0))
    assert hash(a) == hash((Fraction(1, 2), Fraction(-3)))
    assert len({a, GaussianRational(Fraction(1, 2), Fraction(-3)), b}) == 2
    # Like the record it replaces: never equal to a plain number or tuple.
    assert GaussianRational(Fraction(1)) != 1
    assert a != (Fraction(1, 2), Fraction(-3))
    assert repr(b) == "GaussianRational(re=Fraction(2, 1), im=Fraction(1, 3))"


def _descriptor():
    return catalog.descriptors_o2()[0]


@pytest.mark.parametrize("make, field", [
    (lambda: catalog.datum("sl2"), "rank"),
    (lambda: catalog.named_component("o2_twist"), "theta"),
    (lambda: GaussianRational(Fraction(1)), "re"),
    (_descriptor, "out_card"),
    (lambda: TwoGroup(1), "dim"),
    (lambda: catalog.model_o2().dual_group, "thetas"),
    (catalog.model_o2, "model_id"),
    (lambda: TestVector({}), "values"),
    (lambda: DiscreteModelSet(()), "models"),
], ids=["RootDatum", "TwistedComponent", "GaussianRational", "EndoscopicDescriptor",
        "TwoGroup", "DualGroupModel", "ParameterModel", "TestVector", "DiscreteModelSet"])
def test_assigning_a_field_raises(make, field):
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        setattr(record, "new_field", 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before
    assert copy.copy(record) == record and copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_replace_through_their_own_constructors():
    d = _descriptor()
    changed = d._replace(out_card=3)
    assert changed.out_card == 3 and d.out_card != 3
    assert changed._replace(out_card=d.out_card) == d
    m = catalog.model_o2()
    assert ParameterModel(m.model_id, m.s_m, m.r, m.dual_group) == m
    assert ParameterModel("other", m.s_m, m.r, m.dual_group) != m


def test_equal_models_hash_equal_and_share_one_fold():
    sl2 = catalog.datum("sl2")
    as_tuples = ParameterModel("m", TwoGroup(0), TwoGroup(1),
                               DualGroupModel(sl2, {(0, 0): ((1,),), (0, 1): ((-1,),)}))
    as_lists = ParameterModel("m", TwoGroup(0), TwoGroup(1),
                              DualGroupModel(sl2, {(0, 1): [[-1]], (0, 0): [[1]]}))
    for m in (as_lists, copy.copy(as_tuples), copy.deepcopy(as_tuples),
              pickle.loads(pickle.dumps(as_tuples))):
        assert m == as_tuples and hash(m) == hash(as_tuples)
        assert m.dual_group == as_tuples.dual_group
        assert hash(m.dual_group) == hash(as_tuples.dual_group)
    assert as_lists.dual_group != DualGroupModel(sl2, {(0, 0): ((1,),), (0, 1): ((1,),)})
    assert hash(DiscreteModelSet((as_lists,))) == hash(DiscreteModelSet((as_tuples,)))
    descriptors = tuple(d for _, ds in sorted(catalog.fixture_descriptors().items()) for d in ds)
    first, second = (DiscreteModelSet(catalog.fixture_models()) for _ in range(2))
    assert first is not second and first == second and hash(first) == hash(second)
    ones = TestVector.constant(first.models, 1)
    _fold_descriptors.cache_clear()
    assert endoscopic_form(first, descriptors, ones, ones) == endoscopic_form(
        second, list(descriptors), ones, ones)
    fold = _fold_descriptors.cache_info()
    assert (fold.misses, fold.hits, fold.currsize) == (1, 1, 1)


def test_flipped_pairing_gets_its_own_transfer_table():
    m = ParameterModel("p", TwoGroup(1), TwoGroup(1))
    honest = m.transfer_numerators
    flipped = with_flipped_pairing(m, (1, 0), (1, 1))
    assert flipped is not m and flipped != m
    assert flipped.pairing_flips == {((1, 0), (1, 1))} and not m.pairing_flips
    assert flipped.transfer_numerators != honest
    assert m.transfer_numerators is honest
    assert flipped.pairing((1, 0), (1, 1)) == -m.pairing((1, 0), (1, 1))


def test_importing_the_cli_loads_no_dataclasses_inspect_or_hashlib():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import tracestab.cli; "
             "print(sorted(m for m in ('dataclasses', 'inspect', 'hashlib') if m in sys.modules)); "
             "print(sorted(m for m in sys.modules if m.startswith('tracestab.')))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", probe, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    heavy, loaded = proc.stdout.splitlines()
    assert heavy == "[]"
    # Every layer is registered (lazily): bench/tracer.py looks each one up after this import.
    layers = ("catalog", "cli", "elliptic", "errors", "linalg", "packets", "rootdata",
              "sigma", "stabilize", "weylcoset")
    assert all(f"'tracestab.{layer}'" in loaded for layer in layers)
