"""Acceptance criteria, one test per criterion, all exact-identity checks.

Every tolerance is exact rational equality; nothing is deferred to later
calibration.  Each test prints a single PASS line on success (pytest -s or
-v shows them); a failure raises with the offending values.
"""

import json
import subprocess
import sys
from fractions import Fraction
from random import Random

from helpers_oracle import adjoint_factor_closed, brute_i, oracle_classes, transfer_factor_closed

from tracestab import catalog
from tracestab.elliptic import elliptic_classes
from tracestab.packets import (
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
from tracestab.rootdata import build_root_datum, cartan_type, central_subgroup
from tracestab.sigma import sigma, verify_ei
from tracestab.stabilize import (
    DiscreteModelSet,
    discrete_part,
    endoscopic_form,
    i_phi,
    stable_form,
    verify_coefficients,
)
from tracestab.weylcoset import untwisted_component

CATALOG_COMPONENTS = ("sl2", "pgl2", "sl3", "pgl3", "sp4", "so5", "g2",
                      "sl2xsl2", "gl1", "trivial", "o2_twist", "a1a1_swap")


def _report(n: int, text: str):
    print(f"ACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_e_equals_i_catalog():
    for name in CATALOG_COMPONENTS:
        rep = verify_ei(catalog.named_component(name))
        assert rep.equal, f"{name}: e={rep.e} != i={rep.i}"
    _report(1, "e(S) = i(S) exactly on all 12 catalog components")


def test_criterion_2_sigma_values():
    assert sigma(catalog.datum("trivial")) == 1
    assert sigma(catalog.datum("gl1")) == 0
    gl2 = build_root_datum(2, [(1, -1)], [(1, -1)])
    assert sigma(gl2) == 0  # positive central rank
    assert sigma(catalog.datum("sl2")) == Fraction(-1, 8)
    assert sigma(catalog.datum("pgl2")) == Fraction(-1, 4)
    assert sigma(catalog.datum("sl2")) == sigma(catalog.datum("pgl2")) / 2
    assert sigma(catalog.datum("sl3")) == sigma(catalog.datum("pgl3")) / 3
    assert sigma(catalog.datum("sl2xsl2")) == Fraction(1, 64)
    # Independent cross-check: the adjoint values equal a from-scratch Weyl
    # enumeration of i, and the central class counts scale them down.
    assert sigma(catalog.datum("pgl2")) == brute_i(catalog.datum("pgl2"))
    assert sigma(catalog.datum("pgl3")) == brute_i(catalog.datum("pgl3"))
    assert 2 * sigma(catalog.datum("sl2")) == brute_i(catalog.datum("sl2"))
    assert 3 * sigma(catalog.datum("sl3")) == brute_i(catalog.datum("sl3"))
    assert brute_i(catalog.datum("sl3")) == Fraction(1, 9)
    _report(2, "sigma values, central-quotient cross-checks, product law")


def test_criterion_3_elliptic_oracle_rank_le_2():
    for name in ("trivial", "gl1", "sl2", "pgl2", "sl3", "pgl3", "sp4", "so5",
                 "g2", "sl2xsl2"):
        d = catalog.datum(name)
        expected = oracle_classes(d) if d.is_semisimple() else []
        got = elliptic_classes(untwisted_component(d))
        assert len(got) == len(expected), f"{name}: class count differs"
        for cls, (rep, pi0, ctype) in zip(got, expected):
            assert cls.rep.coords == rep, f"{name}: representative differs"
            assert cls.pi0 == pi0, f"{name}: pi0 differs at {rep}"
            assert cartan_type(cls.centralizer_datum) == ctype, \
                f"{name}: centralizer type differs at {rep}"
    _report(3, "untwisted enumeration matches the torsion-grid oracle")


def test_criterion_4_packet_algebra():
    # Exhaustive: every model shape with |S| <= 16.
    shapes = [(sm, r) for sm in range(5) for r in range(5) if sm + r <= 4]
    for sm, r in shapes:
        m = ParameterModel(f"acc{sm}{r}", TwoGroup(sm), TwoGroup(r))
        assert verify_adjoint(m), f"adjoint relations fail on {sm},{r}"
        ratio = Fraction(m.r.size, m.s_size)
        for tau in m.taus():
            for x in m.s_elements():
                assert transfer_factor(m, tau, x) == transfer_factor_closed(m, tau, x)
                assert adjoint_factor(m, x, tau) == adjoint_factor_closed(m, x, tau)
                assert transfer_factor(m, tau, x) == ratio * adjoint_factor(m, x, tau)
    # Negative control: a flipped pairing must break the relations.
    bad = with_flipped_pairing(ParameterModel("bad", TwoGroup(1), TwoGroup(1)),
                               (1, 0), (1, 1))
    assert not verify_adjoint(bad)
    # 1000 random Gaussian-rational round trips through transfer/inversion.
    m = ParameterModel("round", TwoGroup(2), TwoGroup(2))
    rng = Random(4)
    for _ in range(1000):
        f = TestVector.random(rng, [m])
        theta = {tau: theta_transfer(m, tau, f) for tau in m.taus()}
        for x in m.s_elements():
            assert invert_transfer(m, x, theta) == f.value(m.model_id, x)
    _report(4, "adjoint/route/scaling exhaustive to |S|=16; 1000 exact round trips")


def test_criterion_5_stabilization_chain():
    # Worked O(2) fixture: both sides are (1/4)·f'_1(x_-)·conj(f'_2(x_-)).
    o2 = DiscreteModelSet((catalog.model_o2(),))
    rng = Random(6)
    for _ in range(20):
        f1 = TestVector.random(rng, o2.models)
        f2 = TestVector.random(rng, o2.models)
        expected = (f1.value("o2", (0, 1)) * f2.value("o2", (0, 1)).conjugate()
                    * Fraction(1, 4))
        assert discrete_part(o2, f1, f2) == expected
        assert stable_form(o2, f1, f2) == expected
    # discrete = stable on the fixtures and on >= 100 seeded random models.
    ms, descriptors = (DiscreteModelSet(catalog.fixture_models()),
                       tuple(d for _, ds in sorted(catalog.fixture_descriptors().items())
                             for d in ds))
    for _ in range(10):
        f1 = TestVector.random(rng, ms.models)
        f2 = TestVector.random(rng, ms.models)
        assert discrete_part(ms, f1, f2) == stable_form(ms, f1, f2)
        assert endoscopic_form(ms, descriptors, f1, f2) == discrete_part(ms, f1, f2)
    model_rng = Random(1234)
    for i in range(100):
        m = catalog.random_model(model_rng, i)
        single = DiscreteModelSet((m,))
        f1 = TestVector.random(model_rng, single.models)
        f2 = TestVector.random(model_rng, single.models)
        assert discrete_part(single, f1, f2) == stable_form(single, f1, f2), \
            f"random model {i}"
    # Coefficient chain passes on fixtures and fails on single-field controls.
    (d_o2,) = catalog.descriptors_o2()
    assert verify_coefficients(catalog.model_o2(), d_o2).passed
    for alt in catalog.descriptors_sl2_central():
        assert verify_coefficients(catalog.model_sl2(), alt).passed
    controls = {
        "zbar": d_o2._replace(zbar=central_subgroup(catalog.datum("gl1"), ())),
        "out_card": d_o2._replace(out_card=3),
        "out_phi_card": d_o2._replace(out_phi_card=1),
        "splus_over_s_card": d_o2._replace(splus_over_s_card=1),
        "s_phi_prime_card": d_o2._replace(s_phi_prime_card=4),
        "sprime_datum": d_o2._replace(sprime_datum=catalog.datum("pgl2")),
    }
    for field, bad in controls.items():
        assert not verify_coefficients(catalog.model_o2(), bad).passed, field
    _report(5, "discrete = stable = endoscopic; coefficient chain with controls")


def test_criterion_6_coset_constancy():
    models = list(catalog.fixture_models())
    rng = Random(99)
    models += [catalog.random_model(rng, i) for i in range(25)]
    for m in models:
        for x in m.s_elements():
            for y in m.s_elements():
                if x[1] == y[1]:
                    assert i_phi(m, x) == i_phi(m, y), (m.model_id, x, y)
    _report(6, "i_phi constant along S_M-cosets on every attached model")


def test_criterion_7_determinism():
    cmd = [sys.executable, "-m", "tracestab.cli", "stabilize", "verify",
           "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    json.loads(first.stdout)  # the report is valid JSON
    _report(7, "seeded verification reports are byte-identical")
