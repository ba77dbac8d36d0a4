"""Fixture models, their endoscopic descriptors, and seeded random model generation.

The fixture models are the worked examples used throughout the test suite,
each with honestly computed endoscopic descriptors (the descriptor numbers are
group-theoretic facts about the fixture, spelled out where they are
nonobvious).  The named data live next to ``build_root_datum`` and the named
components next to ``component``, so the root-data commands never compile
this module; ``datum``, ``datum_names``, ``named_component``,
``component_names``, ``NEG1`` and ``SWAP2`` are re-exported from there.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from . import elliptic, packets, rootdata, stabilize
from .errors import TwistedUnsupported
from .linalg import clear_denominators, identity_matrix, mat_vec
from .rootdata import datum_names, named_datum as datum
from .weylcoset import NEG1, SWAP2, component_names, named_component


# ---------------------------------------------------------------------------
# Fixture models
# ---------------------------------------------------------------------------

def _model(model_id: str, sm_dim: int, r_dim: int, base: rootdata.RootDatum,
           thetas) -> packets.ParameterModel:
    """A packet model S = (Z/2)^sm_dim × (Z/2)^r_dim with one twist of ``base`` per x in S."""
    return packets.ParameterModel(model_id, packets.TwoGroup(sm_dim), packets.TwoGroup(r_dim),
                                  packets.DualGroupModel(base, thetas))


def model_o2() -> packets.ParameterModel:
    """S = R = Z/2 over a rank-1 torus; the nonidentity component is inverted."""
    return _model("o2", 0, 1, datum("gl1"), {(0, 0): identity_matrix(1), (0, 1): NEG1})


def model_sl2() -> packets.ParameterModel:
    """S = S_M = Z/2, both components untwisted over an SL2 base."""
    ident = identity_matrix(1)
    return _model("sl2phi", 1, 0, datum("sl2"), {(0, 0): ident, (1, 0): ident})


def model_swap() -> packets.ParameterModel:
    """S = R = Z/2 over SL2 x SL2 with the factor swap on the far component."""
    return _model("a1a1", 0, 1, datum("sl2xsl2"), {(0, 0): identity_matrix(2), (0, 1): SWAP2})


def model_trivial() -> packets.ParameterModel:
    return _model("triv", 0, 0, datum("trivial"), {(0, 0): ()})


def fixture_models() -> tuple[packets.ParameterModel, ...]:
    return (model_o2(), model_sl2(), model_swap(), model_trivial())


# ---------------------------------------------------------------------------
# Endoscopic descriptors for the fixtures
# ---------------------------------------------------------------------------

def _splus(m: packets.ParameterModel, x, cls) -> int:
    """Number of components meeting the point centralizer of the class.

    For a class in an untwisted component this counts twists sending the
    representative into its Weyl orbit.  In a twisted component of an |S| = 2
    model both components meet the centralizer (the class contains its own
    component element, and torus translation reaches the identity component).
    """
    comp = m.component_at(x)
    if comp.untwisted:
        a, n = clear_denominators(cls.rep.coords)
        orbit = elliptic._weyl_orbit(comp.base, a, n)
        return sum(1 for y in m.s_elements()
                   if tuple(v % n for v in mat_vec(m.component_at(y).theta, a)) in orbit)
    if m.s_size == 2:
        return 2
    raise TwistedUnsupported("splus is only derived for untwisted classes or |S| = 2")


def principal_descriptors(m: packets.ParameterModel) -> tuple[stabilize.EndoscopicDescriptor, ...]:
    """One descriptor per elliptic class with trivial zbar (the G' = G shape).

    With zbar trivial the quotient step is the identity, so sprime is the
    class centralizer itself and |S_phi'| = splus·pi0 by the cardinality
    bookkeeping.  The class of the identity gets the distinguished label
    ``principal:<model>``; every other class gets its own label.
    """
    out = []
    zbar0 = rootdata.central_subgroup(m.dual_group.base, ())
    for x in m.s_elements():
        classes = elliptic.elliptic_classes(m.component_at(x))
        for idx, cls in enumerate(classes):
            splus = _splus(m, x, cls)
            is_identity_class = (x == (0, 0)
                                 and all(c == 0 for c in cls.rep.coords))
            label = (f"principal:{m.model_id}" if is_identity_class
                     else f"point:{m.model_id}:{x[0]}{x[1]}:{idx}")
            out.append(stabilize.EndoscopicDescriptor(
                label, m.model_id, x, idx, out_card=1, out_phi_card=1, zbar=zbar0,
                sprime_datum=cls.centralizer_datum, splus_over_s_card=splus,
                s_phi_prime_card=splus * cls.pi0))
    return tuple(out)


def descriptors_o2() -> tuple[stabilize.EndoscopicDescriptor, ...]:
    """The rank-1 torus pair: a single class on the inverted component.

    The centralizer of a reflection in the full disconnected group has four
    elements in two components (splus = 2, pi0 = 2), the flip of the torus
    stabilizes the transferred parameter (out = out_phi = 2), the center of
    the small group contributes order 2 but meets the trivial connected
    centralizer only in the identity, and the quotient side is the trivial
    group with |S_phi'| = 1.
    """
    m = model_o2()
    zbar = rootdata.central_subgroup(datum("gl1"), ((Fraction(1, 2),),))
    return (stabilize.EndoscopicDescriptor(
        "u1", m.model_id, (0, 1), 0, out_card=2, out_phi_card=2, zbar=zbar,
        sprime_datum=datum("trivial"), splus_over_s_card=2, s_phi_prime_card=1),)


def descriptors_sl2_central() -> tuple[stabilize.EndoscopicDescriptor, ...]:
    """SL2-base fixture quotiented by its order-2 center on every class.

    Both components are untwisted so the center meets each connected
    centralizer entirely; the quotient side is the adjoint datum and the
    bookkeeping gives |S_phi'| = 2.
    """
    m = model_sl2()
    base = datum("sl2")
    zbar = rootdata.central_subgroup(base, ((Fraction(1, 2),),))
    out = []
    for x in m.s_elements():
        classes = elliptic.elliptic_classes(m.component_at(x))
        for idx, _cls in enumerate(classes):
            out.append(stabilize.EndoscopicDescriptor(
                f"sl2z:{x[0]}{x[1]}:{idx}", m.model_id, x, idx, out_card=1, out_phi_card=1,
                zbar=zbar, sprime_datum=datum("pgl2"), splus_over_s_card=2, s_phi_prime_card=2))
    return tuple(out)


def fixture_descriptors() -> dict[str, tuple[stabilize.EndoscopicDescriptor, ...]]:
    """One covering descriptor set per fixture model (each class exactly once).

    ``descriptors_sl2_central`` is an alternate covering of the SL2 model and
    must replace, not join, the principal set when evaluated.
    """
    return {
        "o2": descriptors_o2(),
        "sl2phi": principal_descriptors(model_sl2()),
        "a1a1": principal_descriptors(model_swap()),
        "triv": principal_descriptors(model_trivial()),
    }


# ---------------------------------------------------------------------------
# Seeded random models and test vectors
# ---------------------------------------------------------------------------

def _diag_sign_theta(rank: int, bits: tuple[int, ...]):
    return tuple(tuple((-1 if (i < len(bits) and bits[i]) else 1) if i == j else 0
                       for j in range(rank)) for i in range(rank))


def random_model(rng: Random, index: int) -> packets.ParameterModel:
    """A model from the supported bank: untwisted bases, inverted tori, swaps."""
    kind = rng.choice(("untwisted", "torus", "swap"))
    sm_dim = rng.randint(0, 2)
    if kind == "untwisted":
        base = datum(rng.choice(("trivial", "gl1", "sl2", "pgl2", "sl3", "sp4", "sl2xsl2")))
        r_dim = rng.randint(0, 2)
        ident = identity_matrix(base.rank)
        thetas = {(xm, xr): ident
                  for xm in range(1 << sm_dim) for xr in range(1 << r_dim)}
    elif kind == "torus":
        rank = rng.randint(1, 2)
        base = rootdata.build_root_datum(rank, (), ())
        r_dim = rng.randint(1, 2)
        thetas = {}
        for xm in range(1 << sm_dim):
            for xr in range(1 << r_dim):
                bits = tuple((xr >> i) & 1 for i in range(min(r_dim, rank)))
                thetas[(xm, xr)] = _diag_sign_theta(rank, bits)
    else:
        base = datum("sl2xsl2")
        r_dim = 1
        thetas = {}
        for xm in range(1 << sm_dim):
            thetas[(xm, 0)] = identity_matrix(2)
            thetas[(xm, 1)] = SWAP2
    return _model(f"rnd{index}", sm_dim, r_dim, base, thetas)
