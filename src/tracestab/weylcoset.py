"""Twisted components and the signed Weyl-coset number i(S).

A component is a coset S = S°θ encoded by a root datum for S° plus a
finite-order lattice automorphism θ of X∨.  Its Weyl set is {vθ : v ∈ W(S°)};
an element is regular when det(w − 1) ≠ 0 on X∨ ⊗ Q, and

    i(S) = |W(S°)|⁻¹ · Σ_regular sign(w) / |det(w − 1)|

summed with exact rationals.  There are two routes to it:

* θ ≠ 1: ``weyl_set`` walks the coset from θ, one simple reflection at a time.
* θ = 1: no W is built.  i is the product over ``rootdata.simple_factors``
  of ``simple_i_number``.  A classical factor takes the closed form
  ``rootdata.classical_i_number``: i(Aₙ) = (−1)ⁿ/(n + 1)²,
  i(Bₙ) = i(Cₙ) = (−1)ⁿ·Π_{k≤n}(4k − 3)/(4k) and
  i(Dₙ) = i(Bₙ) + (−1)ⁿ·Π_{k≤n}(4k − 5)/(4k), read off cycle types.  An
  exceptional one takes (−1)ⁿ·E_W(1)/|W|, where E_W(q) sums 1/det(1 − qw)
  over the elliptic w (for those det w = (−1)ⁿ).  E_W comes from Molien's
  series |W|/Π(1 − q^{dᵢ}) minus the contributions of the proper flats of
  the Coxeter arrangement, counted by W-orbit on positive-root masks
  (``rootdata.mask_reflections``); the flats of a classical type are walked
  only as pieces of an exceptional one's, or by the tests, which check the
  closed forms against them.  E is kept per Cartan label in one table.

Neither runs if ``has_regular_element`` says no: then i is 0, ``elliptic``
lists no class and ``stabilize`` leaves the component out of the discrete set.
That is when θ fixes a nonzero central cocharacter: W is 1 on those, and a
twisted Coxeter element fixes no nonzero vector of the coroot span (Springer,
Invent. Math. 25, 1974).

A twist θ is written θ = w·τ by ``rootdata.pinned_part``: θ is an
automorphism of the datum exactly when τ preserves the pinning, and
sign(θ) = (−1)^ℓ(w), so no matrix is inverted here.

``weyl_set``, ``has_regular_element`` and ``i_number`` are memoized on the
component's value (base datum, θ and its order), never on a canonical key.

The named components (``named_component``) are the named data, untwisted,
plus ``o2_twist`` (GL1 inverted) and ``a1a1_swap`` (SL2 × SL2 swapped).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, prod
from typing import NamedTuple

from .errors import InconsistentFlats, InfiniteOrder, NotAutomorphism, WeylGroupTooLarge
from .linalg import (
    IntMat,
    det,
    identity_matrix,
    integer_rows,
    mat_mul,
    mat_vec,
    matrix_rank,
    minus_identity,
    transpose,
)
from .rootdata import (
    MAX_FLAT_WEYL_ORDER,
    RootDatum,
    SimpleType,
    classical_i_number,
    coset_walk,
    datum_names,
    exponents,
    mask_orbits,
    mask_reflections,
    named_datum,
    pinned_part,
    simple_factors,
    simple_types,
)

# A twist with no power up to this order equal to the identity is refused.
MAX_TWIST_ORDER = 64


class TwistedComponent(NamedTuple):
    base: RootDatum
    theta: IntMat
    order_theta: int

    @property
    def untwisted(self) -> bool:
        return self.order_theta == 1


class CosetElement(NamedTuple):
    total: IntMat
    det_w_minus_1: Fraction
    sign: int
    regular: bool


def component(base: RootDatum, theta) -> TwistedComponent:
    """Validate a twist and wrap it as a component of a disconnected group.

    θ = w·τ (``pinned_part``) is an automorphism of the datum exactly when τ
    is: when τ sends each simple coroot α_i∨ to some α_j∨ with τᵀ·α_j = α_i.
    """
    theta = integer_rows(theta, NotAutomorphism)
    n = base.rank
    if len(theta) != n or any(len(row) != n for row in theta):
        raise NotAutomorphism("theta has the wrong shape")
    d = det(theta)
    if d not in (1, -1):
        raise NotAutomorphism(f"det(theta) = {d} is not a unit")
    tau, _ = pinned_part(base, theta)
    tau_t = transpose(tau)
    pinning = dict(zip(base.simple_coroots, base.simple_roots))
    for alpha_v, alpha in pinning.items():
        image = mat_vec(tau, alpha_v)
        if image not in pinning or mat_vec(tau_t, pinning[image]) != alpha:
            raise NotAutomorphism(f"theta is not an automorphism: its pinned part moves the "
                                  f"simple coroot {alpha_v} off the pinning")
    power = theta
    order = 1
    ident = identity_matrix(n)
    while power != ident:
        power = mat_mul(power, theta)
        order += 1
        if order > MAX_TWIST_ORDER:
            raise InfiniteOrder(f"no power up to {MAX_TWIST_ORDER} is the identity")
    return TwistedComponent(base, theta, order)


def untwisted_component(base: RootDatum) -> TwistedComponent:
    return TwistedComponent(base, identity_matrix(base.rank), 1)


SWAP2 = ((0, 1), (1, 0))
NEG1 = ((-1,),)


def named_component(name: str) -> TwistedComponent:
    """Catalog components: every named datum untwisted, plus the two twisted shapes."""
    if name == "o2_twist":
        return component(named_datum("gl1"), NEG1)
    if name == "a1a1_swap":
        return component(named_datum("sl2xsl2"), SWAP2)
    return untwisted_component(named_datum(name))


def component_names() -> tuple[str, ...]:
    return datum_names() + ("a1a1_swap", "o2_twist")


def coset_sign(d: RootDatum, total: IntMat) -> int:
    """(−1)^ℓ(w) for total = w·τ (``pinned_part``): the parity of its inversions of Φ⁺."""
    return -1 if pinned_part(d, total)[1] % 2 else 1


@cache
def weyl_set(c: TwistedComponent) -> tuple[CosetElement, ...]:
    """The coset {vθ}, walked from θ (``rootdata.coset_walk``), annotated and sorted by total.

    The inversion sign is a character of Aut(Φ), and on W it is (−1)^ℓ(v)
    with ℓ(v) the length of the reduced word, so sign(vθ) = (−1)^ℓ(v)·sign(θ).
    """
    theta_sign = coset_sign(c.base, c.theta)
    elements = []
    for total, word in sorted(coset_walk(c.base, c.theta).items()):
        d = det(minus_identity(total))
        elements.append(CosetElement(total, d, theta_sign * (-1) ** len(word), d != 0))
    return tuple(elements)


def flat_orbits(t: SimpleType) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(size, K) for each W-orbit of proper flats; K ⊊ S spans a standard member L_K.

    A flat L is the mask of the positive roots that vanish on it, walked by
    ``rootdata.mask_reflections``: L_K has Φ_K⁺.  Every flat is W-conjugate to
    some L_K (its pointwise stabilizer is parabolic, by Steinberg), so the
    orbits of the Φ_K⁺ hold all the flats; ``rootdata.mask_orbits`` skips a K
    an earlier orbit reached.
    """
    n = len(t.cartan)
    index, step = mask_reflections(t.cartan, t.positives)
    masks = ((sum(1 << index[c] for c in t.positives if sum(c[i] for i in k) == sum(c)), k)
             for size in range(n) for k in combinations(range(n), size))
    return tuple(mask_orbits(masks, step))


def _times(a, b, terms: int) -> list[Fraction]:
    """The first ``terms`` coefficients of a·b, a and b read as zero past their ends."""
    return [sum(a[i] * b[k - i] for i in range(max(0, k - len(b) + 1), min(k + 1, len(a))))
            for k in range(terms)]


def _divided(a, g, terms: int) -> list[Fraction]:
    """The first ``terms`` coefficients of a/g, for integer polynomials with g[0] ≠ 0."""
    out: list[Fraction] = []
    for k in range(terms):
        out.append(Fraction(a[k] - sum(g[i] * out[k - i] for i in range(1, min(k + 1, len(g)))),
                            g[0]))
    return out


# E_W per Cartan label: (its flat orbits with their types, the longest series computed).
_ELLIPTIC: dict[str, tuple[tuple, tuple[Fraction, ...]]] = {}


def elliptic_series(t: SimpleType, terms: int) -> tuple[Fraction, ...]:
    """E_W(q) = Σ 1/det(1 − qw) over the elliptic w ∈ W, as ``terms`` coefficients in x = 1 − q.

    Grouping w ∈ W by its fixed space, a flat L, Molien's series splits as
    |W|/Π(1 − q^{dᵢ}) = Σ_L x^{−dim L}·E_{W_L} (Solomon, Nagoya Math. J.
    1963), and W_L is the product of K's diagram pieces on L_K.  The proper
    flats have smaller types, so E_W is what is left once they are taken
    away; the n pole coefficients must cancel.
    """
    flats, known = _ELLIPTIC.get(t.label, (None, ()))
    if len(known) >= terms:
        return known[:terms]
    if flats is None:
        flats = tuple((size, len(k), simple_types(t.cartan, k)) for size, k in flat_orbits(t))
    n = len(t.cartan)
    length = n + terms
    # x^n·|W|/Π(1 − q^d), where 1 − q^d = 1 − (1 − x)^d = x·Σ_{k≥1} (−1)^{k+1}·C(d, k)·x^{k−1}.
    denominator = [1]
    for m in exponents(t.positives):
        denominator = _times(denominator, [(-1) ** (k + 1) * comb(m + 1, k)
                                           for k in range(1, m + 2)], len(denominator) + m)
    series = _divided([t.order] + [0] * (length - 1), denominator, length)
    for size, rank, factors in flats:
        term = [size]
        for factor in factors:
            term = _times(term, elliptic_series(factor, length - rank), length - rank)
        for k, coefficient in enumerate(term):
            series[rank + k] -= coefficient
    if any(series[:n]):
        raise InconsistentFlats(f"Molien's series of {t.label} minus its flats leaves a pole")
    _ELLIPTIC[t.label] = (flats, tuple(series[n:]))
    return tuple(series[n:])


def simple_i_number(t: SimpleType) -> Fraction:
    """i of the untwisted simple factor ``t``: its closed form, else (−1)ⁿ·E_W(1)/|W|.

    A classical factor reads ``rootdata.classical_i_number``.  Only an
    exceptional factor walks its flats, and one with |W| above
    ``MAX_FLAT_WEYL_ORDER`` (E8) raises ``WeylGroupTooLarge`` before any is walked.
    """
    value = classical_i_number(t)
    if value is not None:
        return value
    if t.order > MAX_FLAT_WEYL_ORDER:
        raise WeylGroupTooLarge(f"W({t.label}) has order {t.order}, "
                                f"above the limit {MAX_FLAT_WEYL_ORDER}")
    return (-1) ** len(t.cartan) * elliptic_series(t, 1)[0] / t.order


def fixes_a_central_cocharacter(base: RootDatum, thetas) -> bool:
    """Whether every θ fixes one nonzero v in X∨ ⊗ Q with ⟨α, v⟩ = 0 for every root α."""
    if base.is_semisimple():  # the roots span, so no such v exists
        return False
    # Such v form the common kernel of the simple roots and of every θ − 1.
    rows = [row for theta in thetas for row in minus_identity(theta)]
    return matrix_rank(base.simple_roots + tuple(rows)) < base.rank


@cache
def has_regular_element(c: TwistedComponent) -> bool:
    """Whether some w in Wθ has det(w − 1) ≠ 0: exactly when θ fixes no central cocharacter."""
    return not fixes_a_central_cocharacter(c.base, (c.theta,))


@cache
def i_number(c: TwistedComponent) -> Fraction:
    """i(S): the signed average over the coset's regular part, or per simple factor if θ = 1."""
    if not has_regular_element(c):
        return Fraction(0)
    if not c.untwisted:
        elements = weyl_set(c)
        return sum((Fraction(e.sign) / abs(e.det_w_minus_1) for e in elements if e.regular),
                   Fraction(0)) / len(elements)
    # The factors past the flat limit go first, in diagram order: a classical one
    # walks no flats, so E8 refuses before any other factor's flats are walked.
    factors = sorted(simple_factors(c.base), key=lambda t: t.order <= MAX_FLAT_WEYL_ORDER)
    return prod(map(simple_i_number, factors), start=Fraction(1))
