"""Twisted components and the signed Weyl-coset number i(S).

A component is a coset S = S°θ encoded by a root datum for S° plus a
finite-order lattice automorphism θ of X∨.  Its Weyl set is {vθ : v ∈ W(S°)};
an element is regular when det(w − 1) ≠ 0 on X∨ ⊗ Q, and

    i(S) = |W(S°)|⁻¹ · Σ_regular sign(w) / |det(w − 1)|

summed with exact rationals.  θ = identity recovers the untwisted component.

``weyl_set`` and ``i_number`` are memoized on the component's value (base
datum, θ and its order), never on a canonical key; the cached tuples of
immutable elements and Fractions are shared by every caller.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .errors import InfiniteOrder, NotAutomorphism
from .linalg import IntMat, det, identity_matrix, mat_mul, mat_vec
from .rootdata import RootDatum, WeylElement, contragredient, weyl_group

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
    """Validate a twist and wrap it as a component of a disconnected group."""
    theta = tuple(tuple(int(x) for x in row) for row in theta)
    n = base.rank
    if len(theta) != n or any(len(row) != n for row in theta):
        raise NotAutomorphism("theta has the wrong shape")
    d = det(theta)
    if d not in (1, -1):
        raise NotAutomorphism(f"det(theta) = {d} is not a unit")
    coroot_set = set(base.coroots)
    images = {}
    for root, coroot in zip(base.roots, base.coroots):
        image = mat_vec(theta, coroot)
        if image not in coroot_set:
            raise NotAutomorphism(f"theta({coroot}) is not a coroot")
        images[root] = image
    if images:
        theta_x = contragredient(theta)
        root_set = set(base.roots)
        for root, coroot_image in images.items():
            root_image = mat_vec(theta_x, root)
            if root_image not in root_set:
                raise NotAutomorphism(f"dual action breaks on {root}")
            if base.coroot_of(tuple(root_image)) != tuple(coroot_image):
                raise NotAutomorphism("theta is incompatible with the root-coroot bijection")
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


def coset_sign(d: RootDatum, total: IntMat, positive_roots=None) -> int:
    """(−1)^{#positive roots sent to negative} for the X-side action."""
    if positive_roots is None:
        positive_roots = d.positive_roots()
    action = contragredient(total)
    positives = set(positive_roots)
    inversions = sum(1 for alpha in positive_roots
                     if tuple(int(x) for x in mat_vec(action, alpha)) not in positives)
    return -1 if inversions % 2 else 1


def _coset_element(c: TwistedComponent, v: WeylElement, theta_sign: int) -> CosetElement:
    total = v.matrix if c.untwisted else mat_mul(v.matrix, c.theta)
    delta = tuple(tuple(total[i][j] - (1 if i == j else 0) for j in range(c.base.rank))
                  for i in range(c.base.rank))
    d = det(delta)
    return CosetElement(total, d, -theta_sign if len(v.word) % 2 else theta_sign, d != 0)


@cache
def weyl_set(c: TwistedComponent) -> tuple[CosetElement, ...]:
    """The full coset {vθ}, annotated and sorted by total matrix.

    The inversion sign is a character of Aut(Φ), and on W it is (−1)^ℓ(v)
    with ℓ(v) the length of the reduced word, so sign(vθ) = (−1)^ℓ(v)·sign(θ).
    """
    theta_sign = coset_sign(c.base, c.theta)
    elements = [_coset_element(c, v, theta_sign) for v in weyl_group(c.base)]
    return tuple(sorted(elements, key=lambda e: e.total))


@cache
def i_number(c: TwistedComponent) -> Fraction:
    """Signed average of 1/|det(w−1)| over the regular part of the coset."""
    elements = weyl_set(c)
    return sum((Fraction(e.sign) / abs(e.det_w_minus_1) for e in elements if e.regular),
               Fraction(0)) / len(elements)
