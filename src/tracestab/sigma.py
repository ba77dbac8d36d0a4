"""The σ-constants of connected reductive groups.

σ is pinned down by e(S) = Σ |π₀(S_s)|⁻¹ σ(S°_s) = i(S) on every component S
and σ(S₁) = σ(S₁/Z₁)·|Z₁|⁻¹ for central subgroups (so σ = 0 on an infinite
center).  With the product law they give σ(G) = Π σ(simple adjoint factors) / |Z(G)|.

A simple adjoint group is read off its affine diagram.  Its elliptic classes
are the alcove vertices up to Ω ≅ Z(G_sc), with π₀ the stabilizer in Ω
(Bourbaki, Lie Groups, ch. VI §2); at vertex k the centralizer C_k has X = Q
and simple roots Δ ∪ {−θ} ∖ {α_k} (Borel–de Siebenthal, Comment. Math. Helv.
1949), and |Z(C_k)| = m_k for θ = Σ m_k α_k.  The mark-1 vertices, α₀
included, are one Ω-orbit with centralizer G, and |Ω| = det C, so e = i reads

    σ(G_ad) = i(G) − det(C)⁻¹ · Σ_{k : m_k ≥ 2} σ(C_k),

a recursion on strictly fewer roots that reads Cartan matrices alone.  The
Cartan matrix of C_k is Ĉ (``rootdata.extended_cartan``, the matrix on
Δ ∪ {−θ}) with node k deleted, and σ(C_k) is the product of σ over the
adjoint groups of its pieces divided by m_k, so no root datum is built on
the way down and ``sigma`` is not re-entered.  i(G) and θ are read off the
factors of ``rootdata.simple_factors``.  No class list enters σ, so
``verify_ei`` is an independent check of e = i, simple adjoint types
included.  The values are kept process-wide by Cartan label ("A1", "B4", …);
``sigma`` itself is memoized on the datum's value.  e(S) is summed only in
``e_number``, memoized on the component's value, which ``verify_ei``
compares with i and ``stabilize`` reads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod
from typing import NamedTuple

from . import elliptic
from .linalg import det
from .rootdata import (
    CentralSubgroup,
    RootDatum,
    SimpleType,
    extended_cartan,
    quotient_by_central,
    root_lattice_index,
    simple_factors,
    simple_types,
)
from .weylcoset import TwistedComponent, i_number, simple_i_number, untwisted_component


class SigmaTable(dict):
    """σ of simple adjoint groups: Cartan label to Fraction."""


# The benchmark's tracer counts memo hits and misses through SigmaTable.get.
_ADJOINT = SigmaTable()


def _simple_adjoint_sigma(t: SimpleType) -> Fraction:
    """σ of the adjoint group of type ``t``: X = Q with ⟨α_j, α_i∨⟩ = t.cartan[i][j]."""
    value = _ADJOINT.get(t.label)
    if value is None:
        # i first: past |W(E7)| it refuses at once, before any smaller σ is solved.
        value = simple_i_number(t)
        extended = extended_cartan(t)
        omega = det(t.cartan)
        for k, mark in enumerate(t.highest):
            if mark >= 2:
                # σ(C_k) = Π σ(adjoint pieces) / |Z(C_k)|, and |Z(C_k)| = m_k on X = Q.
                c_k = simple_types(extended, (j for j in range(len(extended)) if j != k))
                value -= prod(map(_simple_adjoint_sigma, c_k), start=Fraction(1)) / (mark * omega)
        _ADJOINT[t.label] = value
    return value


@cache
def sigma(d: RootDatum) -> Fraction:
    """σ of the connected group with the given datum, memoized on its value."""
    if not d.is_semisimple():
        return Fraction(0)
    return (prod(map(_simple_adjoint_sigma, simple_factors(d)), start=Fraction(1))
            / root_lattice_index(d))


class ClassTerm(NamedTuple):
    rep: tuple
    pi0: int
    sigma_value: Fraction
    term: Fraction


class EIReport(NamedTuple):
    e: Fraction
    i: Fraction
    equal: bool
    per_class: tuple[ClassTerm, ...]


@cache
def e_number(c: TwistedComponent) -> tuple[Fraction, tuple[ClassTerm, ...]]:
    """e(S) = Σ |π₀(S_s)|⁻¹·σ(S°_s) over the elliptic classes, and its terms."""
    terms = []
    for cls in elliptic.elliptic_classes(c):
        s_value = sigma(cls.centralizer_datum)
        terms.append(ClassTerm(cls.rep.coords, cls.pi0, s_value, Fraction(1, cls.pi0) * s_value))
    return sum((t.term for t in terms), Fraction(0)), tuple(terms)


def verify_ei(c: TwistedComponent) -> EIReport:
    """Evaluate both sides of e(S) = i(S) independently and compare exactly."""
    i_value, (e_value, terms) = i_number(c), e_number(c)
    return EIReport(e_value, i_value, e_value == i_value, terms)


def verify_central_quotient(d: RootDatum, z: CentralSubgroup) -> bool:
    """Check σ(d) = σ(d/z)·|z|⁻¹ exactly, and e = i on d and on d/z.

    The first equation holds by construction for a valid central z: both
    sides are the same adjoint product over |Z(d)|.  What makes the rule
    true is that this product solves e = i on both groups, so ``verify_ei``
    on their untwisted components is the part of the check that can fail.
    """
    quotient = quotient_by_central(d, z)
    return (sigma(d) == sigma(quotient) / z.order
            and all(verify_ei(untwisted_component(g)).equal for g in (d, quotient)))
