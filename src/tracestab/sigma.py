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

a recursion on strictly fewer roots.  No class list enters σ, so
``verify_ei`` is an independent check of e = i, simple adjoint types
included.  The values are kept process-wide by Cartan label ("A1", "B4", …);
``sigma`` itself is memoized on the datum's value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod
from typing import NamedTuple

from . import elliptic
from .linalg import det, identity_matrix
from .rootdata import CentralSubgroup, RootDatum, build_root_datum, quotient_by_central
from .weylcoset import SimpleType, TwistedComponent, i_number, simple_types, untwisted_component


class SigmaTable(dict):
    """σ of simple adjoint groups: Cartan label to Fraction."""


# The benchmark's tracer counts memo hits and misses through SigmaTable.get.
_ADJOINT = SigmaTable()


def _simple_adjoint_sigma(t: SimpleType) -> Fraction:
    """σ of the adjoint group of type ``t``: X = Q with ⟨α_j, α_i∨⟩ = t.cartan[i][j]."""
    value = _ADJOINT.get(t.label)
    if value is None:
        n = len(t.cartan)
        d = build_root_datum(n, identity_matrix(n), t.cartan)
        # i first: past |W(E7)| it refuses at once, before any smaller σ is solved.
        value = i_number(untwisted_component(d))
        theta = max(d.positives, key=sum)  # on X = Q a root is its coefficient vector
        roots = d.simple_roots + (tuple(-x for x in theta),)
        coroots = d.simple_coroots + (tuple(-x for x in d.coroot_of(theta)),)
        omega = det(t.cartan)
        for k, mark in enumerate(theta):
            if mark >= 2:
                c_k = build_root_datum(n, roots[:k] + roots[k + 1:], coroots[:k] + coroots[k + 1:])
                value -= sigma(c_k) / omega
        _ADJOINT[t.label] = value
    return value


@cache
def sigma(d: RootDatum) -> Fraction:
    """σ of the connected group with the given datum, memoized on its value."""
    if not d.is_semisimple():
        return Fraction(0)
    types = simple_types(d.cartan_matrix(), range(d.semisimple_rank),
                         [c for c in d.coefficients if sum(c) > 0])
    # |Z(G)| = [X : ZΦ]; the empty determinant and the empty product are 1.
    return prod(map(_simple_adjoint_sigma, types), start=Fraction(1)) / abs(det(d.simple_roots))


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


def verify_ei(c: TwistedComponent) -> EIReport:
    """Evaluate both sides of e(S) = i(S) independently and compare exactly."""
    i_value = i_number(c)
    terms = []
    e_value = Fraction(0)
    for cls in elliptic.elliptic_classes(c):
        s_value = sigma(cls.centralizer_datum)
        term = Fraction(1, cls.pi0) * s_value
        e_value += term
        terms.append(ClassTerm(cls.rep.coords, cls.pi0, s_value, term))
    return EIReport(e_value, i_value, e_value == i_value, tuple(terms))


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
