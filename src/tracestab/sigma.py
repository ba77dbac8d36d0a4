"""The σ-constants of connected reductive groups.

σ is pinned down by two requirements: for every component S the elliptic-class
sum e(S) = Σ |π₀(S_s)|⁻¹ σ(S°_s) equals i(S), and σ(S₁) = σ(S₁/Z₁)·|Z₁|⁻¹ for
central subgroups (hence σ = 0 whenever the center is infinite).  With the
product law σ(G₁×G₂) = σ(G₁)σ(G₂) they give σ(G) = Π σ(simple adjoint
factors) / |Z(G)|.  Only the simple adjoint factors go through the recursion:
non-central elliptic classes have centralizers with strictly fewer roots, so
σ is solved from the untwisted identity at the central classes.  Those values
are constants, kept process-wide in one table keyed by Cartan label ("A1",
"B4", …); ``sigma`` itself is memoized on the datum's value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .elliptic import SemisimpleClass, elliptic_classes
from .errors import InconsistentClasses
from .linalg import det, identity_matrix
from .rootdata import (
    CentralSubgroup,
    RootDatum,
    build_root_datum,
    component_label,
    diagram_components,
    quotient_by_central,
)
from .weylcoset import TwistedComponent, i_number, untwisted_component


class SigmaTable(dict):
    """σ of simple adjoint groups: Cartan label to Fraction."""


# The benchmark's tracer counts memo hits and misses through SigmaTable.get.
_ADJOINT = SigmaTable()


def _is_central_class(d: RootDatum, cls: SemisimpleClass) -> bool:
    return len(cls.centralizer_datum.roots) == len(d.roots)


def _solve_ei(d: RootDatum) -> Fraction:
    """σ(d) from e = i on d's untwisted component, given σ of every smaller centralizer."""
    component = untwisted_component(d)
    # i first: past |W(E7)| it refuses at once, before any flat or class is listed.
    i_value = i_number(component)
    classes = elliptic_classes(component)
    central = [c for c in classes if _is_central_class(d, c)]
    for c in central:
        if c.pi0 != 1:
            raise InconsistentClasses("central class with disconnected centralizer")
    if not central:
        raise InconsistentClasses("no central elliptic class on a semisimple datum")
    acc = sum((Fraction(1, c.pi0) * sigma(c.centralizer_datum)
               for c in classes if not _is_central_class(d, c)), Fraction(0))
    return (i_value - acc) / len(central)


def _simple_adjoint_sigma(label: str, cartan: tuple[tuple[int, ...], ...]) -> Fraction:
    """σ of the adjoint datum X = Q with ⟨α_j, α_i∨⟩ = cartan[i][j], of type ``label``."""
    value = _ADJOINT.get(label)
    if value is None:
        n = len(cartan)
        value = _solve_ei(build_root_datum(n, identity_matrix(n), cartan))
        _ADJOINT[label] = value
    return value


@cache
def sigma(d: RootDatum) -> Fraction:
    """σ of the connected group with the given datum, memoized on its value."""
    if not d.is_semisimple():
        return Fraction(0)
    cartan = d.cartan_matrix()
    positives = [c for c in d.coefficients if sum(c) > 0]
    value = Fraction(1)
    for comp in diagram_components(d):
        value *= _simple_adjoint_sigma(component_label(cartan, comp, positives),
                                       tuple(tuple(cartan[i][j] for j in comp) for i in comp))
    # |Z(G)| = [X : ZΦ]; the empty determinant is 1.
    return value / abs(det(d.simple_roots))


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
    for cls in elliptic_classes(c):
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
