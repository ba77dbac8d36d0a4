"""The σ-constants of connected reductive groups.

σ is pinned down by two requirements: for every component S the elliptic-class
sum e(S) = Σ |π₀(S_s)|⁻¹ σ(S°_s) equals i(S), and σ(S₁) = σ(S₁/Z₁)·|Z₁|⁻¹ for
central subgroups (hence σ = 0 whenever the center is infinite).  On a
connected group those pin the recursion implemented here: non-central elliptic
classes have strictly smaller centralizers, so σ(d) is solved from the
untwisted identity at the central classes and memoized by canonical key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .elliptic import SemisimpleClass, elliptic_classes
from .errors import InconsistentClasses, RecursionCycle
from .rootdata import CentralSubgroup, RootDatum, canonical_key, quotient_by_central
from .weylcoset import TwistedComponent, i_number, untwisted_component


@dataclass
class SigmaTable:
    """Memo table keyed by canonical datum keys."""

    entries: dict[bytes, Fraction] = field(default_factory=dict)

    def get(self, key: bytes) -> Fraction | None:
        return self.entries.get(key)

    def put(self, key: bytes, value: Fraction) -> None:
        self.entries[key] = value


def _is_central_class(d: RootDatum, cls: SemisimpleClass) -> bool:
    return len(cls.centralizer_datum.roots) == len(d.roots)


def sigma(d: RootDatum, table: SigmaTable | None = None, _order=None) -> Fraction:
    """σ of the connected group with the given datum.

    ``_order`` optionally reorders the recursive class visits; the result is
    independent of it (asserted by tests), it exists only to exercise that.
    """
    if table is None:
        table = SigmaTable()
    key = canonical_key(d)
    cached = table.get(key)
    if cached is not None:
        return cached
    if d.rank == 0:
        table.put(key, Fraction(1))
        return Fraction(1)
    if not d.is_semisimple():
        table.put(key, Fraction(0))
        return Fraction(0)

    component = untwisted_component(d)
    i_value = i_number(component)
    classes = elliptic_classes(component)
    central = [c for c in classes if _is_central_class(d, c)]
    others = [c for c in classes if not _is_central_class(d, c)]
    if _order is not None:
        others = _order(others)
    for c in central:
        if c.pi0 != 1:
            raise InconsistentClasses("central class with disconnected centralizer")
    if not central:
        raise InconsistentClasses("no central elliptic class on a semisimple datum")
    acc = Fraction(0)
    for c in others:
        sub_key = canonical_key(c.centralizer_datum)
        if sub_key == key:
            raise RecursionCycle("non-central class has the parent's canonical key")
        value = sigma(c.centralizer_datum, table, _order)
        acc += Fraction(1, c.pi0) * value
    result = (i_value - acc) / len(central)
    table.put(key, result)
    return result


@dataclass(frozen=True)
class ClassTerm:
    rep: tuple
    pi0: int
    sigma_value: Fraction
    term: Fraction


@dataclass(frozen=True)
class EIReport:
    e: Fraction
    i: Fraction
    equal: bool
    per_class: tuple[ClassTerm, ...]


def verify_ei(c: TwistedComponent, table: SigmaTable | None = None) -> EIReport:
    """Evaluate both sides of e(S) = i(S) independently and compare exactly."""
    if table is None:
        table = SigmaTable()
    i_value = i_number(c)
    terms = []
    e_value = Fraction(0)
    for cls in elliptic_classes(c):
        s_value = sigma(cls.centralizer_datum, table)
        term = Fraction(1, cls.pi0) * s_value
        e_value += term
        terms.append(ClassTerm(cls.rep.coords, cls.pi0, s_value, term))
    return EIReport(e_value, i_value, e_value == i_value, tuple(terms))


def verify_central_quotient(d: RootDatum, z: CentralSubgroup,
                            table: SigmaTable | None = None) -> bool:
    """Check σ(d) = σ(d/z)·|z|⁻¹ exactly."""
    if table is None:
        table = SigmaTable()
    lhs = sigma(d, table)
    rhs = sigma(quotient_by_central(d, z), table) / z.order
    return lhs == rhs
