"""Assembly of the discrete-part identities from packet models.

Each parameter model with a dual-group attachment yields per-component
numbers i_φ(x) (signed Weyl-coset sums) and e_φ(x) (elliptic classes fed
through σ).  The three global forms evaluated here — the triple-indexed
discrete part, the elliptic-class stable form, and the descriptor-indexed
endoscopic form — are finite sums that must agree exactly; the continuous
twist families of the analytic theory are collapsed to one representative
per orbit, which turns every integral into the finite sum evaluated here.
Each form is a fixed bilinear kernel: its weights are built once per
``DiscreteModelSet`` as integers over one denominator, and each evaluation
is one integer sum over the test vectors' integer views.

e_φ is ``sigma.e_number``, which never asks for i.  The discrete set and φ's
discreteness are one test, ``weylcoset.fixes_a_central_cocharacter``: whether
the twists fix a nonzero central cocharacter.  No Weyl coset is walked for them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .elliptic import SemisimpleClass, elliptic_classes
from .errors import DuplicateModelId, InconsistentDescriptor, MissingDualGroup
from .linalg import clear_denominators, dot, minus_identity, pivot_product
from .packets import (
    GaussianRational,
    ParameterModel,
    SElement,
    TestVector,
    _Record,
    theta_numerator,
)
from .rootdata import CentralSubgroup, RootDatum, enlarged_basis
from .sigma import e_number, sigma
from .weylcoset import fixes_a_central_cocharacter, has_regular_element, i_number


def s_disc_set(m: ParameterModel) -> frozenset[SElement]:
    """Components whose Weyl coset contains a regular element."""
    return frozenset(x for x in m.s_elements() if has_regular_element(m.component_at(x)))


def i_phi(m: ParameterModel, x: SElement) -> Fraction:
    """i-number of the component attached to x.

    It is zero off the discrete set, because i(S) sums over regular elements.
    """
    return i_number(m.component_at(x))


def e_phi(m: ParameterModel, x: SElement) -> Fraction:
    """Elliptic-class sum Σ |π₀|⁻¹·σ(centralizer) on the component of x, from ``e_number``."""
    return e_number(m.component_at(x))[0]


def phi_disc(m: ParameterModel) -> bool:
    """Whether the attachment has no twist-stable central torus directions."""
    return not fixes_a_central_cocharacter(m.component_at((0, 0)).base,
                                           [m.component_at(x).theta for x in m.s_elements()])


def phi_s_disc(m: ParameterModel) -> bool:
    """Whether the base datum itself has finite center (roots span)."""
    return m.component_at((0, 0)).base.is_semisimple()


def _over_common_denominator(weights: dict) -> tuple[dict, int]:
    """The nonzero rational weights as integers over their least common denominator."""
    nums, denom = clear_denominators(tuple(weights.values()))
    return {k: n for k, n in zip(weights, nums) if n}, denom


def _hermitian_sum(terms, denominator: int) -> GaussianRational:
    """Σ c·u·conj(v)/denominator over integer weights c and integer (re, im) pairs u, v."""
    re = im = 0
    for c, (a, b), (p, q) in terms:
        re += c * (a * p + b * q)
        im += c * (b * p - a * q)
    return GaussianRational(Fraction(re, denominator), Fraction(im, denominator))


def _vector_form(weights: tuple[dict, int], f1: TestVector, f2: TestVector) -> GaussianRational:
    """Σ w(φ, x)·f₁(φ, x)·conj(f₂(φ, x)) over integer weights keyed by (model id, x)."""
    nums, denom = weights
    (d1, v1), (d2, v2) = f1.integer_view, f2.integer_view
    zero = (0, 0)
    return _hermitian_sum(((c, v1.get(k, zero), v2.get(k, zero)) for k, c in nums.items()),
                          denom * d1 * d2)


class DiscreteModelSet(_Record):
    """The models of the identity chain, with the integer weights of its forms.

    Immutable, equal and hashed by ``models``.
    """

    def __init__(self, models: tuple[ParameterModel, ...]):
        ids = [m.model_id for m in models]
        if len(set(ids)) != len(ids):
            raise DuplicateModelId("model ids must be unique")
        for m in models:
            if m.dual_group is None:
                raise MissingDualGroup(f"model {m.model_id} has no dual-group attachment")
        vars(self)["models"] = models

    def _key(self) -> tuple:
        return (self.models,)

    @cached_property
    def stable_weights(self) -> tuple[dict, int]:
        """e_φ(x)/|S| per (model id, x)."""
        return _over_common_denominator({(m.model_id, x): Fraction(e_phi(m, x), m.s_size)
                                         for m in self.models for x in m.s_elements()})

    @cached_property
    def discrete_weights(self) -> tuple[dict, int]:
        """i_φ(ι(τ))/(|R|·|S|²) per (model position, row of τ).

        The |S|² turns the two Θ numerators of a term into Θ values.  i_φ is 0
        off s_disc_set, since it sums over regular elements, and zero weights
        are dropped, so only τ with ι(τ) in s_disc_set keep a weight.
        """
        return _over_common_denominator(
            {(k, t): Fraction(i_phi(m, m.iota(tau)), m.r.size * m.s_size ** 2)
             for k, m in enumerate(self.models) for t, tau in enumerate(m.taus())})

    @cached_property
    def endoscopic_weights(self) -> dict[tuple, tuple[dict, int]]:
        """Per descriptor tuple, its validated weights per (model id, x)."""
        return {}


def discrete_part(ms: DiscreteModelSet, f1: TestVector, f2: TestVector) -> GaussianRational:
    """Triple-indexed form: Σ_τ i_φ(ι(τ))·Θ(τ,f₁)·conj(Θ(τ,f₂))·|R|⁻¹."""
    nums, denom = ms.discrete_weights
    rows = [m.transfer_numerators for m in ms.models]
    cols = [(f1.column(m), f2.column(m)) for m in ms.models]
    terms = ((c, theta_numerator(rows[k][t], cols[k][0]), theta_numerator(rows[k][t], cols[k][1]))
             for (k, t), c in nums.items())
    return _hermitian_sum(terms, denom * f1.integer_view[0] * f2.integer_view[0])


def stable_form(ms: DiscreteModelSet, f1: TestVector, f2: TestVector) -> GaussianRational:
    """Elliptic-class form: Σ_s |S|⁻¹·|π₀(s)|⁻¹·σ(S°_s)·f'₁·conj(f'₂)."""
    return _vector_form(ms.stable_weights, f1, f2)


class EndoscopicDescriptor(NamedTuple):
    """Numerical invariants of the endoscopic datum attached to one class."""

    group_label: str
    model_id: str
    x: SElement
    class_index: int
    out_card: int
    out_phi_card: int
    zbar: CentralSubgroup
    sprime_datum: RootDatum
    splus_over_s_card: int
    s_phi_prime_card: int


def iota_coefficient(out_card: int, zbar_card: int) -> Fraction:
    return Fraction(1, out_card) * Fraction(1, zbar_card)


def fixed_intersection_order(m: ParameterModel, x: SElement, zbar: CentralSubgroup) -> int:
    """|S̄° ∩ Z̄| for the class component: elements with a θ_x-fixed lift.

    A torsion point z ∈ Z̄ = L/X∨ lies in the connected centralizer's maximal
    torus exactly when some rational representative is fixed by the twist,
    i.e. when (θ−1)·z lands in (θ−1)·X∨.  Those z are the kernel of
    z ↦ (θ−1)·z from Z̄ onto (θ−1)·L / (θ−1)·X∨, so they number
    |Z̄| / [(θ−1)·L : (θ−1)·X∨].  Scaled by D, both lattices have Hermite
    bases from ``enlarged_basis``, and D·(θ−1)·X∨ = D^r·(θ−1)·X∨ for r the
    rank of θ − 1: the index is a ratio of pivot products, and no z is listed.
    """
    delta = minus_identity(m.component_at(x).theta)
    image_l, denom = enlarged_basis(zbar.generators, delta)
    image_x, _ = enlarged_basis((), delta)
    return (zbar.order * pivot_product(image_l)
            // (denom ** len(image_x) * pivot_product(image_x)))


class CoefficientReport(NamedTuple):
    checks: tuple[tuple[str, str, str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, _, _, ok in self.checks)

    def failed_names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _, ok in self.checks if not ok)


def _locate_class(m: ParameterModel, d: EndoscopicDescriptor) -> SemisimpleClass:
    classes = elliptic_classes(m.component_at(d.x))
    if not 0 <= d.class_index < len(classes):
        raise InconsistentDescriptor(
            f"class index {d.class_index} out of range on component {d.x}")
    return classes[d.class_index]


def verify_coefficients(m: ParameterModel, d: EndoscopicDescriptor) -> CoefficientReport:
    """Exact checks of the coefficient chain for one class descriptor.

    (a) the σ central-quotient step σ(S̄°_{φ'}) = σ(S̄°_{φ,s})·|S̄° ∩ Z̄|,
    (b) the full product collapse to |Out|⁻¹|Z̄|⁻¹|S_{φ'}|⁻¹σ(S̄°_{φ'}),
    (c) the cardinality bookkeeping behind |S_{φ'}|, and
    (d) integrality sanity: the parameter-orbit size |Out|/|Out(φ')| is whole.
    """
    rank = m.component_at(d.x).base.rank
    if any(len(g) != rank for g in d.zbar.generators):
        raise InconsistentDescriptor(f"descriptor {d.group_label}/{d.model_id}: zbar "
                                     f"generators do not have the base rank {rank}")
    cls = _locate_class(m, d)
    # A swap class's centralizer lives on the folded lattice, of lower rank, where
    # Z̄'s coordinates mean nothing; every centralizer on the base lattice is tested.
    if cls.centralizer_datum.rank == rank:
        for alpha in cls.centralizer_datum.simple_roots:
            for g in d.zbar.generators:
                if dot(alpha, g) % 1 != 0:
                    raise InconsistentDescriptor("zbar is not central in the class centralizer")
    intersection = fixed_intersection_order(m, d.x, d.zbar)
    sigma_cent = sigma(cls.centralizer_datum)
    sigma_prime = sigma(d.sprime_datum)
    checks = []

    lhs_a = sigma_prime
    rhs_a = sigma_cent * intersection
    checks.append(("sigma_quotient", str(lhs_a), str(rhs_a), lhs_a == rhs_a))

    lhs_b = (Fraction(m.s_size, d.splus_over_s_card)
             * Fraction(d.out_phi_card, d.out_card)
             * Fraction(1, m.s_size * cls.pi0) * sigma_cent)
    rhs_b = (iota_coefficient(d.out_card, d.zbar.order)
             * Fraction(1, d.s_phi_prime_card) * sigma_prime)
    checks.append(("coefficient_product", str(lhs_b), str(rhs_b), lhs_b == rhs_b))

    lhs_c = Fraction(d.s_phi_prime_card * d.out_phi_card)
    rhs_c = Fraction(d.splus_over_s_card * cls.pi0 * intersection, d.zbar.order)
    checks.append(("cardinality_bookkeeping", str(lhs_c), str(rhs_c), lhs_c == rhs_c))

    ok_d = (d.out_card % d.out_phi_card == 0
            and min(d.out_card, d.out_phi_card, d.splus_over_s_card,
                    d.s_phi_prime_card, d.zbar.order) >= 1)
    checks.append(("orbit_integrality", str(d.out_card), str(d.out_phi_card), ok_d))

    return CoefficientReport(tuple(checks))


_REPORTS: dict[tuple, CoefficientReport] = {}


def coefficient_report(m: ParameterModel, d: EndoscopicDescriptor) -> CoefficientReport:
    """``verify_coefficients``, run once per (component of d.x, |S|, d) value.

    Those three values fix every input of the checks, so a descriptor met
    again, by another form, trial or CLI section, reuses its report.
    """
    key = (m.component_at(d.x), m.s_size, d)
    if key not in _REPORTS:
        _REPORTS[key] = verify_coefficients(m, d)
    return _REPORTS[key]


def endoscopic_form(ms: DiscreteModelSet, descriptors, f1: TestVector,
                    f2: TestVector) -> GaussianRational:
    """Descriptor-grouped form Σ_{G'} ι(G,G')·Σ_{φ'} |S_{φ'}|⁻¹σ(S̄°_{φ'})·f₁·conj(f₂).

    Each class descriptor stands for out/out_phi parameter points of its
    group, and |S|/splus classes share each point, so the descriptor carries
    the weight (out·splus)/(out_phi·|S|).  Descriptors are validated first;
    an inconsistent one is a hard error, never a silent wrong sum.
    """
    key = tuple(descriptors)
    if key not in ms.endoscopic_weights:
        ms.endoscopic_weights[key] = _fold_descriptors(ms, key)
    return _vector_form(ms.endoscopic_weights[key], f1, f2)


def _fold_descriptors(ms: DiscreteModelSet, descriptors) -> tuple[dict, int]:
    """Check every descriptor, then sum their coefficients per (model id, x)."""
    by_model = {m.model_id: m for m in ms.models}
    by_group: dict[str, list[EndoscopicDescriptor]] = {}
    for d in descriptors:
        if d.model_id not in by_model:
            raise InconsistentDescriptor(f"descriptor references unknown model {d.model_id}")
        report = coefficient_report(by_model[d.model_id], d)
        if not report.passed:
            raise InconsistentDescriptor(
                f"descriptor for {d.model_id}:{d.x} fails {report.failed_names()}")
        by_group.setdefault(d.group_label, []).append(d)

    weights: dict[tuple[str, SElement], Fraction] = {}
    for label in sorted(by_group):
        group = by_group[label]
        iotas = {iota_coefficient(d.out_card, d.zbar.order) for d in group}
        if len(iotas) != 1:
            raise InconsistentDescriptor(f"group {label} mixes distinct iota coefficients")
        iota = iotas.pop()
        for d in group:
            weight = Fraction(d.out_card * d.splus_over_s_card,
                              d.out_phi_card * by_model[d.model_id].s_size)
            key = (d.model_id, d.x)
            weights[key] = (weights.get(key, 0) + iota * weight
                            * Fraction(1, d.s_phi_prime_card) * sigma(d.sprime_datum))
    return _over_common_denominator(weights)


def s_disc(ms: DiscreteModelSet, f1: TestVector, f2: TestVector) -> GaussianRational:
    """Stable spectral distribution over models with semisimple base."""
    return _vector_form(_over_common_denominator(
        {(m.model_id, (0, 0)): Fraction(sigma(m.dual_group.base), m.s_size)
         for m in ms.models if phi_s_disc(m)}), f1, f2)
