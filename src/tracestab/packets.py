"""Finite packet models: component 2-groups and spectral transfer factors.

A model fixes two elementary abelian 2-groups — the Levi-level component
group S_M and the R-group R — and takes their product S = S_M × R with the
splitting built in.  Characters of S pair with the components φ^x through a
±1-valued table normalized so the base character pairs trivially; transfer
factors, their adjoints, and the inversion formulas are finite character
sums over that table, all in exact arithmetic (Gaussian rationals, so
conjugation is exact).

Every factor is a multiple of one integer character sum

    N[(η, r)][x] = Σ_{χ ∈ R^} χ(r)·pairing((η, χ), x),

with Δ(τ, φ^x) = N/|S| and Δ(φ^x, τ) = N/|R|.  For fixed (η, x) the sums
over all r are the Walsh–Hadamard transform of χ ↦ pairing((η, χ), x), so
``ParameterModel.transfer_numerators`` builds the whole |S| × |S| table
with one length-|R| fast transform per (η, x) column, once per model.  The
adjoint relations are then the integer identities N·Nᵀ = NᵀN = |R|·|S|·I,
and the closed form N = |R|·δ(r, x_R)·η(x_M) is checked on the table itself
by ``packets verify`` (``cli_packets._packet_checks``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from random import Random
from typing import Mapping

from . import rootdata, weylcoset
from .errors import InvalidDimension, MismatchedModel, MissingDualGroup
from .linalg import IntMat, clear_denominators, mat_mul

Tau = tuple[int, int]  # (character of S_M, element of R)
SElement = tuple[int, int]  # (S_M part, R part), bitmask coordinates


class _Record:
    """Base of the immutable value classes: equal and hashed by ``_key()``, never assignable.

    Never equal to an instance of another class; subclasses set their fields
    through ``object.__setattr__`` or ``vars(self)``.
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())


class GaussianRational(_Record):
    """Exact complex scalar a + b·i with rational a, b; immutable, equal and hashed by (re, im)."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    def _key(self) -> tuple:
        return self.re, self.im

    def __repr__(self):
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return GaussianRational, (self.re, self.im)

    @staticmethod
    def of(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(Fraction(value), Fraction(0))

    def __add__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __radd__ = __add__
    __rmul__ = __mul__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)


GR_ZERO = GaussianRational()


class TwoGroup(_Record):
    """Elementary abelian 2-group; elements and characters are bitmasks.

    Immutable, equal and hashed by ``dim``.
    """

    __slots__ = ("dim",)

    def __init__(self, dim: int):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise InvalidDimension(f"2-group dimension {dim!r} is not a non-negative integer")
        object.__setattr__(self, "dim", dim)

    def _key(self) -> tuple:
        return (self.dim,)

    def __reduce__(self):
        return TwoGroup, (self.dim,)

    @property
    def size(self) -> int:
        return 1 << self.dim

    def elements(self) -> range:
        return range(self.size)

    @staticmethod
    def char(c: int, v: int) -> int:
        return -1 if (c & v).bit_count() % 2 else 1


def _walsh_hadamard(values: list[int]) -> list[int]:
    """In-place fast transform: out[r] = Σ_χ (−1)^popcount(χ & r)·values[χ]."""
    h = 1
    while h < len(values):
        for start in range(0, len(values), 2 * h):
            for j in range(start, start + h):
                a, b = values[j], values[j + h]
                values[j], values[j + h] = a + b, a - b
        h *= 2
    return values


class DualGroupModel(_Record):
    """Disconnected-group attachment: one twisted component per x in S.

    ``validate`` builds each component once; ``component_at`` looks it up.
    Each twist is θ = w·τ (``rootdata.pinned_part``) and τ normalizes W, so
    the cocycle θ_x·θ_y ∈ W·θ_{x⊕y} holds exactly when τ_x·τ_y = τ_{x⊕y}:
    W is never built.
    Immutable and equal by (base, thetas); a dict of twists makes it unhashable.
    """

    def __init__(self, base: rootdata.RootDatum, thetas: Mapping[SElement, IntMat]):
        vars(self).update(base=base, thetas=thetas, _components={})

    def _key(self) -> tuple:
        return self.base, self.thetas

    def component_at(self, x: SElement) -> weylcoset.TwistedComponent:
        return self._components[x]

    def validate(self, s_elements) -> None:
        for x in s_elements:
            if x not in self.thetas:
                raise MismatchedModel(f"missing twist for component {x}")
            self._components[x] = weylcoset.component(self.base, self.thetas[x])
        if not self.component_at((0, 0)).untwisted:
            raise MismatchedModel("identity component must be untwisted")
        taus = {x: rootdata.pinned_part(self.base, self.component_at(x).theta)[0]
                for x in s_elements}
        for x in s_elements:
            for y in s_elements:
                if mat_mul(taus[x], taus[y]) != taus[(x[0] ^ y[0], x[1] ^ y[1])]:
                    raise MismatchedModel(f"twist cocycle fails at {x}, {y}")


class ParameterModel(_Record):
    """A packet model S = S_M × R, optionally with its dual-group attachment.

    Immutable, equal and hashed by its five fields; ``pairing_flips`` is a
    test hook, the pairing entries ((cm, cr), (xm, xr)) whose sign is flipped.
    """

    def __init__(self, model_id: str, s_m: TwoGroup, r: TwoGroup,
                 dual_group: DualGroupModel | None = None, pairing_flips: frozenset = frozenset()):
        vars(self).update(model_id=model_id, s_m=s_m, r=r, dual_group=dual_group,
                          pairing_flips=pairing_flips)
        if dual_group is not None:
            dual_group.validate(tuple(self.s_elements()))

    def _key(self) -> tuple:
        return self.model_id, self.s_m, self.r, self.dual_group, self.pairing_flips

    @property
    def s_size(self) -> int:
        return self.s_m.size * self.r.size

    def s_elements(self) -> list[SElement]:
        return [(xm, xr) for xm in self.s_m.elements() for xr in self.r.elements()]

    def taus(self) -> list[Tau]:
        return [(eta, r) for eta in self.s_m.elements() for r in self.r.elements()]

    def iota(self, tau: Tau) -> SElement:
        """The fixed labeling (η, r) ↦ (x_M(η), r) through S_M's self-duality."""
        self._check_tau(tau)
        return (tau[0], tau[1])

    def _index(self, label: Tau | SElement) -> int:
        """Position of a τ in taus(), or of an x in s_elements()."""
        return label[0] * self.r.size + label[1]

    @cached_property
    def transfer_numerators(self) -> tuple[tuple[int, ...], ...]:
        """N[_index(τ)][_index(x)], the integer numerators of all transfer factors."""
        char, flips, r_elements = TwoGroup.char, self.pairing_flips, self.r.elements()
        rows = []
        for eta in self.s_m.elements():
            # ``pairing`` without its range checks: every label here is in range.
            columns = [_walsh_hadamard([(-1 if ((eta, chi), x) in flips else 1)
                                        * char(eta, x[0]) * char(chi, x[1]) for chi in r_elements])
                       for x in self.s_elements()]
            rows.extend(zip(*columns))  # the rows of (η, r) for r = 0, 1, …
        return tuple(rows)

    def _check_tau(self, tau: Tau) -> None:
        eta, r = tau
        if not (0 <= eta < self.s_m.size and 0 <= r < self.r.size):
            raise MismatchedModel(f"triple {tau} does not belong to the model")

    def _check_x(self, x: SElement) -> None:
        xm, xr = x
        if not (0 <= xm < self.s_m.size and 0 <= xr < self.r.size):
            raise MismatchedModel(f"component label {x} does not belong to the model")

    def pairing(self, char: SElement, x: SElement) -> int:
        """±1 pairing of the packet member labeled by char against φ^x."""
        self._check_x(char)
        self._check_x(x)
        value = TwoGroup.char(char[0], x[0]) * TwoGroup.char(char[1], x[1])
        if (char, x) in self.pairing_flips:
            value = -value
        return value

    def component_at(self, x: SElement) -> weylcoset.TwistedComponent:
        if self.dual_group is None:
            raise MissingDualGroup(f"model {self.model_id} has no dual-group attachment")
        self._check_x(x)
        return self.dual_group.component_at(x)


def with_flipped_pairing(m: ParameterModel, char: SElement, x: SElement) -> ParameterModel:
    """Corrupted copy of a model with one pairing sign flipped (negative control)."""
    return ParameterModel(m.model_id, m.s_m, m.r, m.dual_group, m.pairing_flips | {(char, x)})


def _numerator(m: ParameterModel, tau: Tau, x: SElement) -> int:
    m._check_tau(tau)
    m._check_x(x)
    return m.transfer_numerators[m._index(tau)][m._index(x)]


def transfer_factor(m: ParameterModel, tau: Tau, x: SElement) -> Fraction:
    """Δ(τ, φ^x) = N[τ][x]/|S|, the character sum over the R-group.

    The packet pairing carries the 1/|S| adjoint normalization, so the sum
    collapses to the closed form (|R|/|S|)·δ(r, r')·η(x_M) on honest models.
    """
    return Fraction(_numerator(m, tau, x), m.s_size)


def adjoint_factor(m: ParameterModel, x: SElement, tau: Tau) -> Fraction:
    """Δ(φ^x, τ) = N[τ][x]/|R|, the |R|⁻¹-weighted character sum."""
    return Fraction(_numerator(m, tau, x), m.r.size)


class TestVector(_Record):
    """Finitely supported assignment of Gaussian-rational values f'(φ, x).

    Immutable and equal by ``values``; a dict of values makes it unhashable.
    """

    __test__ = False  # despite the name, not a pytest case

    def __init__(self, values: Mapping[tuple[str, SElement], GaussianRational]):
        vars(self)["values"] = values

    def _key(self) -> tuple:
        return (self.values,)

    def value(self, model_id: str, x: SElement) -> GaussianRational:
        return self.values.get((model_id, x), GR_ZERO)

    @cached_property
    def integer_view(self) -> tuple[int, dict[tuple[str, SElement], tuple[int, int]]]:
        """A common denominator D and the integer (re, im) of D·f'(φ, x) per key."""
        parts, denom = clear_denominators([q for z in self.values.values() for q in (z.re, z.im)])
        return denom, dict(zip(self.values, zip(parts[::2], parts[1::2])))

    def column(self, m: "ParameterModel") -> list[tuple[int, int]]:
        """The integer view of m's values, in ``s_elements`` order."""
        nums = self.integer_view[1]
        return [nums.get((m.model_id, x), (0, 0)) for x in m.s_elements()]

    @staticmethod
    def constant(models, scalar) -> "TestVector":
        c = GaussianRational.of(scalar)
        out = {}
        for m in models:
            for x in m.s_elements():
                out[(m.model_id, x)] = c
        return TestVector(out)

    @staticmethod
    def random(rng: Random, models) -> "TestVector":
        """Random Gaussian-rational values f'(φ, x) on every component of every model."""
        values = {}
        for m in models:
            for x in m.s_elements():
                values[(m.model_id, x)] = GaussianRational(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        return TestVector(values)


def theta_numerator(row, column) -> tuple[int, int]:
    """Σ_x N[τ][x]·(re, im)(x): |S|·D·Θ(τ, f) from a numerator row and a vector column."""
    re = im = 0
    for n, (a, b) in zip(row, column):
        if n:
            re += n * a
            im += n * b
    return re, im


def theta_transfer(m: ParameterModel, tau: Tau, f: TestVector,
                   restrict_to=None) -> GaussianRational:
    """Σ_x Δ(τ, φ^x)·f'(φ, x), optionally over a subset of components."""
    m._check_tau(tau)
    row = m.transfer_numerators[m._index(tau)]
    if restrict_to is not None:
        row = [n if x in restrict_to else 0 for x, n in zip(m.s_elements(), row)]
    re, im = theta_numerator(row, f.column(m))
    denom = m.s_size * f.integer_view[0]
    return GaussianRational(Fraction(re, denom), Fraction(im, denom))


def invert_transfer(m: ParameterModel, x: SElement,
                    theta: Mapping[Tau, GaussianRational]) -> GaussianRational:
    """Σ_τ Δ(φ^x, τ)·Θ(τ); exact right-inverse of theta_transfer."""
    m._check_x(x)
    col = m._index(x)
    re = im = 0
    for tau, row in zip(m.taus(), m.transfer_numerators):
        if row[col]:
            z = GaussianRational.of(theta.get(tau, GR_ZERO))
            re, im = re + row[col] * z.re, im + row[col] * z.im
    return GaussianRational(Fraction(re, m.r.size), Fraction(im, m.r.size))


def verify_adjoint(m: ParameterModel) -> bool:
    """Exhaustive check of both adjoint relations on the model.

    Σ_τ Δ(φ^x₁, τ)·Δ(τ, φ^x₂) = δ(x₁, x₂) and Σ_x Δ(τ₁, φ^x)·Δ(φ^x, τ₂) =
    δ(τ₁, τ₂) are NᵀN = |R|·|S|·I and N·Nᵀ = |R|·|S|·I on the numerators.
    Both Gram matrices are symmetric, so each pair of vectors is tested once,
    over the nonzero entries of the first (|S|/|R| of them on an honest model).
    """
    rows = m.transfer_numerators
    scale = m.r.size * m.s_size

    def orthogonal(vectors) -> bool:
        supports = [[(k, a) for k, a in enumerate(u) if a] for u in vectors]
        return all(sum(a * v[k] for k, a in support) == (scale if j == 0 else 0)
                   for i, support in enumerate(supports) for j, v in enumerate(vectors[i:]))

    return orthogonal(tuple(zip(*rows))) and orthogonal(rows)
