"""Elliptic semisimple classes and their centralizers.

A torsion point t of the torus represents the element exp(2πi·t); its
centralizer root system is Φ_t = {α : ⟨α, t⟩ ∈ Z} and the point is elliptic
exactly when Φ_t spans the whole cocharacter space.  Untwisted enumeration is
exact and complete and needs no search: on a semisimple datum the elliptic
points are, up to W ⋉ X∨, the vertices of the fundamental alcove (0 and
ϖᵢ∨/mᵢ per simple factor, θ = Σ mᵢαᵢ its highest root; Bourbaki, Lie Groups,
ch. VI §2).  Each vertex's Weyl orbit mod X∨ is walked once by simple
reflections, without building W: its least point names the class, so
vertices that Ω_X = X∨/Q∨ identifies merge, and its size gives π₀ by
orbit–stabilizer, π₀ = |W_t| / |W(Φ_t)| with |W_t| = |W| / |W·t|.

``full_rank_subsystems`` (closed full-rank subsystems by iterated
extended-diagram node deletion) is an independent enumerator, not used by
the class list; the tests build their search-based reference from it.

Two twisted shapes are supported in closed form: an arbitrary fixed-point-free
twist of a torus datum, and a factor-swap of a doubled datum (handled by
folding to the diagonal).  Everything else raises TwistedUnsupported.

``elliptic_classes`` is memoized on the component's value (base datum, θ and
its order), never on a canonical key; the cached tuple of immutable classes
is shared by every caller.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from operator import add
from typing import NamedTuple

from .errors import TwistedUnsupported, WeylGroupTooLarge
from .linalg import (
    IntMat,
    IntVec,
    QVec,
    clear_denominators,
    coords_in_rows,
    det,
    dot,
    identity_matrix,
    int_kernel,
    invert,
    mat_mul,
    mat_vec,
    matrix_rank,
    normalize_mod1,
    transpose,
    vec_sub,
)
from .rootdata import (
    MAX_WEYL_ORDER,
    RootDatum,
    build_root_datum,
    cartan_type,
    classical_weyl_order,
    closure,
    diagram_components,
    weyl_group,
)
from .weylcoset import TwistedComponent, untwisted_component


class TorusPoint(NamedTuple):
    coords: QVec
    order: int


class SemisimpleClass(NamedTuple):
    rep: TorusPoint
    centralizer_datum: RootDatum
    pi0: int
    elliptic: bool


def torus_point(coords) -> TorusPoint:
    """Normalize coordinates into [0,1)^n and record the additive order."""
    normalized = normalize_mod1(tuple(Fraction(x) for x in coords))
    order = lcm(*(f.denominator for f in normalized)) if normalized else 1
    return TorusPoint(normalized, order)


def _require_untwisted(c: TwistedComponent, operation: str):
    if not c.untwisted:
        raise TwistedUnsupported(f"{operation} needs the untwisted component")


def integral_root_subset(d: RootDatum, t: QVec) -> tuple[IntVec, ...]:
    a, n = clear_denominators(t)
    return tuple(alpha for alpha in d.roots if dot(alpha, a) % n == 0)


def sub_datum(d: RootDatum, roots) -> RootDatum:
    """Based sub-datum on the same lattice spanned by a closed root subset."""
    roots = set(map(tuple, roots))
    simples = _indecomposables(sorted(r for r in roots if d.is_positive(r)))
    return build_root_datum(d.rank, simples, tuple(d.coroot_of(a) for a in simples))


def _indecomposables(positives: list[IntVec]) -> tuple[IntVec, ...]:
    """Simple roots of a positive system: those not a sum of two positives."""
    positive_set = set(positives)
    return tuple(alpha for alpha in positives
                 if not any(vec_sub(alpha, beta) in positive_set for beta in positives))


# Torsion points t = a/n travel through the Weyl loops as (a, n), with a an
# integer vector and n the order of t.

def _check_orbit_bound(d: RootDatum, a: IntVec, n: int) -> None:
    """Refuse t = a/n if its orbit bound |W| / |W(Φ_t)| is above ``MAX_WEYL_ORDER``."""
    order = classical_weyl_order(d)
    if order <= MAX_WEYL_ORDER:  # then no orbit can exceed it
        return
    phi_t = sub_datum(d, tuple(alpha for alpha in d.roots if dot(alpha, a) % n == 0))
    bound = order // classical_weyl_order(phi_t)
    if bound > MAX_WEYL_ORDER:
        raise WeylGroupTooLarge(f"the W({','.join(cartan_type(d))})-orbit of {a}/{n} may "
                                f"have {bound} points, above the limit {MAX_WEYL_ORDER}")


def _weyl_orbit(d: RootDatum, a: IntVec, n: int) -> dict[IntVec, None]:
    """Numerators mod n of the orbit of a/n, by s_i(a) = a − ⟨α_i, a⟩·α_i∨ mod n."""
    _check_orbit_bound(d, a, n)

    def reflections(b, _):
        for alpha, alpha_v in zip(d.simple_roots, d.simple_coroots):
            p = dot(alpha, b)
            yield tuple((x - p * y) % n for x, y in zip(b, alpha_v)), None

    return closure({tuple(x % n for x in a): None}, reflections)


def _centralizer_at(d: RootDatum, t: QVec, orbit_size: int) -> tuple[RootDatum, int]:
    """Centralizer datum of t, and π₀ = |W_t| / |W(Φ_t)| with |W_t| = |W| / |W·t|."""
    datum = sub_datum(d, integral_root_subset(d, t))
    return datum, classical_weyl_order(d) // orbit_size // classical_weyl_order(datum)


def centralizer(c: TwistedComponent, t: TorusPoint) -> tuple[RootDatum, int]:
    """Connected-centralizer datum and component count |W_t| / |W(Φ_t)|."""
    _require_untwisted(c, "centralizer")
    a, n = clear_denominators(t.coords)
    return _centralizer_at(c.base, t.coords, len(_weyl_orbit(c.base, a, n)))


def is_elliptic(c: TwistedComponent, t: TorusPoint) -> bool:
    """Whether the centralizer of exp(2πi·t)·θ has finite center."""
    if c.untwisted:
        return matrix_rank(integral_root_subset(c.base, t.coords)) == c.base.rank
    shape = _twist_shape(c)
    if shape == "torus":
        delta = _theta_minus_one(c)
        return det(delta) != 0
    if shape == "fold":
        folded, _ = _fold(c)
        if len(t.coords) != folded.rank:
            raise TwistedUnsupported("swap-component points use folded coordinates")
        return is_elliptic(untwisted_component(folded), t)
    raise TwistedUnsupported("ellipticity test for this twist shape")


def _theta_minus_one(c: TwistedComponent) -> IntMat:
    n = c.base.rank
    return tuple(tuple(c.theta[i][j] - (1 if i == j else 0) for j in range(n))
                 for i in range(n))


def _twist_shape(c: TwistedComponent) -> str:
    if c.untwisted:
        return "untwisted"
    if not c.base.roots:
        return "torus"
    theta = c.theta
    n = c.base.rank
    if mat_mul(theta, theta) != identity_matrix(n):
        return "unsupported"
    for root, coroot in zip(c.base.roots, c.base.coroots):
        image = tuple(mat_vec(theta, coroot))
        if image == coroot or dot(root, image) != 0:
            return "unsupported"
    return "fold" if 2 * len(int_kernel(_theta_minus_one(c))) == n else "unsupported"


def _fold(c: TwistedComponent) -> tuple[RootDatum, tuple[IntVec, ...]]:
    """Diagonal datum of a factor-swap component plus the fixed-lattice basis."""
    d = c.base
    fixed_basis = int_kernel(_theta_minus_one(c))
    m = len(fixed_basis)
    folded_pairs = {}
    for root, coroot in zip(d.roots, d.coroots):
        bar_root = tuple(dot(root, b) for b in fixed_basis)
        summed = tuple(x + y for x, y in zip(coroot, mat_vec(c.theta, coroot)))
        coords = coords_in_rows(fixed_basis, summed)
        if coords is None or any(Fraction(x).denominator != 1 for x in coords):
            raise TwistedUnsupported("folded coroot leaves the fixed lattice")
        bar_coroot = tuple(int(x) for x in coords)
        folded_pairs[bar_root] = bar_coroot
    simples = _indecomposables(sorted(r for r in folded_pairs
                                      if next((x for x in r if x), 0) > 0))
    folded = build_root_datum(m, simples, tuple(folded_pairs[a] for a in simples))
    if set(folded.roots) != set(folded_pairs):
        raise TwistedUnsupported("twist is not a clean factor swap")
    return folded, tuple(fixed_basis)


def full_rank_subsystems(d: RootDatum) -> list[tuple[IntVec, ...]]:
    """Closed full-rank root subsystems up to Weyl conjugacy.

    Starts from Φ itself and iterates extended-diagram node deletion on each
    irreducible component until no new conjugacy class appears.  Not used by
    ``elliptic_classes``; kept as the search side of its cross-check.
    """
    if not d.is_semisimple() or d.rank == 0:
        return [] if not d.is_semisimple() else [()]
    index = {r: k for k, r in enumerate(d.roots)}
    # transpose(w) is the X-side action of w⁻¹, so these are all of W's root permutations.
    perms = [tuple(index[mat_vec(x_m, r)] for r in d.roots)
             for x_m in (transpose(w.matrix) for w in weyl_group(d))]

    def canon(roots: tuple[IntVec, ...]) -> int:
        """Least W-image of the subsystem, as a bitmask over root indices."""
        ids = [index[r] for r in roots]
        return min(sum(1 << p[k] for k in ids) for p in perms)

    full = tuple(sorted(d.roots))
    seen = closure({canon(full): full},
                   lambda _, roots: ((canon(child), child) for child in _bds_children(d, roots)))
    return sorted(seen.values())


def _closure_under_reflections(d: RootDatum, seeds) -> tuple[IntVec, ...]:
    """The root subsystem generated by ``seeds``: their orbit under their own reflections."""
    pairs = [(tuple(beta), d.coroot_of(tuple(beta))) for beta in seeds]

    def reflections(alpha, _):
        for beta, coroot in pairs:
            yield tuple(a - dot(alpha, coroot) * b for a, b in zip(alpha, beta)), None

    return tuple(sorted(closure(dict.fromkeys(beta for beta, _ in pairs), reflections)))


def _bds_children(d: RootDatum, roots: tuple[IntVec, ...]) -> list[tuple[IntVec, ...]]:
    psi = sub_datum(d, roots)
    children = []
    for comp in diagram_components(psi):
        comp_simples = sorted(psi.simple_roots[i] for i in comp)
        highest, _ = _highest_root(psi, comp)
        extended = comp_simples + [tuple(-x for x in highest)]
        rest = [s for s in psi.simple_roots if s not in comp_simples]
        for drop in range(len(extended) - 1):  # dropping the affine node is a no-op
            seeds = rest + [r for k, r in enumerate(extended) if k != drop]
            child = _closure_under_reflections(d, seeds)
            if matrix_rank(child) == d.rank:
                children.append(child)
    return children


def _highest_root(d: RootDatum, comp) -> tuple[IntVec, IntVec]:
    """Highest root of one diagram component, with its simple-root coefficients."""
    return max(((r, c) for r, c in zip(d.roots, d.coefficients) if any(c[i] for i in comp)),
               key=lambda rc: sum(rc[1]))


@cache
def elliptic_classes(c: TwistedComponent) -> tuple[SemisimpleClass, ...]:
    """Complete duplicate-free list of elliptic classes of the component.

    Untwisted components are enumerated from alcove vertices; supported
    twists are reduced in closed form.  The list is never silently partial:
    unsupported twists raise.
    """
    shape = _twist_shape(c)
    if shape == "untwisted":
        return _elliptic_classes_untwisted(c)
    if shape == "torus":
        return _elliptic_classes_torus_twist(c)
    if shape == "fold":
        folded, _ = _fold(c)
        return _elliptic_classes_untwisted(untwisted_component(folded))
    raise TwistedUnsupported("no enumeration for this twist shape")


def _alcove_vertices(d: RootDatum) -> list[QVec]:
    """Vertices of the fundamental alcove of a semisimple datum, in X∨ coordinates.

    A simple factor with highest root θ = Σ mᵢαᵢ has the vertices 0 and
    ϖᵢ∨/mᵢ, where the fundamental coweights ϖᵢ∨ are the columns of the
    inverse of the simple-root matrix; the alcove of the datum is the product
    of its factors' alcoves.
    """
    coweights = transpose(invert(d.simple_roots))
    zero = tuple(Fraction(0) for _ in range(d.rank))
    points = [zero]
    for comp in diagram_components(d):
        _, m = _highest_root(d, comp)
        factor = [zero] + [tuple(x / m[i] for x in coweights[i]) for i in comp]
        points = [tuple(map(add, p, v)) for p in points for v in factor]
    return points


def _elliptic_classes_untwisted(c: TwistedComponent) -> tuple[SemisimpleClass, ...]:
    """One class per orbit of alcove vertices under Ω_X = X∨/Q∨.

    The elliptic points of a semisimple torus are the W ⋉ X∨-images of the
    alcove vertices (Bourbaki, Lie Groups, ch. VI §2); the least point of each
    vertex's Weyl orbit mod X∨ names its class, and the orbit's size gives π₀.
    """
    d = c.base
    if not d.is_semisimple():
        return ()
    if d.rank == 0:
        trivial = build_root_datum(0, (), ())
        return (SemisimpleClass(torus_point(()), trivial, 1, True),)
    points = [clear_denominators(t) for t in _alcove_vertices(d)]
    for a, n in points:  # refuse before any orbit is walked
        _check_orbit_bound(d, a, n)
    orbits = [(_weyl_orbit(d, a, n), n) for a, n in points]
    sizes = {tuple(Fraction(x, n) for x in min(orbit)): len(orbit) for orbit, n in orbits}
    return tuple(SemisimpleClass(torus_point(t), *_centralizer_at(d, t, size), True)
                 for t, size in sorted(sizes.items()))


def _elliptic_classes_torus_twist(c: TwistedComponent) -> tuple[SemisimpleClass, ...]:
    delta = _theta_minus_one(c)
    d_det = det(delta)
    if d_det == 0:
        return ()  # the fixed subtorus forces an infinite centralizer center
    trivial = build_root_datum(0, (), ())
    rep = torus_point(tuple(Fraction(0) for _ in range(c.base.rank)))
    return (SemisimpleClass(rep, trivial, int(abs(d_det)), True),)
