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
extended-diagram node deletion, told apart up to W by ``rootdata.mask_orbits``
on positive-root masks, as the flats are) is an independent enumerator, not
used by the class list; the tests build their search-based reference from it.

A coset with no regular element (``weylcoset.has_regular_element``) has no
elliptic class.  Any other twist θ = w·τ is read through its pinned part τ
(``rootdata.pinned_part``), since G°θ = G°τ: τ = 1 (θ ∈ W) gives the untwisted
classes, a twist of a torus datum one class with π₀ = |det(θ − 1)|, and a τ
that swaps simple factors in pairs the classes of its fold, the diagonal.
``_reduction`` tells the shapes apart for ``elliptic_classes`` and
``is_elliptic``.  Any other τ, such as SL3 ⋊ swap, raises TwistedUnsupported.

``elliptic_classes`` and the reduction are memoized on the component's value
(base datum, θ and its order), never on a canonical key; the cached tuple of
immutable classes is shared by every caller.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
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
    mat_vec,
    matrix_rank,
    minus_identity,
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
    mask_orbits,
    mask_reflections,
    pinned_part,
    simple_factors,
)
from .weylcoset import TwistedComponent, has_regular_element


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

def _check_orbit_bound(d: RootDatum, t: QVec) -> None:
    """Refuse t if its orbit bound |W| / |W(Φ_t)| is above ``MAX_WEYL_ORDER``."""
    order = classical_weyl_order(d)
    if order <= MAX_WEYL_ORDER:  # then no orbit can exceed it
        return
    bound = order // classical_weyl_order(sub_datum(d, integral_root_subset(d, t)))
    if bound > MAX_WEYL_ORDER:
        a, n = clear_denominators(t)
        raise WeylGroupTooLarge(f"the W({','.join(cartan_type(d))})-orbit of {a}/{n} may "
                                f"have {bound} points, above the limit {MAX_WEYL_ORDER}")


def _weyl_orbit(d: RootDatum, a: IntVec, n: int) -> dict[IntVec, None]:
    """Numerators mod n of the orbit of a/n, by s_i(a) = a − ⟨α_i, a⟩·α_i∨ mod n."""
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
    if not c.untwisted:
        raise TwistedUnsupported("centralizer needs the untwisted component")
    _check_orbit_bound(c.base, t.coords)
    a, n = clear_denominators(t.coords)
    return _centralizer_at(c.base, t.coords, len(_weyl_orbit(c.base, a, n)))


def is_elliptic(c: TwistedComponent, t: TorusPoint) -> bool:
    """Whether exp(2πi·t)·τ, τ the pinned part of θ, has a centralizer with finite center.

    It lies in G°θ = G°τ.  On a factor swap t is a point of the fold's torus.
    """
    if not has_regular_element(c):  # θ fixes a central cocharacter at every point
        return False
    reduced = _reduction(c)
    if reduced is None:
        raise TwistedUnsupported("ellipticity test for this twist shape")
    if isinstance(reduced, int):  # a torus twist: the same answer at every point
        return reduced != 0
    if not c.untwisted and len(t.coords) != reduced.rank:
        raise TwistedUnsupported("swap-component points use folded coordinates")
    return matrix_rank(integral_root_subset(reduced, t.coords)) == reduced.rank


@cache
def _reduction(c: TwistedComponent) -> RootDatum | int | None:
    """What the classes of a component are read from, memoized on its value.

    Wθ = Wτ for the pinned part τ of θ (``rootdata.pinned_part``), so τ
    decides.  τ = 1, on an untwisted or inner component, gives the base datum;
    a twist of a torus gives |det(θ − 1)|, the π₀ of its one class (none if
    0); a τ that swaps simple factors in pairs gives its fold, whose untwisted
    classes are the classes.  Any other twist gives None.
    """
    tau = c.theta if c.untwisted else pinned_part(c.base, c.theta)[0]
    if tau == identity_matrix(c.base.rank):
        return c.base
    if not c.base.roots:
        return int(abs(det(minus_identity(c.theta))))
    return _fold(c.base, tau)


def _fold(d: RootDatum, tau: IntMat) -> RootDatum | None:
    """The diagonal datum of τ, or None unless τ swaps simple factors in pairs.

    τ permutes the simple coroots, α_i∨ ↦ α_π(i)∨, and swaps factors in pairs
    exactly when no node is fixed by π or bonded to its image and ker(τ − 1)
    has half the rank.  On that fixed lattice the fold has one simple root,
    α_i restricted, and one coroot, α_i∨ + α_π(i)∨, per pair {i, π(i)}.
    """
    pi = [d.simple_coroots.index(mat_vec(tau, v)) for v in d.simple_coroots]
    fixed = int_kernel(minus_identity(tau))
    if 2 * len(fixed) != d.rank or any(
            j == i or dot(d.simple_roots[i], d.simple_coroots[j]) for i, j in enumerate(pi)):
        return None
    pairs = [(i, j) for i, j in enumerate(pi) if i < j]
    return build_root_datum(len(fixed), [mat_vec(fixed, d.simple_roots[i]) for i, _ in pairs],
                            [coords_in_rows(fixed, tuple(map(add, d.simple_coroots[i],
                                                             d.simple_coroots[j])))
                             for i, j in pairs])


def full_rank_subsystems(d: RootDatum) -> list[tuple[IntVec, ...]]:
    """Closed full-rank root subsystems up to Weyl conjugacy.

    Starts from Φ itself and iterates extended-diagram node deletion on each
    class, breadth first, until no new class appears.  A subsystem is its
    positive-root mask and ``mask_orbits`` walks each W-orbit of masks once,
    so no W is built and a repeat child costs one lookup.
    Not used by ``elliptic_classes``; kept as the search side of its cross-check.
    """
    if not d.is_semisimple() or d.rank == 0:
        return [] if not d.is_semisimple() else [()]
    index, step = mask_reflections(d.cartan_matrix(),
                                   [c for c in d.coefficients if sum(c) > 0])
    bit = {r: 1 << index[c] for r, c in zip(d.roots, d.coefficients) if c in index}
    classes: list[tuple[IntVec, ...]] = []
    # Φ, then the children of each class, read from ``classes`` as it grows: breadth first.
    found = chain([tuple(sorted(d.roots))],
                  (child for roots in classes for child in _bds_children(d, roots)))
    masked = ((sum(bit.get(r, 0) for r in roots), roots) for roots in found)
    for _, roots in mask_orbits(masked, step):
        classes.append(roots)
    return sorted(classes)


def _bds_children(d: RootDatum, roots: tuple[IntVec, ...]) -> list[tuple[IntVec, ...]]:
    psi = sub_datum(d, roots)
    children = []
    for t in simple_factors(psi):
        simples = [psi.simple_roots[i] for i in t.nodes]
        extended = sorted(simples) + [tuple(-x for x in mat_vec(transpose(simples), t.highest))]
        rest = [s for s in psi.simple_roots if s not in simples]
        for drop in range(len(extended) - 1):  # dropping the affine node is a no-op
            seeds = rest + [r for k, r in enumerate(extended) if k != drop]
            children.append(build_root_datum(d.rank, seeds, [d.coroot_of(s) for s in seeds]).roots)
    return children


@cache
def elliptic_classes(c: TwistedComponent) -> tuple[SemisimpleClass, ...]:
    """Complete duplicate-free list of elliptic classes of the component.

    Untwisted components are enumerated from alcove vertices; supported
    twists are reduced in closed form.  The list is never silently partial:
    unsupported twists raise.  A coset with no regular element has none.
    """
    if not has_regular_element(c):
        return ()
    reduced = _reduction(c)
    if reduced is None:
        raise TwistedUnsupported("no enumeration for this twist shape")
    if isinstance(reduced, int):
        trivial = build_root_datum(0, (), ())
        return (SemisimpleClass(torus_point((0,) * c.base.rank), trivial, reduced, True),)
    return _elliptic_classes_untwisted(reduced)


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
    for t in simple_factors(d):
        factor = [zero] + [tuple(x / m for x in coweights[i]) for i, m in zip(t.nodes, t.highest)]
        points = [tuple(map(add, p, v)) for p in points for v in factor]
    return points


def _elliptic_classes_untwisted(d: RootDatum) -> tuple[SemisimpleClass, ...]:
    """One class per orbit of alcove vertices under Ω_X = X∨/Q∨.

    The elliptic points of a semisimple torus are the W ⋉ X∨-images of the
    alcove vertices (Bourbaki, Lie Groups, ch. VI §2); the least point of each
    vertex's Weyl orbit mod X∨ names its class, and the orbit's size gives π₀.
    """
    vertices = _alcove_vertices(d)
    for t in vertices:  # refuse before any orbit is walked
        _check_orbit_bound(d, t)
    orbits = [(_weyl_orbit(d, a, n), n) for a, n in map(clear_denominators, vertices)]
    sizes = {tuple(Fraction(x, n) for x in min(orbit)): len(orbit) for orbit, n in orbits}
    return tuple(SemisimpleClass(torus_point(t), *_centralizer_at(d, t, size), True)
                 for t, size in sorted(sizes.items()))
