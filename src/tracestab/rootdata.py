"""Based root data with exact integer coordinates.

A root datum lives on the lattice pair (X, X∨) = (Z^rank, Z^rank) with the
standard dot pairing.  Roots are vectors in X, coroots in X∨, and every
isogeny question (SL2 vs PGL2, quotients by central subgroups) is carried by
the coordinates alone.  All derived data — the full root system, the Weyl
group, display labels — is computed by exact integer/rational arithmetic.
Every orbit and closure in the package, here, in ``elliptic`` and in
``weylcoset``'s flat count, is one breadth-first ``closure``.  W itself is
built only for ``weyl_set`` and ``full_rank_subsystems``: ``in_weyl_group``
reflects a regular coweight back to the dominant chamber.  ``simple_factors``
alone splits a datum into ``SimpleType``s; the Cartan type, |W|, i, σ and
the alcove vertices all read that split.
The named data (``NAMED_DATA``, ``named_datum``) live here, so a command
that takes a group by name needs no other module.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import prod
from operator import add
from typing import NamedTuple

from .errors import MalformedInput, NonCartan, NotCentral, WeylGroupTooLarge
from .linalg import (
    IntMat,
    IntVec,
    QVec,
    bareiss_pivots,
    clear_denominators,
    dot,
    dual_lattice_quotient,
    hnf_rows,
    identity_matrix,
    integer_rows,
    invert,
    mat_mul,
    mat_vec,
    matrix_rank,
    normalize_mod1,
    transpose,
)

# Largest |W| that ``weyl_group`` builds: |W(E6)|.  W is stored element by
# element (E6 already takes seconds), so E7 (|W| = 2 903 040) and E8 are refused.
MAX_WEYL_ORDER = 51_840

# Largest |W| of a simple factor whose flats ``weylcoset.i_number`` walks:
# |W(E7)|.  E7 has 90 408 flats; E8 has 5 506 504 and is refused.
MAX_FLAT_WEYL_ORDER = 2_903_040


def closure(seeds: dict, step) -> dict:
    """Every key reachable from ``seeds`` through ``step(key, value)``, breadth first.

    Each key keeps the value it was first reached with; keys are visited level
    by level in ``step`` order.
    """
    found = dict(seeds)
    frontier = list(found.items())
    while frontier:
        new_frontier = []
        for key, value in frontier:
            for image, image_value in step(key, value):
                if image not in found:
                    found[image] = image_value
                    new_frontier.append((image, image_value))
        frontier = new_frontier
    return found


class WeylElement(NamedTuple):
    """Lattice automorphism of X∨ induced by a Weyl group element.

    Only the X∨ side is stored; ``contragredient(matrix)`` is its action on X.
    The reduced ``word`` is fixed by the matrix within one datum's ``weyl_group``.
    """

    matrix: IntMat
    word: tuple[int, ...] | None = None


class RootDatum(NamedTuple):
    """Based root datum, as built by ``build_root_datum``.

    ``coefficients`` holds each root's simple-root coefficients (aligned with
    ``roots``) and ``positives`` the roots of positive height.  Both are
    carried through the reflection closure and are determined by the first
    five fields, so equality on all fields is equality on those five.
    """

    rank: int
    simple_roots: tuple[IntVec, ...]
    simple_coroots: tuple[IntVec, ...]
    roots: tuple[IntVec, ...]
    coroots: tuple[IntVec, ...]  # aligned with roots
    coefficients: tuple[IntVec, ...]
    positives: tuple[IntVec, ...]

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple_roots)

    def coroot_of(self, root: IntVec) -> IntVec:
        return self.coroots[self.roots.index(root)]

    def is_semisimple(self) -> bool:
        # build_root_datum rejects linearly dependent simple roots.
        return len(self.simple_roots) == self.rank

    def positive_roots(self) -> tuple[IntVec, ...]:
        """Roots with a positive simple-root expansion."""
        return self.positives

    def is_positive(self, root: IntVec) -> bool:
        return tuple(root) in self.positives

    def cartan_matrix(self) -> IntMat:
        return tuple(tuple(dot(b, av) for b in self.simple_roots)
                     for av in self.simple_coroots)


def _validate_cartan(simple_roots, simple_coroots) -> IntMat:
    k = len(simple_roots)
    cartan = tuple(tuple(dot(simple_roots[j], simple_coroots[i]) for j in range(k))
                   for i in range(k))
    for i in range(k):
        if cartan[i][i] != 2:
            raise NonCartan(f"<alpha_{i}, alpha_{i}^> = {cartan[i][i]} != 2")
        for j in range(k):
            if i == j:
                continue
            if cartan[i][j] > 0:
                raise NonCartan(f"positive off-diagonal Cartan entry at ({i},{j})")
            if (cartan[i][j] == 0) != (cartan[j][i] == 0):
                raise NonCartan(f"asymmetric zero pattern at ({i},{j})")
    # Finite type iff every principal minor is positive (Kac, Thm 4.3).  Such a
    # matrix is symmetrizable, dⱼ·aᵢⱼ = dᵢ·aⱼᵢ with d > 0, and det A_I =
    # det S_I·Π dᵢ for the symmetric S = D⁻¹A: by Sylvester, the leading minors decide.
    scale: dict[int, Fraction] = {}
    for start in range(k):
        if start not in scale:
            scale |= closure({start: Fraction(1)},
                             lambda i, d_i: ((j, d_i * cartan[j][i] / cartan[i][j])
                                             for j in range(k) if j != i and cartan[i][j]))
    for i, j in combinations(range(k), 2):
        if scale[j] * cartan[i][j] != scale[i] * cartan[j][i]:
            raise NonCartan(f"Cartan matrix is not symmetrizable at ({i},{j})")
    for size, minor in enumerate(bareiss_pivots(cartan), 1):
        if minor <= 0:
            raise NonCartan(f"non-positive principal minor on {tuple(range(size))}")
    return cartan


# The named data: (rank, simple roots, simple coroots).  A name is read before a
# file of the same name wherever the CLI takes a group.
NAMED_DATA = {
    "trivial": (0, (), ()),
    "gl1": (1, (), ()),
    "sl2": (1, ((2,),), ((1,),)),
    "pgl2": (1, ((1,),), ((2,),)),
    "sl3": (2, ((2, -1), (-1, 2)), ((1, 0), (0, 1))),
    "pgl3": (2, ((1, 0), (0, 1)), ((2, -1), (-1, 2))),
    "sp4": (2, ((1, -1), (0, 2)), ((1, -1), (0, 1))),
    "so5": (2, ((1, -1), (0, 1)), ((1, -1), (0, 2))),
    "g2": (2, ((2, -1), (-3, 2)), ((1, 0), (0, 1))),
    "sl2xsl2": (2, ((2, 0), (0, 2)), ((1, 0), (0, 1))),
}


def named_datum(name: str) -> RootDatum:
    if name not in NAMED_DATA:
        raise MalformedInput(f"unknown catalog datum {name!r}")
    return build_root_datum(*NAMED_DATA[name])


def datum_names() -> tuple[str, ...]:
    return tuple(sorted(NAMED_DATA))


def build_root_datum(rank: int, simple_roots, simple_coroots) -> RootDatum:
    """Validate a based datum and close the simple roots under reflections.

    The root list is frozen in lexicographic order so that every downstream
    sum and report is reproducible.  One datum is built per normalized input.
    """
    if rank < 0:
        raise NonCartan("negative rank")
    return _build_root_datum(rank, integer_rows(simple_roots, NonCartan),
                             integer_rows(simple_coroots, NonCartan))


@cache
def _build_root_datum(rank: int, simple_roots: tuple[IntVec, ...],
                      simple_coroots: tuple[IntVec, ...]) -> RootDatum:
    if len(simple_roots) != len(simple_coroots):
        raise NonCartan("simple root and coroot lists differ in length")
    if len(simple_roots) > rank:
        raise NonCartan("more simple roots than the rank allows")
    for v in simple_roots + simple_coroots:
        if len(v) != rank:
            raise NonCartan("vector length does not match the rank")
    if simple_roots and matrix_rank(simple_roots) != len(simple_roots):
        raise NonCartan("simple roots are linearly dependent")
    if simple_coroots and matrix_rank(simple_coroots) != len(simple_coroots):
        raise NonCartan("simple coroots are linearly dependent")
    cartan = _validate_cartan(simple_roots, simple_coroots)

    # The closure runs on simple-root coefficients c and coroot coefficients k:
    # s_j changes only c_j, by ⟨α, α_j∨⟩ = Σᵢ cᵢ·A_ji, and k_j, by ⟨α_j, α∨⟩ = Σᵢ kᵢ·A_ij.
    rows = [[(i, a) for i, a in enumerate(row) if a] for row in cartan]
    cols = [[(i, row[j]) for i, row in enumerate(cartan) if row[j]] for j in range(len(cartan))]

    def images(coeffs, co_coeffs):
        yield tuple(-c for c in coeffs), tuple(-k for k in co_coeffs)
        for j, (row, col) in enumerate(zip(rows, cols)):
            p = sum(coeffs[i] * a for i, a in row)
            if p:
                q = sum(co_coeffs[i] * a for i, a in col)
                yield (coeffs[:j] + (coeffs[j] - p,) + coeffs[j + 1:],
                       co_coeffs[:j] + (co_coeffs[j] - q,) + co_coeffs[j + 1:])

    # _validate_cartan has proven finite type, so the closure ends.
    unit = identity_matrix(len(simple_roots))
    found = closure(dict(zip(unit, unit)), images)

    # A coefficient vector and the simple (co)roots are mostly zeros: sum only nonzero terms.
    def in_lattice(entries, coeffs):
        v = [0] * rank
        for c, basis_entries in zip(coeffs, entries):
            if c:
                for i, x in basis_entries:
                    v[i] += c * x
        return tuple(v)

    root_entries, coroot_entries = ([[(i, x) for i, x in enumerate(b) if x] for b in basis]
                                    for basis in (simple_roots, simple_coroots))
    lattice = sorted((in_lattice(root_entries, c), in_lattice(coroot_entries, k), c)
                     for c, k in found.items())
    roots = tuple(r for r, _, _ in lattice)
    coroots = tuple(k for _, k, _ in lattice)
    coefficients = tuple(c for _, _, c in lattice)
    positives = tuple(r for r, c in zip(roots, coefficients) if sum(c) > 0)
    return RootDatum(rank, simple_roots, simple_coroots, roots, coroots, coefficients, positives)


def simple_reflection_matrix(d: RootDatum, i: int) -> IntMat:
    """Matrix of s_i acting on X∨ (columns are images of basis vectors)."""
    alpha = d.simple_roots[i]
    alpha_v = d.simple_coroots[i]
    n = d.rank
    return tuple(tuple((1 if r == c else 0) - alpha[c] * alpha_v[r] for c in range(n))
                 for r in range(n))


@cache
def weyl_group(d: RootDatum) -> tuple[WeylElement, ...]:
    """All Weyl elements, found by breadth-first closure over the generators.

    Elements carry their X∨ matrices and reduced words (BFS depth equals
    Coxeter length); no X-side matrices are built.  The result is memoized on
    the datum's value and sorted by matrix for reproducibility.  A datum with
    |W| > ``MAX_WEYL_ORDER`` raises ``WeylGroupTooLarge`` before anything is built.
    """
    order = classical_weyl_order(d)
    if order > MAX_WEYL_ORDER:
        raise WeylGroupTooLarge(f"W({','.join(cartan_type(d))}) has order {order}, "
                                f"above the limit {MAX_WEYL_ORDER}")
    gens = [simple_reflection_matrix(d, i) for i in range(d.semisimple_rank)]
    seen = closure({identity_matrix(d.rank): ()},
                   lambda m, word: ((mat_mul(m, g), word + (i,)) for i, g in enumerate(gens)))
    return tuple(WeylElement(m, w) for m, w in sorted(seen.items()))


def exponents(positive_coefficients) -> tuple[int, ...]:
    """Exponents mᵢ of the root system with these positive roots, largest first.

    They are the conjugate of the partition of positive-root heights: as many
    exponents are ≥ h as there are positive roots of height h (Kostant;
    Humphreys, *Reflection Groups and Coxeter Groups* §3.20).  Heights add
    over the irreducible factors, so this holds on any root system.  The
    degrees of W are dᵢ = mᵢ + 1.
    """
    heights = Counter(sum(c) for c in positive_coefficients)
    return tuple(sum(1 for count in heights.values() if count >= i)
                 for i in range(1, max(heights.values(), default=0) + 1))


def classical_weyl_order(d: RootDatum) -> int:
    """|W|, the product of the orders of the simple factors."""
    return prod(t.order for t in simple_factors(d))


def component_label(cartan: IntMat, count: int) -> str:
    """Label of a connected Cartan matrix with ``count`` positive roots, read off its bonds.

    Bourbaki's plates count n(n+1)/2 positive roots for A_n, n² for B_n and
    C_n, n(n−1) for D_n, 36, 63 and 120 for E6, E7 and E8 and 24 for F4, and
    only G2 has a triple bond.  The short end of a double bond (the row of the
    −2 entry) is a leaf in B_n and not in C_n, n ≥ 3, so the rank-2
    double-bond system reads B2 in either orientation, matching the
    isomorphism of the underlying root systems.
    """
    n = len(cartan)
    entries = {a for row in cartan for a in row}
    if -3 in entries:
        family = "G"
    elif -2 in entries:
        short = next(row for row in cartan if -2 in row)
        family = ("F" if count != n * n
                  else "B" if sum(1 for a in short if a < 0) == 1 else "C")
    elif count == n * (n + 1) // 2:  # before D: D3 is A3
        family = "A"
    else:
        family = "D" if count == n * (n - 1) else "E"
    return f"{family}{n}"


class SimpleType(NamedTuple):
    """A connected Dynkin diagram in its own coordinates: label, Cartan matrix, positive roots."""

    label: str
    cartan: IntMat
    positives: tuple[IntVec, ...]  # simple-root coefficients
    nodes: tuple[int, ...]  # its simple-root indices in the diagram it was cut from
    highest: IntVec  # the marks mᵢ of its highest root θ = Σ mᵢαᵢ

    @property
    def order(self) -> int:
        return prod(1 + m for m in exponents(self.positives))


def simple_types(cartan: IntMat, nodes, positives) -> tuple[SimpleType, ...]:
    """The diagram's connected pieces on ``nodes``, by least index, with their positive roots."""
    types = []
    unvisited = set(nodes)
    while unvisited:
        piece = closure({min(unvisited): None},
                        lambda v, _: ((w, None) for w in unvisited if cartan[v][w] != 0))
        unvisited -= piece.keys()
        piece = tuple(sorted(piece))
        own_cartan = tuple(tuple(cartan[i][j] for j in piece) for i in piece)
        own = tuple(tuple(c[i] for i in piece) for c in positives
                    if sum(c[i] for i in piece) == sum(c))
        types.append(SimpleType(component_label(own_cartan, len(own)), own_cartan, own, piece,
                                max(own, key=sum)))
    return tuple(types)


@cache
def simple_factors(d: RootDatum) -> tuple[SimpleType, ...]:
    """The simple factors of ``d``, the one place a datum is split; memoized on its value."""
    return simple_types(d.cartan_matrix(), range(d.semisimple_rank),
                        [c for c in d.coefficients if sum(c) > 0])


def cartan_type(d: RootDatum) -> tuple[str, ...]:
    """Sorted labels of the simple factors (``component_label``)."""
    return tuple(sorted(t.label for t in simple_factors(d)))


def in_weyl_group(d: RootDatum, m: IntMat) -> bool:
    """Whether the integral matrix ``m`` on X∨ is a Weyl element, without building W.

    Each simple reflection s_i with ⟨α_i, u⟩ < 0 takes u = m·2ρ∨ one step
    back towards the dominant chamber (one fewer positive root is negative on
    u), and is applied to m as well.  2ρ∨, the sum of the positive coroots,
    pairs to 2 with every simple root, so it is regular and only 1 ∈ W fixes
    it: the reflected m is the identity exactly when m lies in W.
    """
    two_rho = tuple(sum(coroot[k] for coroot, c in zip(d.coroots, d.coefficients) if sum(c) > 0)
                    for k in range(d.rank))
    u = mat_vec(m, two_rho)
    while True:
        negative = [i for i, alpha in enumerate(d.simple_roots) if dot(alpha, u) < 0]
        if not negative:
            return m == identity_matrix(d.rank)
        s = simple_reflection_matrix(d, negative[0])
        m, u = mat_mul(s, m), mat_vec(s, u)


class CentralSubgroup(NamedTuple):
    """Finite subgroup of the torus given by cocharacter classes mod X∨."""

    generators: tuple[QVec, ...]
    order: int


def subgroup_mod1(gens, rank: int) -> tuple[QVec, ...]:
    """Closure of rational generators under addition mod Z^rank."""
    norm_gens = [normalize_mod1(g) for g in gens]
    elems = closure({tuple(Fraction(0) for _ in range(rank)): None},
                    lambda e, _: ((normalize_mod1(tuple(map(add, e, g))), None) for g in norm_gens))
    return tuple(sorted(elems))


def central_subgroup(d: RootDatum, generators) -> CentralSubgroup:
    """Build a central subgroup, checking integrality against every root."""
    gens = tuple(normalize_mod1(tuple(Fraction(x) for x in g)) for g in generators)
    for g in gens:
        if len(g) != d.rank:
            raise NotCentral("generator length does not match the rank")
        for alpha in d.simple_roots:
            if dot(alpha, g) % 1 != 0:
                raise NotCentral(f"<{alpha}, {g}> is not integral")
    elems = subgroup_mod1(gens, d.rank)
    return CentralSubgroup(gens, len(elems))


def quotient_by_central(d: RootDatum, z: CentralSubgroup) -> RootDatum:
    """Datum of the quotient group: X∨ grows by z, X shrinks to its dual."""
    return quotient_with_map(d, z)[0]


def quotient_with_map(d: RootDatum, z: CentralSubgroup) -> tuple[RootDatum, tuple]:
    """Quotient datum plus the matrix sending old X∨⊗Q coordinates to new."""
    gens = list(z.generators) if z.order > 1 else []
    for g in gens:
        for alpha in d.simple_roots:
            if dot(alpha, g) % 1 != 0:
                raise NotCentral(f"<{alpha}, {g}> is not integral")
    n = d.rank
    _, denom = clear_denominators(tuple(x for g in gens for x in g))
    scaled = [tuple(x * denom for x in row) for row in identity_matrix(n)]
    scaled += [tuple(int(Fraction(x) * denom) for x in g) for g in gens]
    basis_rows = hnf_rows(scaled)
    if len(basis_rows) != n:
        raise NotCentral("degenerate central subgroup")
    # Columns of m are the new basis vectors in old coordinates.
    m = transpose(tuple(tuple(Fraction(x, denom) for x in row) for row in basis_rows))
    m_inv = invert(m)
    mt = transpose(m)

    def to_new_root(v: IntVec) -> IntVec:
        image = mat_vec(mt, v)
        if any(Fraction(x).denominator != 1 for x in image):
            raise NotCentral("root pairs non-integrally with the enlarged lattice")
        return tuple(int(x) for x in image)

    new_roots = tuple(to_new_root(a) for a in d.simple_roots)
    new_coroots = tuple(tuple(int(x) for x in mat_vec(m_inv, a)) for a in d.simple_coroots)
    return build_root_datum(n, new_roots, new_coroots), m_inv


def central_torsion_points(d: RootDatum) -> tuple[QVec, ...]:
    """All torus points pairing integrally with every root (semisimple only)."""
    if not d.is_semisimple():
        raise ValueError("central torsion enumeration needs a semisimple datum")
    if d.rank == 0:
        return ((),)
    basis = hnf_rows(list(d.roots))
    reps = dual_lattice_quotient(tuple(basis))
    return tuple(sorted(normalize_mod1(t) for t in reps))


@cache
def canonical_key(d: RootDatum) -> bytes:
    """Display label ``datum;v2;types=…;z=…;central=…``, memoized on the datum's value.

    ``types`` is the Cartan type, ``central`` the central torus rank and
    ``z`` = |π₀ Z| the torsion of X / ZΦ: the gcd of the maximal minors of
    the simple roots (|det| on semisimple data), read off as the product of
    the Hermite diagonal of their columns.  All three are isomorphism
    invariants, but together they do not classify: SO4 = (SL2×SL2)/μ2 and
    SL2×PGL2 share the label ``types=A1,A1;z=2;central=0``.  The label only
    names rows of ``sigma --catalog``.
    """
    z = prod(row[i] for i, row in enumerate(hnf_rows(transpose(d.simple_roots))))
    return (f"datum;v2;types={','.join(cartan_type(d))};z={z};"
            f"central={d.rank - d.semisimple_rank}").encode()


def contragredient(m: IntMat) -> IntMat:
    """Action on X induced by an integral automorphism of X∨."""
    inv = invert(m)
    return tuple(tuple(int(x) for x in row) for row in transpose(inv))
