"""Based root data with exact integer coordinates.

A root datum lives on the lattice pair (X, X∨) = (Z^rank, Z^rank) with the
standard dot pairing.  Roots are vectors in X, coroots in X∨, and every
isogeny question (SL2 vs PGL2, quotients by central subgroups) is carried by
the coordinates alone.  All derived data — the full root system, the Weyl
group, display labels — is computed by exact integer/rational arithmetic.
Every orbit and closure in the package, here, in ``elliptic`` and in
``weylcoset``'s flat count, is one breadth-first ``closure``; W acts on root
subsets, as masks of positive roots, in one place, ``mask_reflections``, and
``mask_orbits`` lists their orbits, walking each once.
One sparse update applies s_i to a matrix; ``coset_walk`` walks a coset Wθ
with it from θ (W itself from 1 for ``weyl_group``, which no module reads),
and ``pinned_part`` writes a matrix m as w·τ by reflecting m·2ρ∨ back to the
dominant chamber; whether a twist is an automorphism, its sign, W-membership
and the twist cocycle all read that one descent.  ``simple_factors`` alone
splits a datum into ``SimpleType``s; the Cartan type, |W|, i, σ and the alcove
vertices all read that split, and ``classical_i_number`` gives i of a type
A–D in closed form.  The roots of a Cartan matrix, as simple-root
and simple-coroot coefficients, come from ``root_closure``, memoized on the
matrix, which is also the one finite-type check: a datum maps them into its
lattice, and a ``SimpleType`` reads its positive roots there, so a diagram
piece needs no datum.
``extended_cartan`` adds −θ to a simple type's diagram; σ reads every
centralizer it needs off that matrix.  ``enlarged_basis`` forms the Hermite
basis of L = X∨ + Σ Z·g for a central subgroup, or of its image under a
matrix: the quotient datum reads L, the order |Z| = [L : X∨] is a ratio of
pivot products, and so is the index [(θ−1)·L : (θ−1)·X∨] that
``stabilize`` divides |Z| by; ``root_lattice_index`` reads [X : ZΦ] off the
Hermite basis of the simple roots.
The named data (``NAMED_DATA``, ``named_datum``) live here, so a command
that takes a group by name needs no other module.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import prod
from typing import NamedTuple

from .errors import MalformedInput, NonCartan, NotAutomorphism, NotCentral, WeylGroupTooLarge
from .linalg import (
    IntMat,
    IntVec,
    QVec,
    bareiss_pivots,
    clear_denominators,
    dot,
    hnf_rows,
    identity_matrix,
    integer_rows,
    invert,
    mat_vec,
    normalize_mod1,
    pivot_product,
    transpose,
)

# Largest |W| that ``coset_walk`` walks: |W(E6)|.  It keeps every element of a
# coset Wθ (E6 takes seconds), so E7 (|W| = 2 903 040) and E8 are refused.
MAX_WEYL_ORDER = 51_840

# Largest |W| of a simple factor whose flats ``weylcoset.i_number`` walks:
# |W(E7)|.  Only E, F and G walk them; E7 has 90 408 flats, and E8 has
# 5 506 504 and is refused.
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
    ``word`` is a reduced word for the matrix, read left to right (``coset_walk``).
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


@cache
def root_closure(cartan: IntMat) -> dict[IntVec, IntVec]:
    """Every root of a finite-type Cartan matrix, memoized on the matrix.

    ``cartan[i][j]`` is ⟨α_j, α_i∨⟩.  Each root's simple-root coefficients c
    map to its coroot's simple-coroot coefficients k, found by closing the
    simple roots under reflections: s_j changes only c_j, by
    ⟨α, α_j∨⟩ = Σᵢ cᵢ·A_ji, and k_j, by ⟨α_j, α∨⟩ = Σᵢ kᵢ·A_ij.  The dict is
    shared by every caller.  A matrix not of finite type raises ``NonCartan``
    before anything is closed, so the closure always ends.
    """
    k = len(cartan)
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
    rows = [[(i, a) for i, a in enumerate(row) if a] for row in cartan]
    cols = [[(i, row[j]) for i, row in enumerate(cartan) if row[j]] for j in range(k)]

    def images(coeffs, co_coeffs):
        yield tuple(-c for c in coeffs), tuple(-k for k in co_coeffs)
        for j, (row, col) in enumerate(zip(rows, cols)):
            p = sum(coeffs[i] * a for i, a in row)
            if p:
                q = sum(co_coeffs[i] * a for i, a in col)
                yield (coeffs[:j] + (coeffs[j] - p,) + coeffs[j + 1:],
                       co_coeffs[:j] + (co_coeffs[j] - q,) + co_coeffs[j + 1:])

    unit = identity_matrix(k)
    return closure(dict(zip(unit, unit)), images)


def mask_reflections(cartan: IntMat, positives):
    """(index, step): W acting by simple reflections on root sets closed under negation.

    Such a set is the mask of its positive roots, bit ``index[c]`` for the
    root with simple-root coefficients c.  s_j permutes the positive roots
    but α_j, which it negates, so it maps masks to masks; ``step(mask, _)``
    yields (s_j·mask, None) for each j, as ``closure`` takes it, by byte tables.
    """
    index = {c: k for k, c in enumerate(positives)}
    width = (len(index) + 7) // 8
    tables = []
    for j, row in enumerate(cartan):  # s_j changes c_j by ⟨α, α_j∨⟩ = Σᵢ cᵢ·A_ji
        bits = [1 << index.get(c[:j] + (c[j] - dot(c, row),) + c[j + 1:], k)
                for c, k in index.items()]
        per_byte = []
        for b in range(width):
            table = [0]
            for image in bits[8 * b:8 * b + 8]:
                table += [v | image for v in table]
            per_byte.append(table)
        tables.append(per_byte)

    def step(mask: int, _):
        octets = mask.to_bytes(width, "little")
        return ((sum(map(list.__getitem__, per_byte, octets)), None) for per_byte in tables)

    return index, step


def mask_orbits(candidates, step):
    """(size, value) for each (mask, value) of ``candidates`` whose mask no earlier orbit reached.

    Each orbit under ``step`` (``mask_reflections``) is walked once, by ``closure``.
    """
    reached: set[int] = set()
    for mask, value in candidates:
        if mask not in reached:
            orbit = closure({mask: None}, step)
            reached |= orbit.keys()
            yield len(orbit), value


def build_root_datum(rank: int, simple_roots, simple_coroots) -> RootDatum:
    """Validate a based datum and close the simple roots under reflections.

    The root list is frozen in lexicographic order so that every downstream
    sum and report is reproducible.  One datum is built per normalized input.
    """
    if type(rank) is not int or rank < 0:
        raise NonCartan(f"rank {rank!r} is not a non-negative integer")
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
    # root_closure refuses a Cartan matrix with det ≤ 0.  With det > 0, C·c = 0
    # forces c = 0, so the simple roots, and likewise the coroots, are independent.
    found = root_closure(tuple(tuple(dot(b, av) for b in simple_roots)
                               for av in simple_coroots))

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


def _simple_reflections(d: RootDatum):
    """reflect(i, m) = s_i·m = m − α_i∨·(α_iᵀ·m), summed over the nonzero entries of α_i, α_i∨."""
    roots, coroots = ([[(k, x) for k, x in enumerate(v) if x] for v in basis]
                      for basis in (d.simple_roots, d.simple_coroots))

    def reflect(i: int, m: IntMat) -> IntMat:
        moved = [sum(col) for col in zip(*[[x * a for a in m[k]] for k, x in roots[i]])]
        rows = list(m)
        for k, x in coroots[i]:
            rows[k] = tuple([a - x * b for a, b in zip(rows[k], moved)])
        return tuple(rows)

    return reflect


def coset_walk(d: RootDatum, start: IntMat) -> dict[IntMat, tuple[int, ...]]:
    """{v·start: a reduced word of v} over v ∈ W, walked breadth first by m ↦ s_i·m.

    The word (i₁, …, i_k) reads v = s_{i₁}···s_{i_k}; breadth-first depth is
    Coxeter length, so it is reduced.  The package walks only from θ, for
    ``weyl_set``; the walk from 1 is ``weyl_group``, which no module reads.  A
    datum with |W| > ``MAX_WEYL_ORDER`` raises ``WeylGroupTooLarge`` first.
    """
    order = classical_weyl_order(d)
    if order > MAX_WEYL_ORDER:
        raise WeylGroupTooLarge(f"W({','.join(cartan_type(d))}) has order {order}, "
                                f"above the limit {MAX_WEYL_ORDER}")
    reflect = _simple_reflections(d)
    return closure({start: ()}, lambda m, word: ((reflect(i, m), (i,) + word)
                                                 for i in range(d.semisimple_rank)))


@cache
def weyl_group(d: RootDatum) -> tuple[WeylElement, ...]:
    """All Weyl elements on X∨ with reduced words, ``coset_walk`` from 1 sorted; memoized on d."""
    walk = coset_walk(d, identity_matrix(d.rank))
    return tuple(WeylElement(m, w) for m, w in sorted(walk.items()))


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


def classical_i_number(t: SimpleType) -> Fraction | None:
    """i of the untwisted factor ``t`` in closed form for A, B, C and D; None for E, F and G.

    i = |W|⁻¹·Σ sign(w)/|det(w − 1)| over the elliptic w, read by cycle type.
    In Sₙ₊₁ they are the n! long cycles, with |det(w − 1)| = n + 1, so
    i(Aₙ) = (−1)ⁿ/(n + 1)².  A signed permutation is elliptic when every cycle
    is negative: 2^{k−1} sign choices on a k-cycle, |det(w − 1)| = 2 per cycle
    and det w = (−1)ⁿ.  Summing 4^{−cycles} over Sₙ gives the rising factorial
    of 1/4, so i(Bₙ) = i(Cₙ) = (−1)ⁿ·Π_{k≤n}(4k − 3)/(4k), the coefficient of sⁿ
    in (−1)ⁿ(1 − s)^{−1/4}.  W(Dₙ) keeps an even number of negative cycles,
    which adds the same sum at −1/4: i(Dₙ) = i(Bₙ) + (−1)ⁿ·Π_{k≤n}(4k − 5)/(4k).
    """
    family, n = t.label[0], len(t.cartan)
    if family == "A":
        return Fraction((-1) ** n, (n + 1) ** 2)
    if family not in "BCD":
        return None
    value = prod(Fraction(4 * k - 3, 4 * k) for k in range(1, n + 1))
    if family == "D":
        value += prod(Fraction(4 * k - 5, 4 * k) for k in range(1, n + 1))
    return (-1) ** n * value


def simple_types(cartan: IntMat, nodes) -> tuple[SimpleType, ...]:
    """The diagram's connected pieces on ``nodes``, by least index, with their positive roots."""
    types = []
    unvisited = set(nodes)
    while unvisited:
        piece = closure({min(unvisited): None},
                        lambda v, _: ((w, None) for w in unvisited if cartan[v][w] != 0))
        unvisited -= piece.keys()
        piece = tuple(sorted(piece))
        own_cartan = tuple(tuple(cartan[i][j] for j in piece) for i in piece)
        own = tuple(c for c in root_closure(own_cartan) if sum(c) > 0)
        types.append(SimpleType(component_label(own_cartan, len(own)), own_cartan, own, piece,
                                max(own, key=sum)))
    return tuple(types)


@cache
def simple_factors(d: RootDatum) -> tuple[SimpleType, ...]:
    """The simple factors of ``d``, the one place a datum is split; memoized on its value."""
    return simple_types(d.cartan_matrix(), range(d.semisimple_rank))


def extended_cartan(t: SimpleType) -> IntMat:
    """Ĉ, the Cartan matrix on Δ ∪ {−θ} with −θ last: ``t.cartan`` plus ⟨−θ, αᵢ∨⟩ and ⟨αⱼ, −θ∨⟩.

    (marks, 1) is a right null vector and (θ∨'s coefficients, 1) a left one.
    Deleting any node leaves a finite-type matrix, so Ĉ has rank n.
    """
    theta_v = root_closure(t.cartan)[t.highest]
    bottom = tuple(-dot(theta_v, col) for col in zip(*t.cartan)) + (2,)
    return tuple(row + (-dot(row, t.highest),) for row in t.cartan) + (bottom,)


def cartan_type(d: RootDatum) -> tuple[str, ...]:
    """Sorted labels of the simple factors (``component_label``)."""
    return tuple(sorted(t.label for t in simple_factors(d)))


@cache
def pinned_part(d: RootDatum, m: IntMat) -> tuple[IntMat, int]:
    """(τ, ℓ) with m = w·τ, w ∈ W of length ℓ and τ·2ρ∨ dominant; memoized on d and m.

    Each simple reflection s_i with ⟨α_i, u⟩ < 0 takes u = m·2ρ∨ one step
    back towards the dominant chamber (one fewer positive root is negative on
    u), and is applied to m as the sparse update s_i·m = m − α_i∨·(α_iᵀ·m).
    2ρ∨, the sum of the positive coroots, pairs to 2 with every simple root,
    so it is regular and only 1 ∈ W fixes it.  On an automorphism m, τ then
    fixes the chamber, permutes the simple roots and is the only such element
    of Wm (Kottwitz–Shelstad, *Foundations of twisted endoscopy*, §1.2–1.3):
    m lies in W exactly when τ = 1.
    """
    reflect = _simple_reflections(d)
    bonds = [[(j, a) for j, a in enumerate(row) if a] for row in d.cartan_matrix()]
    two_rho = tuple(sum(coroot[k] for coroot, c in zip(d.coroots, d.coefficients) if sum(c) > 0)
                    for k in range(d.rank))
    u = mat_vec(m, two_rho)
    pairings = [dot(alpha, u) for alpha in d.simple_roots]
    length = 0
    while (i := next((i for i, p in enumerate(pairings) if p < 0), None)) is not None:
        m = reflect(i, m)
        p = pairings[i]  # ⟨α_j, s_i·u⟩ = ⟨α_j, u⟩ − p·⟨α_j, α_i∨⟩
        for j, a in bonds[i]:
            pairings[j] -= p * a
        length += 1
    return m, length


class CentralSubgroup(NamedTuple):
    """Finite subgroup of the torus given by cocharacter classes mod X∨."""

    generators: tuple[QVec, ...]
    order: int


def enlarged_basis(gens, m) -> tuple[list[IntVec], int]:
    """Hermite basis of D·m·L for L = X∨ + Σ Z·g, with D the common denominator of the generators.

    m is an integer matrix on X∨.  With m = 1 the scaled identity rows D·X∨
    make the basis full rank, so row i has its pivot in column i; with
    m = θ − 1 it spans D·(θ−1)·L, and with no generators (D = 1) m·X∨.
    """
    _, denom = clear_denominators(tuple(x for g in gens for x in g))
    rows = [tuple(x * denom for x in col) for col in transpose(m)]
    rows += [tuple(int(x * denom) for x in mat_vec(m, g)) for g in gens]
    return hnf_rows(rows), denom


def central_subgroup(d: RootDatum, generators) -> CentralSubgroup:
    """Build a central subgroup, checking integrality against every root.

    |Z| is the index of X∨ in L = X∨ + Σ Z·g: [Z^n : D·L] is the
    ``pivot_product`` of its Hermite basis and [Z^n : D·X∨] = Dⁿ, so no
    element is listed.
    """
    try:
        gens = tuple(normalize_mod1(tuple(Fraction(x) for x in g)) for g in generators)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise NotCentral(f"generators are not rational vectors: {exc}") from None
    for g in gens:
        if len(g) != d.rank:
            raise NotCentral("generator length does not match the rank")
        for alpha in d.simple_roots:
            if dot(alpha, g) % 1 != 0:
                raise NotCentral(f"<{alpha}, {g}> is not integral")
    basis, denom = enlarged_basis(gens, identity_matrix(d.rank))
    return CentralSubgroup(gens, denom ** d.rank // pivot_product(basis))


def quotient_by_central(d: RootDatum, z: CentralSubgroup) -> RootDatum:
    """Datum of the quotient group: X∨ grows by z, X shrinks to its dual."""
    # ``central_subgroup`` checked z on its own datum; ``to_new_root`` refuses a non-central z.
    if any(len(g) != d.rank for g in z.generators):
        raise NotCentral("generator length does not match the rank")
    basis_rows, denom = enlarged_basis(z.generators, identity_matrix(d.rank))
    # Rows of mt are the new basis vectors in old coordinates.
    mt = tuple(tuple(Fraction(x, denom) for x in row) for row in basis_rows)
    m_inv = invert(transpose(mt))

    def to_new_root(v: IntVec) -> IntVec:
        image = mat_vec(mt, v)
        if any(Fraction(x).denominator != 1 for x in image):
            raise NotCentral("root pairs non-integrally with the enlarged lattice")
        return tuple(int(x) for x in image)

    new_roots = tuple(to_new_root(a) for a in d.simple_roots)
    new_coroots = tuple(tuple(int(x) for x in mat_vec(m_inv, a)) for a in d.simple_coroots)
    return build_root_datum(d.rank, new_roots, new_coroots)


@cache
def canonical_key(d: RootDatum) -> bytes:
    """Display label ``datum;v2;types=…;z=…;central=…``, memoized on the datum's value.

    ``types`` is the Cartan type, ``central`` the central torus rank and
    ``z`` = |π₀ Z| (``root_lattice_index``).  All three are isomorphism
    invariants, but together they do not classify: SO4 = (SL2×SL2)/μ2 and
    SL2×PGL2 share the label ``types=A1,A1;z=2;central=0``.  The label only
    names rows of ``sigma --catalog``.
    """
    return (f"datum;v2;types={','.join(cartan_type(d))};z={root_lattice_index(d)};"
            f"central={d.rank - d.semisimple_rank}").encode()


def root_lattice_index(d: RootDatum) -> int:
    """|π₀ Z|, the order of the torsion of X / ZΦ: [X : ZΦ] = |Z| on semisimple data.

    It is the gcd of the maximal minors of the simple roots (|det| when they
    span), read off as the ``pivot_product`` of the Hermite basis of their
    columns; the empty product is 1.
    """
    return pivot_product(hnf_rows(transpose(d.simple_roots)))


def contragredient(m: IntMat) -> IntMat:
    """Action on X induced by an integral automorphism of X∨.

    A matrix that is not integral or has no inverse over Z raises ``NotAutomorphism``.
    """
    try:
        inv = invert(integer_rows(m, NotAutomorphism))
    except ValueError as e:
        raise NotAutomorphism(f"{m}: {e}") from None
    return integer_rows(transpose(inv), NotAutomorphism)
