"""Brute-force oracles used by the elliptic and acceptance tests.

These deliberately avoid the production enumeration path: no extended-diagram
walks, no lattice normal forms.  Points come from a literal torsion-grid scan
(rank <= 1) or from the joint solution lattices of independent root pairs
(rank 2), which cover exactly the grid points whose integral-root set has
full rank; dedup is by the full Weyl action.

The Fraction orbit walk at the end is the search-based reference for the
alcove-vertex enumeration: it takes every full-rank closed subsystem from
the extended-diagram walk (``_bds_children``, as ``full_rank_subsystems``
does), the torsion points of each from a Hermite-normal-form lattice quotient,
and canonicalizes, counts stabilizers and dedups subsystems the slow way,
through Fractions, contragredient inverses and reflection-subgroup closures.
``weyl_image_orbit`` is the orbit by the whole of W that the simple-reflection
walk of ``elliptic._weyl_orbit`` replaced.
``expansion_positive_roots`` is the Fraction-elimination sign rule that the
closure-built positive system replaced, and ``fraction_splus`` is the
Fraction orbit walk that ``catalog._splus`` replaced.

``validate_twisted_candidates`` checks a candidate list of torsion points
on a twisted component by brute force: pairwise non-conjugacy under W
combined with (1−θ)-translation, which ``left_int_kernel`` gives as
integrality against the annihilator of the image of θ − 1.

``simple_reflection_matrix`` is the dense matrix of s_i on X∨, and
``oracle_weyl_group`` the W it generates by right multiplication, each
element with its breadth-first depth: the walk ``rootdata.coset_walk``
replaced.  ``oracle_weyl_set`` is ``weylcoset.weyl_set`` as it was built from
that W, one product vθ per element.

``fraction_det`` is the Fraction-elimination determinant that the
fraction-free ``linalg.det`` replaced; ``fraction_coset_dets`` applies it to
det(vθ − 1) for every v, the reference for the Weyl sets.  Likewise
``fraction_rank``, ``fraction_invert``, ``fraction_coords_in_rows`` and
``fraction_in_integer_row_span`` are the Fraction eliminations that the
fraction-free ``linalg._echelon`` replaced.

``oracle_fixed_intersection_order`` is the listing that the lattice index of
``stabilize.fixed_intersection_order`` replaced: every z of Z̄ from
``subgroup_mod1``, each tested for (θ−1)·z in (θ−1)·X∨ by
``fraction_in_integer_row_span``.

``oracle_datum_accepts`` is the validation that ``root_closure``'s finite-type
check replaced: independent simple roots and coroots by rank, then the
Cartan-matrix axioms, symmetrizability and Fraction leading minors;
``random_based_datum`` draws the inputs it is compared on.

``oracle_component``, ``oracle_coset_sign`` and ``oracle_cocycle_holds`` are
the definition checks that ``rootdata.pinned_part`` replaced: every coroot
and root image with the root-coroot bijection, an inversion count on Φ⁺
through the contragredient, and θ_x·θ_y·θ_z⁻¹ looked up in the listed W.

``vertex_centralizer`` builds the datum of an alcove vertex's centralizer
C_k (Δ ∖ {α_k} ∪ {−θ} on X = Q) as σ did before it read C_k's Cartan
matrix off the extended one; the tests compare the two.

``oracle_sigma`` is the σ recursion before the simple-adjoint shortcut:
e = i solved on the datum itself, over every centralizer, with no product
or central-quotient rule.

``subgroup_mod1`` lists a central subgroup element by element, the
reference for ``central_subgroup``'s order, and ``central_torsion_points``
lists every central torsion point of a semisimple datum from a Hermite
lattice quotient; the tests draw their central subgroups from it.

The packet character sums are the reference for the Walsh–Hadamard
transfer table: one O(|R|) loop over the R-group characters per entry,
straight from ``ParameterModel.pairing``.  ``transfer_factor_closed`` and
``adjoint_factor_closed`` are the closed forms (|R|/|S|)·δ(r, x_R)·η(x_M)
and δ(r, x_R)·η(x_M) that ``packets verify``'s route check tests the table
against.

``oracle_packet_checks`` is the Fraction ``packets verify`` that the
integer checks of ``cli._packet_checks`` replaced: every factor is rebuilt
one entry at a time through the public Fraction API.

The three forms at the very end are the Fraction loops that the integer
kernels of ``stabilize`` replaced: every trial rebuilds every weight, and
Θ is summed from the per-entry character sums (``oracle_theta``), not from
the transfer table.
"""

import json
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm
from pathlib import Path
from random import Random

from tracestab import catalog, packets
from tracestab.elliptic import _bds_children, elliptic_classes, torus_point
from tracestab.errors import (
    InconsistentDescriptor,
    InfiniteOrder,
    NotAutomorphism,
    TwistedUnsupported,
)
from tracestab.linalg import (
    dot,
    dual_lattice_quotient,
    hnf_rows,
    identity_matrix,
    int_kernel,
    mat_mul,
    mat_vec,
    minus_identity,
    normalize_mod1,
    transpose,
)
from tracestab.packets import GR_ZERO, TwoGroup
from tracestab.rootdata import build_root_datum, closure, contragredient, weyl_group
from tracestab.sigma import sigma
from tracestab.stabilize import coefficient_report, iota_coefficient, s_disc_set
from tracestab.weylcoset import MAX_TWIST_ORDER, CosetElement, i_number, untwisted_component

GRID_N = lcm(*range(1, 13))


def oracle_points(d):
    if d.rank == 0:
        return [()]
    points = set()
    if d.rank == 1:
        for a in range(GRID_N):
            t = (Fraction(a, GRID_N),)
            if any(sum(r * x for r, x in zip(alpha, t)) % 1 == 0 for alpha in d.roots):
                points.add(t)
        return sorted(points)
    assert d.rank == 2
    for alpha, beta in combinations(d.roots, 2):
        det = alpha[0] * beta[1] - alpha[1] * beta[0]
        if det == 0:
            continue
        dd = abs(det)
        for k1 in range(dd):
            for k2 in range(dd):
                t = (Fraction(beta[1] * k1 - alpha[1] * k2, det) % 1,
                     Fraction(-beta[0] * k1 + alpha[0] * k2, det) % 1)
                order = lcm(t[0].denominator, t[1].denominator)
                if GRID_N % order == 0:
                    points.add(t)
    return sorted(points)


def oracle_classes(d):
    """(canonical rep, pi0, centralizer type) triples, brute-forced."""
    if d.rank == 0:
        return [((), 1, ())]
    w_matrices = [w.matrix for w in weyl_group(d)]
    seen = {}
    for t in oracle_points(d):
        canon = min(tuple(Fraction(x) % 1 for x in mat_vec(m, t)) for m in w_matrices)
        seen[canon] = True
    out = []
    for t in sorted(seen):
        roots_t = [alpha for alpha in d.roots
                   if sum(r * x for r, x in zip(alpha, t)) % 1 == 0]
        stab = sum(1 for m in w_matrices
                   if tuple(Fraction(x) % 1 for x in mat_vec(m, t)) == t)
        out.append((t, stab // oracle_reflection_order(d, roots_t),
                    type_from_count(d.rank, len(roots_t))))
    return out


def oracle_reflection_order(d, roots_t):
    n = d.rank
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    gens = set()
    for alpha in roots_t:
        coroot = d.coroot_of(alpha)
        gens.add(tuple(tuple((1 if r == c else 0) - alpha[c] * coroot[r]
                             for c in range(n)) for r in range(n)))
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = mat_mul(m, g)
                if p not in group:
                    group.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(group)


def type_from_count(rank, nroots):
    if rank == 1:
        return {2: ("A1",)}[nroots]
    return {4: ("A1", "A1"), 6: ("A2",), 8: ("B2",), 12: ("G2",)}[nroots]


def brute_i(d):
    """i(S°) for an untwisted rank <= 2 datum, recomputed from first principles.

    Weyl matrices come from closing the simple reflections, signs from
    counting root inversions against the expansion-based positivity, and the
    determinants from the closed 1x1/2x2 formulas.
    """
    n = d.rank
    ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    gens = []
    for alpha, coroot in zip(d.simple_roots, d.simple_coroots):
        gens.append(tuple(tuple((1 if r == c else 0) - alpha[c] * coroot[r]
                                for c in range(n)) for r in range(n)))
    group = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = mat_mul(m, g)
                if p not in group:
                    group.add(p)
                    nxt.append(p)
        frontier = nxt

    def det_closed(m):
        if n == 0:
            return 1
        if n == 1:
            return m[0][0]
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]

    def x_action(m):
        # inverse-transpose via the adjugate; det is ±1 on a Weyl matrix
        if n == 1:
            return m  # a 1x1 unit is its own inverse-transpose
        dm = det_closed(m)
        adj_t = ((m[1][1], -m[1][0]), (-m[0][1], m[0][0]))
        return tuple(tuple(x * dm for x in row) for row in adj_t)

    def expansion_positive(root):
        simples = d.simple_roots
        if n == 1:
            return Fraction(root[0], simples[0][0]) > 0
        (a, b), (c2, d2) = simples
        det_s = a * d2 - b * c2
        u = Fraction(root[0] * d2 - root[1] * c2, det_s)
        v = Fraction(-root[0] * b + root[1] * a, det_s)
        return u > 0 or (u == 0 and v > 0)

    positives = [r for r in d.roots if expansion_positive(r)]
    total = Fraction(0)
    for m in group:
        dm1 = det_closed(tuple(tuple(m[i][j] - (1 if i == j else 0) for j in range(n))
                               for i in range(n)))
        if dm1 == 0:
            continue
        act = x_action(m)
        inversions = sum(1 for r in positives
                         if not expansion_positive(tuple(mat_vec(act, r))))
        sign = -1 if inversions % 2 else 1
        total += Fraction(sign, abs(dm1))
    return total / len(group)


def classical_datum(kind, n, form):
    """Simply connected ("sc") or adjoint ("ad") datum of type A, B, C or D."""
    return datum_from_cartan(classical_cartan(kind, n), form)


def classical_cartan(kind, n):
    """Cartan matrix of A_n, B_n, C_n or D_n, Bourbaki numbering."""
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    chain = n - 1 if kind != "D" else n - 2
    for i in range(chain):
        c[i][i + 1] = c[i + 1][i] = -1
    if kind == "B":
        c[n - 2][n - 1] = -2
    elif kind == "C":
        c[n - 1][n - 2] = -2
    elif kind == "D":
        c[n - 3][n - 1] = c[n - 1][n - 3] = -1
    return tuple(map(tuple, c))


LADDER = (("A", 3), ("B", 3), ("C", 3), ("A", 4), ("D", 4), ("B", 4))


def catalog_and_ladder_data():
    """(name, datum) for every catalog datum and for A3–B4 in sc and ad forms."""
    return [(name, catalog.datum(name)) for name in catalog.datum_names()] + [
        (f"{kind}{n}-{form}", classical_datum(kind, n, form))
        for kind, n in LADDER for form in ("sc", "ad")]


F4_CARTAN = ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))


def e_cartan(n):
    """Cartan matrix of E_n, Bourbaki numbering: the chain 1-3-4-…-n with 2 on 4."""
    c = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]:
        c[i][j] = c[j][i] = -1
    return c


def datum_from_cartan(c, form):
    """Simply connected ("sc") or adjoint ("ad") datum whose simple roots pair as c."""
    n = len(c)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    if form == "sc":
        return build_root_datum(n, c, ident)
    return build_root_datum(n, ident, [list(col) for col in zip(*c)])


G2_CARTAN = ((2, -1), (-3, 2))


def labelled_cartan(label):
    """The Cartan matrix of a simple type, as ``classical_cartan`` or ``e_cartan`` numbers it."""
    family, n = label[0], int(label[1:])
    if family in "ABCD":
        return classical_cartan(family, n)
    if family == "E":
        return tuple(map(tuple, e_cartan(n)))
    return F4_CARTAN if family == "F" else G2_CARTAN


def labelled_datum(label, orientation, form):
    """The datum of a simple type, built from its Cartan matrix or its transpose."""
    if label[0] in "ABCD":
        return classical_datum(label[0], int(label[1:]), form)
    cartan = labelled_cartan(label)
    return datum_from_cartan(transpose(cartan) if orientation == "transposed" else cartan, form)


def vertex_centralizer(t, k):
    """C_k of the adjoint group of type ``t``: simple roots Δ ∖ {α_k} ∪ {−θ} on X = Q.

    This is the datum σ built for every vertex with m_k ≥ 2 before it read
    C_k off the extended Cartan matrix.
    """
    n = len(t.cartan)
    d = build_root_datum(n, identity_matrix(n), t.cartan)
    roots = d.simple_roots + (tuple(-x for x in t.highest),)
    coroots = d.simple_coroots + (tuple(-x for x in d.coroot_of(t.highest)),)
    return build_root_datum(n, roots[:k] + roots[k + 1:], coroots[:k] + coroots[k + 1:])


def direct_sum(a, b):
    """The product datum a × b on X_a ⊕ X_b."""
    def pad(v, offset):
        return (0,) * offset + tuple(v) + (0,) * (a.rank + b.rank - offset - len(v))

    def stack(x, y):
        return [pad(v, 0) for v in x] + [pad(v, a.rank) for v in y]

    return build_root_datum(a.rank + b.rank, stack(a.simple_roots, b.simple_roots),
                            stack(a.simple_coroots, b.simple_coroots))


def interleaved_product():
    """B2 × G2 × A2 whose factors' simple roots interleave (0,3 / 1,4 / 2,5), from tests/data."""
    spec = Path(__file__).with_name("data") / "b2_g2_a2_interleaved.json"
    return build_root_datum(**json.loads(spec.read_text()))


def expansion_positive_roots(d):
    """Roots whose first nonzero simple-root coordinate is positive, by Fraction elimination."""
    return tuple(r for r in d.roots
                 if next(x for x in fraction_coords_in_rows(d.simple_roots, r) if x) > 0)


def fraction_orbit_canonical(w_matrices, t):
    return min(normalize_mod1(mat_vec(m, t)) for m in w_matrices)


def fraction_stabilizer_order(w_matrices, t):
    return sum(1 for m in w_matrices if normalize_mod1(mat_vec(m, t)) == t)


def weyl_image_orbit(d, a, n):
    """Numerators mod n of the Weyl orbit of a/n: every element of W mapped over the point.

    The reference for ``elliptic._weyl_orbit``, which walks the orbit by
    simple reflections instead.
    """
    return {tuple(dot(row, a) % n for row in w.matrix) for w in weyl_group(d)}


def fraction_splus(m, x, cls):
    """Twists y with θ_y·rep Weyl-conjugate to rep mod X∨, on an untwisted component."""
    w_matrices = [w.matrix for w in weyl_group(m.component_at(x).base)]
    rep = cls.rep.coords
    canon = fraction_orbit_canonical(w_matrices, rep)
    return sum(1 for y in m.s_elements()
               if fraction_orbit_canonical(w_matrices, mat_vec(m.dual_group.thetas[y], rep))
               == canon)


@cache
def sorted_image_subsystems(d):
    """Full-rank subsystems deduped by sorting root images under contragredients."""
    if not d.is_semisimple():
        return []
    if d.rank == 0:
        return [()]
    w_actions = [contragredient(w.matrix) for w in weyl_group(d)]

    def canon(roots):
        return min(tuple(sorted(tuple(mat_vec(a, r)) for r in roots)) for a in w_actions)

    full = tuple(sorted(d.roots))
    seen = {canon(full): full}
    frontier = [full]
    while frontier:
        new_frontier = []
        for roots in frontier:
            for child in _bds_children(d, roots):
                key = canon(child)
                if key not in seen:
                    seen[key] = child
                    new_frontier.append(child)
        frontier = new_frontier
    return sorted(seen.values())


def fraction_elliptic_classes(d):
    """(rep, pi0) pairs of the untwisted component, by the Fraction orbit walk."""
    if not d.is_semisimple():
        return []
    if d.rank == 0:
        return [((), 1)]
    w_matrices = [w.matrix for w in weyl_group(d)]
    reps = set()
    for roots in sorted_image_subsystems(d):
        for t in dual_lattice_quotient(tuple(hnf_rows(list(roots)))):
            reps.add(fraction_orbit_canonical(w_matrices, t))
    out = []
    for t in sorted(reps):
        roots_t = [alpha for alpha in d.roots if dot(alpha, t) % 1 == 0]
        out.append((t, fraction_stabilizer_order(w_matrices, t)
                    // oracle_reflection_order(d, roots_t)))
    return out


def left_int_kernel(m):
    """Saturated integer basis of {u : u @ m == 0}."""
    return int_kernel(transpose(m))


def validate_twisted_candidates(c, points) -> dict:
    """Torsion-level validation of a user-supplied candidate list.

    Checks pairwise non-conjugacy under the Weyl action combined with
    (1−θ)-translation, and certifies ellipticity when θ has no fixed
    directions.  This validates a list; it never enumerates.
    """
    if c.untwisted:
        raise TwistedUnsupported("candidate validation is for twisted components")
    pts = [torus_point(p) for p in points]
    delta = minus_identity(c.theta)
    annihilator = left_int_kernel(delta)
    fixed_rank = len(int_kernel(delta))
    w_matrices = [w.matrix for w in weyl_group(c.base)]

    def conjugate_mod_translation(a, b) -> bool:
        for m in w_matrices:
            diff = tuple(x - y for x, y in zip(b, normalize_mod1(mat_vec(m, a))))
            if all(dot(row, diff) % 1 == 0 for row in annihilator):
                return True
        return False

    duplicates = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
                  if conjugate_mod_translation(pts[i].coords, pts[j].coords)]
    return {
        "points": tuple(p.coords for p in pts),
        "pairwise_distinct": not duplicates,
        "conjugate_pairs": tuple(duplicates),
        "elliptic": tuple(True if fixed_rank == 0 else None for _ in pts),
    }


def fraction_det(m):
    """Determinant over Q by Fraction Gaussian elimination."""
    n = len(m)
    rows = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        for r in range(col + 1, n):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    result = Fraction(sign)
    for i in range(n):
        result *= rows[i][i]
    return result


def fraction_rank(m):
    """Rank over Q by Fraction Gauss–Jordan elimination."""
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def fraction_invert(m):
    """Inverse over Q by Fraction Gauss–Jordan on [m | I]; ValueError if singular."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [a * inv_p for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def fraction_coords_in_rows(rows, v):
    """Coefficients of v in the Q-row-span of rows, or None, by Fraction elimination."""
    if not rows:
        return () if all(x == 0 for x in v) else None
    aug = [[Fraction(x) for x in row] for row in rows]
    target = [Fraction(x) for x in v]
    ncols = len(aug[0])
    coeffs = [[Fraction(1 if i == j else 0) for j in range(len(rows))] for i in range(len(rows))]
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(aug)) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        coeffs[rank], coeffs[pivot] = coeffs[pivot], coeffs[rank]
        for r in range(len(aug)):
            if r != rank and aug[r][col]:
                factor = aug[r][col] / aug[rank][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[rank])]
                coeffs[r] = [a - factor * b for a, b in zip(coeffs[r], coeffs[rank])]
        pivots.append((rank, col))
        rank += 1
    sol = [Fraction(0)] * len(rows)
    for r, col in pivots:
        factor = target[col] / aug[r][col]
        if factor:
            target = [a - factor * b for a, b in zip(target, aug[r])]
            sol = [a + factor * b for a, b in zip(sol, coeffs[r])]
    if any(x != 0 for x in target):
        return None
    return tuple(sol)


def fraction_in_integer_row_span(rows, target):
    """Z-row-span membership by Fraction reduction against the Hermite basis."""
    vec = [Fraction(x) for x in target]
    for row in hnf_rows(rows):
        col = next(i for i, x in enumerate(row) if x != 0)
        if vec[col] != 0:
            q = vec[col] / row[col]
            vec = [a - q * b for a, b in zip(vec, row)]
            if q.denominator != 1:
                return False
    return all(x == 0 for x in vec)


def subgroup_mod1(gens, rank):
    """Closure of rational generators under addition mod Z^rank."""
    norm_gens = [normalize_mod1(g) for g in gens]
    elems = closure({tuple(Fraction(0) for _ in range(rank)): None},
                    lambda e, _: ((normalize_mod1(tuple(a + b for a, b in zip(e, g))), None)
                                  for g in norm_gens))
    return tuple(sorted(elems))


def central_torsion_points(d):
    """All torus points pairing integrally with every root (semisimple only)."""
    if not d.is_semisimple():
        raise ValueError("central torsion enumeration needs a semisimple datum")
    if d.rank == 0:
        return ((),)
    reps = dual_lattice_quotient(tuple(hnf_rows(list(d.roots))))
    return tuple(sorted(normalize_mod1(t) for t in reps))


def oracle_fixed_intersection_order(theta, generators, rank):
    """|S̄° ∩ Z̄| by listing Z̄: the z with (θ−1)·z in the Z-span of θ − 1's columns."""
    delta = minus_identity(theta)
    return sum(1 for z in subgroup_mod1(generators, rank)
               if fraction_in_integer_row_span(transpose(delta), mat_vec(delta, z)))


def simple_reflection_matrix(d, i):
    """Matrix of s_i acting on X∨ (columns are images of basis vectors)."""
    alpha, alpha_v, n = d.simple_roots[i], d.simple_coroots[i], d.rank
    return tuple(tuple(int(r == c) - alpha[c] * alpha_v[r] for c in range(n)) for r in range(n))


def oracle_weyl_group(d):
    """{w: breadth-first depth} for w ∈ W, closed under right multiplication by the dense s_i."""
    gens = [simple_reflection_matrix(d, i) for i in range(d.semisimple_rank)]
    return closure({identity_matrix(d.rank): 0},
                   lambda m, depth: ((mat_mul(m, g), depth + 1) for g in gens))


def oracle_weyl_set(c):
    """The coset {vθ} from the oracle W, one product per v, sorted by total like weyl_set."""
    theta_sign = oracle_coset_sign(c.base, c.theta)
    elements = []
    for v, depth in oracle_weyl_group(c.base).items():
        total = mat_mul(v, c.theta)
        d = fraction_det(minus_identity(total))
        elements.append(CosetElement(total, d, theta_sign * (-1) ** depth, d != 0))
    return sorted(elements)


def fraction_coset_dets(c):
    """det(vθ − 1) over v ∈ W by Fraction elimination, sorted by vθ like weyl_set."""
    n = c.base.rank
    totals = sorted(mat_mul(v, c.theta) for v in oracle_weyl_group(c.base))
    return [fraction_det(tuple(tuple(t[i][j] - (i == j) for j in range(n)) for i in range(n)))
            for t in totals]


def oracle_component(base, theta):
    """``weylcoset.component``'s verdict from the definition: order θ, or the error it raises.

    θ must be a unimodular matrix sending every coroot to a coroot whose
    contragredient sends every root to a root, compatibly with the
    root-coroot bijection; then the order of θ is found by powering.
    """
    n = base.rank
    theta = tuple(map(tuple, theta))
    if len(theta) != n or any(len(row) != n for row in theta) or fraction_det(theta) not in (1, -1):
        return NotAutomorphism
    theta_x = contragredient(theta)
    for root, coroot in zip(base.roots, base.coroots):
        image = mat_vec(theta, coroot)
        if image not in base.coroots or mat_vec(theta_x, root) not in base.roots:
            return NotAutomorphism
        if base.coroot_of(mat_vec(theta_x, root)) != image:
            return NotAutomorphism
    power, order = theta, 1
    while power != identity_matrix(n):
        power, order = mat_mul(power, theta), order + 1
        if order > MAX_TWIST_ORDER:
            return InfiniteOrder
    return order


def oracle_coset_sign(d, total):
    """(−1)^(positive roots sent to negative ones by total's contragredient), counted one by one."""
    action = contragredient(total)
    positives = set(d.positive_roots())
    return (-1) ** sum(1 for alpha in positives if mat_vec(action, alpha) not in positives)


def oracle_cocycle_holds(base, thetas):
    """Whether θ_x·θ_y·θ_{x⊕y}⁻¹ lies in the listed ``weyl_group`` for every x, y."""
    group = {w.matrix for w in weyl_group(base)}
    inverses = {x: fraction_invert(theta) for x, theta in thetas.items()}
    return all(mat_mul(mat_mul(thetas[x], thetas[y]), inverses[(x[0] ^ y[0], x[1] ^ y[1])])
               in group for x in thetas for y in thetas)


def oracle_datum_accepts(rank, simple_roots, simple_coroots):
    """Whether a based datum passes the checks ``build_root_datum`` made before its
    Cartan matrix was checked only by ``root_closure``."""
    k = len(simple_roots)
    if (rank < 0 or k != len(simple_coroots) or k > rank
            or any(len(v) != rank for v in simple_roots + simple_coroots)):
        return False
    if k and (fraction_rank(simple_roots) != k or fraction_rank(simple_coroots) != k):
        return False
    a = [[dot(simple_roots[j], simple_coroots[i]) for j in range(k)] for i in range(k)]
    if any(a[i][i] != 2 for i in range(k)):
        return False
    for i, j in combinations(range(k), 2):
        if a[i][j] > 0 or a[j][i] > 0 or (a[i][j] == 0) != (a[j][i] == 0):
            return False
    # Symmetrizable: d_j·a_ij = d_i·a_ji, with d spread along the nonzero bonds.
    scale = {}
    for start in range(k):
        if start in scale:
            continue
        scale[start], stack = Fraction(1), [start]
        while stack:
            i = stack.pop()
            for j in range(k):
                if j != i and a[i][j] and j not in scale:
                    scale[j] = scale[i] * a[j][i] / a[i][j]
                    stack.append(j)
    if any(scale[j] * a[i][j] != scale[i] * a[j][i] for i, j in combinations(range(k), 2)):
        return False
    return all(fraction_det([row[:size] for row in a[:size]]) > 0 for size in range(1, k + 1))


def random_based_datum(rng):
    """(rank, simple roots, simple coroots) with rank ≤ 4.

    Half the draws are raw vectors with entries in [−3, 3].  The rest draw a
    Cartan-like A with entries in [−3, 3] (diagonal mostly 2, off-diagonal
    mostly ≤ 0) and put it on the lattice by a random unimodular U: coroots
    U·eᵢ and roots U⁻ᵀ·(A's column, random tail), so that ⟨α_j, α_i∨⟩ = A_ij;
    now and then a root or coroot is copied onto another.
    """
    n = rng.randint(1, 4)
    k = rng.randint(0, n)
    if rng.random() < 0.5:
        roots, coroots = (tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k))
                          for _ in range(2))
        return n, roots, coroots
    u = [list(row) for row in identity_matrix(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    a = [[(2 if rng.random() < 0.9 else rng.choice((1, 3))) if i == j
          else rng.choice((0, 0, -1, -1, -2, -3, 1)) for j in range(k)] for i in range(k)]
    u_inv_t = contragredient(tuple(map(tuple, u)))
    coroots = [mat_vec(u, unit) for unit in identity_matrix(n)[:k]]
    roots = [mat_vec(u_inv_t, tuple(a[i][j] for i in range(k))
                     + tuple(rng.randint(-2, 2) for _ in range(n - k))) for j in range(k)]
    if k > 1 and rng.random() < 0.2:
        i, j = rng.sample(range(k), 2)
        vectors = rng.choice((roots, coroots))
        vectors[i] = vectors[j]
    return n, tuple(roots), tuple(coroots)


@cache
def oracle_sigma(d):
    """σ(d) from e = i on d's own untwisted component, memoized on the datum's value."""
    if d.rank == 0:
        return Fraction(1)
    if not d.is_semisimple():
        return Fraction(0)
    comp = untwisted_component(d)
    central, acc = 0, Fraction(0)
    for c in elliptic_classes(comp):
        if len(c.centralizer_datum.roots) == len(d.roots):
            central += 1
        else:
            acc += Fraction(1, c.pi0) * oracle_sigma(c.centralizer_datum)
    return (i_number(comp) - acc) / central


def _packet_character_sum(m, tau, x):
    eta, r = tau
    return sum(TwoGroup.char(chi, r) * m.pairing((eta, chi), x) for chi in m.r.elements())


def transfer_factor_closed(m, tau, x):
    """Δ(τ, φ^x) in closed form: (|R|/|S|)·δ(r, x_R)·η(x_M)."""
    m._check_tau(tau)
    m._check_x(x)
    eta, r = tau
    if r != x[1]:
        return Fraction(0)
    return Fraction(m.r.size, m.s_size) * TwoGroup.char(eta, x[0])


def adjoint_factor_closed(m, x, tau):
    """Δ(φ^x, τ) in closed form: δ(r, x_R)·η(x_M)."""
    m._check_tau(tau)
    m._check_x(x)
    eta, r = tau
    if r != x[1]:
        return Fraction(0)
    return Fraction(TwoGroup.char(eta, x[0]))


def oracle_transfer_factor(m, tau, x):
    """Δ(τ, φ^x) as a per-entry character sum over the R-group."""
    return Fraction(_packet_character_sum(m, tau, x), m.s_size)


def oracle_adjoint_factor(m, x, tau):
    """Δ(φ^x, τ) as the |R|⁻¹-weighted per-entry character sum."""
    return Fraction(_packet_character_sum(m, tau, x), m.r.size)


def oracle_theta(m, tau, f):
    """Θ(τ, f) = Σ_x Δ(τ, φ^x)·f'(φ, x) in Fractions, from the character sums."""
    total = GR_ZERO
    for x in m.s_elements():
        total = total + f.value(m.model_id, x) * oracle_transfer_factor(m, tau, x)
    return total


def _fraction_adjoint_relations(m):
    """Σ_τ Δ(φ^x₁, τ)·Δ(τ, φ^x₂) = δ(x₁, x₂) and Σ_x Δ(τ₁, φ^x)·Δ(φ^x, τ₂) = δ(τ₁, τ₂), every pair."""
    xs, taus = m.s_elements(), m.taus()
    return (all(sum(packets.adjoint_factor(m, x1, tau) * packets.transfer_factor(m, tau, x2)
                    for tau in taus) == (x1 == x2) for x1 in xs for x2 in xs)
            and all(sum(packets.transfer_factor(m, t1, x) * packets.adjoint_factor(m, x, t2)
                        for x in xs) == (t1 == t2) for t1 in taus for t2 in taus))


def oracle_packet_checks(m, seed, trials):
    """The four ``packets verify`` verdicts from the Fraction factors, entry by entry.

    The adjoint relations are summed over every pair in Fractions, so the
    symmetric-pair Gram check of ``verify_adjoint`` has a reference too.
    """
    rng = Random(seed)
    route_ok = all(
        packets.transfer_factor(m, tau, x) == transfer_factor_closed(m, tau, x)
        and packets.adjoint_factor(m, x, tau) == adjoint_factor_closed(m, x, tau)
        for tau in m.taus() for x in m.s_elements())
    scaling_ok = all(
        packets.transfer_factor(m, tau, x) ==
        Fraction(m.r.size, m.s_size) * packets.adjoint_factor(m, x, tau)
        for tau in m.taus() for x in m.s_elements())
    adjoint_ok = _fraction_adjoint_relations(m)
    roundtrip_ok = True
    for _ in range(trials):
        f = packets.TestVector.random(rng, [m])
        theta = {tau: packets.theta_transfer(m, tau, f) for tau in m.taus()}
        for x in m.s_elements():
            if packets.invert_transfer(m, x, theta) != f.value(m.model_id, x):
                roundtrip_ok = False
    return {
        "route_agreement": route_ok,
        "scaling_law": scaling_ok,
        "adjoint_relations": adjoint_ok,
        "transfer_roundtrip": roundtrip_ok,
    }


def oracle_discrete_part(ms, f1, f2):
    """Σ_τ i_φ(ι(τ))·Θ(τ,f₁)·conj(Θ(τ,f₂))·|R|⁻¹, one Fraction term at a time."""
    total = GR_ZERO
    for m in ms.models:
        disc = s_disc_set(m)
        weight = Fraction(1, m.r.size)
        for tau in m.taus():
            x = m.iota(tau)
            if x not in disc:
                continue
            coeff = i_number(m.component_at(x))
            if not coeff:
                continue
            term = oracle_theta(m, tau, f1) * oracle_theta(m, tau, f2).conjugate()
            total = total + term * (coeff * weight)
    return total


def oracle_stable_form(ms, f1, f2):
    """Σ_s |S|⁻¹·|π₀(s)|⁻¹·σ(S°_s)·f'₁·conj(f'₂), one class at a time."""
    total = GR_ZERO
    for m in ms.models:
        for x in m.s_elements():
            fvals = f1.value(m.model_id, x) * f2.value(m.model_id, x).conjugate()
            for cls in elliptic_classes(m.component_at(x)):
                coeff = (Fraction(1, m.s_size) * Fraction(1, cls.pi0)
                         * sigma(cls.centralizer_datum))
                if coeff:
                    total = total + fvals * coeff
    return total


def oracle_endoscopic_form(ms, descriptors, f1, f2):
    """Σ_{G'} ι(G,G')·Σ_{φ'} |S_{φ'}|⁻¹σ(S̄°_{φ'})·f₁·conj(f₂), one descriptor at a time."""
    by_model = {m.model_id: m for m in ms.models}
    by_group = {}
    for d in descriptors:
        if d.model_id not in by_model:
            raise InconsistentDescriptor(f"descriptor references unknown model {d.model_id}")
        report = coefficient_report(by_model[d.model_id], d)
        if not report.passed:
            raise InconsistentDescriptor(
                f"descriptor for {d.model_id}:{d.x} fails {report.failed_names()}")
        by_group.setdefault(d.group_label, []).append(d)
    total = GR_ZERO
    for label in sorted(by_group):
        group = by_group[label]
        iotas = {iota_coefficient(d.out_card, d.zbar.order) for d in group}
        if len(iotas) != 1:
            raise InconsistentDescriptor(f"group {label} mixes distinct iota coefficients")
        iota = iotas.pop()
        for d in group:
            weight = Fraction(d.out_card * d.splus_over_s_card,
                              d.out_phi_card * by_model[d.model_id].s_size)
            coeff = (iota * weight * Fraction(1, d.s_phi_prime_card)
                     * sigma(d.sprime_datum))
            if coeff:
                fvals = (f1.value(d.model_id, d.x)
                         * f2.value(d.model_id, d.x).conjugate())
                total = total + fvals * coeff
    return total
