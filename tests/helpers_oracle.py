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

``fraction_det`` is the Fraction-elimination determinant that the
fraction-free ``linalg.det`` replaced; ``fraction_coset_dets`` applies it to
det(vθ − 1) for every v, the reference for the Weyl sets.  Likewise
``fraction_rank``, ``fraction_invert``, ``fraction_coords_in_rows`` and
``fraction_in_integer_row_span`` are the Fraction eliminations that the
fraction-free ``linalg._echelon`` replaced.

``oracle_sigma`` is the σ recursion before the simple-adjoint shortcut:
e = i solved on the datum itself, over every centralizer, with no product
or central-quotient rule.

The packet character sums are the reference for the Walsh–Hadamard
transfer table: one O(|R|) loop over the R-group characters per entry,
straight from ``ParameterModel.pairing``.

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
from tracestab.errors import InconsistentDescriptor, TwistedUnsupported
from tracestab.linalg import (
    dot,
    dual_lattice_quotient,
    hnf_rows,
    int_kernel,
    mat_mul,
    mat_vec,
    minus_identity,
    normalize_mod1,
    transpose,
)
from tracestab.packets import GR_ZERO, TwoGroup
from tracestab.rootdata import build_root_datum, contragredient, weyl_group
from tracestab.sigma import sigma
from tracestab.stabilize import coefficient_report, iota_coefficient, s_disc_set
from tracestab.weylcoset import i_number, untwisted_component

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
    return datum_from_cartan(c, form)


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


def labelled_datum(label, orientation, form):
    """The datum of a simple type, built from its Cartan matrix or its transpose."""
    family, n = label[0], int(label[1:])
    if family in "ABCD":
        return classical_datum(family, n, form)
    cartan = e_cartan(n) if family == "E" else F4_CARTAN if family == "F" else G2_CARTAN
    return datum_from_cartan(transpose(cartan) if orientation == "transposed" else cartan, form)


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


def fraction_coset_dets(c):
    """det(vθ − 1) over v ∈ W by Fraction elimination, sorted by vθ like weyl_set."""
    n = c.base.rank
    totals = sorted(mat_mul(v.matrix, c.theta) for v in weyl_group(c.base))
    return [fraction_det(tuple(tuple(t[i][j] - (i == j) for j in range(n)) for i in range(n)))
            for t in totals]


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
        packets.transfer_factor(m, tau, x) == packets.transfer_factor_closed(m, tau, x)
        and packets.adjoint_factor(m, x, tau) == packets.adjoint_factor_closed(m, x, tau)
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
