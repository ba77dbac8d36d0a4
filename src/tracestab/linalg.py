"""Exact linear algebra over the integers and rationals.

Everything here works on tuples of ints or Fractions; no floats ever enter.
Matrices are tuples of row tuples, vectors are flat tuples, and matrices act
on column vectors (``mat_vec(M, v) == M @ v``).

Elimination over Q has one routine, the fraction-free Gauss–Jordan
``_echelon``; ``matrix_rank``, ``invert``, ``coords_in_rows`` and
``in_integer_row_span`` are built on it.  ``det`` is fraction-free too
(Bareiss); both scale each row to integers up front with
``clear_denominators``.  The integer normal forms ``hnf_rows`` and
``snf_with_transforms`` work over Z.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

IntVec = tuple[int, ...]
IntMat = tuple[IntVec, ...]
QVec = tuple[Fraction, ...]


def dot(x: Sequence, y: Sequence):
    """Exact pairing of a character vector with a cocharacter vector."""
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return sum(map(mul, x, y))


def vec_sub(x: Sequence, y: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(x, y))


def identity_matrix(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Sequence[Sequence]) -> tuple:
    if not m:
        return ()
    return tuple(zip(*[tuple(row) for row in m]))


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def det(m: Sequence[Sequence]) -> Fraction:
    """Determinant of a rational matrix, as a Fraction; the 0x0 matrix has 1.

    Fraction-free (Bareiss) elimination: each row is scaled to integers up
    front, every division is exact, so the work stays in integers, and the
    result is divided by the product of the row scales.
    """
    rows, scale = [], 1
    for row in m:
        int_row, row_scale = clear_denominators(row)
        rows.append(list(int_row))
        scale *= row_scale
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if rows[r][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        pk, row_k = rows[k][k], rows[k]
        for row in rows[k + 1:]:
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - factor * row_k[j]) // prev  # exact division
        prev = pk
    return Fraction(sign * rows[-1][-1] if n else 1, scale)


def _echelon(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of a rational matrix, kept in integers.

    Fraction-free Gauss–Jordan: each row is scaled to integers up front,
    and each update ``p·row − row[c]·pivot_row`` is divided by the row's
    gcd.  Returns the nonzero rows, each an integer multiple of the matching
    reduced row (zero in every other pivot column), and the pivot columns.
    """
    work = [clear_denominators(row)[0] for row in rows]
    pivots: list[int] = []
    for col in range(len(work[0]) if work else 0):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pivot_row = work[rank]
        p = pivot_row[col]
        for r, row in enumerate(work):
            factor = row[col]
            if r != rank and factor:
                row = [p * a - factor * b for a, b in zip(row, pivot_row)]
                g = gcd(*row) or 1
                work[r] = [a // g for a in row]
        pivots.append(col)
    return work[:len(pivots)], pivots


def matrix_rank(m: Sequence[Sequence]) -> int:
    return len(_echelon(m)[1])


def invert(m: Sequence[Sequence]) -> tuple[QVec, ...]:
    """Inverse over Q; raises ValueError on a singular matrix."""
    n = len(m)
    reduced, pivots = _echelon([list(row) + [int(i == j) for j in range(n)]
                                for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return tuple(tuple(Fraction(x, row[i]) for x in row[n:]) for i, row in enumerate(reduced))


def coords_in_rows(rows: Sequence[Sequence], v: Sequence) -> QVec | None:
    """Coefficients expressing v in the Q-row-span of rows, or None.

    The rows must be linearly independent, so that the coefficients are
    unique; every caller passes a basis.
    """
    k = len(rows)
    reduced, pivots = _echelon([[row[j] for row in rows] + [x] for j, x in enumerate(v)])
    if pivots and pivots[-1] == k:
        return None
    coeffs = [Fraction(0)] * k
    for row, col in zip(reduced, pivots):
        coeffs[col] = Fraction(row[k], row[col])
    return tuple(coeffs)


def hnf_rows(rows: Sequence[Sequence[int]]) -> list[IntVec]:
    """Row-style Hermite normal form basis of the integer row span."""
    work = [list(map(int, row)) for row in rows if any(row)]
    if not work:
        return []
    ncols = len(work[0])
    basis: list[list[int]] = []
    row_idx = 0
    for col in range(ncols):
        pivot = None
        for r in range(row_idx, len(work)):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        work[row_idx], work[pivot] = work[pivot], work[row_idx]
        # Euclidean elimination below the pivot.
        for r in range(row_idx + 1, len(work)):
            while work[r][col] != 0:
                q = work[row_idx][col] // work[r][col]
                work[row_idx] = [a - q * b for a, b in zip(work[row_idx], work[r])]
                work[row_idx], work[r] = work[r], work[row_idx]
        if work[row_idx][col] < 0:
            work[row_idx] = [-a for a in work[row_idx]]
        row_idx += 1
    work = [row for row in work[:row_idx]]
    # Reduce entries above each pivot.
    pivots = []
    for r, row in enumerate(work):
        col = next(i for i, a in enumerate(row) if a != 0)
        pivots.append(col)
        for above in range(r):
            q = work[above][col] // row[col]
            if q:
                work[above] = [a - q * b for a, b in zip(work[above], row)]
    return [tuple(row) for row in work]


def snf_with_transforms(m: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat, IntMat]:
    """Smith normal form: returns (D, U, V) with U @ m @ V == D."""
    a = [list(map(int, row)) for row in m]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = [list(row) for row in identity_matrix(nrows)]
    v = [list(row) for row in identity_matrix(ncols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        a[dst] = [x - q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x - q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] -= q * row[src]
        for row in v:
            row[dst] -= q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    s = 0
    while s < min(nrows, ncols):
        # Move a nonzero entry of minimal magnitude to (s, s).
        best = None
        for i in range(s, nrows):
            for j in range(s, ncols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(s, best[0])
        swap_cols(s, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(s + 1, nrows):
                if a[i][s] != 0:
                    q = a[i][s] // a[s][s]
                    add_row(i, s, q)
                    if a[i][s] != 0:
                        swap_rows(s, i)
                        dirty = True
            for j in range(s + 1, ncols):
                if a[s][j] != 0:
                    q = a[s][j] // a[s][s]
                    add_col(j, s, q)
                    if a[s][j] != 0:
                        swap_cols(s, j)
                        dirty = True
        if a[s][s] < 0:
            negate_row(s)
        # Enforce divisibility of the trailing block by the pivot.
        offender = None
        for i in range(s + 1, nrows):
            for j in range(s + 1, ncols):
                if a[i][j] % a[s][s] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(s, offender, -1)
            continue
        s += 1
    return (tuple(tuple(row) for row in a),
            tuple(tuple(row) for row in u),
            tuple(tuple(row) for row in v))


def invariant_factors(m: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nontrivial invariant factors (>1) of an integer matrix."""
    d, _, _ = snf_with_transforms(m)
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i] not in (0, 1):
            out.append(abs(d[i][i]))
    return tuple(out)


def dual_lattice_quotient(a: Sequence[Sequence[int]]) -> list[QVec]:
    """Coset representatives of {v : a @ v integral} modulo Z^n.

    ``a`` must be square and nonsingular; the quotient has |det a| elements.
    """
    n = len(a)
    if n == 0:
        return [()]
    d, _, v = snf_with_transforms(a)
    reps: list[QVec] = []

    def rec(i: int, ks: list[int]):
        if i == n:
            frac = [Fraction(k, d[j][j]) for j, k in enumerate(ks)]
            vec = tuple(sum(Fraction(v[r][j]) * frac[j] for j in range(n)) % 1
                        for r in range(n))
            reps.append(vec)
            return
        for k in range(abs(d[i][i])):
            rec(i + 1, ks + [k])

    rec(0, [])
    return sorted(set(reps))


def int_kernel(m: Sequence[Sequence[int]]) -> list[IntVec]:
    """Saturated integer basis of {v : m @ v == 0}.

    ``m`` needs at least one row: with none there is no column count, and
    the result is ``[]``.  A row of zeros stands for no condition.
    """
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if ncols == 0:
        return []
    d, _, v = snf_with_transforms(m)
    rank = sum(1 for i in range(min(nrows, ncols)) if d[i][i] != 0)
    cols = transpose(v)
    return [tuple(int(x) for x in cols[j]) for j in range(rank, ncols)]


def left_int_kernel(m: Sequence[Sequence[int]]) -> list[IntVec]:
    """Saturated integer basis of {u : u @ m == 0}."""
    return int_kernel(transpose(m))


def in_integer_row_span(basis: Sequence[Sequence[int]], target: Sequence) -> bool:
    """Whether a rational vector lies in the Z-row-span of a lattice basis.

    The rows must be linearly independent, as ``coords_in_rows`` requires;
    ``hnf_rows`` turns any generating set into such a basis.
    """
    coeffs = coords_in_rows(basis, target)
    return coeffs is not None and all(c.denominator == 1 for c in coeffs)


def clear_denominators(v: Sequence) -> tuple[IntVec, int]:
    """Return (integer vector, d) with v == vector / d, for int or Fraction entries.

    A row of ints comes back unchanged (as a tuple), with d = 1.
    """
    if all(type(x) is int for x in v):
        return tuple(v), 1
    d = lcm(*[x.denominator for x in v])
    return tuple([x.numerator * (d // x.denominator) for x in v]), d


def normalize_mod1(v: Sequence) -> QVec:
    """Reduce a rational vector into [0, 1)^n coordinatewise."""
    return tuple(Fraction(x) % 1 for x in v)
