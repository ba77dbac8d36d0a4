"""Exact linear algebra over the integers and rationals.

Everything here works on tuples of ints or Fractions; no floats ever enter.
Matrices are tuples of row tuples, vectors are flat tuples, and matrices act
on column vectors (``mat_vec(M, v) == M @ v``).

Elimination over Q has one routine, the fraction-free Gauss–Jordan
``_echelon``; ``matrix_rank``, ``invert`` and ``coords_in_rows`` are built
on it.  ``det`` is the last of ``bareiss_pivots``; both scale each row to
integers up front with ``clear_denominators``.  Over Z there is one normal
form, the row-style Hermite ``hnf_rows``: ``int_kernel`` and
``dual_lattice_quotient`` read the kernel and the dual-lattice quotient off
it, and ``pivot_product`` every lattice index (Cohen, *A Course in
Computational Algebraic Number Theory*, §2.4).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
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


def minus_identity(m: Sequence[Sequence]) -> tuple:
    """m − 1 for a square matrix m: θ − 1 on a twist, w − 1 on a Weyl-coset element."""
    return tuple(tuple(x - (i == j) for j, x in enumerate(row)) for i, row in enumerate(m))


def integer_rows(m, error: type[Exception]) -> IntMat:
    """``m`` as rows of ints; an entry whose value is not an integer raises ``error``."""
    m = tuple(tuple(row) for row in m)
    out = tuple(tuple(int(x) for x in row) for row in m)
    if out != m:
        raise error(f"entry {next(x for row in m for x in row if int(x) != x)} is not an integer")
    return out


def transpose(m: Sequence[Sequence]) -> tuple:
    if not m:
        return ()
    return tuple(zip(*[tuple(row) for row in m]))


def mat_vec(m: Sequence[Sequence], v: Sequence) -> tuple:
    return tuple(dot(row, v) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def bareiss_pivots(m: Sequence[Sequence[int]]) -> list[int]:
    """The pivots of fraction-free (Bareiss) elimination of a square integer matrix.

    Up to the first 0 they are its leading principal minors by size.  A 0 is
    recorded, then its row is exchanged with a lower one that is nonzero in its
    column, if any; later pivots carry the exchanges' sign, so the last is det.
    """
    rows = [list(row) for row in m]
    n, sign, prev, out = len(rows), 1, 1, []
    for k in range(n):
        if rows[k][k] == 0:
            out.append(0)
            pivot = next((r for r in range(k + 1, n) if rows[r][k] != 0), None)
            if pivot is None:
                return out
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        pk, row_k = rows[k][k], rows[k]
        out.append(sign * pk)
        for row in rows[k + 1:]:
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pk - factor * row_k[j]) // prev  # exact division
        prev = pk
    return out


def det(m: Sequence[Sequence]) -> Fraction:
    """Determinant of a rational matrix, as a Fraction; the 0x0 matrix has 1."""
    rows = [clear_denominators(row) for row in m]
    pivots = bareiss_pivots([int_row for int_row, _ in rows]) or [1]
    return Fraction(pivots[-1], prod(scale for _, scale in rows))


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
    """Inverse over Q; raises ValueError on a singular or non-square matrix."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix is not square")
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
        pivot = next((r for r in range(row_idx, len(work)) if work[r][col] != 0), None)
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
    work = work[:row_idx]
    # Reduce entries above each pivot.
    for r, row in enumerate(work):
        col = next(i for i, a in enumerate(row) if a != 0)
        for above in range(r):
            q = work[above][col] // row[col]
            if q:
                work[above] = [a - q * b for a, b in zip(work[above], row)]
    return [tuple(row) for row in work]


def pivot_product(basis: Sequence[Sequence[int]]) -> int:
    """The product of a Hermite basis's pivots, its rows' first nonzero entries.

    Lattices M ⊆ M′ with the same Q-span have their pivots in the same
    columns, so [M′ : M] = pivot_product(M) / pivot_product(M′).
    """
    return prod(next(x for x in row if x) for row in basis)


def dual_lattice_quotient(a: Sequence[Sequence[int]]) -> list[QVec]:
    """Coset representatives of {v : a @ v integral} modulo Z^n, sorted.

    ``a`` must be square and nonsingular.  v ↦ a·v identifies the quotient
    with Z^n / aZ^n, whose Hermite basis (``hnf_rows`` of aᵀ) is upper
    triangular: the box 0 ≤ uᵢ < hᵢᵢ holds one u per coset, so the
    representatives are a⁻¹u mod 1, |det a| = Π hᵢᵢ of them.
    """
    h = hnf_rows(transpose(a))
    a_inv = invert(a)
    return sorted(normalize_mod1(mat_vec(a_inv, u))
                  for u in product(*(range(row[i]) for i, row in enumerate(h))))


def int_kernel(m: Sequence[Sequence[int]]) -> list[IntVec]:
    """Saturated integer basis of {v : m @ v == 0}, in Hermite normal form.

    The lattice spanned by [mᵀ | I] holds (m·c, c) for every integer c, and
    its Hermite rows whose first block is zero span exactly the c with
    m·c = 0.  ``m`` needs at least one row: with none there is no column
    count, and the result is ``[]``.  A row of zeros stands for no condition.
    """
    if not m or not m[0]:
        return []
    r = len(m)
    rows = [col + unit for col, unit in zip(transpose(m), identity_matrix(len(m[0])))]
    return [row[r:] for row in hnf_rows(rows) if not any(row[:r])]


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
