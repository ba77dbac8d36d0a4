"""Properties of the exact elimination in ``linalg``.

Rank, inverse and coordinates come from one fraction-free routine, and the
determinant from Bareiss elimination; the Fraction eliminations they replaced
are the references (``helpers_oracle``).  The integer kernel, the
dual-lattice quotient and lattice indices are read off Hermite normal forms,
and are checked against what they claim: saturation by maximal minors, a
complete set of distinct cosets, and |det A| for the index of A·M in M.
Matrices have int, Fraction or mixed entries, zero rows, and wide and tall
shapes.
"""

from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers_oracle import (
    fraction_coords_in_rows,
    fraction_det,
    fraction_in_integer_row_span,
    fraction_invert,
    fraction_rank,
)
from tracestab.linalg import (
    bareiss_pivots,
    clear_denominators,
    coords_in_rows,
    det,
    dual_lattice_quotient,
    hnf_rows,
    identity_matrix,
    int_kernel,
    invert,
    mat_mul,
    mat_vec,
    matrix_rank,
    pivot_product,
)

INTS = st.integers(-3, 3)
FRACTIONS = st.fractions(-3, 3, max_denominator=4)
MIXED = st.one_of(INTS, FRACTIONS)  # int rows, Fraction rows and rows of both
ENTRIES = pytest.mark.parametrize("entries", [INTS, FRACTIONS, MIXED],
                                  ids=["int", "fraction", "mixed"])
PROPERTY = settings(max_examples=60, deadline=None)


def matrices(entries, nrows, ncols):
    """Matrices of the given shape strategies; some rows are all zero."""
    def build(shape):
        n, k = shape
        row = st.one_of(st.just((0,) * k), st.tuples(*[entries] * k))
        return st.lists(row, min_size=n, max_size=n).map(tuple)

    return st.tuples(nrows, ncols).flatmap(build)


def combination(coeffs, rows, ncols):
    return tuple(sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0))
                 for j in range(ncols))


@ENTRIES
@PROPERTY
@given(data=st.data())
def test_matrix_rank_matches_fraction_elimination(entries, data):
    m = data.draw(matrices(entries, st.integers(0, 5), st.integers(1, 5)))
    assert matrix_rank(m) == fraction_rank(m)


@ENTRIES
@PROPERTY
@given(data=st.data())
def test_invert_is_inverse_and_singular_exactly_when_det_vanishes(entries, data):
    n = data.draw(st.integers(0, 4))
    m = data.draw(matrices(entries, st.just(n), st.just(n)))
    if det(m) == 0:
        with pytest.raises(ValueError):
            invert(m)
        with pytest.raises(ValueError):
            fraction_invert(m)
        return
    inv = invert(m)
    assert inv == fraction_invert(m)
    assert mat_mul(inv, m) == identity_matrix(n) == mat_mul(m, inv)


@pytest.mark.parametrize("m", [((1, 2),), ((1,), (2,)), ((1, 0), (0,))])
def test_invert_refuses_a_non_square_matrix(m):
    # Elimination on the augmented rows would return ((2, 1),) for ((1, 2),).
    with pytest.raises(ValueError, match="not square"):
        invert(m)


def test_det_of_fraction_matrices():
    half = Fraction(1, 2)
    assert det(((half, 0), (0, half))) == Fraction(1, 4)
    assert det(((Fraction(1, 3), half), (Fraction(1, 5), Fraction(1, 7)))) == Fraction(-11, 210)


def test_clear_denominators_keeps_integer_rows():
    row = (3, -1, 0)
    assert clear_denominators(row) == (row, 1) and clear_denominators(row)[0] is row
    assert clear_denominators([3, -1]) == ((3, -1), 1)
    assert clear_denominators((Fraction(1, 2), 3, Fraction(-2, 3))) == ((3, 18, -4), 6)
    assert clear_denominators((Fraction(4), 1)) == ((4, 1), 1)
    assert clear_denominators(()) == ((), 1)


@ENTRIES
@PROPERTY
@given(data=st.data())
def test_det_matches_fraction_elimination(entries, data):
    n = data.draw(st.integers(0, 4))
    m = data.draw(matrices(entries, st.just(n), st.just(n)))
    assert det(m) == fraction_det(m)


@PROPERTY
@given(m=st.integers(0, 5).flatmap(lambda n: matrices(INTS, st.just(n), st.just(n))))
def test_bareiss_pivots_are_leading_minors_up_to_the_first_zero_and_end_at_det(m):
    minors = [fraction_det([row[:k] for row in m[:k]]) for k in range(1, len(m) + 1)]
    leading = minors[:next((k + 1 for k, x in enumerate(minors) if x == 0), len(minors))]
    pivots = bareiss_pivots(m)
    assert pivots[:len(leading)] == leading
    assert (pivots[-1] if pivots else 1) == fraction_det(m)


@ENTRIES
@PROPERTY
@given(data=st.data())
def test_coords_in_rows(entries, data):
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(0, n + 1))
    rows = data.draw(matrices(entries, st.just(k), st.just(n)))
    if data.draw(st.booleans()):
        v = combination(data.draw(st.lists(entries, min_size=k, max_size=k)), rows, n)
    else:
        v = data.draw(st.tuples(*[entries] * n))
    got = coords_in_rows(rows, v)
    assert (got is not None) == (fraction_rank(rows + (v,)) == fraction_rank(rows))
    if got is not None:
        assert combination(got, rows, n) == v
    if fraction_rank(rows) == k:  # independent rows: the coefficients are unique
        assert got == fraction_coords_in_rows(rows, v)


@PROPERTY
@given(data=st.data())
def test_fraction_in_integer_row_span_brute_force(data):
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, min(n, 3)))
    basis = tuple(data.draw(st.lists(st.tuples(*[INTS] * n), min_size=k, max_size=k)))
    assume(fraction_rank(basis) == k)
    # Zero rows and integer combinations of the basis leave the Z-span alone.
    extras = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                                max_size=3))
    rows = data.draw(st.permutations(list(basis) + [tuple(map(int, combination(cs, basis, n)))
                                                    for cs in extras]))
    # target = Σ (cᵢ/q)·bᵢ, its coefficients unique, so the box below is exact;
    # or that plus a unit vector off the Q-span, which nothing reaches.
    cs = data.draw(st.lists(INTS, min_size=k, max_size=k))
    q = data.draw(st.integers(1, 3))
    target = [x / q for x in combination(cs, basis, n)]
    off = data.draw(st.none() | st.integers(0, n - 1))
    if off is not None:
        unit = tuple(int(j == off) for j in range(n))
        assume(fraction_rank(basis + (unit,)) > k)
        target[off] += 1
    expected = any(combination(c, basis, n) == tuple(target)
                   for c in product(range(-3, 4), repeat=k))
    assert fraction_in_integer_row_span(rows, target) is expected


@PROPERTY
@given(data=st.data())
def test_pivot_product_ratio_is_the_lattice_index(data):
    """M = A·M′ lies in M′ with the same Q-span and index |det A|: a ratio of pivot products."""
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(0, min(n, 3)))
    basis = tuple(data.draw(st.lists(st.tuples(*[INTS] * n), min_size=k, max_size=k)))
    assume(fraction_rank(basis) == k)
    a = data.draw(st.lists(st.tuples(*[INTS] * k), min_size=k, max_size=k))
    index = abs(fraction_det(a))
    assume(index != 0)
    sub = [tuple(sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(n))
           for coeffs in a]
    outer, inner = pivot_product(hnf_rows(basis)), pivot_product(hnf_rows(sub))
    assert inner == index * outer


@PROPERTY
@given(matrices(INTS, st.integers(1, 4), st.integers(1, 5)))
def test_int_kernel_is_killed_and_has_corank_many_vectors(m):
    kernel = int_kernel(m)
    assert len(kernel) == len(m[0]) - fraction_rank(m)
    assert fraction_rank(kernel) == len(kernel)
    for v in kernel:
        assert mat_vec(m, v) == (0,) * len(m)


def _maximal_minor_gcd(rows):
    k, n = len(rows), len(rows[0])
    return gcd(*(int(fraction_det([[row[j] for j in cols] for row in rows]))
                 for cols in combinations(range(n), k)))


@PROPERTY
@given(matrices(INTS, st.integers(1, 4), st.integers(1, 5)))
def test_int_kernel_is_saturated_and_in_hermite_form(m):
    # gcd of the maximal minors is 1 exactly when the rows span their saturation.
    kernel = int_kernel(m)
    if kernel:
        assert _maximal_minor_gcd(kernel) == 1
    assert hnf_rows(kernel) == kernel


@PROPERTY
@given(st.integers(0, 3).flatmap(
    lambda n: st.lists(st.tuples(*[INTS] * n), min_size=n, max_size=n).map(tuple)))
def test_dual_lattice_quotient_is_det_many_distinct_cosets(a):
    assume(fraction_det(a) != 0)
    reps = dual_lattice_quotient(a)
    assert len(reps) == abs(fraction_det(a))
    assert len(set(reps)) == len(reps) and reps == sorted(reps)
    for v in reps:
        assert all(0 <= x < 1 for x in v)
        assert all(x.denominator == 1 for x in map(Fraction, mat_vec(a, v)))


def test_int_kernel_needs_a_row():
    assert int_kernel(()) == []  # no row, so no column count
    assert int_kernel(((0, 0, 0),)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
