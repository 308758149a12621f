"""The exact linear algebra kernel against plain rational elimination."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qsheaf.linalg import _primitive, inverse, kernel_basis, matrix_rank, smith_normal_form

from _oracles import kernel_by_fractions, rref_by_fractions, smith_by_min_scans

entries = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9),
              st.integers(min_value=1, max_value=12)),
    st.builds(Fraction, st.integers(min_value=-2 ** 80, max_value=2 ** 80),
              st.integers(min_value=1, max_value=2 ** 40)))


@st.composite
def matrices(draw):
    """Rational matrices, wide and tall, with zero rows and columns planted."""
    nr = draw(st.integers(min_value=0, max_value=6))
    nc = draw(st.integers(min_value=1, max_value=7))
    m = [[draw(entries) for _ in range(nc)] for _ in range(nr)]
    for i in draw(st.sets(st.integers(min_value=0, max_value=max(nr - 1, 0)), max_size=2)):
        if i < nr:
            m[i] = [0] * nc
    for j in draw(st.sets(st.integers(min_value=0, max_value=nc - 1), max_size=2)):
        for row in m:
            row[j] = Fraction(0)
    if nr and draw(st.booleans()):
        m.append([2 * x - y for x, y in zip(m[0], m[-1])])  # a dependent row
    return m


@given(st.lists(entries, max_size=8))
@settings(max_examples=150, deadline=None)
def test_primitive_content_is_a_reduced_pair_of_ints(coeffs):
    b, num, den = _primitive(coeffs)
    assert all(type(x) is int for x in b + [num, den]) and len(b) == len(coeffs)
    assert all(num * x == c * den for x, c in zip(b, coeffs))
    assert math.gcd(*b) == 1 or not any(b)
    assert math.gcd(num, den) == 1 and num > 0 and den > 0
    if not any(coeffs):
        assert (b, num, den) == ([0] * len(coeffs), 1, 1)


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_basis_matches_rational_elimination(m):
    width = len(m[0]) if m else 0
    pivots = rref_by_fractions(m)[1]
    # one primitive int vector per free column f, positive at f, a multiple
    # of the RREF vector (1 at f, 0 at the other free columns); f is its
    # last nonzero entry, so dividing by that entry gives the RREF vector back
    basis = kernel_basis(m, width)
    expected = kernel_by_fractions(m, width)
    assert len(basis) == len(expected)
    for vec, ref in zip(basis, expected):
        assert all(type(x) is int for x in vec) and math.gcd(*vec) == 1
        last = next(x for x in reversed(vec) if x)
        assert last > 0 and [Fraction(x, last) for x in vec] == ref
    assert matrix_rank(m) == len(pivots) == width - len(basis)
    assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in m for vec in basis)


@st.composite
def square_matrices(draw):
    """Square integer matrices, some with a dependent row planted."""
    n = draw(st.integers(min_value=1, max_value=5))
    m = [[draw(st.integers(min_value=-9, max_value=9)) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        m[-1] = [2 * x - y for x, y in zip(m[0], m[-2])]
    return m


@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_inverse_matches_rational_elimination(m):
    n = len(m)
    red, pivots = rref_by_fractions([row + [int(i == j) for j in range(n)]
                                     for i, row in enumerate(m)])
    if pivots != list(range(n)):
        assert matrix_rank(m) < n and inverse(m) is None
        return
    inv, den = inverse(m)
    ref = [row[n:] for row in red]
    assert [[Fraction(x, den) for x in row] for row in inv] == ref
    assert den == math.lcm(*(x.denominator for row in ref for x in row))


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=3),
                          st.integers(min_value=-4, max_value=4)), max_size=12),
       st.lists(st.sampled_from([1, -1]), min_size=4, max_size=4))
@settings(max_examples=80, deadline=None)
def test_inverse_of_a_unimodular_matrix_is_integral(ops, signs):
    # row additions and sign changes of the identity have determinant +-1
    m = [[s * int(i == j) for j in range(4)] for i, s in enumerate(signs)]
    for i, j, k in ops:
        if i != j:
            m[i] = [x + k * y for x, y in zip(m[i], m[j])]
    inv, den = inverse(m)
    assert den == 1
    assert [[sum(a * b for a, b in zip(row, col)) for col in zip(*inv)] for row in m] == \
        [[int(i == j) for j in range(4)] for i in range(4)]


def test_inverse_of_a_singular_matrix_is_none():
    assert inverse([[1, 2], [2, 4]]) is None
    assert inverse([[0, 0, 0], [1, 2, 3], [4, 5, 6]]) is None


@given(st.lists(st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
                min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_smith_carries_the_transpose_of_its_inverse(rows):
    # small entries other than +-1 make remainders, so pivot rows trade places
    # after a row addition and T's updated rows move below the pivots
    R, T, diag = smith_normal_form(rows)
    n = len(rows)
    assert [[sum(a * b for a, b in zip(r, t)) for t in T] for r in R] == \
        [[int(i == j) for j in range(n)] for i in range(n)]
    assert (tuple(map(tuple, zip(*T))), 1) == inverse(R)
    RA = [[sum(a * b for a, b in zip(r, col)) for col in zip(*rows)] for r in R]
    assert all(not any(row) for row in RA[len(diag):])


@given(st.lists(st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
                min_size=1, max_size=7),
       st.integers(min_value=1, max_value=3))
@settings(max_examples=300, deadline=None)
def test_smith_matches_the_full_scan_pivoting(rows, width):
    # the pivot scan stops at the first unit and a pass with no swap ends
    # the clearing; R, T and the diagonal are those of the full scans
    rows = [row[:width] for row in rows]
    R, T, diag = smith_normal_form(rows)
    assert (R, T, diag) == smith_by_min_scans(rows)
