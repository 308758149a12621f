"""Exact integer and rational linear algebra used by the geometric layers.

Inputs are plain Python ints or fractions.Fraction; no floating point is
permitted anywhere in the kernel.  Elimination is fraction-free (Bareiss,
Math. Comp. 22, 1968): rows are kept as primitive integer vectors and a
content is carried as a pair of ints.  No function returns Fractions.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional, Sequence


def smith_normal_form(rows: Sequence[Sequence[int]]):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (R, T, diag) with R @ A @ C = D for some unimodular C, where R
    is unimodular, T is the transpose of R^-1 and diag lists the diagonal of
    D.  Every row operation on R is undone on the columns of R^-1, i.e. on
    the rows of T, so no inverse is taken.  Column operations are not
    tracked; callers only need the row side.  The diagonal is left as the
    pivoting produces it, with no entry made to divide the next: a
    full-rank A has a free cokernel exactly when it is all +-1.
    Pivoting is deterministic (smallest absolute value, then position), so
    the output is platform independent.
    """
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if nr else 0
    r_mat = [[0] * i + [1] + [0] * (nr - 1 - i) for i in range(nr)]
    t_mat = [r[:] for r in r_mat]

    def row_swap(i, j):
        a[i], a[j], r_mat[i], r_mat[j] = a[j], a[i], r_mat[j], r_mat[i]
        t_mat[i], t_mat[j] = t_mat[j], t_mat[i]

    def row_add(i, j, k):  # row i += k row j: column j of R^-1 -= k column i
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]
        r_mat[i] = [x + k * y for x, y in zip(r_mat[i], r_mat[j])]
        t_mat[j] = [x - k * y for x, y in zip(t_mat[j], t_mat[i])]

    def row_neg(i):
        a[i], r_mat[i] = [-x for x in a[i]], [-x for x in r_mat[i]]
        t_mat[i] = [-x for x in t_mat[i]]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def clear_step(t: int) -> bool:
        # deterministic pivot: smallest |entry| != 0, earliest position
        pivot = min(((abs(a[i][j]), i, j) for i in range(t, nr) for j in range(t, nc)
                     if a[i][j]), default=None)
        if pivot is None:
            return False
        _, pi, pj = pivot
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if a[t][t] < 0:
            row_neg(t)
        while True:
            # clear column t below the pivot; a nonzero remainder is a
            # strictly smaller pivot, so this terminates
            for i in range(t + 1, nr):
                if a[i][t]:
                    row_add(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t]:
                        row_swap(t, i)
            if any(a[i][t] for i in range(t + 1, nr)):
                continue
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for row in a:  # column j -= q column t
                        row[j] -= q * row[t]
                    if a[t][j]:
                        col_swap(t, j)
            if any(a[t][j] for j in range(t + 1, nc)):
                continue
            if any(a[i][t] for i in range(t + 1, nr)):
                continue
            break
        return True

    t = 0
    while t < min(nr, nc) and clear_step(t):
        t += 1
    diag = [a[i][i] for i in range(min(nr, nc))]
    return r_mat, t_mat, diag


def _dot(u: Sequence, v: Sequence):
    return sum(map(operator.mul, u, v))


def _primitive(coeffs) -> tuple:
    """(b, num, den): coeffs = num / den * b for exact rationals (ints or
    Fractions), b ints of content 1 (or all zero, num = den = 1), num / den
    > 0 in lowest terms: a prime's full power in den divides some entry's
    denominator, so that entry's scaled numerator, hence g, is prime to it."""
    try:  # all ints: no denominator to clear
        g, den = math.gcd(*coeffs) or 1, 1
    except TypeError:  # a Fraction among them
        den = math.lcm(*[x.denominator for x in coeffs])
        coeffs = [x.numerator * (den // x.denominator) for x in coeffs]
        g = math.gcd(*coeffs) or 1
    return [x // g for x in coeffs], g, den


def _integer_rref(rows: Sequence[Sequence]) -> tuple:
    """(m, pivots): integer rows whose pivot-normalized form is the RREF.

    Fraction-free Gauss-Jordan: every row is cleared to its primitive
    integer multiple, and eliminating a pivot column from another row scales
    that row by pivot / gcd instead of dividing, then removes its content.
    Each row stays a nonzero multiple of the rational elimination's row, so
    the pivots, and the rows below the rank (all zero), are the same."""
    m = [_primitive(r)[0] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        sel = next((i for i in range(r, nr) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        row, p = m[r], m[r][c]
        for i in range(nr):
            a = m[i][c]
            if i != r and a:
                k = math.gcd(p, a)
                new = [p // k * x - a // k * y for x, y in zip(m[i], row)]
                k = math.gcd(*new)
                m[i] = [x // k for x in new] if k > 1 else new
        pivots.append(c)
        r += 1
    return m, pivots


def inverse(rows: Sequence[Sequence[int]]) -> Optional[tuple]:
    """(inv, den) with rows^-1 = inv / den for a square integer matrix: inv
    an integer matrix and den > 0 the least common denominator of rows^-1;
    None when singular.  One fraction-free elimination of [rows | 1]: its
    rows have content 1, so row i of the inverse is m[i][n:] / m[i][i] in
    lowest terms, and den is the lcm of the pivots."""
    n = len(rows)
    m, pivots = _integer_rref([[*r] + [0] * i + [1] + [0] * (n - 1 - i)
                               for i, r in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    den = math.lcm(*[row[i] for i, row in enumerate(m)])
    return tuple([tuple([x * (den // row[i]) for x in row[n:]]) for i, row in enumerate(m)]), den


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(_integer_rref(rows)[1])


def rank_mod(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over GF(p), p prime, of a matrix of ints read modulo p."""
    m = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        sel = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if sel is None:
            continue
        m[rank], m[sel] = m[sel], m[rank]
        inv = pow(m[rank][c], -1, p)
        row = m[rank] = [x * inv % p for x in m[rank]]
        for i in range(rank + 1, len(m)):
            a = m[i][c]
            if a:
                m[i] = [(x - a * y) % p for x, y in zip(m[i], row)]
        rank += 1
    return rank


def kernel_basis(rows: Sequence[Sequence[Fraction]], width: int) -> list:
    """Integer basis of the kernel of the matrix with the given rows: per
    free column f, the primitive multiple, positive at f, of the RREF kernel
    vector (1 at f, 0 at the other free columns, and -row[f] / row[p] at each
    pivot p of the fraction-free rows).  A pivot row's entries before its
    pivot are 0, so f is the vector's last nonzero entry."""
    m, pivots = _integer_rref(rows)
    basis = []
    for f in [j for j in range(width) if j not in pivots]:
        den = math.lcm(*[row[p] for row, p in zip(m, pivots) if row[f]])
        vec = [0] * width
        vec[f] = den
        for row, p in zip(m, pivots):
            vec[p] = -row[f] * (den // row[p])
        basis.append(_primitive(vec)[0])
    return basis
