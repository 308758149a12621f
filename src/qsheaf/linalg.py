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

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    for t in range(min(nr, nc)):
        # deterministic pivot: smallest |entry| != 0, earliest position; a
        # unit is the least, so the scan stops at the first one
        best = pi = pj = 0
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = abs(row[j])
                if x and (x < best or not best):
                    best, pi, pj = x, i, j
                    if x == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if a[t][t] < 0:
            a[t], r_mat[t] = [-x for x in a[t]], [-x for x in r_mat[t]]
            t_mat[t] = [-x for x in t_mat[t]]
        swapped = True
        while swapped:
            # clear column t below the pivot, then row t right of it; a
            # nonzero remainder is a strictly smaller pivot, swapped in, and
            # the pass repeats, so this terminates.  A pass with no swap
            # leaves both cleared.  Row i += k row t is undone on the
            # columns of R^-1: column t -= k column i.
            swapped = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    k = -(a[i][t] // a[t][t])
                    a[i] = [x + k * y for x, y in zip(a[i], a[t])]
                    r_mat[i] = [x + k * y for x, y in zip(r_mat[i], r_mat[t])]
                    t_mat[t] = [x - k * y for x, y in zip(t_mat[t], t_mat[i])]
                    if a[i][t]:
                        row_swap(t, i)
                        swapped = True
            if swapped:
                continue
            row = a[t]
            for j in range(t + 1, nc):
                if row[j]:
                    q = row[j] // row[t]
                    for other in a:  # column j -= q column t
                        if other[t]:
                            other[j] -= q * other[t]
                    if row[j]:
                        col_swap(t, j)
                        swapped = True
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
    pivots = []
    for c in range(len(m[0]) if nr else 0):
        r = len(pivots)
        if r == nr:
            break
        for sel in range(r, nr):
            if m[sel][c]:
                break
        else:
            continue
        row = m[sel]
        m[r], m[sel] = row, m[r]
        p = row[c]
        for i in range(nr):
            mi = m[i]
            a = mi[c]
            if a and i != r:
                k = math.gcd(p, a)
                pk, ak = p // k, a // k
                new = [pk * x - ak * y for x, y in zip(mi, row)]
                k = math.gcd(*new)
                m[i] = [x // k for x in new] if k > 1 else new
        pivots.append(c)
    return m, pivots


def inverse(rows: Sequence[Sequence[int]]) -> Optional[tuple]:
    """(inv, den) with rows^-1 = inv / den for a square integer matrix: inv
    an integer matrix and den > 0 the least common denominator of rows^-1;
    None when singular.  Up to 2x2 the adjugate over the determinant,
    divided by their content; else one fraction-free elimination of
    [rows | 1]: its rows have content 1, so row i of the inverse is
    m[i][n:] / m[i][i] in lowest terms, and den is the lcm of the pivots."""
    n = len(rows)
    if n in (1, 2):  # the adjugate over the determinant, in lowest terms
        if n == 2:
            (a, b), (c, d) = rows
            adj, det = (d, -b, -c, a), a * d - b * c
        else:
            adj, det = (1,), rows[0][0]
        if not det:
            return None
        g = math.gcd(det, *adj) if det > 0 else -math.gcd(det, *adj)
        return tuple([tuple([x // g for x in adj[i:i + n]]) for i in range(0, n * n, n)]), det // g
    m, pivots = _integer_rref([[*r] + [0] * i + [1] + [0] * (n - 1 - i)
                               for i, r in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    den = math.lcm(*[row[i] for i, row in enumerate(m)])
    return tuple([tuple([x * (den // row[i]) for x in row[n:]]) for i, row in enumerate(m)]), den


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return len(_integer_rref(rows)[1])


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
