"""Correctness oracles for correlator series that hold for any anchor.

A series reports sector correlators against one anchor sector, so only
ratios inside one series are intrinsic.  Every check here therefore divides
a series by its first nonzero coefficient (sectors ordered by d-vector) and
compares the normalised values with an expectation computed without the
package's Groebner machinery:

* tangent (P^1)^k: the multinomial closed form;
* other tangent bundles: monomial correlators recorded from a reference
  commit (``recorded.json``), recombined for the seeded insertion;
* deformed (P^1)^k: the socle functional of the complete-intersection
  sector ring, found by plain linear algebra over the rationals.

Oracles read only public data attributes of package objects (``d``,
``divisor_classes``); they call no package function, so a traced run sees
no spans from them.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from fractions import Fraction

RECORDED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "recorded.json")


def d_key(d) -> str:
    return ",".join(str(x) for x in d)


def normalised(values: dict) -> dict:
    """Nonzero values divided by the one with the smallest d-vector."""
    nonzero = {k: v for k, v in values.items() if v}
    if not nonzero:
        return {}
    first = nonzero[min(nonzero, key=lambda k: tuple(int(x) for x in k.split(",")))]
    return {k: Fraction(v) / first for k, v in nonzero.items()}


def compare_series(series, expected: dict):
    """None when the report's series matches `expected` up to one scale."""
    got = normalised({d_key(beta.d): coeff for beta, coeff in series})
    want = normalised(expected)
    if not want:
        return None if not got else f"expected a zero series, got {sorted(got)}"
    if set(got) != set(want):
        return f"sector support {sorted(got)} != expected {sorted(want)}"
    for k in sorted(want):
        if got[k] != want[k]:
            return f"sector d={k}: ratio {got[k]} != expected {want[k]}"
    return None


def multinomial(n: int, parts) -> int:
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


# ---- tangent (P^1)^k -------------------------------------------------------

def p1_power_tangent(k: int, slice_d, ray_coeffs) -> dict:
    """<L^N>_beta on the tangent bundle of (P^1)^k, up to one global scale.

    With L = sum_i b_i H_i and beta of degree a_i on the i-th factor,
    <L^N>_beta = N! / prod (2a_i+1)! * prod b_i^(2a_i+1), N = k + sum 2a_i.
    Rays 2i and 2i+1 are the two points of the i-th factor, both of class H_i.
    """
    b = [ray_coeffs[2 * i] + ray_coeffs[2 * i + 1] for i in range(k)]
    out = {}
    for d in slice_d:
        a = [d[2 * i] for i in range(k)]
        parts = [2 * x + 1 for x in a]
        value = Fraction(multinomial(sum(parts), parts))
        for bi, p in zip(b, parts):
            value *= Fraction(bi) ** p
        out[d_key(d)] = value
    return out


# ---- recorded monomial correlators ----------------------------------------

def independent_rays(divisor_classes) -> tuple:
    """First rays (in order) whose classes form a basis of Pic tensor Q."""
    chosen, rows = [], []
    for rho, vec in enumerate(divisor_classes):
        trial = rows + [[Fraction(x) for x in vec]]
        if _rank(trial) == len(trial):
            chosen.append(rho)
            rows = trial
    return tuple(chosen)


def coordinates_in(divisor_classes, basis_rays, ray_coeffs) -> list:
    """x with sum_rho c_rho [D_rho] = sum_b x_b [D_b]."""
    r = len(basis_rays)
    target = [sum(Fraction(c) * divisor_classes[rho][k] for rho, c in enumerate(ray_coeffs))
              for k in range(r)]
    # columns are the basis classes; solve the square system exactly
    rows = [[Fraction(divisor_classes[b][k]) for b in basis_rays] + [target[k]]
            for k in range(r)]
    _rref_in_place(rows, r)
    return [rows[i][r] for i in range(r)]


@functools.lru_cache(maxsize=1)
def load_recorded() -> dict:
    with open(RECORDED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def recorded_tangent(entry: dict, x) -> dict:
    """Recombine recorded <prod D_b^m_b>_beta into <L^N>_beta for L = sum x_b D_b."""
    out = {}
    for dk, row in entry["values"].items():
        total = Fraction(0)
        for mono_text, value in row.items():
            m = tuple(int(e) for e in mono_text.split(","))
            term = Fraction(multinomial(sum(m), m)) * Fraction(value)
            for xb, e in zip(x, m):
                term *= xb ** e
            total += term
        out[dk] = total
    return out


# ---- deformed (P^1)^k: complete-intersection socle ------------------------

def _pmul(a: dict, b: dict) -> dict:
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _ppow(a: dict, e: int, nv: int) -> dict:
    out = {(0,) * nv: Fraction(1)}
    for _ in range(e):
        out = _pmul(out, a)
    return out


def monomials(nv: int, deg: int) -> list:
    """Exponent vectors of all monomials of degree `deg` in `nv` variables."""
    return [tuple(sum(1 for x in combo if x == i) for i in range(nv))
            for combo in itertools.combinations_with_replacement(range(nv), deg)]


def _rank(rows) -> int:
    rows = [list(r) for r in rows]
    return _rref_in_place(rows, len(rows[0]) if rows else 0)


def _rref_in_place(rows, ncols: int) -> int:
    """Row-reduce the first `ncols` columns; returns the rank."""
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / Fraction(rows[rank][col])
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _socle_functional(gens, nv: int, deg: int) -> dict:
    """The functional on degree-`deg` monomials that kills the ideal there.

    Raises ValueError unless it is unique up to scale (a one-dimensional
    top piece, as for a complete intersection in its socle degree).
    """
    monos = monomials(nv, deg)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        gdeg = sum(next(iter(g)))
        for shift in monomials(nv, deg - gdeg):
            row = [Fraction(0)] * len(monos)
            for m, c in g.items():
                row[index[tuple(x + y for x, y in zip(m, shift))]] = c
            rows.append(row)
    rank = _rref_in_place(rows, len(monos))
    if rank != len(monos) - 1:
        raise ValueError(f"socle degree {deg} has dimension {len(monos) - rank}")
    pivots = {}
    for i in range(rank):
        col = next(c for c, v in enumerate(rows[i]) if v)
        pivots[col] = i
    (free,) = [c for c in range(len(monos)) if c not in pivots]
    # the null vector of the reduced rows, with the free coordinate set to 1
    lam = [Fraction(0)] * len(monos)
    lam[free] = Fraction(1)
    for col, i in pivots.items():
        lam[col] = -rows[i][free]
    return {m: lam[i] for m, i in index.items()}


def deformed_p1_power(k: int, eps, slice_d, ray_coeffs) -> dict:
    """<L^N>_beta on deformed (P^1)^k with Q_i = H_i^2 - eps_i H_(i+1 mod k)^2.

    The sector ring of beta (degrees a_i) is Q[H]/(Q_i^(a_i+1)), a complete
    intersection; against an anchor A it contributes
    lambda_A(prod_i Q_i^(A_i - a_i) * L^N), lambda_A the socle functional
    of the anchor ring.  No obstruction factor appears (every d_c >= 0).
    """
    if not slice_d:
        return {}
    unit = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
    q = []
    for i in range(k):
        j = (i + 1) % k
        q.append({tuple(2 * x for x in unit[i]): Fraction(1),
                  tuple(2 * x for x in unit[j]): -Fraction(eps[i])})
    degrees = [[d[2 * i] for i in range(k)] for d in slice_d]
    anchor = [max(a[i] for a in degrees) for i in range(k)]
    top = sum(2 * (x + 1) for x in anchor) - k
    lam = _socle_functional([_ppow(q[i], anchor[i] + 1, k) for i in range(k)], k, top)
    lin = {unit[i]: Fraction(ray_coeffs[2 * i] + ray_coeffs[2 * i + 1]) for i in range(k)}
    power = _ppow(lin, k + sum(2 * x for x in degrees[0]), k)
    out = {}
    for d, a in zip(slice_d, degrees):
        image = power
        for i in range(k):
            image = _pmul(image, _ppow(q[i], anchor[i] - a[i], k))
        out[d_key(d)] = sum((c * lam[m] for m, c in image.items()), Fraction(0))
    return out
