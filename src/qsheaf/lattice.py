"""Picard group, divisor classes, curve lattice, Mori cone and dominance.

The presentation 0 -> M -> Z^rays -> Pic -> 0 is diagonalized by unimodular
operations once, their inverse carried along; the Picard basis, the curve
lattice's dual basis and the section giving a relation its curve coordinates
are read off and fixed, so every report is reproducible.  One sweep over the
walls gives the Mori cone's facets, its pointedness and its extremal walls.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

from .fan import (Fan, PrimitiveCollection, _cached_property, locate_cone,
                  primitive_collections)
from .linalg import _dot, inverse, kernel_basis, smith_normal_form
from .poly import echo

_mul = operator.mul  # sum(map(_mul, u, v)) is linalg._dot without the call


class LatticeError(Exception):
    pass


class TorsionDetected(LatticeError):
    """Internal inconsistency: smooth complete fans have free Picard group."""


class NonIntegralCoefficient(LatticeError):
    """Never raised: cone coefficients are pairings with integral dual bases."""


class NonProjectiveFan(LatticeError):
    """The cone of wall curves is not pointed, so the fan is not projective."""


class IneffectiveClass(LatticeError):
    """A curve class outside the Mori cone was given where an effective one is required."""


def h0(x: int) -> int:
    """Sections of O(x) on the projective line: max(0, x+1)."""
    return x + 1 if x >= -1 else 0


def h1(x: int) -> int:
    """First cohomology of O(x) on the projective line: max(0, -x-1)."""
    return -x - 1 if x <= -1 else 0


@dataclass(frozen=True)
class CurveClass:
    """A curve class as coordinates in the curve basis plus its d-vector."""

    coords: tuple
    d: tuple

    def __add__(self, other: "CurveClass") -> "CurveClass":
        return CurveClass(tuple(map(operator.add, self.coords, other.coords)),
                          tuple(map(operator.add, self.d, other.d)))

    def __sub__(self, other: "CurveClass") -> "CurveClass":
        return CurveClass(tuple(map(operator.sub, self.coords, other.coords)),
                          tuple(map(operator.sub, self.d, other.d)))

    def __mul__(self, k: int) -> "CurveClass":
        return CurveClass(tuple(k * a for a in self.coords),
                          tuple(k * a for a in self.d))

    __rmul__ = __mul__

    def __neg__(self) -> "CurveClass":
        return self * -1

    def c1(self) -> int:
        """Pairing with the anticanonical class: sum of the d-vector."""
        return sum(self.d)


@dataclass(frozen=True)
class EquivClass:
    """Linear-equivalence class of toric divisors."""

    index: int
    members: tuple
    vec: tuple  # common divisor class in the Picard basis

    @property
    def size(self) -> int:
        return len(self.members)

    def d(self, beta: CurveClass) -> int:
        return beta.d[self.members[0]]


class ClassLattice:
    """Divisor-class and curve-class data of a fan; immutable once built."""

    def __init__(self, fan: Fan, divisor_classes, curve_basis_d, section):
        self.fan = fan
        self.pic_rank = len(curve_basis_d)
        self.divisor_classes = divisor_classes
        self.curve_basis_d = curve_basis_d
        self._section = section
        self._section_cols = tuple(zip(*section))

    # ---- curve classes --------------------------------------------------
    @property
    def zero_curve(self) -> CurveClass:
        return CurveClass((0,) * self.pic_rank, (0,) * self.fan.n_rays)

    def curve_from_coords(self, coords: Sequence[int]) -> CurveClass:
        coords = _ints(coords, "curve coordinate")
        if len(coords) != self.pic_rank:
            raise LatticeError(f"curve coordinates must have length {self.pic_rank}")
        return self._from_coords(coords)

    def _from_coords(self, coords: tuple) -> CurveClass:  # d_rho pairs coords with [D_rho]
        return CurveClass(coords, tuple([sum(map(_mul, coords, v)) for v in self.divisor_classes]))

    def from_mori(self, coeffs: Sequence[int]) -> CurveClass:
        """The class sum_j coeffs[j] * mori[j], by one product."""
        return self._from_coords(tuple([_dot(coeffs, col)
                                        for col in zip(*[g.coords for g in self.mori])]))

    def curve_from_d(self, d: Sequence[int]) -> CurveClass:
        d = _ints(d, "d-vector entry")
        if len(d) != self.fan.n_rays:
            raise LatticeError("d-vector length must equal the number of rays")
        return self._class(d)

    def _class(self, d: tuple) -> CurveClass:
        """The class of an int relation vector d, whose coordinates pair d with
        the section; they must give d back, which a d that is no relation fails."""
        beta = self._from_coords(tuple([sum(map(_mul, d, col)) for col in self._section_cols]))
        if beta.d != d:
            if any(_dot(d, col) for col in zip(*self.fan.rays)):
                raise LatticeError(f"{d} is not a relation among the rays")
            raise LatticeError("relation vector escapes the curve lattice")
        return beta

    def pairing(self, class_vec: Sequence[int], beta: CurveClass) -> int:
        """Intersection of a divisor class (Picard coordinates) with a curve."""
        return sum(int(w) * b for w, b in zip(class_vec, beta.coords))

    # ---- cached combinatorial structure ---------------------------------
    @_cached_property
    def equiv(self) -> tuple:
        return equiv_classes(self)

    @_cached_property
    def primitive_collections(self) -> tuple:
        return primitive_collections(self.fan)

    @_cached_property
    def primitive_relations(self) -> dict:
        """K -> (beta_K, [K^-]) for every primitive collection K, in
        collection order: Batyrev's primitive relation of K.

        Locates the sum of the rays of K inside the fan; the located cone's
        rays carry the (necessarily integral, necessarily positive)
        coefficients and contribute the multiset [K^-] of equivalence classes
        with multiplicity -d_c.  Linearly equivalent rays of the located cone
        are checked to carry identical coefficients.
        """
        fan, out = self.fan, {}
        walls = {w.d: w for w in self.walls}  # a wall's relation has its class already
        for K in self.primitive_collections:
            edges = K.edges
            sigma, coeffs = locate_cone(fan, tuple(map(sum, zip(*[fan.rays[rho]
                                                                  for rho in edges]))))
            if not set(sigma).isdisjoint(edges):
                raise LatticeError(
                    f"located cone {sigma} meets the primitive collection {edges}")
            d = [0] * fan.n_rays
            for rho in edges:
                d[rho] = 1
            for rho, c in zip(sigma, coeffs):
                d[rho] = -c
            d = tuple(d)
            beta = walls.get(d) or self._class(d)
            # primitive collections are unions of full equivalence classes: the
            # classes meeting K, which cover it, have no member outside it
            if sum(c.size for c in self.classes_of(edges)) != len(edges):
                raise LatticeError(
                    f"collection {edges} is not closed under linear equivalence")
            # the located cone is closed under linear equivalence, with equal coefficients
            kminus = self.classes_of(sigma)
            for c in kminus:
                if c.size > 1 and len({d[m] for m in c.members}) != 1:
                    raise LatticeError(
                        f"linearly equivalent rays {c.members} carry unequal coefficients")
            out[K] = (beta, tuple([(c, -d[c.members[0]]) for c in kminus]))
        return out

    @_cached_property
    def mori(self) -> tuple:
        return mori_generators(self)

    @_cached_property
    def walls(self) -> tuple:
        """Distinct classes of the fan's wall relations, in wall order; they
        span the Mori cone."""
        return tuple(map(self._class, dict.fromkeys(d for _, d in self.fan.walls)))

    @_cached_property
    def facets(self) -> tuple:
        """Primitive inward facet normals of the Mori cone."""
        return tuple(self._facet_walls)

    @_cached_property
    def _facet_walls(self) -> dict:
        """Each facet normal -> the bitmask of the walls it is tight on."""
        return cone_facets([w.coords for w in self.walls], self.pic_rank)

    @_cached_property
    def positive(self) -> CurveClass:
        """Effective curve class positive against every divisor class.

        The first nonnegative combination of the Mori generators, by
        coefficient sum and then lexicographically.  On a projective fan with
        ample class H the curve class H^(dim-1) meets every toric divisor
        positively, so some multiple of it is such a combination and the
        enumeration ends.  A candidate's d_c are sums of the generators' d_c.
        The walk over compositions cuts a prefix when some class stays <= 0
        even if everything left goes to its largest remaining d_c: no
        completion of that prefix is positive, so the first class is the same.
        The cut is linear in the next coefficient: where it bounds it, no
        coefficient outside the bound is tried.  The walk starts at
        `_packing_bound`, below which no combination is positive.
        """
        rows = [[g.d[c.members[0]] for g in self.mori] for c in self.equiv]  # d_c(g)
        n = len(self.mori)
        tops = [list(itertools.accumulate(row[::-1], max))[::-1] for row in rows]  # max(row[k:])

        def first(k: int, left: int, sums: list) -> Optional[tuple]:
            # generators k.. share `left`; sums are the classes' d over 0..k-1.
            # Every class has s + left * top[k] > 0: checked at k = 0, and
            # below it the a range keeps it (a class of slope 0 keeps its base)
            if k == 0 and any(left * top[0] <= 0 for top in tops):
                return None
            if k == n - 1:
                return (left,)
            lo, hi = 0, left  # the a passing the test one level down: a * slope + base > 0
            for s, row, top in zip(sums, rows, tops):
                slope, base = row[k] - top[k + 1], s + left * top[k + 1]
                if slope > 0:
                    lo = max(lo, -base // slope + 1)
                elif slope < 0:
                    hi = min(hi, (base - 1) // -slope)
            for a in range(lo, hi + 1):
                rest = first(k + 1, left - a, [s + a * row[k] for s, row in zip(sums, rows)])
                if rest is not None:
                    return (a,) + rest
            return None

        for total in itertools.count(_packing_bound(rows)):
            combo = first(0, total, [0] * len(rows))
            if combo is not None:
                return self.from_mori(combo)

    def is_effective(self, beta: CurveClass) -> bool:
        return self.is_effective_coords(beta.coords)

    def is_effective_coords(self, coords: Sequence[int]) -> bool:
        """Curve coordinates pair >= 0 with every facet normal of the Mori cone."""
        for u in self.facets:
            if sum(map(operator.mul, u, coords)) < 0:
                return False
        return True

    @_cached_property
    def _representatives(self) -> tuple:
        """The least ray of each equivalence class, in class order."""
        return tuple(c.members[0] for c in self.equiv)

    @_cached_property
    def _mori_solve(self) -> tuple:
        """(cols, den): the j-th Mori coordinate of a class is its curve
        coordinates paired with the integer cols[j], over den, their least
        common denominator; ((), None) unless the Mori generators form a
        basis of the curve space.  The inverse of the generator matrix."""
        matrix = list(zip(*(g.coords for g in self.mori)))  # generators as columns
        return len(self.mori) == self.pic_rank and inverse(matrix) or ((), None)

    @property
    def mori_is_basis(self) -> bool:
        """The Mori generators form a basis of the curve lattice, so every
        curve class has integer Mori coordinates."""
        return self._mori_solve[1] == 1

    def to_mori(self, coords: Sequence[int]) -> Optional[tuple]:
        """Curve coordinates rewritten in the Mori basis, as ints; None when
        they have no integer Mori coordinates."""
        cols, den = self._mori_solve
        if den is None:
            return None
        sol = tuple([sum(map(_mul, col, coords)) for col in cols])
        if den == 1:  # a Mori basis of the curve lattice
            return sol
        return None if any(x % den for x in sol) else tuple([x // den for x in sol])

    def mori_coordinates(self, beta: CurveClass) -> Optional[tuple]:
        """beta as a nonnegative integer combination of independent Mori
        generators, or None when it is none; used for display."""
        sol = self.to_mori(beta.coords)
        return None if sol is None or any(x < 0 for x in sol) else sol

    def classes_of(self, edges: Sequence[int]) -> tuple:
        """The equivalence classes meeting the given rays, in index order."""
        edges = set(edges)
        return tuple([c for c in self.equiv if not edges.isdisjoint(c.members)])


def class_lattice(fan: Fan) -> ClassLattice:
    """Compute Pic, the curve lattice and the facets of the Mori cone.

    Raises NonProjectiveFan when the cone of wall curves is not pointed:
    by Kleiman's criterion a complete toric variety is projective exactly
    when its cone of curves is (Cox-Little-Schenck, Toric Varieties, ch. 6).
    """
    n = fan.rank
    R, T, diag = smith_normal_form(fan.rays)
    if len(diag) != n or any(abs(d) != 1 for d in diag):
        raise TorsionDetected(
            f"ray matrix has diagonal form {diag}; expected all +-1 "
            "(smooth complete fans have torsion-free class groups)")
    # rows n.. of R: the curve basis, and by column the classes; of T: the section
    curve_basis_d = tuple(map(tuple, R[n:]))
    cl = ClassLattice(fan, tuple(zip(*R[n:])), curve_basis_d, tuple(zip(*T[n:])))
    # exactness: the rows of the ray matrix pair to zero with every class
    if any(sum(map(_mul, col, cls)) for col in zip(*fan.rays) for cls in curve_basis_d):
        raise TorsionDetected("Picard presentation failed exactness check")
    # the facet normals span Pic exactly when no wall lies on every facet: such
    # a wall spans a line the cone contains, or the cone is not full-dimensional
    if reduce(operator.and_, cl._facet_walls.values(), -1):
        raise NonProjectiveFan(
            "the cone of wall curves is not pointed (its facet normals do not "
            "span the Picard group), so the fan is not projective")
    return cl


def _ints(values: Sequence[int], what: str) -> tuple:
    """values as a tuple of ints; any other entry, a bool included, is refused."""
    values = tuple(values)
    for x in values:
        if type(x) is not int:
            raise LatticeError(f"{what} {echo(x)} is not an integer")
    return values


def _packing_bound(rows: Sequence[Sequence[int]]) -> int:
    """A lower bound >= 1 on the coefficient sum of a combination positive
    on every row: classes picked greedily, fewest positive entries first,
    with disjoint positive supports each need a generator of their own."""
    used = count = 0
    for mask in sorted((sum(1 << j for j, x in enumerate(row) if x > 0) for row in rows),
                       key=int.bit_count):
        if mask and not mask & used:
            used, count = used | mask, count + 1
    return max(1, count)


def cone_facets(gens: Sequence[Sequence[int]], dim: int) -> dict:
    """Primitive integer inward facet normals of the cone spanned by gens, in
    order of first appearance, each mapped to the bitmask of gens on it.

    Every rank dim-1 subset of generators has a one-dimensional kernel; its
    primitive normal is kept (with the sign that makes it inward) when all
    generators lie on one side.  Handles simplicial and non-simplicial cones
    alike.  The normals span Q^dim exactly when the cone is full-dimensional
    and pointed.
    """
    normals = {}
    for subset in itertools.combinations(gens, dim - 1):
        kernel = _normal(subset, dim)
        if kernel is None:
            continue
        pairs = [sum(map(_mul, kernel, v)) for v in gens]
        low, high = min(pairs, default=0), max(pairs, default=0)
        if low < 0 < high:
            continue
        u = tuple([-x for x in kernel]) if low < 0 else kernel
        normals.setdefault(u, sum(1 << i for i, x in enumerate(pairs) if not x))
    return normals


def _normal(rows: Sequence[Sequence[int]], dim: int) -> Optional[tuple]:
    """The kernel_basis vector of dim - 1 rows of length dim when their
    kernel is a line, else None: the primitive kernel vector whose last
    nonzero entry is positive.  Up to dim 3 it is the cross product of the
    rows (1 in dim 1) divided by its content, which has that sign."""
    if dim > 3:
        kernel = kernel_basis(rows, dim)
        return tuple(kernel[0]) if len(kernel) == 1 else None
    if dim == 3:
        (a, b, c), (d, e, f) = rows
        u = (b * f - c * e, c * d - a * f, a * e - b * d)
    else:
        u = (-rows[0][1], rows[0][0]) if dim == 2 else (1,)
    g = math.gcd(*u)
    if not g:
        return None
    if (u[-1] or u[-2] or u[0]) < 0:  # its last nonzero entry
        g = -g
    return tuple([x // g for x in u])


def equiv_classes(cl: ClassLattice) -> tuple:
    """Partition of the rays by equality of divisor class, ordered by least member."""
    groups = {}  # in order of first member
    for rho, vec in enumerate(cl.divisor_classes):
        groups.setdefault(vec, []).append(rho)
    return tuple([EquivClass(i, tuple(ms), vec) for i, (vec, ms) in enumerate(groups.items())])


def beta_K(cl: ClassLattice, K: PrimitiveCollection):
    """The curve class of a primitive collection and its negative part [K^-],
    as derived once in cl.primitive_relations."""
    rel = cl.primitive_relations.get(K)
    if rel is None:
        raise LatticeError(f"{K.edges} is not a primitive collection of this fan")
    return rel


def mori_generators(cl: ClassLattice) -> tuple:
    """Extremal wall-curve classes.

    A wall class spans an extremal ray of the pointed Mori cone exactly when
    the face cut out by the facets tight on it is its ray.  A face is spanned
    by the walls on it, and walls are primitive (they carry coefficient 1)
    and distinct, so that is when no other wall lies on all those facets.
    Generators matching some beta_K come first (in primitive-collection
    order) so that Novikov symbols line up with the quantum relations.
    """
    masks = cl._facet_walls.values()
    full = (1 << len(cl.walls)) - 1
    extremal = [g for i, g in enumerate(cl.walls)
                if reduce(operator.and_, (t for t in masks if t >> i & 1), full)
                == 1 << i]
    # deterministic numbering: beta_K matches first, then by d-vector
    front = []
    for bk, _ in cl.primitive_relations.values():
        if bk in extremal and bk not in front:
            front.append(bk)
    rest = sorted((g for g in extremal if g not in front), key=lambda b: b.d)
    return tuple(front + rest)


def dominates(cl: ClassLattice, beta_prime: CurveClass, beta: CurveClass) -> bool:
    """beta' dominates beta: beta'-beta effective and h0 rises classwise.

    Linearly equivalent rays share d, so the rays stand for their classes,
    and h0(x') >= h0(x) exactly when x' >= x or x < 0."""
    if not cl.is_effective_coords(tuple(map(operator.sub, beta_prime.coords, beta.coords))):
        return False
    for x1, x in zip(beta_prime.d, beta.d):
        if x1 < x and x >= 0:
            return False
    return True


def find_anchor(cl: ClassLattice, sectors: Sequence[CurveClass]) -> CurveClass:
    """Deterministic curve class dominating every given effective sector.

    The sum of the sectors plus the least positive multiple n of a fixed
    everywhere-positive effective class that dominates each sector.
    """
    if not sectors:
        raise LatticeError("anchor search requires at least one sector")
    for s in sectors:
        if not cl.is_effective_coords(s.coords):
            raise IneffectiveClass(f"sector {s.d} is not effective")
    positive = cl.positive
    # the base sums the sectors, column by column
    coords = tuple(map(sum, zip(*[s.coords for s in sectors])))
    base = tuple(map(sum, zip(*[s.d for s in sectors])))
    # base - s sums effective sectors, so only h0(d_c) bounds n from below:
    # d_c(base) + n * d_c(positive) >= d_c(s) wherever h0(d_c(s)) > 0, a
    # ceiling division as d_c(positive) > 0; the rays stand for their
    # classes, as in dominates
    n = 1
    for s in sectors:
        for x, b, p in zip(s.d, base, positive.d):
            if x >= 0:
                m = (x - b + p - 1) // p
                if m > n:
                    n = m
    return CurveClass(tuple(a + n * p for a, p in zip(coords, positive.coords)),
                      tuple(b + n * p for b, p in zip(base, positive.d)))


def effective_cones_coincide(cl: ClassLattice) -> bool:
    """Diagnostic: the beta_K span the same cone as the wall curves.

    They do exactly when every beta_K is effective and every Mori generator
    is some beta_K: a generating set of a pointed cone meets every extremal
    ray, and both kinds of class are primitive.
    """
    bks = {bk for bk, _ in cl.primitive_relations.values()}
    return all(cl.is_effective(b) for b in bks) and all(g in bks for g in cl.mori)
