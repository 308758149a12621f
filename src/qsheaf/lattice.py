"""Picard group, divisor classes, curve lattice, Mori cone and dominance.

The presentation 0 -> M -> Z^rays -> Pic -> 0 is diagonalized by unimodular
operations once; the chosen Picard basis and the dual basis of the curve
(relation) lattice are read off the transform and fixed for the lifetime of
the lattice, so every report is reproducible.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .fan import Fan, PrimitiveCollection, locate_cone, primitive_collections
from .linalg import _dot, inverse, kernel_basis, matrix_rank, smith_normal_form


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

    # ---- curve classes --------------------------------------------------
    @property
    def zero_curve(self) -> CurveClass:
        return CurveClass((0,) * self.pic_rank, (0,) * self.fan.n_rays)

    def curve_from_coords(self, coords: Sequence[int]) -> CurveClass:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.pic_rank:
            raise LatticeError(f"curve coordinates must have length {self.pic_rank}")
        d = tuple(sum(c * basis[rho] for c, basis in zip(coords, self.curve_basis_d))
                  for rho in range(self.fan.n_rays))
        return CurveClass(coords, d)

    def from_mori(self, coeffs: Sequence[int]) -> CurveClass:
        """The class sum_j coeffs[j] * mori[j]."""
        beta = self.zero_curve
        for a, g in zip(coeffs, self.mori):
            beta = beta + a * g
        return beta

    def curve_from_d(self, d: Sequence[int]) -> CurveClass:
        d = tuple(int(x) for x in d)
        if len(d) != self.fan.n_rays:
            raise LatticeError("d-vector length must equal the number of rays")
        if any(_dot(d, col) for col in zip(*self.fan.rays)):
            raise LatticeError(f"{d} is not a relation among the rays")
        coords = tuple(sum(d[rho] * self._section[rho][k]
                           for rho in range(self.fan.n_rays))
                       for k in range(self.pic_rank))
        beta = self.curve_from_coords(coords)
        if beta.d != d:
            raise LatticeError("relation vector escapes the curve lattice")
        return beta

    def pairing(self, class_vec: Sequence[int], beta: CurveClass) -> int:
        """Intersection of a divisor class (Picard coordinates) with a curve."""
        return sum(int(w) * b for w, b in zip(class_vec, beta.coords))

    # ---- cached combinatorial structure ---------------------------------
    @cached_property
    def equiv(self) -> tuple:
        return equiv_classes(self)

    @cached_property
    def primitive_collections(self) -> tuple:
        return primitive_collections(self.fan)

    @cached_property
    def primitive_relations(self) -> dict:
        """K -> (beta_K, [K^-]) for every primitive collection K, in
        collection order: Batyrev's primitive relation of K.

        Locates the sum of the rays of K inside the fan; the located cone's
        rays carry the (necessarily integral, necessarily positive)
        coefficients and contribute the multiset [K^-] of equivalence classes
        with multiplicity -d_c.  Linearly equivalent rays of the located cone
        are checked to carry identical coefficients.
        """
        fan = self.fan
        out = {}
        for K in self.primitive_collections:
            point = tuple(sum(fan.rays[rho][j] for rho in K.edges) for j in range(fan.rank))
            sigma, coeffs = locate_cone(fan, point)
            if set(sigma) & set(K.edges):
                raise LatticeError(
                    f"located cone {sigma} meets the primitive collection {K.edges}")
            d = [int(rho in K.edges) for rho in range(fan.n_rays)]
            for rho, c in zip(sigma, coeffs):
                d[rho] = -c
            beta = self.curve_from_d(d)
            # primitive collections are unions of full equivalence classes
            for c in self.classes_of(K.edges):
                if not set(c.members) <= set(K.edges):
                    raise LatticeError(
                        f"collection {K.edges} is not closed under linear equivalence")
            # the located cone is closed under linear equivalence, with equal coefficients
            kminus = self.classes_of(sigma)
            for c in kminus:
                if len({d[m] for m in c.members}) != 1:
                    raise LatticeError(
                        f"linearly equivalent rays {c.members} carry unequal coefficients")
            out[K] = (beta, tuple((c, -c.d(beta)) for c in kminus))
        return out

    @cached_property
    def mori(self) -> tuple:
        return mori_generators(self)

    @cached_property
    def walls(self) -> tuple:
        """Distinct classes of the fan's wall relations, in wall order; they
        span the Mori cone."""
        return tuple(map(self.curve_from_d, dict.fromkeys(d for _, d in self.fan.walls)))

    @cached_property
    def facets(self) -> tuple:
        """Primitive inward facet normals of the Mori cone."""
        return cone_facets([w.coords for w in self.walls], self.pic_rank)

    @cached_property
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
        """
        rows = [[c.d(g) for g in self.mori] for c in self.equiv]
        n = len(self.mori)

        def first(k: int, left: int, sums: list) -> Optional[tuple]:
            # generators k.. share `left`; sums are the classes' d over 0..k-1
            if any(s + left * max(row[k:]) <= 0 for s, row in zip(sums, rows)):
                return None
            if k == n - 1:
                return (left,)
            for a in range(left + 1):
                rest = first(k + 1, left - a, [s + a * row[k] for s, row in zip(sums, rows)])
                if rest is not None:
                    return (a,) + rest
            return None

        for total in itertools.count(1):
            combo = first(0, total, [0] * len(rows))
            if combo is not None:
                return self.from_mori(combo)

    def is_effective(self, beta: CurveClass) -> bool:
        return self.is_effective_coords(beta.coords)

    def is_effective_coords(self, coords: Sequence[int]) -> bool:
        """Curve coordinates pair >= 0 with every facet normal of the Mori cone."""
        return all(_dot(u, coords) >= 0 for u in self.facets)

    @cached_property
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
        sol = tuple(_dot(col, coords) for col in cols)
        if den is None or any(x % den for x in sol):
            return None
        return tuple(x // den for x in sol)

    def mori_coordinates(self, beta: CurveClass) -> Optional[tuple]:
        """beta as a nonnegative integer combination of independent Mori
        generators, or None when it is none; used for display."""
        sol = self.to_mori(beta.coords)
        return None if sol is None or any(x < 0 for x in sol) else sol

    def classes_of(self, edges: Sequence[int]) -> tuple:
        """The equivalence classes meeting the given rays, in index order."""
        return tuple(c for c in self.equiv if not set(c.members).isdisjoint(edges))


def class_lattice(fan: Fan) -> ClassLattice:
    """Compute Pic, the curve lattice and the facets of the Mori cone.

    Raises NonProjectiveFan when the cone of wall curves is not pointed:
    by Kleiman's criterion a complete toric variety is projective exactly
    when its cone of curves is (Cox-Little-Schenck, Toric Varieties, ch. 6).
    """
    n, r = fan.rank, fan.n_rays
    rows = [list(v) for v in fan.rays]
    R, diag = smith_normal_form(rows)
    if len(diag) != n or any(abs(d) != 1 for d in diag):
        raise TorsionDetected(
            f"ray matrix has diagonal form {diag}; expected all +-1 "
            "(smooth complete fans have torsion-free class groups)")
    divisor_classes = tuple(tuple(R[n + k][rho] for k in range(r - n))
                            for rho in range(r))
    curve_basis_d = tuple(tuple(R[n + j]) for j in range(r - n))
    section = tuple(row[n:] for row in inverse(R)[0])  # R unimodular: integral
    cl = ClassLattice(fan, divisor_classes, curve_basis_d, section)
    # exactness: the rows of the ray matrix pair to zero with every class
    if any(_dot(col, cls) for col in zip(*fan.rays) for cls in zip(*divisor_classes)):
        raise TorsionDetected("Picard presentation failed exactness check")
    if matrix_rank(cl.facets) != cl.pic_rank:
        raise NonProjectiveFan(
            "the cone of wall curves is not pointed (its facet normals do not "
            "span the Picard group), so the fan is not projective")
    return cl


def compositions(total: int, parts: int):
    """Every tuple of parts >= 1 nonnegative integers summing to total, in
    lexicographic order: the order of itertools.product filtered by sum."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        yield from ((first,) + rest for rest in compositions(total - first, parts - 1))


def cone_facets(gens: Sequence[Sequence[int]], dim: int) -> tuple:
    """Primitive integer inward facet normals of the cone spanned by gens.

    Every rank dim-1 subset of generators has a one-dimensional kernel; its
    primitive normal is kept (with the sign that makes it inward) when all
    generators lie on one side.  Handles simplicial and non-simplicial cones
    alike.  The normals span Q^dim exactly when the cone is full-dimensional
    and pointed.
    """
    normals = []
    for subset in itertools.combinations(gens, dim - 1):
        kernel = kernel_basis(subset, dim)
        if len(kernel) != 1:
            continue
        u = tuple(kernel[0])
        signs = {(_dot(u, v) > 0) - (_dot(u, v) < 0) for v in gens} - {0}
        if signs == {-1}:
            u = tuple(-x for x in u)
        if len(signs) < 2 and u not in normals:
            normals.append(u)
    return tuple(normals)


def equiv_classes(cl: ClassLattice) -> tuple:
    """Partition of the rays by equality of divisor class, ordered by least member."""
    groups = {}
    for rho in range(cl.fan.n_rays):
        groups.setdefault(cl.divisor_classes[rho], []).append(rho)
    ordered = sorted(groups.values(), key=lambda ms: ms[0])
    return tuple(EquivClass(index=i, members=tuple(ms), vec=cl.divisor_classes[ms[0]])
                 for i, ms in enumerate(ordered))


def beta_K(cl: ClassLattice, K: PrimitiveCollection):
    """The curve class of a primitive collection and its negative part [K^-],
    as derived once in cl.primitive_relations."""
    if K not in cl.primitive_relations:
        raise LatticeError(f"{K.edges} is not a primitive collection of this fan")
    return cl.primitive_relations[K]


def mori_generators(cl: ClassLattice) -> tuple:
    """Extremal wall-curve classes.

    A wall class spans an extremal ray of the Mori cone exactly when the
    facets tight on it have normals of rank pic_rank - 1.  Wall classes are
    primitive (they carry coefficient 1), so each extremal ray keeps one.
    Generators matching some beta_K come first (in primitive-collection
    order) so that Novikov symbols line up with the quantum relations.
    """
    extremal = [g for g in cl.walls
                if matrix_rank([u for u in cl.facets if _dot(u, g.coords) == 0])
                == cl.pic_rank - 1]
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
    return all(x1 >= x or x < 0 for x1, x in zip(beta_prime.d, beta.d))


def find_anchor(cl: ClassLattice, sectors: Sequence[CurveClass]) -> CurveClass:
    """Deterministic curve class dominating every given effective sector.

    The sum of the sectors plus the least positive multiple n of a fixed
    everywhere-positive effective class that dominates each sector.
    """
    if not sectors:
        raise LatticeError("anchor search requires at least one sector")
    for s in sectors:
        if not cl.is_effective(s):
            raise IneffectiveClass(f"sector {s.d} is not effective")
    positive = cl.positive
    base = cl.zero_curve
    for s in sectors:
        base = base + s
    # base - s sums effective sectors, so only h0(d_c) bounds n from below:
    # d_c(base) + n * d_c(positive) >= d_c(s) wherever h0(d_c(s)) > 0; the
    # rays stand for their classes, as in dominates
    n = max([1] + [-((b - x) // p) for s in sectors
                   for x, b, p in zip(s.d, base.d, positive.d) if x >= 0])
    return base + n * positive


def effective_cones_coincide(cl: ClassLattice) -> bool:
    """Diagnostic: the beta_K span the same cone as the wall curves.

    They do exactly when every beta_K is effective and every Mori generator
    is some beta_K: a generating set of a pointed cone meets every extremal
    ray, and both kinds of class are primitive.
    """
    bks = {bk for bk, _ in cl.primitive_relations.values()}
    return all(cl.is_effective(b) for b in bks) and all(g in bks for g in cl.mori)
