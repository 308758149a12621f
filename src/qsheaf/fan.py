"""Complete smooth simplicial fans and their primitive-collection combinatorics.

A fan is given by its ray generators and maximal cones.  Construction
validates primitivity of the rays, unimodularity of every maximal cone
(smoothness) and completeness of the support; everything downstream may
then assume the standing hypotheses of smooth complete toric geometry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from typing import Sequence

from .linalg import _dot, inverse
from .poly import det, echo


class FanError(Exception):
    """Base class for fan validation failures."""


class NonPrimitiveRay(FanError):
    pass


class NonUnimodularCone(FanError):
    """A maximal cone is not generated by a lattice basis (non-smooth input)."""


class IncompleteFan(FanError):
    pass


class DuplicateRay(FanError):
    pass


class NotInSupport(FanError):
    """Defensive: a point escaped the support of a complete fan."""


@dataclass(frozen=True)
class PrimitiveCollection:
    """A set of rays spanning no cone, all of whose proper subsets do."""

    edges: tuple
    k: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        object.__setattr__(self, "k", len(self.edges))


@dataclass(frozen=True)
class Fan:
    """Validated complete smooth fan; immutable after construction."""

    rank: int
    rays: tuple          # tuple of integer vectors
    max_cones: tuple     # tuple of sorted index tuples

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    @cached_property
    def duals(self) -> dict:
        """sigma -> the dual basis (m_i) of each maximal cone, in sigma's
        order: <m_i, v_j> = 1 if i == j else 0 for i, j in sigma.  Integral,
        since build_fan has checked that every maximal cone is unimodular."""
        return {sigma: inverse(list(zip(*(self.rays[i] for i in sigma))))[0]
                for sigma in self.max_cones}

    @cached_property
    def walls(self) -> tuple:
        """(facet, d) per facet of the maximal cones, in sorted facet order.

        Completeness by facet pairing: every facet F must be shared by exactly
        two maximal cones F+{a} and F+{b}.  In the dual basis (m_i) of F+{a},
        v_b = sum_i <m_i, v_b> v_i, so d = 1 on b and -<m_i, v_b> on F+{a}
        gives sum_rho d_rho v_rho = 0.  On unimodular cones a and b lie on
        opposite sides of F exactly when d_a = 1: that is the wall relation
        v_a + v_b = sum_{i in F} -d_i v_i.
        """
        facets = {}
        for sigma in self.max_cones:
            for facet in itertools.combinations(sigma, self.rank - 1):
                facets.setdefault(facet, []).append(sigma)
        walls = []
        for facet, owners in sorted(facets.items()):
            if len(owners) != 2:
                raise IncompleteFan(
                    f"facet {facet} lies in {len(owners)} maximal cone(s); "
                    "support does not close up")
            (a,), (b,) = (set(sigma) - set(facet) for sigma in owners)
            d = [0] * self.n_rays
            d[b] = 1
            for i, m in zip(owners[0], self.duals[owners[0]]):
                d[i] = -_dot(m, self.rays[b])
            if d[a] != 1:
                raise IncompleteFan(
                    f"maximal cones sharing facet {facet} overlap on one side")
            walls.append((facet, tuple(d)))
        return tuple(walls)

    def cone_faces(self) -> frozenset:
        """All cones of the fan, as the subsets of maximal cones (incl. the zero cone)."""
        faces = set()
        for sigma in self.max_cones:
            for k in range(len(sigma) + 1):
                faces.update(itertools.combinations(sigma, k))
        return frozenset(faces)

    def face_counts(self) -> tuple:
        """(f_{-1}, f_0, ..., f_{n-1}) where f_{i-1} counts (i-1)-dimensional cones."""
        by_size = [0] * (self.rank + 1)
        for face in self.cone_faces():
            by_size[len(face)] += 1
        return tuple(by_size)

    def h_vector(self) -> tuple:
        """h-vector from face counts: sum_i f_{i-1} t^i (1-t)^(n-i)."""
        n = self.rank
        f = self.face_counts()
        coeffs = [0] * (n + 1)
        for i in range(n + 1):
            # expand t^i (1-t)^(n-i)
            m = n - i
            binom = 1
            for j in range(m + 1):
                coeffs[i + j] += f[i] * ((-1) ** j) * binom
                binom = binom * (m - j) // (j + 1)
        return tuple(coeffs)


def build_fan(rank: int, rays: Sequence[Sequence[int]], max_cones: Sequence[Sequence[int]]) -> Fan:
    """Validate and construct a complete smooth simplicial fan.

    Checks: primitive rays, no duplicate rays, every maximal cone a lattice
    basis (|det| = 1), and completeness by facet pairing, which reads each
    wall's relation off a cone's dual basis and keeps it (`Fan.walls`).
    Projectivity is checked later, by `class_lattice`, which raises
    NonProjectiveFan.
    """
    if rank < 1:
        raise FanError("rank must be a positive integer")
    if not rays:
        raise FanError("ray list is empty")
    if not max_cones:
        raise FanError("maximal cone list is empty")
    ray_tuples = []
    for v in rays:
        t = tuple(int(x) for x in v)
        if len(t) != rank:
            raise FanError(f"ray {echo(v)} does not have {echo(rank)} coordinates")
        if gcd(*t) != 1:
            raise NonPrimitiveRay(f"ray {echo(t)} is not primitive")
        ray_tuples.append(t)
    if len(set(ray_tuples)) != len(ray_tuples):
        raise DuplicateRay("ray list contains duplicates")

    cones = []
    for sigma in max_cones:
        idx = tuple(sorted(int(i) for i in sigma))
        if any(i < 0 or i >= len(ray_tuples) for i in idx):
            raise FanError(f"cone {echo(sigma)} references an unknown ray index")
        if len(set(idx)) != len(idx) or len(idx) != rank:
            raise NonUnimodularCone(
                f"maximal cone {echo(sigma)} does not have exactly {echo(rank)} distinct rays")
        d = det([ray_tuples[i] for i in idx])
        if abs(d) != 1:
            raise NonUnimodularCone(
                f"cone {echo(idx)} has determinant {echo(d)}; fan is not smooth")
        cones.append(idx)
    if len(set(cones)) != len(cones):
        raise IncompleteFan("duplicate maximal cone")

    used = set(itertools.chain.from_iterable(cones))
    if used != set(range(len(ray_tuples))):
        missing = sorted(set(range(len(ray_tuples))) - used)
        raise IncompleteFan(f"rays {echo(missing)} appear in no maximal cone")

    fan = Fan(rank=rank, rays=tuple(ray_tuples), max_cones=tuple(cones))
    fan.walls  # raises IncompleteFan unless the facets pair up
    return fan


def primitive_collections(fan: Fan) -> tuple:
    """All primitive collections, ordered by size and then lexicographically
    by sorted indices.

    They are the minimal non-faces of the fan: dropping any one ray leaves a
    face, so each is a face plus one ray, and only those candidates are tried.
    """
    faces = fan.cone_faces()
    found = set()
    for face in faces:
        for rho in set(range(fan.n_rays)) - set(face):
            combo = tuple(sorted(face + (rho,)))
            if combo not in faces and all(combo[:i] + combo[i + 1:] in faces
                                          for i in range(len(combo))):
                found.add(combo)
    return tuple(PrimitiveCollection(c) for c in sorted(found, key=lambda c: (len(c), c)))


def locate_cone(fan: Fan, point: Sequence) -> tuple:
    """Locate the unique cone containing a rational point in its relative interior.

    Returns (cone, coefficients): the sorted ray-index tuple of the cone and
    the strictly positive coefficients of the point on its rays: its
    pairings with the cone's integral dual basis (`Fan.duals`), so ints for
    an integer point.  The zero vector yields the zero cone with no
    coefficients.
    """
    if len(point) != fan.rank:
        raise FanError(f"point must have {echo(fan.rank)} coordinates")
    if not any(point):
        return (), ()
    for sigma, duals in fan.duals.items():
        coeffs = [_dot(m, point) for m in duals]
        if any(c < 0 for c in coeffs):
            continue
        support = tuple(i for i, c in zip(sigma, coeffs) if c > 0)
        values = tuple(c for c in coeffs if c > 0)
        return support, values
    raise NotInSupport(f"point {echo(tuple(point))} lies in no cone; fan is not complete")
