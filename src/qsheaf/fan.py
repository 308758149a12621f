"""Complete smooth simplicial fans and their primitive-collection combinatorics.

A fan is given by its ray generators and maximal cones.  Construction
validates primitivity of the rays, unimodularity of every maximal cone
(smoothness) and completeness of the support; everything downstream may
then assume the standing hypotheses of smooth complete toric geometry.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from math import comb, gcd
from typing import Sequence

from .linalg import _dot, inverse
from .poly import det, echo


class _cached_property(functools.cached_property):
    """functools.cached_property without the lock that Python 3.10 and 3.11
    take on each first access (3.12 dropped it): the value is stored in the
    instance's __dict__, which shadows this non-data descriptor, so it is
    computed once (twice at worst under a thread race, to an equal value)."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


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

    @property
    def duals(self) -> dict:
        """sigma -> the integral dual basis (m_i) of each maximal cone, in
        sigma's order: <m_i, v_j> = 1 if i == j else 0 (`_walk`)."""
        return self._walk[0]

    @property
    def walls(self) -> tuple:
        """(F, d) per facet F, in sorted order, with d its wall relation (`_walk`)."""
        return self._walk[1]

    @_cached_property
    def _walk(self) -> tuple:
        """(duals, walls) from one walk over the facet graph of the maximal cones.

        The first cone takes the one integer inverse.  Across a facet F from
        F+{a}, with dual basis (m_i), to F+{b}, the pivots t_i = <m_i, v_b>
        give v_b = sum_i t_i v_i, so det(F+{b}) = t_a det(F+{a}): the
        neighbour is unimodular exactly when |t_a| = 1, and then its dual
        basis is the exchange m'_b = t_a m_a, m'_i = m_i - t_i m'_b.  The same
        pivots give the wall relation sum_rho d_rho v_rho = 0: d_b = 1 and d_i =
        -t_i.  Then, in sorted facet order, every facet must lie in exactly two
        maximal cones; the walk must have reached every cone, since a complete
        fan's facet graph is connected; and on unimodular cones a and b lie on
        opposite sides of F exactly when d_a = 1: v_a + v_b = sum_{i in F}
        -d_i v_i.
        """
        rays, facets, sides = self.rays, {}, {}
        for sigma in self.max_cones:
            sides[sigma] = own = []
            for p, a in enumerate(sigma):
                facet = sigma[:p] + sigma[p + 1:]
                facets.setdefault(facet, []).append((sigma, a))
                own.append((facet, a))
        duals, walls = {}, {}
        start = self.max_cones[0]
        inv = inverse(list(zip(*(rays[i] for i in start))))
        if inv is None or inv[1] != 1:
            _singular(self, start)
        duals[start] = dict(zip(start, inv[0]))
        todo, zero, overlap = [start], [0] * len(rays), False
        while todo:
            sigma = todo.pop()
            m = duals[sigma]
            for facet, a in sides[sigma]:
                if facet in walls:
                    continue
                owners = facets[facet]
                if len(owners) != 2:
                    continue
                other, b = owners[owners[0][0] == sigma]
                d, vb = zero[:], rays[b]  # d_i = -t_i
                for i, mi in m.items():
                    d[i] = -_dot(mi, vb)
                d[b] = 1
                walls[facet] = tuple(d)
                da = d[a]
                if da != 1:  # d_b = 1 by construction
                    overlap = True
                if other not in duals:
                    if da != 1 and da != -1:
                        _singular(self, other)
                    mb = m[a] if da == -1 else tuple([-x for x in m[a]])  # t_a m_a
                    duals[other] = {i: mb if i == b else
                                    tuple([x + d[i] * y for x, y in zip(m[i], mb)])
                                    for i in other}
                    todo.append(other)
        ordered = sorted(facets)
        if set(map(len, facets.values())) != {2}:
            for facet in ordered:
                if len(facets[facet]) != 2:
                    raise IncompleteFan(
                        f"facet {facet} lies in {len(facets[facet])} maximal cone(s); "
                        "support does not close up")
        if len(duals) != len(self.max_cones):
            for sigma in self.max_cones:
                if sigma not in duals:
                    raise IncompleteFan(f"cone {sigma} is not reached from cone {start} across "
                                        "shared facets; a complete fan's facet graph is connected")
        if overlap:
            for facet in ordered:
                (_, a), (_, b) = facets[facet]
                d = walls[facet]
                if d[a] != 1 or d[b] != 1:
                    raise IncompleteFan(
                        f"maximal cones sharing facet {facet} overlap on one side")
        return ({sigma: tuple(duals[sigma].values()) for sigma in self.max_cones},
                tuple([(facet, walls[facet]) for facet in ordered]))

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
        """h-vector from face counts: sum_i f_{i-1} t^i (1-t)^(n-i), whose t^k
        coefficient is sum_i f_{i-1} (-1)^(k-i) C(n-i, k-i)."""
        n, f = self.rank, self.face_counts()
        return tuple(sum(f[i] * (-1) ** (k - i) * comb(n - i, k - i) for i in range(k + 1))
                     for k in range(n + 1))


def build_fan(rank: int, rays: Sequence[Sequence[int]], max_cones: Sequence[Sequence[int]]) -> Fan:
    """Validate and construct a complete smooth simplicial fan.

    Checks primitive, distinct rays, rank distinct rays per maximal cone, no
    duplicate cone and no unused ray; then one walk over the facet graph
    (`Fan._walk`) checks smoothness and completeness and keeps the dual bases
    and wall relations.  Projectivity is checked later, by `class_lattice`,
    which raises NonProjectiveFan.
    """
    if rank < 1:
        raise FanError("rank must be a positive integer")
    if not rays:
        raise FanError("ray list is empty")
    if not max_cones:
        raise FanError("maximal cone list is empty")
    ray_tuples = []
    for v in rays:
        t = tuple(map(int, v))
        if len(t) != rank:
            raise FanError(f"ray {echo(v)} does not have {echo(rank)} coordinates")
        if gcd(*t) != 1:
            raise NonPrimitiveRay(f"ray {echo(t)} is not primitive")
        ray_tuples.append(t)
    if len(set(ray_tuples)) != len(ray_tuples):
        raise DuplicateRay("ray list contains duplicates")

    cones = []
    for sigma in max_cones:
        idx = tuple(sorted(map(int, sigma)))
        if idx and (idx[0] < 0 or idx[-1] >= len(ray_tuples)):
            raise FanError(f"cone {echo(sigma)} references an unknown ray index")
        if len(set(idx)) != len(idx) or len(idx) != rank:
            raise NonUnimodularCone(
                f"maximal cone {echo(sigma)} does not have exactly {echo(rank)} distinct rays")
        cones.append(idx)
    if len(set(cones)) != len(cones):
        raise IncompleteFan("duplicate maximal cone")

    missing = sorted(set(range(len(ray_tuples))).difference(*cones))
    if missing:
        raise IncompleteFan(f"rays {echo(missing)} appear in no maximal cone")

    fan = Fan(rank=rank, rays=tuple(ray_tuples), max_cones=tuple(cones))
    fan._walk  # raises NonUnimodularCone or IncompleteFan
    return fan


def _singular(fan: Fan, sigma: tuple):
    """Refuse a maximal cone that is not a lattice basis, naming its determinant."""
    d = det([fan.rays[i] for i in sigma])
    raise NonUnimodularCone(f"cone {echo(sigma)} has determinant {echo(d)}; fan is not smooth")


def primitive_collections(fan: Fan) -> tuple:
    """All primitive collections, ordered by size and then lexicographically
    by sorted indices.

    They are the minimal non-faces of the fan: dropping any one ray leaves a
    face, in particular dropping the largest.  So each candidate is built
    once, as a face plus a ray above the face's largest index.  Faces are
    bitmasks of rays: the submasks of each maximal cone's mask.
    """
    faces, found, n = set(), [], fan.n_rays
    for sigma in fan.max_cones:
        full = sub = sum(1 << i for i in sigma)
        while sub:
            faces.add(sub)
            sub = (sub - 1) & full
    faces.add(0)
    for face in faces:
        for rho in range(face.bit_length(), n):
            combo = face | 1 << rho
            if combo in faces:
                continue
            rest = face  # drop each ray of the face in turn
            while rest and combo ^ (rest & -rest) in faces:
                rest &= rest - 1
            if not rest:
                found.append(tuple([i for i in range(rho + 1) if combo >> i & 1]))
    return tuple([PrimitiveCollection(c) for c in sorted(found, key=lambda c: (len(c), c))])


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
        if min(coeffs) < 0:
            continue
        support = tuple(i for i, c in zip(sigma, coeffs) if c > 0)
        values = tuple(c for c in coeffs if c > 0)
        return support, values
    raise NotInSupport(f"point {echo(tuple(point))} lies in no cone; fan is not complete")
