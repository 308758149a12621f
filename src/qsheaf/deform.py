"""Toric deformations of the tangent bundle and the classical polymology.

A deformation is a table of coefficients a_{rho,m} in W, one per regular
monomial character of O(D_rho).  Only the linear part survives into the
cohomology ring: it is collected into one square matrix A_c per linear
equivalence class c, whose determinant Q_c generates everything downstream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .fan import PrimitiveCollection
from .lattice import ClassLattice, EquivClass
from .linalg import kernel_basis, matrix_rank
from .poly import (GroebnerBasis, Ideal, Polynomial, parse_polynomial,
                   sole_generator, standard_monomials, det)
from . import cache


class DeformError(Exception):
    pass


class CharacterOutsidePolytope(DeformError):
    pass


class DuplicateEntry(DeformError):
    pass


class UnknownRayIndex(DeformError):
    pass


class DegenerateDeformation(DeformError):
    """Graded dimensions escape the locally-free regime."""


@dataclass(frozen=True)
class DeformationEntry:
    rho: int
    m: tuple
    coeff: Polynomial  # linear form in the Picard basis
    source: str = field(default="", compare=False)  # D-symbol form as given


@dataclass(frozen=True)
class Deformation:
    entries: tuple
    is_tangent: bool


_FRESHNESS_SEED = 7  # the sample points are fixed, so reports are reproducible


@dataclass(frozen=True)
class FreenessVerdict:
    passed: bool
    witness: Optional[tuple] = None
    note: str = "probabilistic check; a pass is evidence, not proof"


@dataclass(frozen=True)
class LinearData:
    """Per-class linear coefficient matrices A_c and their determinants Q_c."""

    cl: ClassLattice
    matrices: tuple  # tuple (per equiv class) of row tuples of Polynomials
    q: tuple         # Q_c = det A_c, same order as cl.equiv

    def q_of(self, c: EquivClass) -> Polynomial:
        return self.q[c.index]

    def q_product(self, exponents: Iterable[tuple]) -> Polynomial:
        """prod Q_c^e over (EquivClass, e) pairs; zero exponents are skipped."""
        f = Polynomial.const(self.cl.pic_rank, 1)
        for c, e in exponents:
            if e:
                f = f * self.q[c.index] ** e
        return f

    def q_k(self, K: PrimitiveCollection) -> Polynomial:
        """Q_K: the product of Q_c over the classes meeting the collection K."""
        return self.q_product((c, 1) for c in self.cl.classes_of(K.edges))

    def groebner_of(self, generators: tuple) -> GroebnerBasis:
        """Reduced Groebner basis of the ideal the generators span in Sym*W."""
        return cache.cached_groebner(Ideal(generators, nv=self.cl.pic_rank))


def d_symbols(cl: ClassLattice) -> tuple:
    """Degree-1 polynomials for the classes [D_1]..[D_r] (1-based symbols)."""
    return tuple(Polynomial.linear(cl.pic_rank, vec) for vec in cl.divisor_classes)


def tangent_deformation(cl: ClassLattice) -> Deformation:
    """The undeformed Euler map: entry (rho, m=0, [D_rho]) for every ray."""
    syms = d_symbols(cl)
    zero_m = (0,) * cl.fan.rank
    entries = tuple(DeformationEntry(rho, zero_m, syms[rho], f"D{rho + 1}")
                    for rho in range(cl.fan.n_rays))
    return Deformation(entries=entries, is_tangent=True)


def parse_deformation(cl: ClassLattice, raw_entries: Sequence) -> Deformation:
    """Validate raw (rho, m, coeff) triples into a Deformation.

    `coeff` may be a Polynomial or a string in D-symbols.  Every character m
    is checked against the polytope inequalities <m, v_rho'> >= -delta; the
    pair (rho, m) must be unique.
    """
    fan = cl.fan
    syms = d_symbols(cl)
    seen = set()
    entries = []
    for raw in raw_entries:
        rho, m, coeff = raw
        rho = int(rho)
        if rho < 0 or rho >= fan.n_rays:
            raise UnknownRayIndex(f"ray index {rho} out of range")
        m = tuple(int(x) for x in m)
        if len(m) != fan.rank:
            raise DeformError(f"character {m} must have {fan.rank} coordinates")
        for rp in range(fan.n_rays):
            pairing = sum(a * b for a, b in zip(m, fan.rays[rp]))
            lower = -1 if rp == rho else 0
            if pairing < lower:
                raise CharacterOutsidePolytope(
                    f"character {m} violates <m, v_{rp}> >= {lower} for ray {rp}")
        if (rho, m) in seen:
            raise DuplicateEntry(f"duplicate entry for (rho={rho}, m={m})")
        seen.add((rho, m))
        source = coeff if isinstance(coeff, str) else ""
        if isinstance(coeff, str):
            coeff = parse_polynomial(coeff, syms)
        if not isinstance(coeff, Polynomial):
            coeff = Polynomial.linear(cl.pic_rank, coeff)
        if coeff.nq:
            coeff = coeff.drop_q()
        if coeff and (coeff.psi_degree() != 1 or not coeff.is_psi_homogeneous()):
            raise DeformError(
                f"coefficient {coeff.to_str()} for (rho={rho}, m={m}) "
                "is not a linear form in W")
        entries.append(DeformationEntry(rho, m, coeff, source))
    entries = tuple(entries)
    tangent = tangent_deformation(cl)
    is_tangent = set(entries) == set(tangent.entries)
    return Deformation(entries=entries, is_tangent=is_tangent)


def _linear_slot(cl: ClassLattice, entry: DeformationEntry) -> Optional[tuple]:
    """Slot (rho, rho') in A_c fed by this entry, or None for nonlinear terms."""
    fan = cl.fan
    if not any(entry.m):
        return (entry.rho, entry.rho)
    pairings = [sum(a * b for a, b in zip(entry.m, fan.rays[rp]))
                for rp in range(fan.n_rays)]
    if pairings[entry.rho] != -1:
        return None
    target = None
    for rp, val in enumerate(pairings):
        if rp == entry.rho:
            continue
        if val == 1 and target is None:
            target = rp
        elif val != 0:
            return None
    if target is None:
        return None
    if cl.divisor_classes[target] != cl.divisor_classes[entry.rho]:
        raise DeformError(
            f"character {entry.m} links inequivalent divisors {entry.rho}, {target}")
    return (entry.rho, target)


def linear_part(cl: ClassLattice, E: Deformation) -> LinearData:
    """Extract the linear coefficient matrices A_c and Q_c = det A_c.

    Nonlinear entries are ignored; missing linear coefficients default to
    zero.  Rows and columns are indexed by the sorted members of each class.
    """
    zero = Polynomial.zero(cl.pic_rank)
    slots = {}
    for entry in E.entries:
        slot = _linear_slot(cl, entry)
        if slot is not None:
            slots[slot] = slots.get(slot, zero) + entry.coeff
    matrices = []
    dets = []
    for c in cl.equiv:
        rows = tuple(tuple(slots.get((i, j), zero) for j in c.members)
                     for i in c.members)
        matrices.append(rows)
        dets.append(det([list(r) for r in rows]))
    return LinearData(cl=cl, matrices=tuple(matrices), q=tuple(dets))


def local_freeness_check(cl: ClassLattice, E: Deformation,
                         trials: int = 20) -> FreenessVerdict:
    """Probabilistic surjectivity test for the transposed deformation map.

    Evaluates the rows E_rho(x) at rational points outside the irrelevant
    locus, including one generic point per toric stratum, and checks that
    they span W.  A rank drop returns the witness point.
    """
    if trials < 0:
        raise DeformError(f"trials must be nonnegative, got {trials}")
    fan = cl.fan
    rng = random.Random(_FRESHNESS_SEED)
    pcs = cl.primitive_collections

    def rand_nonzero() -> Fraction:
        num = rng.choice([n for n in range(-9, 10) if n])
        den = rng.randint(1, 7)
        return Fraction(num, den)

    def in_irrelevant(x) -> bool:
        return any(all(x[rho] == 0 for rho in pc.edges) for pc in pcs)

    points = []
    for face in sorted(fan.cone_faces()):
        if any(set(pc.edges) <= set(face) for pc in pcs):
            continue  # stratum lies inside Z(Sigma)
        points.append(tuple(Fraction(0) if rho in face else rand_nonzero()
                            for rho in range(fan.n_rays)))
    # targeted points: kernel vectors of each class's linear coefficient map
    # catch rank drops along linear degeneracy loci that sampling misses
    lin = linear_part(cl, E)
    for c in cl.equiv:
        rows = []
        for i in range(c.size):
            for k in range(cl.pic_rank):
                rows.append([lin.matrices[c.index][i][j].linear_coefficients()[k]
                             if lin.matrices[c.index][i][j] else Fraction(0)
                             for j in range(c.size)])
        for u in kernel_basis(rows, c.size):
            x = [rand_nonzero() for _ in range(fan.n_rays)]
            for j, rho in enumerate(c.members):
                x[rho] = u[j]
            x = tuple(x)
            if not in_irrelevant(x):
                points.append(x)
    for _ in range(trials):
        points.append(tuple(rand_nonzero() for _ in range(fan.n_rays)))

    per_ray = {rho: [] for rho in range(fan.n_rays)}
    for entry in E.entries:
        if entry.coeff:
            per_ray[entry.rho].append(entry)
    for x in points:
        rows = []
        for rho in range(fan.n_rays):
            acc = [Fraction(0)] * cl.pic_rank
            for entry in per_ray[rho]:
                value = Fraction(1)
                for rp in range(fan.n_rays):
                    e = sum(a * b for a, b in zip(entry.m, fan.rays[rp]))
                    if rp == rho:
                        e += 1
                    if e:
                        value *= x[rp] ** e
                    if value == 0:
                        break
                if value:
                    for k, cval in enumerate(entry.coeff.linear_coefficients()):
                        acc[k] += cval * value
            rows.append(acc)
        if matrix_rank(rows) != cl.pic_rank:
            return FreenessVerdict(passed=False, witness=x)
    return FreenessVerdict(passed=True)


def sr_ideal(lin: LinearData) -> Ideal:
    """Stanley-Reisner ideal of the deformation: Q_K = prod of Q_c over [K]."""
    cl = lin.cl
    gens = []
    for K in cl.primitive_collections:
        g = lin.q_k(K)
        # a vanishing Q_K (singular A_c) generates nothing; the degeneracy
        # surfaces through polymology's dimension check instead
        if g:
            gens.append(g)
    return Ideal(tuple(gens), nv=cl.pic_rank)


@dataclass(frozen=True)
class PolymologyResult:
    gb: GroebnerBasis
    dims: tuple
    generator: Polynomial  # canonical monomial spanning the top degree


def polymology(lin: LinearData) -> PolymologyResult:
    """Graded ring Sym*W / SR(X, E): basis, dimensions, top-degree generator.

    Raises DegenerateDeformation when the graded dimensions are not those of
    a locally-free deformation near the tangent bundle (top dimension 1,
    nothing above the fan dimension, bounded by the h-vector).
    """
    cl = lin.cl
    n = cl.fan.rank
    gb = lin.groebner_of(sr_ideal(lin).generators)
    graded = [standard_monomials(gb, k) for k in range(n + 2)]
    dims = tuple(len(monos) for monos in graded)
    hvec = cl.fan.h_vector()
    generator = sole_generator(graded[n])
    if generator is None or dims[n + 1] != 0 or any(dims[k] > hvec[k] for k in range(n + 1)):
        raise DegenerateDeformation(
            f"graded dimensions {dims} incompatible with h-vector {hvec}; "
            "deformation is outside the locally-free regime")
    return PolymologyResult(gb=gb, dims=dims[:n + 1], generator=generator)
