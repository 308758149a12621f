"""Toric deformations of the tangent bundle and the classical polymology.

A deformation is a table of coefficients a_{rho,m} in W, one per regular
monomial character of O(D_rho).  Only the linear part survives into the
cohomology ring: it is collected into one square matrix A_c per linear
equivalence class c, whose determinant Q_c generates everything downstream.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .fan import PrimitiveCollection
from .lattice import ClassLattice
from .linalg import _dot, kernel_basis, matrix_rank, rank_mod
from .poly import (GroebnerBasis, Ideal, Polynomial, parse_polynomial, power_product,
                   sole_generator, standard_monomials, det, echo)
from .sectors import sector_gb
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
_MAX_TRIALS = 10_000  # about 0.1 ms a trial: a second, not hours
_FRESHNESS_PRIME = 2 ** 61 - 1  # ranks are certified modulo this prime first


def _mod(x, p: int) -> Optional[int]:
    """A rational x modulo the prime p, or None when p divides its denominator."""
    den = x.denominator % p
    return x.numerator * pow(den, -1, p) % p if den else None


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
    # per Q_c: its primitive integer part and content, Q_c = num / den * part
    _parts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_parts", tuple(map(Polynomial.primitive, self.q)))

    def q_product(self, exponents: Iterable[tuple]) -> Polynomial:
        """prod Q_c^e over (EquivClass, e) pairs; zero exponents are skipped.

        The one owner of Q_c products: the primitive integer parts are
        multiplied in ints and the contents applied once, as one Fraction,
        and not at all where they are integral (every tangent bundle).
        Both go through _q_parts, which multiplies all the (part, exponent)
        pairs in one poly.power_product call, and which the Groebner anchor
        ring's rows call directly to apply the content once per row: a
        sentinel that must see every Q_c product patches _q_parts, not this
        method."""
        f, num, den = self._q_parts(exponents)
        if den != 1:
            return f * Fraction(num, den)
        return f * num if num != 1 else f

    def _q_parts(self, exponents: Iterable[tuple]) -> tuple:
        """(f, num, den): prod Q_c^e = num / den * f, f with int coefficients
        and all its factors multiplied by one power_product."""
        pairs, num, den = [], 1, 1
        for c, e in exponents:
            if e:
                b, cn, cd = self._parts[c.index]
                pairs.append((b, e))
                num, den = num * cn ** e, den * cd ** e
        return power_product(pairs, self.cl.pic_rank), num, den

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

    `coeff` is a D-symbol string, parsed under the degree ceiling 1 of a
    linear form.  Every character m must make the Cox monomial x_rho chi^m
    a section of O(D_rho), with no negative exponent; (rho, m) is unique.
    """
    fan = cl.fan
    syms = d_symbols(cl)
    seen = set()
    entries = []
    for raw in raw_entries:
        rho, m, coeff = raw
        rho = int(rho)
        if rho < 0 or rho >= fan.n_rays:
            raise UnknownRayIndex(f"ray index {echo(rho)} out of range")
        m = tuple(map(int, m))
        if len(m) != fan.rank:
            raise DeformError(f"character {echo(m)} must have {echo(fan.rank)} coordinates")
        for rp, e in enumerate(_cox_monomial(fan, rho, m)):
            if e < 0:
                raise CharacterOutsidePolytope(
                    f"character {echo(m)} violates <m, v_{rp}> >= {-1 if rp == rho else 0} "
                    f"for ray {rp}")
        if (rho, m) in seen:
            raise DuplicateEntry(f"duplicate entry for (rho={echo(rho)}, m={echo(m)})")
        seen.add((rho, m))
        if not isinstance(coeff, str):
            raise DeformError(
                f"coefficient for (rho={echo(rho)}, m={echo(m)}) must be a D-symbol string")
        poly = parse_polynomial(coeff, syms, max_degree=1)
        if poly and (poly.psi_degree() != 1 or not poly.is_psi_homogeneous()):
            raise DeformError(f"coefficient {echo(poly.to_str(), quote=False)} for "
                              f"(rho={echo(rho)}, m={echo(m)}) is not a linear form in W")
        entries.append(DeformationEntry(rho, m, poly, coeff))
    # the tangent deformation's entries, (rho, 0, [D_rho]) for every ray; the
    # (rho, m) are distinct, so this is set equality with them
    is_tangent = len(entries) == fan.n_rays and all(
        not any(e.m) and e.coeff == syms[e.rho] for e in entries)
    return Deformation(entries=tuple(entries), is_tangent=is_tangent)


def _cox_monomial(fan, rho: int, m: tuple) -> tuple:
    """Exponents of the Cox monomial x_rho chi^m: <m, v_rho'> + [rho' = rho]."""
    return tuple([_dot(m, v) + (rp == rho) for rp, v in enumerate(fan.rays)])


def _linear_slot(cl: ClassLattice, entry: DeformationEntry) -> Optional[tuple]:
    """Slot (rho, rho') in A_c fed by this entry: its Cox monomial is the one
    variable x_rho' (x_rho itself when m = 0).  None for nonlinear terms."""
    if not any(entry.m):
        return (entry.rho, entry.rho)
    mono = _cox_monomial(cl.fan, entry.rho, entry.m)
    if mono.count(1) != 1 or mono.count(0) != len(mono) - 1:
        return None
    return (entry.rho, mono.index(1))


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
            zero._check(entry.coeff)  # refuses a coefficient from another ring
            slots[slot] = slots[slot] + entry.coeff if slot in slots else entry.coeff
    matrices = tuple([tuple([tuple([slots.get((i, j), zero) for j in c.members])
                             for i in c.members]) for c in cl.equiv])
    return LinearData(cl=cl, matrices=matrices, q=tuple([det(rows) for rows in matrices]))


def local_freeness_check(cl: ClassLattice, E: Deformation,
                         trials: int = 20) -> FreenessVerdict:
    """Probabilistic surjectivity test for the transposed deformation map.

    Evaluates the rows E_rho(x) = sum_m a_{rho,m} x^(Cox monomial of (rho, m))
    at rational points outside the irrelevant locus, including one generic
    point per toric stratum, and checks that they span W.  A rank drop
    returns the witness point.  A full rank modulo _FRESHNESS_PRIME
    certifies a point; only a drop there, or an input with the prime in a
    denominator, is decided by the exact rank over Q.
    """
    if trials < 0:
        raise DeformError(f"trials must be nonnegative, got {echo(trials)}")
    if trials > _MAX_TRIALS:
        raise DeformError(f"trials {echo(trials)} is above the ceiling {_MAX_TRIALS}")
    fan = cl.fan
    rng = random.Random(_FRESHNESS_SEED)
    pcs = cl.primitive_collections

    def rand_nonzero() -> Fraction:
        num = rng.choice([n for n in range(-9, 10) if n])
        den = rng.randint(1, 7)
        return Fraction(num, den)

    def in_irrelevant(x) -> bool:
        return any(all(x[rho] == 0 for rho in pc.edges) for pc in pcs)

    # one generic point per toric stratum; a cone spans no primitive
    # collection, so none of them lies inside Z(Sigma)
    points = [tuple(Fraction(0) if rho in face else rand_nonzero()
                    for rho in range(fan.n_rays))
              for face in sorted(fan.cone_faces())]
    # targeted points: kernel vectors of each class's linear coefficient map
    # catch rank drops along linear degeneracy loci that sampling misses
    lin = linear_part(cl, E)
    for c in cl.equiv:
        rows = [list(col) for row in lin.matrices[c.index]
                for col in zip(*(e.linear_coefficients() for e in row))]
        for u in kernel_basis(rows, c.size):
            x = [rand_nonzero() for _ in range(fan.n_rays)]
            last = next(v for v in reversed(u) if v)  # the free entry: 1 in the RREF vector
            for j, rho in enumerate(c.members):
                x[rho] = Fraction(u[j], last)
            x = tuple(x)
            if not in_irrelevant(x):
                points.append(x)
    for _ in range(trials):
        points.append(tuple(rand_nonzero() for _ in range(fan.n_rays)))

    terms = [(entry.rho, _cox_monomial(fan, entry.rho, entry.m),
              entry.coeff.linear_coefficients()) for entry in E.entries if entry.coeff]

    def rows_at(x, entries):
        rows = [[0] * cl.pic_rank for _ in range(fan.n_rays)]
        for rho, mono, coeffs in entries:
            value = math.prod(xi ** e for xi, e in zip(x, mono) if e)
            if value:
                for k, cval in enumerate(coeffs):
                    rows[rho][k] += cval * value
        return rows

    # rows of p-integral entries with full rank mod p have full rank over
    # Q, so the verdict and the witness are those of the exact rank
    p = _FRESHNESS_PRIME
    mod_terms = [(rho, mono, [_mod(c, p) for c in coeffs]) for rho, mono, coeffs in terms]
    if any(None in coeffs for _, _, coeffs in mod_terms):
        mod_terms = None
    for x in points:
        xp = [_mod(xi, p) for xi in x]
        if mod_terms is not None and None not in xp:
            if rank_mod(rows_at(xp, mod_terms), p) == cl.pic_rank:
                continue
        if matrix_rank(rows_at(x, terms)) != cl.pic_rank:
            return FreenessVerdict(passed=False, witness=x)
    return FreenessVerdict(passed=True)


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
    gb = sector_gb(lin, cl.zero_curve)
    graded = [standard_monomials(gb, k) for k in range(n + 2)]
    dims = tuple(len(monos) for monos in graded)
    hvec = cl.fan.h_vector()
    generator = sole_generator(graded[n])
    if generator is None or dims[n + 1] != 0 or any(dims[k] > hvec[k] for k in range(n + 1)):
        raise DegenerateDeformation(
            f"graded dimensions {dims} incompatible with h-vector {hvec}; "
            "deformation is outside the locally-free regime")
    return PolymologyResult(gb=gb, dims=dims[:n + 1], generator=generator)
