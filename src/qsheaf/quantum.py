"""Correlation functions, quantum Stanley-Reisner relations, verification.

Correlators are scalars against the canonical top-degree monomial of one
anchor sector that dominates everything in a query; only ratios are
intrinsic and every report records its anchor.  The quantum relations are
verified by the exact exponent identity (pure integer arithmetic), with a
full polynomial-expansion route and a correlator route as cross-checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .fan import PrimitiveCollection
from .lattice import (ClassLattice, CurveClass, beta_K, dominates, find_anchor,
                      h0, h1)
from .poly import (PolyError, Polynomial, UnsupportedNovikovShape, _mon_mul,
                   monomial_str, normal_form, signed_sum, sole_generator,
                   standard_monomials, top_functional)
from .deform import LinearData
from .sectors import NotDominating, sector, sector_gb, transition


class QuantumError(Exception):
    pass


class AnchorDegenerate(QuantumError):
    """The anchor sector's top graded piece is not one-dimensional."""


class NonFanoEnumerationUnbounded(QuantumError):
    """A degree slice of the Mori cone is infinite; pass explicit sectors."""


def four_fermi(lin: LinearData, beta: CurveClass) -> Polynomial:
    """Obstruction factor F_beta = prod_c Q_c^{h1(d_c)} for excess dimension."""
    cl = lin.cl
    f = lin.q_product((c, h1(c.d(beta))) for c in cl.equiv)
    excess = sum(c.size * h1(c.d(beta)) for c in cl.equiv)
    # degree bookkeeping: (c1.beta + dim X) + deg F == n_beta
    n_beta = sector(lin, beta).n_beta
    if beta.c1() + cl.fan.rank + excess != n_beta:
        raise QuantumError("four-fermi degree bookkeeping failed")
    return f


class _AnchorRing:
    """The anchor sector ring of one query; every sector row is read off it.

    The ring's top graded piece is one-dimensional, so a row is the
    coefficient of its generator in NF(R * p * F_beta): one linear functional
    of the product.  Its memos, per monomial and per insertion, live as long
    as the ring.
    """

    def __init__(self, lin: LinearData, anchor: CurveClass):
        gb = sector_gb(lin, anchor)
        monos = standard_monomials(gb, sector(lin, anchor).n_beta)
        gen = sole_generator(monos)
        if gen is None:
            raise AnchorDegenerate(
                f"anchor sector of {anchor.d} has top dimension {len(monos)}")
        self.lin = lin
        self.anchor = anchor
        self.generator = gen
        self._value = top_functional(gb, gen.leading_monomial())
        self._forms = {}  # insertion p -> {m: sum_m' p_m' value(m m')}

    def row(self, p: Polynomial, beta: CurveClass):
        """Correlator scalar of p in sector beta and a reason tag ('ok',
        'degree', 'empty', 'ineffective')."""
        lin = self.lin
        if not p.is_psi_homogeneous() or p.has_q():
            raise QuantumError("correlator insertions must be homogeneous in Sym*W")
        if p.psi_degree() != beta.c1() + lin.cl.fan.rank:
            return Fraction(0), "degree"
        sec = sector(lin, beta)
        if not sec.effective:
            return Fraction(0), "ineffective"
        if not sec.nonempty:
            return Fraction(0), "empty"
        f = transition(lin, self.anchor, beta) * four_fermi(lin, beta)
        f._check(p)  # same ring, as the product R * p * F_beta would demand
        form = self._forms.setdefault(p, {})
        total = Fraction(0)
        try:
            for m, c in f.terms.items():
                lp = form.get(m)
                if lp is None:
                    lp = form[m] = sum(cp * self._value(_mon_mul(m, mp))
                                       for mp, cp in p.terms.items())
                total += c * lp
        except PolyError:
            raise QuantumError("normal form escaped the top graded piece") from None
        return total, "ok"


def correlator_sector(lin: LinearData, p: Polynomial, beta: CurveClass,
                      anchor: CurveClass) -> Fraction:
    """Sector correlator of p, reported against the anchor's generator.

    Raises AnchorDegenerate for a degenerate anchor, even where the value
    would be 0 by degree.
    """
    return _AnchorRing(lin, anchor).row(p, beta)[0]


@dataclass(frozen=True)
class SectorRow:
    beta: CurveClass
    scalar: Fraction
    reason: str


@dataclass(frozen=True)
class CorrelatorReport:
    poly: Polynomial
    anchor: CurveClass
    generator: Polynomial
    rows: tuple
    series: tuple  # (beta, scalar) with scalar nonzero


def degree_slice(cl: ClassLattice, t: int) -> tuple:
    """All effective classes with c1 . beta = t (finite only in the Fano regime)."""
    gens = cl.mori
    weights = [g.c1() for g in gens]
    if any(w <= 0 for w in weights):
        raise NonFanoEnumerationUnbounded(
            "a Mori generator has nonpositive anticanonical degree; "
            "the degree slice is infinite, supply explicit sectors")
    if t < 0:
        return ()
    vertices = [[Fraction(t * c, w) for c in g.coords] for g, w in zip(gens, weights)]
    lo = [min(v[k] for v in vertices) for k in range(cl.pic_rank)]
    hi = [max(v[k] for v in vertices) for k in range(cl.pic_rank)]
    found = []
    ranges = [range(math.ceil(a), math.floor(b) + 1) for a, b in zip(lo, hi)]
    for coords in itertools.product(*ranges):
        beta = cl.curve_from_coords(coords)
        if beta.c1() == t and cl.is_effective(beta):
            found.append(beta)
    found.sort(key=lambda b: b.d)
    return tuple(found)


def effective_window(cl: ClassLattice, c1_bound: int,
                     coeff_bound: Optional[int] = None) -> tuple:
    """Effective classes with c1 . beta <= c1_bound.

    Exact in the Fano regime; otherwise the set is infinite and the window
    is truncated to nonnegative Mori-coefficient sums <= coeff_bound.
    """
    gens = cl.mori
    if all(g.c1() > 0 for g in gens):
        out = []
        for t in range(c1_bound + 1):
            out.extend(degree_slice(cl, t))
        return tuple(out)
    if coeff_bound is None:
        raise NonFanoEnumerationUnbounded(
            "non-Fano window needs an explicit coefficient bound")
    found = set()
    for combo in itertools.product(range(coeff_bound + 1), repeat=len(gens)):
        if sum(combo) > coeff_bound:
            continue
        beta = cl.from_mori(combo)
        if beta.c1() <= c1_bound:
            found.add(beta)
    return tuple(sorted(found, key=lambda b: b.d))


def correlator_series(lin: LinearData, p: Polynomial, max_c1_degree: int,
                      sectors: Optional[Sequence[CurveClass]] = None) -> CorrelatorReport:
    """Sum the sector correlators of p over the matching degree slice.

    Sectors are enumerated from the Mori cone unless given explicitly; one
    anchor dominating all of them fixes the normalization and is recorded.
    """
    cl = lin.cl
    if not p.is_psi_homogeneous() or p.has_q():
        raise QuantumError("series insertions must be homogeneous in Sym*W")
    target = p.psi_degree() - cl.fan.rank
    if sectors is None:
        if target > max_c1_degree:
            raise QuantumError(
                f"degree slice c1 = {target} exceeds max_c1_degree = {max_c1_degree}")
        sectors = degree_slice(cl, target)
    sectors = tuple(sectors)
    anchor_inputs = [b for b in sectors if cl.is_effective(b)] or [cl.zero_curve]
    anchor = find_anchor(cl, anchor_inputs)
    ring = _AnchorRing(lin, anchor)
    rows = tuple(SectorRow(beta, *ring.row(p, beta)) for beta in sectors)
    series = tuple((row.beta, row.scalar) for row in rows if row.scalar)
    return CorrelatorReport(poly=p, anchor=anchor, generator=ring.generator,
                            rows=rows, series=series)


def novikov_symbol(cl: ClassLattice, beta: CurveClass) -> str:
    """q^beta in Mori coordinates (``q1*q2^3``, '' for beta = 0), or in curve
    coordinates (``q^[1, -2]``) when beta has none."""
    mori = cl.mori_coordinates(beta)
    if mori is None:
        return "q^" + str(list(beta.coords))
    return monomial_str([f"q{j + 1}" for j in range(len(mori))], mori)


def novikov_series_str(cl: ClassLattice, series) -> str:
    """Render sum lambda_beta q^beta with q-exponents in Mori coordinates."""
    return signed_sum((coeff, novikov_symbol(cl, beta)) for beta, coeff in series)


# ---- quantum Stanley-Reisner relations ------------------------------------

@dataclass(frozen=True)
class QuantumRelation:
    collection: PrimitiveCollection
    beta_k: CurveClass
    kminus: tuple          # (EquivClass, positive multiplicity)
    lhs: Polynomial        # Q_K, Novikov-free
    rhs: Polynomial        # q^{beta_K} prod Q_c^{-d_c}
    difference: Polynomial

    def degree(self) -> int:
        return self.lhs.psi_degree()


def qsr_generators(lin: LinearData) -> tuple:
    """One relation Q_K = q^{beta_K} prod_{c in [K^-]} Q_c^{-d_c} per collection."""
    cl = lin.cl
    nq = cl.pic_rank
    weights = [sum(basis) for basis in cl.curve_basis_d]  # c1 of each basis vector
    out = []
    for K in cl.primitive_collections:
        bk, kminus = beta_K(cl, K)
        lhs = lin.q_k(K)
        rhs = (Polynomial.novikov(cl.pic_rank, nq, bk.coords)
               * lin.q_product(kminus).with_q(nq))
        diff = lhs.with_q(nq) - rhs
        # homogeneity when deg q^beta := c1 . beta
        degs = {sum(mono[0]) + sum(w * e for w, e in zip(weights, mono[1]))
                for mono in diff.terms}
        if len(degs) > 1:
            raise QuantumError(f"relation for {K.edges} is not homogeneous: {degs}")
        out.append(QuantumRelation(collection=K, beta_k=bk, kminus=kminus,
                                   lhs=lhs, rhs=rhs, difference=diff))
    return tuple(out)


def verify_qc_relation(lin: LinearData, K: PrimitiveCollection, beta: CurveClass,
                       beta_prime: CurveClass, route: str = "exponent",
                       insertions: Sequence[Polynomial] = ()) -> bool:
    """Check the quantum relation for K against sectors beta and beta + beta_K.

    route 'exponent' checks the per-class exponent identity with exact
    integer arithmetic; 'expand' compares the two fully expanded products in
    Sym*W; 'correlator' compares correlators of the supplied insertions
    against the anchor beta_prime.
    """
    cl = lin.cl
    if not cl.is_effective(beta):
        raise QuantumError(f"sector {beta.d} is not effective")
    bk, kminus = beta_K(cl, K)
    shifted = beta + bk
    if not (dominates(cl, beta_prime, beta) and dominates(cl, beta_prime, shifted)):
        raise NotDominating(
            f"{beta_prime.d} must dominate both {beta.d} and {shifted.d}")
    if route == "exponent":
        for c in cl.equiv:
            dk = c.d(bk)
            db = c.d(beta)
            dbp = c.d(beta_prime)
            left = (h0(dbp) - h0(db + dk)) + h1(db + dk) + (1 if dk > 0 else 0)
            right = (h0(dbp) - h0(db)) + h1(db) + (-dk if dk < 0 else 0)
            if left != right:
                return False
        return True
    if route not in ("expand", "correlator"):
        raise ValueError(f"unknown route {route!r}")
    prod_k = lin.q_k(K)  # d_c(beta_K) > 0 exactly on the classes of K
    prod_m = lin.q_product(kminus)
    if route == "expand":
        lhs = transition(lin, beta_prime, shifted) * four_fermi(lin, shifted) * prod_k
        rhs = transition(lin, beta_prime, beta) * four_fermi(lin, beta) * prod_m
        return lhs == rhs
    return _rows_agree(_AnchorRing(lin, beta_prime), bk, prod_k, prod_m,
                       ((y, beta) for y in insertions))


def relation_annihilates(lin: LinearData, rel: QuantumRelation,
                         insertion: Polynomial, window: Sequence[CurveClass]) -> bool:
    """<Y * rel> vanishes over the window: correlators match sector by sector."""
    cl = lin.cl
    window = [b for b in window if cl.is_effective(b)]
    if not window:
        return True
    anchor = find_anchor(cl, window + [b + rel.beta_k for b in window])
    return _rows_agree(_AnchorRing(lin, anchor), rel.beta_k, rel.lhs,
                       lin.q_product(rel.kminus), ((insertion, b) for b in window))


def _rows_agree(ring: _AnchorRing, bk: CurveClass, prod_k: Polynomial,
                prod_m: Polynomial, cases) -> bool:
    """<y * prod_k>_{beta + bk} == <y * prod_m>_beta for every (y, beta) in
    cases, both rows read off one anchor ring."""
    return all(ring.row(y * prod_k, beta + bk)[0] == ring.row(y * prod_m, beta)[0]
               for y, beta in cases)


# ---- quantum normal forms ---------------------------------------------------

def mori_change_of_basis(cl: ClassLattice):
    """Maps (to_mori, to_curve) between curve and Mori coordinates.

    Raises UnsupportedNovikovShape unless the Mori generators form a
    unimodular basis of the curve lattice.
    """
    inverse = cl.mori_inverse
    if inverse is None:
        raise UnsupportedNovikovShape(
            f"{len(cl.mori)} Mori generators for curve rank {cl.pic_rank}; "
            "no unimodular effective basis")
    if any(x.denominator != 1 for row in inverse for x in row):
        raise UnsupportedNovikovShape(
            "Mori generators are not a unimodular basis of the curve lattice")

    def to_mori(qpart: tuple) -> tuple:
        return tuple(int(x) for x in cl.to_mori(qpart))

    def to_curve(apart: tuple) -> tuple:
        return cl.from_mori(apart).coords

    return to_mori, to_curve


def _mori_quantum_basis(lin: LinearData) -> tuple:
    """(to_mori, to_curve, reduced basis of the quantum ideal in Mori coordinates)."""
    to_mori, to_curve = mori_change_of_basis(lin.cl)
    gens = tuple(rel.difference.map_q(to_mori, lin.cl.pic_rank)
                 for rel in qsr_generators(lin))
    return to_mori, to_curve, lin.groebner_of(gens)


def quantum_groebner(lin: LinearData) -> tuple:
    """Reduced basis of the quantum ideal, Novikov exponents in curve coordinates."""
    _, to_curve, gb = _mori_quantum_basis(lin)
    return tuple(g.map_q(to_curve, lin.cl.pic_rank) for g in gb.polys)


def quantum_normal_form(lin: LinearData, p: Polynomial) -> Polynomial:
    """Normal form in the quantum ring QH*_E(X).

    Requires the Mori generators to form a unimodular basis of the curve
    lattice, so the Novikov exponents can be coordinatized nonnegatively.
    """
    cl = lin.cl
    to_mori, to_curve, gb = _mori_quantum_basis(lin)
    if p.nq == 0:
        p = p.with_q(cl.pic_rank)
    if p.nq != cl.pic_rank:
        raise QuantumError("polynomial lives in the wrong Novikov ring")
    q = p.map_q(to_mori, cl.pic_rank)
    for (_, qpart) in q.terms:
        if any(e < 0 for e in qpart):
            raise UnsupportedNovikovShape(
                "input Novikov exponents are not effective")
    return normal_form(q, gb).map_q(to_curve, cl.pic_rank)
