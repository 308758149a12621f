"""Per-sector data of the gauged linear sigma model moduli spaces.

For an effective curve class beta, the moduli space is itself toric; its
bookkeeping is integer arithmetic on the exponents h0(d_c) and the primitive
collections of the base fan, recomputed on demand.  In this module only
`sector_ideal` and `transition` expand Q_c products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .lattice import CurveClass, dominates, h0
from .poly import GroebnerBasis, Polynomial

if TYPE_CHECKING:
    from .deform import LinearData


_MAX_DEGREE = 1000  # psi degree of a sector ideal generator, checked by sector()


class SectorError(Exception):
    pass


class NotDominating(SectorError):
    pass


@dataclass(frozen=True)
class SectorData:
    """Enhanced-edge bookkeeping of a sector; integers only."""

    beta: CurveClass
    enhanced_edges: tuple   # pairs (rho, i), 0 <= i <= d_rho
    degenerate: tuple       # pairs (rho, 0) whose divisor is empty
    n_beta: int
    nonempty: bool
    effective: bool


def sector(lin: LinearData, beta: CurveClass) -> SectorData:
    """Sector bookkeeping for a curve class.  Its first step refuses a
    generator prod_c Q_c^h0(d_c) of degree above _MAX_DEGREE, so a caller
    that reads sector() before it expands anything needs no check of its own."""
    cl = lin.cl
    fan = cl.fan
    d = beta.d
    pcs = cl.primitive_collections
    for K in pcs:
        # K is a union of classes c (beta_K pairs 1 with K only), deg Q_c = |c|
        degree = sum(h0(d[rho]) for rho in K.edges)
        if degree > _MAX_DEGREE:
            raise SectorError(f"sector {d} needs a generator of degree {degree}, "
                              f"above the ceiling {_MAX_DEGREE}")
    enhanced = tuple((rho, i) for rho in range(fan.n_rays) if d[rho] >= 0
                     for i in range(d[rho] + 1))
    degenerate = []
    for rho in range(fan.n_rays):
        if d[rho] != 0:
            continue
        for K in pcs:
            if rho in K.edges and all(d[rp] < 0 for rp in K.edges if rp != rho):
                degenerate.append((rho, 0))
                break
    nonempty = not any(all(d[rho] < 0 for rho in K.edges) for K in pcs)
    n_beta = sum(h0(d[rho]) for rho in range(fan.n_rays)) - cl.pic_rank
    return SectorData(beta=beta, enhanced_edges=enhanced,
                      degenerate=tuple(degenerate), n_beta=n_beta,
                      nonempty=nonempty, effective=cl.is_effective(beta))


def sector_ideal(lin: LinearData, beta: CurveClass) -> tuple:
    """Generators of the sector Stanley-Reisner ideal: the nonzero
    prod_c Q_c^h0(d_c) over the classes of each primitive collection, in
    collection order.  At beta = 0 every h0 is 1, so this is the classical
    ideal SR(X, E) of Q_K.  A degenerate edge (rho, 0) adds nothing: the
    collection flagging it has d < 0 on its other rays, so its own generator
    is already Q_[rho].  A generator of degree above _MAX_DEGREE is a
    SectorError."""
    cl = lin.cl
    sector(lin, beta)  # the degree ceiling, before anything is expanded
    gens = []
    for K in cl.primitive_collections:
        # a vanishing product (singular A_c) generates nothing; the
        # degeneracy surfaces through polymology's dimension check instead
        g = lin.q_product((c, h0(c.d(beta))) for c in cl.classes_of(K.edges))
        if g:
            gens.append(g)
    return tuple(gens)


def sector_gb(lin: LinearData, beta: CurveClass) -> GroebnerBasis:
    return lin.groebner_of(sector_ideal(lin, beta))


def transition(lin: LinearData, beta_prime: CurveClass, beta: CurveClass) -> Polynomial:
    """The multiplier R carrying sector beta into a dominating sector.

    R = prod_c Q_c^(h0(d_c') - h0(d_c)); its degree is n_beta' - n_beta, the
    difference of the two moduli space dimensions.
    """
    cl = lin.cl
    sector(lin, beta_prime)  # the degree ceilings, before anything is expanded
    sector(lin, beta)
    if not dominates(cl, beta_prime, beta):
        raise NotDominating(f"{beta_prime.d} does not dominate {beta.d}")
    return lin.q_product((c, h0(c.d(beta_prime)) - h0(c.d(beta))) for c in cl.equiv)
