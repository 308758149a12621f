"""Per-sector data of the gauged linear sigma model moduli spaces.

For an effective curve class beta, the moduli space is itself toric; its
bookkeeping is integer arithmetic on the exponents h0(d_c) and the primitive
collections of the base fan, recomputed on demand.  Only `sector_ideal`
expands Q_c products, for the few sectors whose ring is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import CurveClass, dominates, h0
from .poly import GroebnerBasis, Polynomial
from .deform import LinearData


_MAX_DEGREE = 1000  # psi degree of a sector ideal generator, checked before expanding


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
    """Sector bookkeeping for a curve class."""
    cl = lin.cl
    fan = cl.fan
    d = beta.d
    enhanced = tuple((rho, i) for rho in range(fan.n_rays) if d[rho] >= 0
                     for i in range(d[rho] + 1))
    pcs = cl.primitive_collections
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
    """Generators of the sector Stanley-Reisner ideal: prod_c Q_c^h0(d_c) over
    the classes of each primitive collection, and Q_[rho] for each degenerate
    edge (rho, 0).  A generator of degree above _MAX_DEGREE is a SectorError."""
    cl = lin.cl
    gens = []
    for K in cl.primitive_collections:
        powers = [(c, h0(c.d(beta))) for c in cl.classes_of(K.edges)]
        degree = sum(c.size * e for c, e in powers)  # deg Q_c = |c|
        if degree > _MAX_DEGREE:
            raise SectorError(f"sector {beta.d} needs a generator of degree {degree}, "
                              f"above the ceiling {_MAX_DEGREE}")
        g = lin.q_product(powers)
        if g:
            gens.append(g)
    for rho, _ in sector(lin, beta).degenerate:
        g = lin.q_of(cl.class_of_ray(rho))
        if g and g not in gens:
            gens.append(g)
    return tuple(gens)


def sector_gb(lin: LinearData, beta: CurveClass) -> GroebnerBasis:
    return lin.groebner_of(sector_ideal(lin, beta))


def transition(lin: LinearData, beta_prime: CurveClass, beta: CurveClass) -> Polynomial:
    """The multiplier R carrying sector beta into a dominating sector.

    R = prod_c Q_c^(h0(d_c') - h0(d_c)); its degree equals the dimension gap
    between the two moduli spaces, which is asserted.
    """
    cl = lin.cl
    if not dominates(cl, beta_prime, beta):
        raise NotDominating(f"{beta_prime.d} does not dominate {beta.d}")
    r = lin.q_product((c, h0(c.d(beta_prime)) - h0(c.d(beta))) for c in cl.equiv)
    if r:
        gap = sector(lin, beta_prime).n_beta - sector(lin, beta).n_beta
        if r.psi_degree() != gap:
            raise SectorError(
                f"transition degree {r.psi_degree()} != dimension gap {gap}")
    return r


def transfer_check(lin: LinearData, beta_prime: CurveClass, beta: CurveClass) -> bool:
    """R * Q_{K_beta} lies in (Q_{K_beta'}) for every primitive collection.

    Decided by exact exponent comparison factor by factor; no Groebner
    machinery is involved.
    """
    cl = lin.cl
    if not dominates(cl, beta_prime, beta):
        raise NotDominating(f"{beta_prime.d} does not dominate {beta.d}")
    for K in cl.primitive_collections:
        kset = {c.index for c in cl.classes_of(K.edges)}
        for c in cl.equiv:
            shift = h0(c.d(beta_prime)) - h0(c.d(beta))
            left = shift + (h0(c.d(beta)) if c.index in kset else 0)
            right = h0(c.d(beta_prime)) if c.index in kset else 0
            if left < right:
                return False
    return True
