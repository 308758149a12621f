"""Per-sector data of the gauged linear sigma model moduli spaces.

For an effective curve class beta, the moduli space is itself toric; its
cohomology-ring data is a pure function of the exponents h0(d_c) and the
primitive collections of the base fan, so no sector fan is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import CurveClass, dominates, h0
from .poly import GroebnerBasis, Polynomial
from .deform import LinearData


class SectorError(Exception):
    pass


class NotDominating(SectorError):
    pass


@dataclass(frozen=True)
class SectorData:
    """Enhanced-edge bookkeeping and the sector Stanley-Reisner ideal."""

    beta: CurveClass
    enhanced_edges: tuple   # pairs (rho, i), 0 <= i <= d_rho
    degenerate: tuple       # pairs (rho, 0) whose divisor is empty
    n_beta: int
    ideal_gens: tuple
    nonempty: bool
    effective: bool


@dataclass(frozen=True)
class Transition:
    source: CurveClass
    target: CurveClass
    r: Polynomial


def sector(lin: LinearData, beta: CurveClass) -> SectorData:
    """Sector data for a curve class; memoized per deformation."""
    hit = lin._sector_cache.get(beta)
    if hit is not None:
        return hit
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
    gens = []
    for K in pcs:
        g = lin.q_product((c, h0(c.d(beta))) for c in cl.classes_of(K.edges))
        if g:
            gens.append(g)
    for rho, _ in degenerate:
        g = lin.q_of(cl.class_of_ray(rho))
        if g and g not in gens:
            gens.append(g)
    data = SectorData(beta=beta, enhanced_edges=enhanced,
                      degenerate=tuple(degenerate), n_beta=n_beta,
                      ideal_gens=tuple(gens), nonempty=nonempty,
                      effective=cl.is_effective(beta))
    lin._sector_cache[beta] = data
    return data


def sector_gb(lin: LinearData, beta: CurveClass) -> GroebnerBasis:
    return lin.groebner_of(sector(lin, beta).ideal_gens)


def transition(lin: LinearData, beta_prime: CurveClass, beta: CurveClass) -> Transition:
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
    return Transition(source=beta, target=beta_prime, r=r)


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
