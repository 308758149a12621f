"""Per-sector data of the gauged linear sigma model moduli spaces.

For an effective curve class beta, the moduli space is itself toric; its
bookkeeping is integer arithmetic on the exponents h0(d_c) and the primitive
collections of the base fan, recomputed on demand.  In this module only
`sector_ideal` and `transition` expand Q_c products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .lattice import ClassLattice, CurveClass, dominates, h0
from .poly import GroebnerBasis, Polynomial, echo

if TYPE_CHECKING:
    from .deform import LinearData


_MAX_DEGREE = 1000  # psi degree of a sector ideal generator, checked by ceiling()


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


def ceiling(cl: ClassLattice, d: tuple) -> None:
    """Refuse the sector of d-vector d when a generator prod_c Q_c^h0(d_c)
    has degree above _MAX_DEGREE.  Every caller runs it before it expands
    or lists anything of the sector: sector(), sector_ideal, transition,
    four_fermi, the expand route of verify_qc_relation, each anchor ring on
    its anchor and each row of a sector the caller chose.  A sector the
    anchor dominates needs no check of its own: h0 rises classwise, so each
    of its generator degrees is at most the anchor's."""
    for K in cl.primitive_collections:
        # K is a union of classes c (beta_K pairs 1 with K only), deg Q_c = |c|
        degree = 0
        for rho in K.edges:
            if d[rho] >= 0:  # h0(d_rho)
                degree += d[rho] + 1
        if degree > _MAX_DEGREE:
            raise SectorError(f"sector {echo(d)} needs a generator of degree {echo(degree)}, "
                              f"above the ceiling {_MAX_DEGREE}")


def nonempty(cl: ClassLattice, d: tuple) -> bool:
    """The moduli space of d-vector d is nonempty: no primitive collection
    has d < 0 on all of its rays."""
    for K in cl.primitive_collections:
        for rho in K.edges:
            if d[rho] >= 0:
                break
        else:
            return False
    return True


def sector(lin: LinearData, beta: CurveClass) -> SectorData:
    """Sector bookkeeping for a curve class.  Its first step is ceiling(),
    so nothing of an oversized sector is listed.  Callers that need only
    the ceiling, effectivity or nonemptiness call ceiling(),
    cl.is_effective or nonempty() instead."""
    cl = lin.cl
    fan = cl.fan
    d = beta.d
    pcs = cl.primitive_collections
    ceiling(cl, d)
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
    n_beta = sum(h0(d[rho]) for rho in range(fan.n_rays)) - cl.pic_rank
    return SectorData(beta=beta, enhanced_edges=enhanced,
                      degenerate=tuple(degenerate), n_beta=n_beta,
                      nonempty=nonempty(cl, d), effective=cl.is_effective(beta))


def sector_ideal(lin: LinearData, beta: CurveClass) -> tuple:
    """Generators of the sector Stanley-Reisner ideal: the nonzero
    prod_c Q_c^h0(d_c) over the classes of each primitive collection, in
    collection order.  At beta = 0 every h0 is 1, so this is the classical
    ideal SR(X, E) of Q_K.  A degenerate edge (rho, 0) adds nothing: the
    collection flagging it has d < 0 on its other rays, so its own generator
    is already Q_[rho].  A generator of degree above _MAX_DEGREE is a
    SectorError."""
    cl = lin.cl
    ceiling(cl, beta.d)
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
    ceiling(cl, beta_prime.d)
    ceiling(cl, beta.d)
    if not dominates(cl, beta_prime, beta):
        raise NotDominating(f"{beta_prime.d} does not dominate {beta.d}")
    return lin.q_product((c, h0(c.d(beta_prime)) - h0(c.d(beta))) for c in cl.equiv)
