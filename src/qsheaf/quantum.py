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
from .lattice import (ClassLattice, CurveClass, beta_K, compositions, dominates,
                      find_anchor, h0, h1)
from .poly import (GroebnerBasis, PolyError, Polynomial, UnsupportedNovikovShape,
                   monomial_str, normal_form, signed_sum, sole_generator, standard_monomials,
                   top_functional)
from .deform import LinearData
from .linalg import _primitive
from .sectors import NotDominating, ceiling, nonempty, sector, sector_gb, transition


class QuantumError(Exception):
    pass


class AnchorDegenerate(QuantumError):
    """The anchor sector's top graded piece is not one-dimensional."""


class NonFanoEnumerationUnbounded(QuantumError):
    """A degree slice of the Mori cone is infinite; pass explicit sectors."""


def four_fermi(lin: LinearData, beta: CurveClass) -> Polynomial:
    """Obstruction factor F_beta = prod_c Q_c^{h1(d_c)} for excess dimension."""
    ceiling(lin.cl, beta.d)
    return lin.q_product((c, h1(c.d(beta))) for c in lin.cl.equiv)


class _AnchorRing:
    """The anchor sector ring of one query; every sector row is read off it.

    The ring's top graded piece is one-dimensional, so a row is one nonzero
    linear functional of R * p * F_beta, divided by its value on the
    generator.  `row` runs every row check for both rings, reading an
    insertion's own facts once per ring; a ring only computes its functional:
    one-variable residues at Picard rank <= 2 (_ResidueRing), else the anchor's
    Groebner basis (_GroebnerRing), the reference at every rank.
    """

    def __new__(cls, lin: LinearData, anchor: CurveClass):
        if cls is _AnchorRing:
            cls = _ResidueRing if lin.cl.pic_rank <= 2 else _GroebnerRing
        return super().__new__(cls)

    def __init__(self, lin: LinearData, anchor: CurveClass):
        self.lin = lin
        self.anchor = anchor
        sec = sector(lin, anchor)
        if not sec.nonempty:
            raise AnchorDegenerate(f"anchor sector of {anchor.d} has top dimension 0")
        self.n = sec.n_beta
        self._degrees = {}  # insertion p in Sym*W -> its psi degree

    def row(self, p: Polynomial, beta: CurveClass):
        """Correlator scalar of p in sector beta and a reason tag ('ok',
        'degree', 'empty', 'ineffective').  Raises for an insertion outside
        Sym*W or a non-dominating anchor."""
        cl, anchor = self.lin.cl, self.anchor
        if p not in self._degrees:
            if not p.is_psi_homogeneous() or p.has_q():
                raise QuantumError("correlator insertions must be homogeneous in Sym*W")
            self._degrees[p] = p.psi_degree()
        if self._degrees[p] != beta.c1() + cl.fan.rank:
            return Fraction(0), "degree"
        ceiling(cl, beta.d)
        if not cl.is_effective(beta):
            return Fraction(0), "ineffective"
        if not nonempty(cl, beta.d):
            return Fraction(0), "empty"
        if not dominates(cl, anchor, beta):
            raise NotDominating(f"{anchor.d} does not dominate {beta.d}")
        self.generator._check(p)  # same ring, as the product R * p * F_beta would demand
        return self._scalar(p, beta), "ok"


class _GroebnerRing(_AnchorRing):
    """A row is the coefficient of the generator in NF(R * p * F_beta), read
    off the anchor basis's memoized top functional on packed monomials.  Its
    memos, per monomial and per insertion, live as long as the ring.  The
    functional reads each element of the monic basis through
    poly._Packing.rule, as its primitive integer multiple: a normal form
    does not see the scale of a basis element, and an int tail multiplies a
    value faster than a Fraction one."""

    def __init__(self, lin: LinearData, anchor: CurveClass):
        super().__init__(lin, anchor)
        gb = sector_gb(lin, anchor)
        monos = standard_monomials(gb, self.n)
        self.generator = sole_generator(monos)
        if self.generator is None:
            raise AnchorDegenerate(
                f"anchor sector of {anchor.d} has top dimension {len(monos)}")
        self._value, self._pack = top_functional(gb, monos[0])
        self._forms = {}  # p -> (p's packed terms, {packed m: sum_m' p_m' value(m m')})

    def _scalar(self, p: Polynomial, beta: CurveClass) -> Fraction:
        # R * F_beta = prod_c Q_c^((h0(d_c(A)) - h0(d_c)) + h1(d_c)), and h0 - h1 = d + 1
        # an integer product and its content num / den, applied once
        f, num, den = self.lin._q_parts((c, h0(c.d(self.anchor)) - c.d(beta) - 1)
                                        for c in self.lin.cl.equiv)
        total, pack, value = 0, self._pack, self._value
        if p not in self._forms:
            self._forms[p] = ([(pack(mp), cp) for (mp, _), cp in p.terms.items()], {})
        terms, sums = self._forms[p]
        try:
            for (m, _), c in f.terms.items():
                m = pack(m)
                if m not in sums:
                    sums[m] = sum(cp * value(m + mp) for mp, cp in terms)
                total += c * sums[m]
        except PolyError:
            raise QuantumError("normal form escaped the top graded piece") from None
        return Fraction(total * num, den)


class _ResidueRing(_AnchorRing):
    """Picard rank <= 2: the functional as a sum of one-variable residues.

    Put psi1 = u * psi2 and q_c(u) = Q_c(u, 1); at rank 1, u = psi.  Rank 2
    has exactly two primitive collections (Kleinschmidt 1988; Batyrev 1991),
    so the anchor ring is a complete intersection in two variables.  Fix a
    collection K none of whose q_c drops degree, so u = oo is none of its
    roots.  The sum over the roots of prod_{c in K} q_c of Res_u h(u, 1) /
    prod_c q_c^h0(d_c(A)) vanishes on the anchor ideal, so it is a top-degree
    functional (Cattani-Dickenstein, Introduction to residues and
    resultants, 2005).  R cancels into the denominator and h0 - h1 = d + 1,
    so a row is the residue sum of p(u, 1) / prod_c q_c^(d_c(beta) + 1).
    With D the K-part of that denominator and E the rest, the sum is
    [u^(deg D - 1)] (N * E^-1 mod D) / lc(D), and nothing is expanded in two
    variables.

    The arithmetic is over Z[u] with one rational scale: each q_c is its
    primitive part and content from LinearData, D stays integral and not
    monic, every reduction mod D is a pseudo-division whose multiplier and
    content go into integer accumulators, and E^-1 comes from one integer
    pseudo-remainder sequence (Collins, JACM 1967; Brown-Traub, JACM 1971).
    A value meets one Fraction, at the end.
    """

    def __init__(self, lin: LinearData, anchor: CurveClass):
        super().__init__(lin, anchor)
        cl, n = lin.cl, self.n
        self._q = [(_dehomogenize(b), num, den) for b, num, den in lin._parts]
        for K in cl.primitive_collections:
            if all(len(self._q[c.index][0]) == c.size + 1
                   for c in cl.classes_of(K.edges) if h0(c.d(anchor))):
                break
        else:
            raise AnchorDegenerate(
                f"anchor sector of {anchor.d}: u = oo is a root of both collections")
        self._k = cl.classes_of(K.edges)
        # rho_A(u^a) = [u^(deg D - 1)] u^a * N * E^-1 mod D for N = 1: u^a * r
        # needs no reduction while its top coefficient is 0, so the least a
        # with rho_A(u^a) != 0 is the number of leading zeros of r
        d, r, top, bottom = self._residue_parts([h0(c.d(anchor)) for c in cl.equiv], [1])
        a = len(d) - 1 - len(r)
        if not r or a > n:
            raise AnchorDegenerate(f"anchor sector of {anchor.d} has top dimension 0")
        self.generator = Polynomial(cl.pic_rank, 0,
                                    {((a, n - a)[:cl.pic_rank], ()): Fraction(1)})
        self._norm = Fraction(top * r[-1], bottom)  # rho_A(generator)

    def _residue_parts(self, exponents: list, numerator: list) -> tuple:
        """(D, r, top, bottom) for numerator * prod_c q_c^-exponents[c], with
        the residue sum top / bottom * [u^(deg D - 1)] r.  D is the primitive
        K-part of its denominator and E the rest; r is N * E^-1 mod D up to
        that scale, N the numerator with the factors of exponent < 0 folded
        in.  Every product is taken one factor q_c at a time; sector(lin,
        anchor) in __init__ keeps deg D, and so the number of factors, at
        most 1000."""
        d = [1]
        for cls in self._k:
            for _ in range(exponents[cls.index]):
                d = _umul(d, self._q[cls.index][0])
        if len(d) == 1:
            return d, [], 0, 1  # no pole, so the residue sum is 0
        num, top, bottom = _primitive(numerator)
        bottom *= d[-1]
        num, c, m = _reduce(num, d)
        top, bottom = top * c, bottom * m
        den = [1]
        for cls in self.lin.cl.equiv:
            (q, qn, qd), e = self._q[cls.index], exponents[cls.index]
            # q_c^-e = (qn / qd)^-e * q^-e: the content leaves as an integer ratio
            if e < 0:
                top, bottom = top * qn ** -e, bottom * qd ** -e
            else:
                top, bottom = top * qd ** e, bottom * qn ** e
            for _ in range(-e):
                num, c, m = _reduce(_umul(num, q), d)
                top, bottom = top * c, bottom * m
            if cls not in self._k:
                for _ in range(e):
                    den, c, m = _reduce(_umul(den, q), d)
                    top, bottom = top * m, bottom * c
        inverse = _inverse(den, d)
        if inverse is None:
            raise AnchorDegenerate(
                f"anchor sector of {self.anchor.d}: the generators of its two "
                "collections share a root")
        s, g = inverse
        r, c, m = _reduce(_umul(num, s), d)
        return d, r, top * c, bottom * m * g

    def _scalar(self, p: Polynomial, beta: CurveClass) -> Fraction:
        d, r, top, bottom = self._residue_parts(
            [c.d(beta) + 1 for c in self.lin.cl.equiv], _dehomogenize(p))
        return Fraction(top * _coefficient(r, len(d) - 2), bottom) / self._norm


# ---- one-variable polynomials over Z: dense lists, lowest coefficient first --

def _dehomogenize(p: Polynomial) -> list:
    """Coefficients of p(u, 1), u = psi1 / psi2 (u = psi at rank 1)."""
    out = [0] * (max((e[0] for e, _ in p.terms), default=-1) + 1)
    for (e, _), c in p.terms.items():
        out[e[0]] = c
    return out


def _coefficient(a: list, k: int) -> int:
    return a[k] if 0 <= k < len(a) else 0


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _usub(a: list, b: list) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _umul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b:
                out[i + j] += x * y
    return out


def _pseudo_divmod(a: list, b: list) -> tuple:
    """(m, q, r) with m * a = q * b + r and deg r < deg b, for integer lists
    and a trimmed nonzero b.  m > 0 is the product of the factors of lc(b)
    that each eliminated leading coefficient needed, not lc(b)^(deg a -
    deg b + 1)."""
    n, lc = len(b) - 1, b[-1]
    a = list(a)
    steps = []  # (quotient coefficient, multiplier), top step first
    for k in range(len(a) - 1, n - 1, -1):
        x = a[k]
        if not x:
            steps.append((0, 1))
            continue
        g = math.gcd(x, lc) if lc > 0 else -math.gcd(x, lc)
        f, c = lc // g, x // g  # f * x = c * lc, f > 0
        if f != 1:
            for i in range(k - n):
                a[i] *= f
            for j in range(n):
                a[k - n + j] = f * a[k - n + j] - c * b[j]
        else:
            for j in range(n):
                a[k - n + j] -= c * b[j]
        steps.append((c, f))
    # a later step's multiplier scales every earlier quotient coefficient
    q, m = [], 1
    for c, f in reversed(steps):
        q.append(c * m)
        m *= f
    return m, _trim(q), _trim(a[:n])


def _reduce(a: list, d: list) -> tuple:
    """(r, c, m) with a = c / m * r mod d, r primitive (or empty)."""
    m, _, r = _pseudo_divmod(a, d)
    c = math.gcd(*r) or 1
    return ([x // c for x in r] if c != 1 else r), c, m


def _inverse(e: list, d: list) -> Optional[tuple]:
    """(s, g) with s * e = g mod d and g a nonzero int, for integer lists, d
    of degree >= 1 and deg e < deg d, by a pseudo-remainder sequence that
    carries the cofactor of e and divides each remainder and its cofactor by
    their common content; None when e and d share a root."""
    r0, r1, s0, s1 = d, e, [], [1]
    while len(r1) > 1:
        m, q, r = _pseudo_divmod(r0, r1)
        s = _usub([m * x for x in s0], _umul(q, s1))
        c = math.gcd(*r, *s)
        if c > 1:
            r, s = [x // c for x in r], [x // c for x in s]
        r0, r1, s0, s1 = r1, r, s1, s
    if not r1:
        return None
    return s1, r1[0]


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
    """All effective classes with c1 . beta = t (finite only in the Fano regime).

    The slice lies in the bounding box of its vertices t / c1(g) * g over
    the Mori generators g.  c1 is linear in the curve coordinates, so the
    walk covers the box in every coordinate but the last one, j, whose basis
    vector has c1 != 0, and solves c1 = t for coordinate j.
    """
    gens = cl.mori
    weights = [g.c1() for g in gens]
    if any(w <= 0 for w in weights):
        raise NonFanoEnumerationUnbounded(
            "a Mori generator has nonpositive anticanonical degree; "
            "the degree slice is infinite, supply explicit sectors")
    if t < 0:
        return ()
    # w > 0, so the ceiling of the least vertex coordinate is the least ceiling
    box = [[(t * g.coords[k], w) for g, w in zip(gens, weights)] for k in range(cl.pic_rank)]
    ranges = [range(min(-(-a // w) for a, w in col), max(a // w for a, w in col) + 1)
              for col in box]
    c1s = [sum(d) for d in cl.curve_basis_d]  # c1 of each curve-basis vector
    j = max(k for k, w in enumerate(c1s) if w)  # some Mori generator has c1 > 0
    found = []
    for rest in itertools.product(*ranges[:j], *ranges[j + 1:]):
        x, r = divmod(t - sum(c * w for c, w in zip(rest, c1s[:j] + c1s[j + 1:])), c1s[j])
        if r or x not in ranges[j]:
            continue
        beta = cl.curve_from_coords(rest[:j] + (x,) + rest[j:])
        if cl.is_effective(beta):
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
    for total in range(coeff_bound + 1):
        for combo in compositions(total, len(gens)):
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
    if not any(beta.coords):
        return ""
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
    out = []
    for K, (bk, kminus) in cl.primitive_relations.items():
        lhs = lin.q_k(K)
        rhs = (Polynomial.novikov(cl.pic_rank, nq, bk.coords)
               * lin.q_product(kminus).with_q(nq))
        out.append(QuantumRelation(collection=K, beta_k=bk, kminus=kminus, lhs=lhs,
                                   rhs=rhs, difference=lhs.with_q(nq) - rhs))
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

def _mori_quantum_basis(lin: LinearData) -> GroebnerBasis:
    """Reduced basis of the quantum ideal, Novikov exponents in Mori coordinates.

    Raises UnsupportedNovikovShape unless the Mori generators form a basis
    of the curve lattice.
    """
    cl = lin.cl
    if not cl.mori_is_basis:
        raise UnsupportedNovikovShape(
            f"{len(cl.mori)} Mori generators are no basis of the rank "
            f"{cl.pic_rank} curve lattice")
    return lin.groebner_of(tuple(rel.difference.map_q(cl.to_mori, cl.pic_rank)
                                 for rel in qsr_generators(lin)))


def quantum_groebner(lin: LinearData) -> tuple:
    """Reduced basis of the quantum ideal, Novikov exponents in curve coordinates."""
    cl = lin.cl
    return tuple(g.map_q(lambda a: cl.from_mori(a).coords, cl.pic_rank)
                 for g in _mori_quantum_basis(lin).polys)


def quantum_normal_form(lin: LinearData, p: Polynomial) -> Polynomial:
    """Normal form in the quantum ring QH*_E(X).

    Requires the Mori generators to form a basis of the curve lattice, so
    the Novikov exponents can be coordinatized nonnegatively.
    """
    cl = lin.cl
    gb = _mori_quantum_basis(lin)
    if p.nq == 0:
        p = p.with_q(cl.pic_rank)
    if p.nq != cl.pic_rank:
        raise QuantumError("polynomial lives in the wrong Novikov ring")
    q = p.map_q(cl.to_mori, cl.pic_rank)
    for (_, qpart) in q.terms:
        if any(e < 0 for e in qpart):
            raise UnsupportedNovikovShape(
                "input Novikov exponents are not effective")
    return normal_form(q, gb).map_q(lambda a: cl.from_mori(a).coords, cl.pic_rank)
