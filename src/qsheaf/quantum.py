"""Correlation functions, quantum Stanley-Reisner relations, verification.

Correlators are scalars against the canonical top-degree monomial of one
anchor sector that dominates everything in a query; only ratios are
intrinsic and every report records its anchor.  The quantum relations are
verified by the exact exponent identity (pure integer arithmetic), with a
full polynomial-expansion route and a correlator route as cross-checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .fan import PrimitiveCollection
from .lattice import ClassLattice, CurveClass, beta_K, dominates, find_anchor, h0, h1
from .poly import (GroebnerBasis, PolyError, Polynomial, UnsupportedNovikovShape,
                   _capped_exponents, _dehomogenize, _umul, _upower, monomial_str, normal_form,
                   signed_sum, sole_generator, standard_monomials, top_functional)
from .deform import LinearData
from .linalg import _primitive
from .sectors import NotDominating, ceiling, nonempty, sector_gb


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
    generator.  `row` runs the row checks for both rings, reading an
    insertion's own facts once per ring; a ring only computes its functional:
    one-variable residues at Picard rank <= 2 (_ResidueRing), else the anchor's
    Groebner basis (_GroebnerRing), the reference at every rank.  cover
    holds the sectors the caller will read rows of; only the residue ring
    reads it.  A ring built by `over` owns its sectors: find_anchor proved
    each effective and the anchor dominates each, so their rows skip the
    ceiling, effectivity and dominance checks (see sectors.ceiling).
    """

    def __new__(cls, lin: LinearData, anchor: CurveClass, cover: Sequence[CurveClass] = ()):
        if cls is _AnchorRing:
            cls = _ResidueRing if lin.cl.pic_rank <= 2 else _GroebnerRing
        return super().__new__(cls)

    def __init__(self, lin: LinearData, anchor: CurveClass, cover: Sequence[CurveClass] = ()):
        cl = lin.cl
        self.lin = lin
        self.anchor = anchor
        ceiling(cl, anchor.d)
        if not nonempty(cl, anchor.d):
            raise AnchorDegenerate(f"anchor sector of {anchor.d} has top dimension 0")
        self.n = sum(map(h0, anchor.d)) - cl.pic_rank  # n_A, as sector() counts it
        self._degrees = {}  # insertion p in Sym*W -> its psi degree
        self._own = frozenset()  # d-vectors of the sectors find_anchor built the anchor from

    @classmethod
    def over(cls, lin: LinearData, sectors: Sequence[CurveClass]) -> _AnchorRing:
        """The ring of find_anchor(sectors), covering them and owning them."""
        ring = cls(lin, find_anchor(lin.cl, sectors), sectors)
        ring._own = frozenset(beta.d for beta in sectors)
        return ring

    def row(self, p: Polynomial, beta: CurveClass):
        """Correlator scalar of p in sector beta and a reason tag ('ok',
        'degree', 'empty', 'ineffective').  Raises for an insertion outside
        Sym*W or a non-dominating anchor."""
        cl = self.lin.cl
        if p not in self._degrees:
            self._degrees[p] = _insertion_degree(p, "correlator")
        if self._degrees[p] != beta.c1() + cl.fan.rank:
            return Fraction(0), "degree"
        own = beta.d in self._own
        if not own:
            ceiling(cl, beta.d)
            if not cl.is_effective(beta):
                return Fraction(0), "ineffective"
        if not nonempty(cl, beta.d):
            return Fraction(0), "empty"
        if not own and not dominates(cl, self.anchor, beta):
            raise NotDominating(f"{self.anchor.d} does not dominate {beta.d}")
        self.generator._check(p)  # same ring, as the product R * p * F_beta would demand
        return self._scalar(p, beta), "ok"


def _insertion_degree(p: Polynomial, what: str) -> int:
    """The psi degree of an insertion in Sym*W, that of any one of its terms;
    a QuantumError names what the insertion was for."""
    if not p.is_psi_homogeneous() or p.has_q():
        raise QuantumError(f"{what} insertions must be homogeneous in Sym*W")
    return sum(next(iter(p.terms))[0]) if p.terms else -1


class _GroebnerRing(_AnchorRing):
    """A row is the coefficient of the generator in NF(R * p * F_beta).

    When every element of the anchor basis is one monomial (T_X of a product
    of projective spaces, whose Q_c are powers of one Picard generator, and
    rescaled Euler maps of it), a monomial's normal form is itself or 0 (CLO
    ch. 2), so the functional is 1 at the generator and 0 elsewhere: a row
    is one lookup of p's coefficient at generator / m per term m of R *
    F_beta.  Otherwise it is read off the anchor basis's memoized top
    functional on packed monomials, int pairs over one scale: a row sums in
    ints and makes one Fraction.  Its memos, per monomial and per insertion,
    live as long as the ring."""

    def __init__(self, lin: LinearData, anchor: CurveClass, cover: Sequence[CurveClass] = ()):
        super().__init__(lin, anchor)
        gb = sector_gb(lin, anchor)
        monos = standard_monomials(gb, self.n)
        self.generator = sole_generator(monos)
        if self.generator is None:
            raise AnchorDegenerate(
                f"anchor sector of {anchor.d} has top dimension {len(monos)}")
        self._top = monos[0] if all(len(g.terms) == 1 for g in gb.polys) else None
        if self._top is None:
            self._value, self._pack = top_functional(gb, monos[0])
            self._forms = {}  # p -> (p's packed terms, {packed m: sum_m' p_m' value(m m')})

    def _scalar(self, p: Polynomial, beta: CurveClass) -> Fraction:
        # R * F_beta = prod_c Q_c^((h0(d_c(A)) - h0(d_c)) + h1(d_c)), and h0 - h1 = d + 1
        # an integer product and its content num / den, applied once
        f, num, den = self.lin._q_parts((c, h0(c.d(self.anchor)) - c.d(beta) - 1)
                                        for c in self.lin.cl.equiv)
        if self._top is not None:  # p has no term whose exponents go negative
            total = sum(c * p.terms.get((tuple(map(operator.sub, self._top, m)), ()), 0)
                        for (m, _), c in f.terms.items())
            return Fraction(total * num, den)
        pack, value = self._pack, self._value
        if p not in self._forms:
            self._forms[p] = ([(pack(mp), cp) for (mp, _), cp in p.terms.items()], {})
        terms, sums = self._forms[p]
        row = []
        try:
            for (m, _), c in f.terms.items():
                m = pack(m)
                if m not in sums:
                    sums[m] = value.dot((cp, value.pair(m + mp)) for mp, cp in terms)
                row.append((c, sums[m]))
        except PolyError:
            raise QuantumError("normal form escaped the top graded piece") from None
        total, k = value.dot(row)
        return Fraction(total * num, den * value.scale ** k)


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

    The rows of a query read one functional, that of the ring's cover m:
    m_c = max(0, max_beta d_c(beta) + 1) over the sectors the caller will
    read, capped at the anchor's exponents h0(d_c(A)).  A row outside the
    cover takes m from its own sector alone.
    With D_m = prod_{c in K} q_c^m_c and E_m the product over the other
    classes, rho_m(h) is the residue sum of h / (D_m * E_m) over the roots
    of D_m: [u^(deg D_m - 1)] (h * E_m^-1 mod D_m) / lc(D_m).  A row is
    rho_m(p * prod_c q_c^(m_c - d_c(beta) - 1)).  Every exponent there is
    >= 0, because m covers the row, so no row has a numerator of Q_c
    factors of its own; the added factors cancel against the denominator,
    and a root of D_m where the row has no pole adds a residue of 0.
    m_c <= h0(d_c(A)), by the cap or, for a row's own m, because the
    anchor dominates the row and h0 rises classwise.  So D_m and E_m divide
    the anchor's D and E, which __init__ checks are coprime, and are
    coprime too.  The anchor and every row sector are nonempty, so D_m has
    a pole.  And n_A = deg D + deg E - pic_rank with deg E >= pic_rank - 1,
    so the generator's u-degree, at most deg D - 1, is at most n_A.  No
    other case is left.

    The arithmetic is over Z[u] with one rational scale per functional,
    on poly's dense int lists (`_dehomogenize`, and `_umul`, the multiply
    power_product uses on the same forms): each q_c is its primitive part
    and content from LinearData, and D stays integral and not monic.  The
    anchor raises each q_c to h0(d_c(A)) in one step (`_upower`, Miller's
    recurrence); the cover and the rows, whose exponents are at most m,
    share powers q_c^j cached one step at a time.  A vanishing q_c (a
    singular A_c) is never in K, and its empty power makes E = 0, which
    the anchor's inversion refuses as a shared root.  E is reduced mod D
    once, by a pseudo-division whose multiplier and content go into
    integer accumulators.  E_m^-1 mod D_m is one integer
    pseudo-remainder sequence per functional (`_inverse`;
    Collins, JACM 1967; Brown-Traub, JACM 1971).  `_inverse_lead` serves
    only the anchor normalization: it reads the generator and
    rho_A(generator) off the remainders of the anchor's sequence.  A
    functional keeps rho_m(u^i), i = 0..n_m, the digits of the quotient of
    u^(n_m + 1) * s by D_m (s * E_m = g mod D_m), and per insertion p the
    values rho_m(p * u^j), so a row is one product of cached q_c powers, one
    dot and one Fraction; the quotient's scale and rho_A(generator) are
    folded into one num / den per functional.
    """

    def __init__(self, lin: LinearData, anchor: CurveClass, cover: Sequence[CurveClass] = ()):
        super().__init__(lin, anchor, cover)
        cl, n = lin.cl, self.n
        self._q = [(_dehomogenize(b), num, den) for b, num, den in lin._parts]
        self._powers = [[[1], q] for q, _, _ in self._q]  # q_c^j
        # (c.index, num, den) for each Q_c = num / den * q_c with num / den != 1
        self._contents = [(i, num, den) for i, (_, num, den) in enumerate(self._q)
                          if num != den]
        for K in cl.primitive_collections:
            if all(len(self._q[c.index][0]) == c.size + 1
                   for c in cl.classes_of(K.edges) if h0(c.d(anchor))):
                break
        else:
            raise AnchorDegenerate(
                f"anchor sector of {anchor.d}: u = oo is a root of both collections")
        self._k = cl.classes_of(K.edges)
        self._rest = [c for c in cl.equiv if c not in self._k]
        exponents = [h0(c.d(anchor)) for c in cl.equiv]
        m = [0] * len(exponents)
        for beta in cover:
            for c in cl.equiv:
                if c.d(beta) >= m[c.index]:
                    m[c.index] = c.d(beta) + 1
        # capped at the anchor's exponents, whatever sectors the caller hands
        self._cover = tuple(map(min, m, exponents))
        self._functionals = {}  # m -> (rho_m values, num, den, {p: p * rho_m})
        # rho_A(u^a) = [u^(deg D - 1)] u^a * s / g for s * E = g mod D, deg s <
        # deg D: the least a with rho_A(u^a) != 0 is deg D - 1 - deg s
        # the anchor's powers in one step each, by Miller's recurrence
        d, e, top, bottom = self._parts(exponents, lambda i, x: _upower(self._q[i][0], x))
        inverse = _inverse_lead(e, d)
        if inverse is None:
            raise AnchorDegenerate(f"anchor sector of {anchor.d}: the generators of its two "
                                   "collections share a root")
        k, lead, g = inverse
        a = len(d) - 2 - k
        self.generator = Polynomial(cl.pic_rank, 0,
                                    {((a, n - a)[:cl.pic_rank], ()): Fraction(1)})
        self._norm = Fraction(top * lead, bottom * g)  # rho_A(generator)

    def _power(self, i: int, e: int) -> list:
        """q_c^e for c.index = i, from the one-step list of the ring's powers."""
        powers = self._powers[i]
        while len(powers) <= e:
            powers.append(_umul(powers[-1], powers[1]))
        return powers[e]

    def _product(self, classes, exponents, power=None) -> list:
        """prod q_c^e over the classes c with e = exponents[c.index] > 0,
        each power taken by power(c.index, e), by default the one-step list."""
        power = power or self._power
        factors = [power(c.index, exponents[c.index]) for c in classes if exponents[c.index] > 0]
        return functools.reduce(_umul, factors) if factors else [1]

    def _parts(self, exponents, power=None) -> tuple:
        """(D, E, top, bottom), the residue sum of h * prod_c Q_c^-exponents[c]
        being top / bottom * [u^(deg D - 1)] h * E^-1 mod D, for exponents
        >= 0.  D is the K-part of the denominator, E the rest reduced mod D;
        the ceiling in __init__ keeps deg D at most 1000."""
        d = self._product(self._k, exponents, power)
        top, bottom = 1, d[-1]
        for i, qn, qd in self._contents:  # Q_c^-e = (qd / qn)^e * q_c^-e
            top, bottom = top * qd ** exponents[i], bottom * qn ** exponents[i]
        m, _, e = _pseudo_divmod(self._product(self._rest, exponents, power), d)
        e, c, _ = _primitive(e)
        return d, e, top * m, bottom * c

    def _functional(self, m: tuple) -> tuple:
        """rho_m(u^i), i = 0..n_m, as ints; num / den, which turns their dot
        with a row's numerator into its value against the generator; and the
        insertion memo."""
        cl = self.lin.cl
        d, e, top, bottom = self._parts(m)
        s, g = _inverse(e, d)
        size = sum(c.size * x for c, x in zip(cl.equiv, m)) - cl.pic_rank + 1
        # [u^(deg D - 1)] (u^i * s mod D) = lc(D) [u^-(i + 1)] s / D at u = oo,
        # and scale * u^size * s = q * D + r: so it is lc(D) q[size - 1 - i] / scale
        scale, q, _ = _pseudo_divmod([0] * size + s, d)
        values, c, _ = _primitive([0] * (size - len(q)) + q[::-1])
        return (values, top * c * d[-1] * self._norm.denominator,
                bottom * g * scale * self._norm.numerator, {})

    def _scalar(self, p: Polynomial, beta: CurveClass) -> Fraction:
        equiv = self.lin.cl.equiv
        e = [c.d(beta) + 1 for c in equiv]
        m = self._cover
        if any(map(operator.gt, e, m)):
            m = tuple(x if x > 0 else 0 for x in e)
        functional = self._functionals.get(m)
        if functional is None:
            functional = self._functionals[m] = self._functional(m)
        values, top, bottom, sums = functional
        row = sums.get(p)
        if row is None:  # row[j] = rho_m(p * u^j), times the scale
            h = _dehomogenize(p)
            row = sums[p] = [sum(map(operator.mul, h, values[j:]))
                             for j in range(len(values) - len(h) + 1)]
        k = [y - x for x, y in zip(e, m)]  # all >= 0
        for i, qn, qd in self._contents:  # Q_c^k = (qn / qd)^k * q_c^k
            if k[i]:
                top, bottom = top * qn ** k[i], bottom * qd ** k[i]
        return Fraction(top * sum(map(operator.mul, self._product(equiv, k), row)), bottom)


# ---- one-variable polynomials over Z: dense lists, lowest coefficient first --

def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


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


def _inverse(e: list, d: list) -> Optional[tuple]:
    """(s, g) with s * e = g mod d and g a nonzero int, for integer lists, d
    of degree >= 1 and deg e < deg d, by a pseudo-remainder sequence that
    carries the cofactor of e and divides each remainder and its cofactor by
    their common content; None when e and d share a root."""
    r0, r1, s0, s1 = d, e, [], [1]
    while len(r1) > 1:
        m, q, r = _pseudo_divmod(r0, r1)
        s = [-x for x in _umul(q, s1)]  # deg(q * s1) > deg s0
        for i, x in enumerate(s0):
            s[i] += m * x
        c = math.gcd(*r, *s)
        if c > 1:
            r, s = [x // c for x in r], [x // c for x in s]
        r0, r1, s0, s1 = r1, r, s1, s
    if not r1:
        return None
    return s1, r1[0]


def _inverse_lead(e: list, d: list) -> Optional[tuple]:
    """(deg s, lc(s), g) for _inverse's s * e = g mod d, up to one scale,
    from its remainders alone: m r0 = q r1 + c r2 gives s2 = (m s0 - q s1) /
    c with deg(q s1) > deg s0 (Brown-Traub, JACM 1971)."""
    r0, r1, k, lead, g = d, e, 0, 1, 1
    while len(r1) > 1:
        _, q, r = _pseudo_divmod(r0, r1)
        r, c, _ = _primitive(r)
        r0, r1, k, lead, g = r1, r, k + len(q) - 1, -lead * q[-1], g * c
    if not r1:
        return None
    return k, lead, g * r1[0]


def correlator_sector(lin: LinearData, p: Polynomial, beta: CurveClass,
                      anchor: CurveClass) -> Fraction:
    """Sector correlator of p, reported against the anchor's generator.

    Raises AnchorDegenerate for a degenerate anchor, even where the value
    would be 0 by degree.
    """
    return _AnchorRing(lin, anchor, (beta,)).row(p, beta)[0]


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
        for combo in _capped_exponents([total + 1] * len(gens), total):
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
    degree = _insertion_degree(p, "series")
    target = degree - cl.fan.rank
    if sectors is None:
        if target > max_c1_degree:
            raise QuantumError(
                f"degree slice c1 = {target} exceeds max_c1_degree = {max_c1_degree}")
        sectors = inputs = degree_slice(cl, target)  # effective, as find_anchor checks
    else:
        sectors = tuple(sectors)
        inputs = [b for b in sectors if cl.is_effective(b)]
    ring = _AnchorRing.over(lin, inputs or [cl.zero_curve])
    ring._degrees[p] = degree  # checked above
    rows = tuple(SectorRow(beta, *ring.row(p, beta)) for beta in sectors)
    series = tuple((row.beta, row.scalar) for row in rows if row.scalar)
    return CorrelatorReport(poly=p, anchor=ring.anchor, generator=ring.generator,
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
    integer arithmetic; 'expand' expands each side of the identity in Sym*W
    as one product of its integer parts and compares those, then the two
    contents; 'correlator' compares correlators of the supplied insertions
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
        for rho in cl._representatives:
            dk, db, dbp = bk.d[rho], beta.d[rho], beta_prime.d[rho]
            left = (h0(dbp) - h0(db + dk)) + h1(db + dk) + (1 if dk > 0 else 0)
            right = (h0(dbp) - h0(db)) + h1(db) + (-dk if dk < 0 else 0)
            if left != right:
                return False
        return True
    if route not in ("expand", "correlator"):
        raise ValueError(f"unknown route {route!r}")
    qk = [(c, 1) for c in cl.classes_of(K.edges)]  # d_c(beta_K) > 0 exactly there
    if route == "expand":  # beta' dominates beta and beta + beta_K: its ceiling is theirs
        ceiling(cl, beta_prime.d)
        # R_{beta'<-b} * F_b * Q, one product per side, as num / den * (int
        # part), with one exponent per class
        sides = []
        for b, q in ((shifted, qk), (beta, kminus)):
            exps = [h0(beta_prime.d[rho]) - h0(b.d[rho]) + h1(b.d[rho])
                    for rho in cl._representatives]
            for c, m in q:
                exps[c.index] += m
            sides.append(lin._q_parts(zip(cl.equiv, exps)))
        (lhs, ln, ld), (rhs, rn, rd) = sides
        # Gauss: products of primitive parts are primitive, and contents are > 0
        return lhs == rhs and (not lhs or ln * rd == rn * ld)
    return _rows_agree(_AnchorRing(lin, beta_prime, (beta, shifted)), bk, lin.q_product(qk),
                       lin.q_product(kminus), ((y, beta) for y in insertions))


def relation_annihilates(lin: LinearData, rel: QuantumRelation,
                         insertion: Polynomial, window: Sequence[CurveClass]) -> bool:
    """<Y * rel> vanishes over the window: correlators match sector by sector."""
    cl = lin.cl
    window = [b for b in window if cl.is_effective(b)]
    if not window:
        return True
    sectors = window + [b + rel.beta_k for b in window]
    return _rows_agree(_AnchorRing.over(lin, sectors), rel.beta_k, rel.lhs,
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
