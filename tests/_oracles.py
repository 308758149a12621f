"""Independent oracles used to pin expected values.

These deliberately avoid the code paths they check: ideal membership is
decided degree by degree with plain linear algebra, determinants by the
Leibniz sum, h-vectors come from face counts inside the fan module itself,
cone membership by a Caratheodory search instead of facet inequalities.
"""

import heapq
import itertools
import math
import operator
from fractions import Fraction

from qsheaf.fan import locate_cone, primitive_collections
from qsheaf.lattice import CurveClass, EquivClass, IneffectiveClass, LatticeError, beta_K, h0
from qsheaf.linalg import inverse, kernel_basis, matrix_rank, smith_normal_form
from qsheaf.poly import (_MAX_HEIGHT, _MAX_NESTING, GroebnerBasis, ParseError, Polynomial,
                         PolyError, _div, _height, _mon_mul, _require_nonnegative_q, echo,
                         monomial_key)


# ---- monomials as (psi exponents, q exponents) pairs of tuples ----------------
# The oracles' own monomial arithmetic, apart from the packed ints of
# qsheaf.poly's Buchberger and division.

def _heap_key(mon):
    """Negated monomial_key: a min-heap on it pops the largest monomial first."""
    return tuple(-k for k in monomial_key(mon))


def _mon_divides(a, b):
    return all(map(int.__le__, a[0], b[0])) and all(map(int.__le__, a[1], b[1]))


def _mon_div(a, b):
    return (tuple(map(operator.sub, a[0], b[0])), tuple(map(operator.sub, a[1], b[1])))


def _mon_lcm(a, b):
    return (tuple(map(max, a[0], b[0])), tuple(map(max, a[1], b[1])))


def in_span(vectors, target):
    """Exact membership of target in the rational span of the given vectors."""
    base = [list(map(Fraction, v)) for v in vectors]
    return matrix_rank(base) == matrix_rank(base + [list(map(Fraction, target))])


def primitive_collections_by_subsets(fan):
    """Primitive collections from the definition, as sorted index tuples: every
    ray subset that lies in no maximal cone while each of its maximal proper
    subsets does, walked over all subsets by size and then lexicographically."""
    def spans(s):
        return any(set(s) <= set(sigma) for sigma in fan.max_cones)
    return tuple(combo for k in range(2, fan.n_rays + 1)
                 for combo in itertools.combinations(range(fan.n_rays), k)
                 if not spans(combo) and all(spans(combo[:i] + combo[i + 1:]) for i in range(k)))


def monomials_of_degree(nv, d):
    if d < 0:
        return []
    out = []
    for combo in itertools.combinations_with_replacement(range(nv), d):
        exps = [0] * nv
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return out


def coeff_vector(p, basis):
    index = {mono: i for i, mono in enumerate(basis)}
    vec = [Fraction(0)] * len(basis)
    for (pm, qm), c in p.terms.items():
        assert not any(qm)
        vec[index[pm]] = c
    return vec


def ideal_member_oracle(generators, p):
    """Membership of a homogeneous p in a homogeneous ideal by linear algebra.

    Spans { monomial * g } in the degree of p and tests rational span
    membership; no Groebner machinery involved.
    """
    if not p:
        return True
    nv = p.nv
    d = p.psi_degree()
    basis = monomials_of_degree(nv, d)
    span = []
    for g in generators:
        dg = g.psi_degree()
        for shift in monomials_of_degree(nv, d - dg):
            mono = Polynomial(nv, 0, {(shift, ()): Fraction(1)})
            span.append(coeff_vector(mono * g, basis))
    return in_span(span, coeff_vector(p, basis))


def power_by_tuples(p, k):
    """p^k by binary powering on tuple-keyed monomials, one Polynomial
    product per step; a negative k raises PolyError."""
    if k < 0:
        raise PolyError("negative power of a polynomial")
    result = Polynomial.const(p.nv, 1, p.nq)
    base = p
    while k:
        if k & 1:
            result = result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result


def sector_h_vector(cl, beta):
    """The h-vector of the enhanced complex of sector beta: vertices (rho, j)
    with j < m_rho = h0(d_rho(beta)), faces the sets containing no K x {all
    j} for a primitive collection K.  A face's fully taken rays form a cone
    sigma, so its f-polynomial is the sum over the cones of
    prod_{rho in sigma} t^m_rho * prod_{rho not in sigma} ((1+t)^m_rho - t^m_rho),
    and h(t) = sum_i f_(i-1) t^i (1-t)^(d-i) for d its degree.  At beta = 0
    every m_rho is 1 and this is the fan's h-vector."""
    m = [h0(x) for x in beta.d]
    f = []
    for sigma in cl.fan.cone_faces():
        term = [1]
        for rho, mr in enumerate(m):
            term = uproduct(term, [0] * mr + [1] if rho in sigma
                            else [math.comb(mr, j) for j in range(mr)])
        f = [a + b for a, b in itertools.zip_longest(f, term, fillvalue=0)]
    d = len(utrim(f)) - 1
    h = [0] * (d + 1)
    for i, fi in enumerate(f):
        for j in range(d - i + 1):
            h[i + j] += fi * (-1) ** j * math.comb(d - i, j)
    return tuple(h)


def leibniz_det(matrix):
    """Brute-force determinant for matrices of polynomials (or scalars)."""
    n = len(matrix)
    total = None
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = matrix[0][perm[0]]
        for i in range(1, n):
            prod = prod * matrix[i][perm[i]]
        term = prod * sign
        total = term if total is None else total + term
    return total


def walls_by_pairing(fan):
    """(facet, d) per facet of the maximal cones, in sorted facet order.

    Per facet F shared by F+{a} and F+{b}: solve v_a + v_b = sum lambda_i v_i
    over F by rational elimination, and set d = 1 on a and b and -lambda on F.
    """
    owners = {}
    for sigma in fan.max_cones:
        for facet in itertools.combinations(sigma, fan.rank - 1):
            owners.setdefault(facet, []).append(sigma)
    walls = []
    for facet, (s1, s2) in sorted(owners.items()):
        (a,), (b,) = set(s1) - set(facet), set(s2) - set(facet)
        target = [x + y for x, y in zip(fan.rays[a], fan.rays[b])]
        lam = solve_columns([fan.rays[i] for i in facet], target)
        d = [0] * fan.n_rays
        d[a] = d[b] = 1
        for i, coeff in zip(facet, lam):
            d[i] = -int(coeff)
        walls.append((facet, tuple(d)))
    return tuple(walls)


def wall_classes(cl):
    """The wall-curve classes of `walls_by_pairing`, each class once, in
    sorted facet order."""
    classes = []
    for _, d in walls_by_pairing(cl.fan):
        beta = cl.curve_from_d(d)
        if beta not in classes:
            classes.append(beta)
    return tuple(classes)


def effective_cones_coincide_by_facets(cl):
    """The beta_K span the Mori cone: the facets of the cone they span, one
    kernel per (pic_rank - 1)-subset, equal the Mori cone's facets."""
    bk_coords = [beta_K(cl, K)[0].coords for K in cl.primitive_collections]
    return set(cone_facets_by_subsets(bk_coords, cl.pic_rank)) == set(cl.facets)


# ---- model construction by inverse(R), curve_from_d and per-wall ranks --------
# The construction as it stood before the Smith form carried R^-1 along and
# one sweep over the walls gave the Mori cone's facets, pointedness and
# extremal walls; `construction_by_inverse` returns what it derived.

def cone_facets_by_subsets(gens, dim):
    """Primitive integer inward facet normals of the cone spanned by gens:
    the kernel of every rank dim-1 subset, kept (turned inward) when all
    generators lie on one side of it, in order of first appearance."""
    normals = []
    for subset in itertools.combinations(gens, dim - 1):
        kernel = kernel_basis(subset, dim)
        if len(kernel) != 1:
            continue
        u = tuple(kernel[0])
        signs = {(_dot(u, v) > 0) - (_dot(u, v) < 0) for v in gens} - {0}
        if signs == {-1}:
            u = tuple(-x for x in u)
        if len(signs) < 2 and u not in normals:
            normals.append(u)
    return tuple(normals)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def det_by_laplace(matrix):
    """Laplace expansion along the rows, zero entries skipped and minors
    memoized, on every matrix: diagonal ones expand like the rest."""
    n = len(matrix)
    zero = matrix[0][0] * 0
    memo = {}

    def minor(cols):
        k = n - len(cols)
        if len(cols) == 1:
            return matrix[k][cols[0]]
        if cols not in memo:
            total = zero
            for j, c in enumerate(cols):
                if matrix[k][c]:
                    term = matrix[k][c] * minor(cols[:j] + cols[j + 1:])
                    total = total + (term if j % 2 == 0 else -term)
            memo[cols] = total
        return memo[cols]

    return minor(tuple(range(n)))


def construction_by_inverse(fan, deformation=None):
    """Pic, the curve lattice, the Mori cone and Q_c as derived before: the
    section as columns n.. of inverse(R); every relation made a class by
    curve_from_d's int coercion, relation check and round trip through the
    curve coordinates; facets one kernel per subset, pointedness by
    matrix_rank(facets) and extremality by the rank of each wall's facets;
    the positive class by the unbounded walk over each coefficient; Q_c by
    Laplace expansion.  Returns a dict keyed by the ClassLattice attribute
    names (plus "q"), or None when the facet normals do not span Pic."""
    n, r = fan.rank, fan.n_rays
    R, _, _ = smith_normal_form(fan.rays)
    divisor_classes = tuple(tuple(R[n + k][rho] for k in range(r - n)) for rho in range(r))
    curve_basis_d = tuple(tuple(R[n + j]) for j in range(r - n))
    section = tuple(row[n:] for row in inverse(R)[0])
    p = r - n

    def curve(d):
        d = tuple(int(x) for x in d)
        if any(_dot(d, col) for col in zip(*fan.rays)):
            raise LatticeError(f"{d} is not a relation among the rays")
        coords = tuple(sum(d[rho] * section[rho][k] for rho in range(r)) for k in range(p))
        if tuple(_dot(coords, col) for col in zip(*curve_basis_d)) != d:
            raise LatticeError("relation vector escapes the curve lattice")
        return CurveClass(coords, d)

    walls = tuple(map(curve, dict.fromkeys(d for _, d in fan.walls)))
    facets = cone_facets_by_subsets([w.coords for w in walls], p)
    if matrix_rank(facets) != p:
        return None
    groups = {}
    for rho in range(r):
        groups.setdefault(divisor_classes[rho], []).append(rho)
    equiv = [EquivClass(index=i, members=tuple(ms), vec=divisor_classes[ms[0]])
             for i, ms in enumerate(sorted(groups.values(), key=lambda ms: ms[0]))]

    def classes_of(edges):
        return tuple(c for c in equiv if set(c.members) & set(edges))

    relations = {}
    for K in primitive_collections(fan):
        point = tuple(sum(fan.rays[rho][j] for rho in K.edges) for j in range(n))
        sigma, coeffs = locate_cone(fan, point)
        d = [int(rho in K.edges) for rho in range(r)]
        for rho, c in zip(sigma, coeffs):
            d[rho] = -c
        beta = curve(d)
        relations[K] = (beta, tuple((c, -c.d(beta)) for c in classes_of(sigma)))
    extremal = [g for g in walls
                if matrix_rank([u for u in facets if _dot(u, g.coords) == 0]) == p - 1]
    front = []
    for bk, _ in relations.values():
        if bk in extremal and bk not in front:
            front.append(bk)
    mori = tuple(front + sorted((g for g in extremal if g not in front), key=lambda b: b.d))

    def from_mori(coeffs):
        beta = CurveClass((0,) * p, (0,) * r)
        for a, g in zip(coeffs, mori):
            beta = beta + a * g
        return beta

    rows = [[c.d(g) for g in mori] for c in equiv]

    def first(k, left, sums):
        if any(s + left * max(row[k:]) <= 0 for s, row in zip(sums, rows)):
            return None
        if k == len(mori) - 1:
            return (left,)
        for a in range(left + 1):
            rest = first(k + 1, left - a, [s + a * row[k] for s, row in zip(sums, rows)])
            if rest is not None:
                return (a,) + rest
        return None

    for total in itertools.count(1):
        combo = first(0, total, [0] * len(rows))
        if combo is not None:
            positive = from_mori(combo)
            break
    matrix = list(zip(*(g.coords for g in mori)))
    out = {"divisor_classes": divisor_classes, "curve_basis_d": curve_basis_d,
           "_section": section, "walls": walls, "facets": facets, "mori": mori,
           "primitive_relations": relations, "positive": positive,
           "_mori_solve": len(mori) == p and inverse(matrix) or ((), None)}
    if deformation is not None:
        zero = Polynomial.zero(p)
        slots = {}
        for e in deformation.entries:
            mono = tuple(_dot(e.m, v) + (rp == e.rho) for rp, v in enumerate(fan.rays))
            if mono.count(1) == 1 and mono.count(0) == len(mono) - 1:
                slot = (e.rho, mono.index(1))
                slots[slot] = slots.get(slot, zero) + e.coeff
        out["q"] = tuple(det_by_laplace([[slots.get((i, j), zero) for j in c.members]
                                         for i in c.members]) for c in equiv)
    return out


def dominates_by_difference(cl, beta_prime, beta):
    """The definition qsheaf.lattice.dominates had before it ran on int
    vectors: the CurveClass difference is effective, and h0 of every class's
    EquivClass.d does not fall."""
    if not cl.is_effective(beta_prime - beta):
        return False
    return all(h0(c.d(beta_prime)) >= h0(c.d(beta)) for c in cl.equiv)


def find_anchor_by_classes(cl, sectors):
    """qsheaf.lattice.find_anchor as it was before it read the d-vectors:
    the sum of the sectors plus the least multiple n >= 1 of cl.positive with
    d_c(base) + n * d_c(positive) >= d_c(s) wherever d_c(s) >= 0, one
    EquivClass.d call per class."""
    for s in sectors:
        if not cl.is_effective(s):
            raise IneffectiveClass(f"sector {s.d} is not effective")
    positive = cl.positive
    base = cl.zero_curve
    for s in sectors:
        base = base + s
    n = 1
    for s in sectors:
        for c in cl.equiv:
            if c.d(s) >= 0:
                n = max(n, -((c.d(base) - c.d(s)) // c.d(positive)))
    return base + n * positive


def in_cone(vec, gens):
    """Exact membership of vec in the rational cone spanned by gens.

    By Caratheodory for cones it suffices to look for a nonnegative solution
    supported on a linearly independent subset of the generators.
    """
    target = [Fraction(x) for x in vec]
    gens = [[Fraction(x) for x in g] for g in gens]
    if all(x == 0 for x in target):
        return True
    max_size = min(len(gens), matrix_rank(gens)) if gens else 0
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(gens, size):
            if matrix_rank(list(subset)) != size:
                continue
            sol = solve_columns(list(subset), target)
            if sol is not None and all(s >= 0 for s in sol):
                return True
    return False


def _pairings(fan, m):
    return [sum(a * b for a, b in zip(m, v)) for v in fan.rays]


def linear_slot_by_pairings(cl, entry):
    """Slot (rho, rho') of A_c fed by a deformation entry, read off the
    pattern of pairings <m, v_rho'>: -1 at rho, 1 at one other ray and 0 at
    the rest links rho to that ray; m = 0 is the diagonal slot."""
    from qsheaf.deform import DeformError

    if not any(entry.m):
        return (entry.rho, entry.rho)
    pairings = _pairings(cl.fan, entry.m)
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


def local_freeness_by_points(cl, E, trials=20):
    """The local-freeness verdict with every exponent paired afresh at every
    point: the same sample points as the library (the strata of every cone
    face not spanning a primitive collection, kernel points, then `trials`
    random ones, from the same seed), and E_rho(x) summed entry by entry."""
    import random

    from qsheaf.deform import _FRESHNESS_SEED, FreenessVerdict, linear_part

    fan = cl.fan
    rng = random.Random(_FRESHNESS_SEED)
    pcs = cl.primitive_collections

    def rand_nonzero():
        num = rng.choice([n for n in range(-9, 10) if n])
        den = rng.randint(1, 7)
        return Fraction(num, den)

    def in_irrelevant(x):
        return any(all(x[rho] == 0 for rho in pc.edges) for pc in pcs)

    points = []
    for face in sorted(fan.cone_faces()):
        if any(set(pc.edges) <= set(face) for pc in pcs):
            continue
        points.append(tuple(Fraction(0) if rho in face else rand_nonzero()
                            for rho in range(fan.n_rays)))
    lin = linear_part(cl, E)
    for c in cl.equiv:
        rows = []
        for i in range(c.size):
            for k in range(cl.pic_rank):
                rows.append([lin.matrices[c.index][i][j].linear_coefficients()[k]
                             if lin.matrices[c.index][i][j] else Fraction(0)
                             for j in range(c.size)])
        for u in kernel_by_fractions(rows, c.size):
            x = [rand_nonzero() for _ in range(fan.n_rays)]
            for j, rho in enumerate(c.members):
                x[rho] = u[j]
            x = tuple(x)
            if not in_irrelevant(x):
                points.append(x)
    for _ in range(trials):
        points.append(tuple(rand_nonzero() for _ in range(fan.n_rays)))

    for x in points:
        rows = []
        for rho in range(fan.n_rays):
            acc = [Fraction(0)] * cl.pic_rank
            for entry in E.entries:
                if entry.rho != rho or not entry.coeff:
                    continue
                value = Fraction(1)
                for rp, pairing in enumerate(_pairings(fan, entry.m)):
                    e = pairing + (1 if rp == rho else 0)
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


def degree_slice_by_box(cl, t):
    """The degree slice by the plain box walk: every lattice point of the
    bounding box of the vertices t / c1(g) * g, kept when c1 = t and it is
    effective; sorted by d like qsheaf.quantum.degree_slice."""
    weights = [g.c1() for g in cl.mori]
    assert all(w > 0 for w in weights) and t >= 0
    vertices = [[Fraction(t * c, w) for c in g.coords] for g, w in zip(cl.mori, weights)]
    ranges = [range(math.ceil(min(v[k] for v in vertices)),
                    math.floor(max(v[k] for v in vertices)) + 1)
              for k in range(cl.pic_rank)]
    found = []
    for coords in itertools.product(*ranges):
        beta = cl.curve_from_coords(coords)
        if beta.c1() == t and cl.is_effective(beta):
            found.append(beta)
    return tuple(sorted(found, key=lambda b: b.d))


# ---- the Picard rank <= 2 residue functional over Q[u], in Fractions --------
# The route qsheaf.quantum._ResidueRing took before its integer kernel: monic
# D, Fraction long division and an extended Euclid over Q[u].  One-variable
# polynomials are dense lists, lowest coefficient first.

def utrim(a):
    while a and not a[-1]:
        a.pop()
    return a


def uproduct(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def udivmod(a, b):
    """Quotient and remainder of a by a nonzero b, over Q."""
    n = len(b) - 1
    a = list(a)
    q = [0] * max(len(a) - n, 0)
    inv = Fraction(1) / b[-1]
    for k in range(len(a) - 1, n - 1, -1):
        c = q[k - n] = a[k] * inv
        if c:
            for j in range(n):
                a[k - n + j] -= c * b[j]
    return utrim(q), utrim(a[:n])


def urem(a, d):
    return udivmod(a, d)[1]


def uinverse(e, d):
    """s with s * e = 1 mod d, for d of degree >= 1 and e reduced mod d, by
    the extended Euclidean algorithm over Q; None when e and d share a root."""
    r0, r1, s0, s1 = d, e, [], [1]
    while len(r1) > 1:
        q, r = udivmod(r0, r1)
        s = list(s0) + [0] * max(len(s1) + len(q) - 1 - len(s0), 0)
        for i, y in enumerate(uproduct(q, s1)):
            s[i] -= y
        r0, r1, s0, s1 = r1, r, s1, utrim(s)
    if not r1:
        return None
    return [Fraction(x) / r1[0] for x in s1]


def _at_u(p):
    """Coefficients of p(u, 1), u = psi1 / psi2 (u = psi at rank 1)."""
    out = [Fraction(0)] * (max((e[0] for e, _ in p.terms), default=-1) + 1)
    for (e, _), c in p.terms.items():
        out[e[0]] = Fraction(c)
    return out


def residue_q_by_fractions(lin):
    """Each Q_c as qsheaf.quantum._ResidueRing derived it from Q_c itself
    before reading it from LinearData: the primitive integer list of
    Q_c(u, 1) and its content as one Fraction."""
    out = []
    for q in lin.q:
        coeffs = _at_u(q)
        den = math.lcm(*(x.denominator for x in coeffs))
        b = [x.numerator * (den // x.denominator) for x in coeffs]
        g = math.gcd(*b) or 1
        out.append(([x // g for x in b], Fraction(g, den)))
    return out


class ResidueReference:
    """The anchor functional of a Picard rank <= 2 sector ring as a residue
    sum over Q[u]: the generator psi1^a psi2^(n - a) with the least a whose
    residue is nonzero, norm = rho_A(generator), and scalar(p, beta) the row
    of an insertion in a sector the anchor dominates.  Degenerate anchors
    raise AssertionError; the typed errors are the package's to check."""

    def __init__(self, lin, anchor):
        from qsheaf.lattice import h0
        from qsheaf.sectors import sector
        cl = lin.cl
        self.lin, self.q = lin, [_at_u(q) for q in lin.q]
        n = sector(lin, anchor).n_beta
        self.k = next(cl.classes_of(K.edges) for K in cl.primitive_collections
                      if all(len(self.q[c.index]) == c.size + 1
                             for c in cl.classes_of(K.edges) if h0(c.d(anchor))))
        d, lead, r = self._parts([h0(c.d(anchor)) for c in cl.equiv], [Fraction(1)])
        for a in range(n + 1):
            top = r[len(d) - 2] if 0 <= len(d) - 2 < len(r) else 0
            if top:
                break
            r = urem([0] + r, d)
        else:
            raise AssertionError("top dimension 0")
        self.generator = Polynomial(cl.pic_rank, 0,
                                    {((a, n - a)[:cl.pic_rank], ()): Fraction(1)})
        self.norm = Fraction(top) / lead

    def _parts(self, exponents, numerator):
        d = [Fraction(1)]
        for c in self.k:
            for _ in range(exponents[c.index]):
                d = uproduct(d, self.q[c.index])
        if len(d) == 1:
            return d, d[0], []
        lead = d[-1]
        d = [x / lead for x in d]
        num, den = urem(numerator, d), [Fraction(1)]
        for c in self.lin.cl.equiv:
            q, e = self.q[c.index], exponents[c.index]
            for _ in range(-e):
                num = urem(uproduct(num, q), d)
            if c not in self.k:
                for _ in range(e):
                    den = urem(uproduct(den, q), d)
        inverse = uinverse(den, d)
        assert inverse is not None, "the two collections share a root"
        return d, lead, urem(uproduct(num, inverse), d)

    def scalar(self, p, beta):
        d, lead, r = self._parts([c.d(beta) + 1 for c in self.lin.cl.equiv], _at_u(p))
        top = r[len(d) - 2] if 0 <= len(d) - 2 < len(r) else 0
        return Fraction(top) / lead / self.norm


# ---- the Picard rank >= 3 anchor functional on tuple-keyed monomials --------
# The route qsheaf.quantum._GroebnerRing took before its packed-int kernel:
# poly.top_functional keyed by (psi, q) exponent tuples, and rows summed
# over the full image R * p * F_beta.

def top_functional_by_tuples(gb, top):
    """value(m): the coefficient of the monomial top in NF(m), for a monomial
    m = (psi, q) of top's degree whose graded piece top spans alone; each
    monomial is reduced once, by the first basis element whose lead divides
    it, and memoized.  Meeting a standard monomial other than top raises
    PolyError."""
    rules = [(g.leading_monomial(), g) for g in gb.polys if g]
    memo = {top: 1}
    tails = {}

    def value(mon):
        if mon in memo:
            return memo[mon]
        stack = [mon]
        while stack:
            m = stack[-1]
            if m in memo:
                stack.pop()
                continue
            if m not in tails:
                for lm, g in rules:
                    if _mon_divides(lm, m):
                        break
                else:
                    raise PolyError(f"standard monomial {m} other than {top}")
                shift = _mon_div(m, lm)
                tails[m] = ([(_mon_mul(shift, m2), c2) for m2, c2 in g.terms.items()
                             if m2 != lm], g.terms[lm])
            tail, lc = tails[m]
            missing = [t for t, _ in tail if t not in memo]
            if missing:
                stack.extend(missing)
                continue
            memo[m] = _div(-sum(c * memo[t] for t, c in tail), lc)
            del tails[m]
            stack.pop()
        return memo[mon]

    return value


class GroebnerReference:
    """The anchor functional of a sector ring read off its Groebner basis on
    tuple-keyed monomials: the sole top-degree standard monomial as
    generator, and scalar(p, beta) the generator's coefficient in the normal
    form of the expanded image transition(anchor, beta) * p * F_beta, for an
    insertion of the row's degree in a nonempty sector the anchor dominates."""

    def __init__(self, lin, anchor):
        from qsheaf.poly import sole_generator, standard_monomials
        from qsheaf.sectors import sector, sector_gb
        gb = sector_gb(lin, anchor)
        monos = standard_monomials(gb, sector(lin, anchor).n_beta)
        assert len(monos) == 1, "the anchor's top piece is not one-dimensional"
        self.lin, self.anchor = lin, anchor
        self.generator = sole_generator(monos)
        self.value = top_functional_by_tuples(gb, self.generator.leading_monomial())

    def scalar(self, p, beta):
        from qsheaf.quantum import four_fermi
        from qsheaf.sectors import transition
        image = transition(self.lin, self.anchor, beta) * p * four_fermi(self.lin, beta)
        return Fraction(sum(c * self.value(m) for m, c in image.terms.items()))


# ---- the Buchberger over Q ----------------------------------------------------
# The route qsheaf.poly.groebner and qsheaf.poly.normal_form took before
# their fraction-free kernel: every element made monic, S-polynomials and
# reductions in Fractions, the same pair heap and criteria.

def normal_form_by_fractions(p, basis):
    """Complete division remainder of p modulo a list of polynomials over Q:
    top-down, each term cancelled by the first element whose leading
    monomial divides it, c / lc times the shifted element subtracted."""
    leads = [(g.leading_monomial(), g) for g in basis if g]
    work = dict(p.terms)
    heap = [(_heap_key(m), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        mon = heapq.heappop(heap)[1]
        coeff = work.pop(mon, None)
        if coeff is None:
            continue
        for lm, g in leads:
            if _mon_divides(lm, mon):
                factor = _div(coeff, g.terms[lm])
                shift = _mon_div(mon, lm)
                for m2, c2 in g.terms.items():
                    if m2 == lm:
                        continue
                    tgt = _mon_mul(shift, m2)
                    if tgt not in work:
                        heapq.heappush(heap, (_heap_key(tgt), tgt))
                    s = work.get(tgt, 0) - factor * c2
                    if s:
                        work[tgt] = s
                    else:
                        del work[tgt]
                break
        else:
            remainder[mon] = coeff
    return Polynomial(p.nv, p.nq, remainder)


def monic(p):
    """p divided by its leading coefficient; it keeps p's cached leading
    monomial, since scaling does not move it."""
    result = p * _div(1, p.leading_coefficient())
    result._lead = p._lead
    return result


def spoly_by_fractions(f, g):
    """The S-polynomial of f and g with the leads made monic."""
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm = _mon_lcm(lf, lg)
    tf = Polynomial(f.nv, f.nq, {_mon_div(lcm, lf): _div(1, f.terms[lf])})
    tg = Polynomial(g.nv, g.nq, {_mon_div(lcm, lg): _div(1, g.terms[lg])})
    return tf * f - tg * g


def groebner_by_fractions(ideal):
    """Reduced monic Groebner basis by a Buchberger over Q: normal pair
    selection from a heap (smallest lcm first, ties by index), the coprime
    and chain criteria, monic elements, then minimalized and interreduced."""
    gens = ideal.generators
    if not gens:
        return GroebnerBasis((), ideal.nv)
    _require_nonnegative_q(gens)
    basis = []
    for g in gens:
        m = monic(g)
        if m not in basis:
            basis.append(m)
    leads = [g.leading_monomial() for g in basis]
    heap, pending = [], set()

    def add_pairs(k):
        for i in range(k):
            heapq.heappush(heap, (monomial_key(_mon_lcm(leads[i], leads[k])), i, k))
            pending.update(((i, k), (k, i)))

    for k in range(len(basis)):
        add_pairs(k)
    while heap:
        _, i, j = heapq.heappop(heap)
        pending -= {(i, j), (j, i)}
        lcm = _mon_lcm(leads[i], leads[j])
        if _mon_mul(leads[i], leads[j]) == lcm:
            continue
        if any(_mon_divides(lk, lcm) and k not in (i, j) and (i, k) not in pending
               and (j, k) not in pending for k, lk in enumerate(leads)):
            continue
        r = normal_form_by_fractions(spoly_by_fractions(basis[i], basis[j]), basis)
        if r:
            basis.append(monic(r))
            leads.append(basis[-1].leading_monomial())
            add_pairs(len(basis) - 1)
    basis.sort(key=lambda g: monomial_key(g.leading_monomial()))
    minimal = []
    for g in basis:
        lm = g.leading_monomial()
        if not any(_mon_divides(h.leading_monomial(), lm) for h in minimal):
            minimal.append(g)
    return GroebnerBasis(tuple(normal_form_by_fractions(g, minimal[:idx] + minimal[idx + 1:])
                               for idx, g in enumerate(minimal)))


def kernel_by_fractions(rows, width):
    """The RREF kernel basis over Q: per free column f, 1 at f, 0 at the other
    free columns, and minus the RREF entry of column f at each pivot."""
    ref, pivots = rref_by_fractions(rows)
    basis = []
    for f in (j for j in range(width) if j not in pivots):
        vec = [Fraction(int(j == f)) for j in range(width)]
        for row, p in zip(ref, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


def rref_by_fractions(rows):
    """Reduced row echelon form by Gauss-Jordan over Q: the first nonzero
    row of each column is the pivot, scaled to 1; returns (rows, pivots)."""
    m = [[Fraction(x) for x in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        sel = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def solve_columns(cols, target):
    """Solve sum_j x_j * cols[j] = target for independent columns by
    rational elimination of the augmented matrix; the coefficient list, or
    None when the system is inconsistent.  Raises ValueError if the columns
    are linearly dependent."""
    ncols = len(cols)
    if ncols == 0:
        return [] if all(t == 0 for t in target) else None
    red, pivots = rref_by_fractions([[cols[j][i] for j in range(ncols)] + [target[i]]
                                     for i in range(len(target))])
    if ncols in pivots:
        return None
    if len(pivots) != ncols:
        raise ValueError("columns are linearly dependent")
    sol = [Fraction(0)] * ncols
    for row, c in zip(red, pivots):
        sol[c] = row[-1]
    return sol


def height_by_lcm(p):
    """log2(N * D) for the common denominator D and the sum N of the numerators'
    absolute values over it, with D an lcm and N summed term by term: the
    formula poly._height had before it read both from linalg._primitive."""
    if not p:
        return 0.0
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    num = sum(abs(c.numerator) * (den // c.denominator) for c in p.terms.values())
    return math.log2(num) + math.log2(den)


# The polynomial parser qsheaf.poly.parse_polynomial replaced: a character
# loop that reads digits with str.isdigit, a set wider than the decimal
# digits int() reads, so "D1^²" escaped as a ValueError.  Kept verbatim
# as the reference of the differential parser test, but for its names and
# for the tokens, indices and degrees its messages echo: those go through
# poly.echo, as the parser's do, so a long one is cut and one past the int
# digit limit no longer raises a ValueError.

def parse_polynomial_by_characters(text, d_symbols, max_degree=None):
    """Parse the user-facing polynomial syntax.

    Terms like ``3/2*D1^2*D3 - D4^3``; ``D<i>`` is the class of the i-th
    ray divisor (1-based), taken from the supplied symbol table.  Whitespace
    is insignificant.  Nesting deeper than _MAX_NESTING is a ParseError, and
    so is a ``^`` or ``*`` whose result would exceed max_degree in psi or
    _MAX_HEIGHT in coefficient bits: the checks come before the product is
    expanded.
    """
    if not d_symbols:
        raise PolyError("no divisor symbols supplied")
    nv, nq = d_symbols[0].nv, d_symbols[0].nq
    one = Polynomial.const(nv, 1, nq)

    tokens = _tokenize_by_characters(text)
    pos = 0
    depth = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else ("end", None, len(text))

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def check_degree(degree: int, at: int):
        if max_degree is not None and degree > max_degree:
            raise ParseError(f"degree {echo(degree)} exceeds the ceiling {max_degree}", at)

    def check_height(bits: float, k: int, at: int):
        # k factors of the given height; k may be too large for a float
        if bits and k > _MAX_HEIGHT / bits:
            raise ParseError(f"coefficients would exceed {_MAX_HEIGHT} bits", at)

    def parse_expr():
        kind, val, _ = peek()
        sign = -1 if kind == "op" and val == "-" else 1
        if kind == "op" and val in "+-":
            take()
        total = parse_term() * sign
        while True:
            kind, val, at = peek()
            if kind == "op" and val in "+-":
                take()
                nxt = parse_term()
                total = total + (nxt if val == "+" else -nxt)
            else:
                return total

    def parse_term():
        result = parse_factor()
        while True:
            kind, val, at = peek()
            if kind == "op" and val == "*":
                take()
                factor = parse_factor()
                if result and factor:  # degrees add: Q[psi] has no zero divisors
                    check_degree(result.psi_degree() + factor.psi_degree(), at)
                    check_height(_height(result) + _height(factor), 1, at)
                result = result * factor
            else:
                return result

    def parse_factor():
        base = parse_atom()
        kind, val, at = peek()
        if kind == "op" and val == "^":
            take()
            kind, val, exp_at = take()
            if kind != "num" or "/" in val:
                raise ParseError("exponent must be a nonnegative integer", exp_at)
            k = int(val)
            if base:
                check_degree(k * base.psi_degree(), at)
                check_height(_height(base), k, at)
            return base ** k
        return base

    def parse_atom():
        nonlocal depth
        kind, val, at = take()
        if kind == "num":
            if "/" in val:
                num, den = val.split("/")
                if int(den) == 0:
                    raise ParseError("zero denominator", at)
                return one * Fraction(int(num), int(den))
            return one * int(val)
        if kind == "sym":
            index = int(val[1:])
            if index < 1 or index > len(d_symbols):
                raise ParseError(f"unknown symbol D{echo(index)}", at)
            return d_symbols[index - 1]
        if kind == "op" and val in "(-":
            if depth == _MAX_NESTING:
                raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", at)
            depth += 1
            if val == "-":
                inner = -parse_atom()
            else:
                inner = parse_expr()
                _, close, at = take()
                if close != ")":
                    raise ParseError("expected ')'", at)
            depth -= 1
            return inner
        raise unexpected(kind, val, at)

    def unexpected(kind, val, at):
        if kind == "end":
            return ParseError("unexpected end of input", at)
        return ParseError(f"unexpected token {echo(val)}", at)

    result = parse_expr()
    if peek()[0] != "end":
        raise unexpected(*peek())
    return result


def _tokenize_by_characters(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ParseError("malformed rational number", j)
                tokens.append(("num", text[i:k], i))
                i = k
            else:
                tokens.append(("num", text[i:j], i))
                i = j
            continue
        if ch == "D":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("symbol 'D' needs a numeric index", i)
            tokens.append(("sym", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens
