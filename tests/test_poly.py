import math
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsheaf.poly
from qsheaf.poly import (Ideal, NonHomogeneousIdeal, NonSquare,
                         ParseError, PolyError, Polynomial, det, groebner,
                         monomial_key, normal_form, parse_polynomial,
                         quotient_dims, standard_monomials, top_functional)

from _oracles import ideal_member_oracle, leibniz_det, monomials_of_degree
from conftest import deformed_p1_power, hirzebruch, p1_power, tangent_setup

x = Polynomial.variable(2, 0)
y = Polynomial.variable(2, 1)


def rand_poly(rng, nv=2, max_deg=3, terms=4):
    p = Polynomial.zero(nv)
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nv))
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        p = p + Polynomial(nv, 0, {(exps, ()): coeff})
    return p


small_coeffs = st.integers(min_value=-5, max_value=5)


@st.composite
def polys(draw, nv=2):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    p = Polynomial.zero(nv)
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(nv))
        c = draw(small_coeffs)
        p = p + Polynomial(nv, 0, {(exps, ()): Fraction(c)})
    return p


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(polys())
@settings(max_examples=30, deadline=None)
def test_normal_form_idempotent(p):
    gb = groebner(Ideal((x * x - y * y, y ** 3)))
    nf = normal_form(p, gb)
    assert normal_form(nf, gb) == nf


def test_det_examples():
    zero = Polynomial.zero(2)
    assert det([[x, zero], [zero, x]]) == x * x
    a, b = Fraction(5, 2), Fraction(-3)
    assert det([[x, a * y], [b * y, x]]) == x * x - a * b * y * y
    with pytest.raises(NonSquare):
        det([[x, y]])


def test_det_matches_leibniz_oracle():
    rng = random.Random(2)
    for _ in range(10):
        n = rng.randint(1, 4)
        scalars = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    for _ in range(n)] for _ in range(n)]
        mat = [[s * x for s in row] for row in scalars]
        expected = leibniz_det(scalars) * (x ** n)
        assert det(mat) == expected


def test_det_multiplicative_on_scalars():
    rng = random.Random(4)
    one = Polynomial.const(2, 1)
    for _ in range(10):
        n = rng.randint(1, 3)
        A = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        B = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        AB = [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        to_poly = lambda M: [[e * one for e in row] for row in M]
        assert det(to_poly(AB)) == det(to_poly(A)) * det(to_poly(B))


def test_det_bareiss_path_beyond_cofactor():
    rng = random.Random(9)
    n = 5
    scalars = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    one = Polynomial.const(1, 1)
    mat = [[s * one for s in row] for row in scalars]
    assert det(mat) == leibniz_det(scalars) * one


def test_det_matches_leibniz_on_linear_forms():
    # multi-variable entries, about a third of them zero, up to n = 6
    rng = random.Random(11)
    zs = [Polynomial.variable(3, i) for i in range(3)]
    for n in range(1, 7):
        for _ in range(2):
            mat = [[sum((rng.randint(-3, 3) * z for z in zs), Polynomial.zero(3))
                    if rng.random() > 0.3 else Polynomial.zero(3)
                    for _ in range(n)] for _ in range(n)]
            assert det(mat) == leibniz_det(mat)


def test_exact_division():
    # {x + y} is a Groebner basis of (x + y): membership is a zero remainder
    p = (x + y) * (x * x - y)
    assert not normal_form(p, [x + y])
    assert normal_form(x * x + y, [x + y])


def test_groebner_examples():
    z = Polynomial.variable(1, 0)
    gb = groebner(Ideal((z ** 3,)))
    assert gb.polys == (z ** 3,)

    gb = groebner(Ideal((x ** 2, y ** 2)))
    assert set(gb.polys) == {x ** 2, y ** 2}  # monomial ideal is its own basis

    gb = groebner(Ideal((x * x - y * y, y ** 3)))
    # verify the Groebner property by brute S-pair reduction
    for i, f in enumerate(gb.polys):
        for g in gb.polys[i + 1:]:
            from qsheaf.poly import _spoly
            assert not normal_form(_spoly(f, g), gb)
    # same ideal both ways
    for gen in (x * x - y * y, y ** 3):
        assert not normal_form(gen, gb)
    for g in gb.polys:
        assert ideal_member_oracle([x * x - y * y, y ** 3], g)
    # reducedness: monic, leading terms pairwise indivisible, tails reduced
    for g in gb.polys:
        assert g.leading_coefficient() == 1
    leads = [g.leading_monomial() for g in gb.polys]
    for i, lm in enumerate(leads):
        for j, lm2 in enumerate(leads):
            if i != j:
                assert not all(a <= b for a, b in
                               zip(lm2[0] + lm2[1], lm[0] + lm[1]))


def test_normal_form_examples():
    z = Polynomial.variable(1, 0)
    assert not normal_form(z ** 4, groebner(Ideal((z ** 3,))))
    gb = groebner(Ideal((x ** 2, y ** 2)))
    assert not normal_form(x * x * y, gb)
    assert normal_form(x * y, gb) == x * y


def test_quotient_dims_examples():
    z = Polynomial.variable(1, 0)
    assert quotient_dims(groebner(Ideal((z ** 3,))), 4) == (1, 1, 1, 0, 0)
    assert quotient_dims(groebner(Ideal((x ** 2, y ** 2))), 3) == (1, 2, 1, 0)
    assert quotient_dims(groebner(Ideal((), nv=1)), 3) == (1, 1, 1, 1)
    with pytest.raises(NonHomogeneousIdeal):
        quotient_dims(groebner(Ideal((x * x - y,))), 2)


def test_standard_monomials_unique_top():
    gb = groebner(Ideal((x ** 2, y ** 2)))
    assert standard_monomials(gb, 2) == ((1, 1),)


def test_membership_oracle_agreement_small():
    rng = random.Random(6)
    for _ in range(25):
        gens = []
        while len(gens) < 2:
            g = rand_poly(rng, nv=2, max_deg=2, terms=3)
            # homogenize by keeping only the top-degree part
            if not g:
                continue
            d = g.psi_degree()
            g = Polynomial(2, 0, {m: c for m, c in g.terms.items()
                                  if sum(m[0]) == d})
            if g:
                gens.append(g)
        gb = groebner(Ideal(tuple(gens)))
        for d in range(4):
            for mono in monomials_of_degree(2, d):
                p = Polynomial(2, 0, {(mono, ()): Fraction(1)})
                assert (not normal_form(p, gb)) == ideal_member_oracle(gens, p)


def test_monomial_order_block_structure():
    # psi block decides first; q enters only on psi ties
    m_psi = ((1, 0), (0,))
    m_q = ((0, 0), (3,))
    assert monomial_key(m_psi) > monomial_key(m_q)
    assert monomial_key(((0, 0), (1,))) > monomial_key(((0, 0), (0,)))
    # grevlex within the psi block: x*y > y^2 at equal degree, x > y
    assert monomial_key(((1, 1), ())) > monomial_key(((0, 2), ()))
    assert monomial_key(((1, 0), ())) > monomial_key(((0, 1), ()))


def test_groebner_rejects_negative_novikov_exponents():
    from qsheaf.poly import UnsupportedNovikovShape

    p = Polynomial(1, 1, {((1,), (-1,)): Fraction(1), ((0,), (0,)): Fraction(1)})
    with pytest.raises(UnsupportedNovikovShape):
        groebner(Ideal((p,)))


def test_parser_round_trip():
    d_syms = [Polynomial.linear(2, (1, 0)), Polynomial.linear(2, (0, 1))]
    p = parse_polynomial("3/2*D1^2*D2 - D2^3", d_syms)
    expected = Fraction(3, 2) * x * x * y - y ** 3
    assert p == expected


def test_parser_reports_positions():
    d_syms = [Polynomial.linear(1, (1,))]
    with pytest.raises(ParseError) as err:
        parse_polynomial("D1 + %", d_syms)
    assert err.value.pos == 5
    with pytest.raises(ParseError) as err:
        parse_polynomial("D7", d_syms)
    assert err.value.pos == 0
    with pytest.raises(ParseError):
        parse_polynomial("D1 ^ x", d_syms)


def test_parser_caps_coefficient_height():
    d_syms = [Polynomial.linear(1, (1,))]
    bits = qsheaf.poly._MAX_HEIGHT
    # 0, 1 and -1 keep every coefficient bounded at any exponent
    assert parse_polynomial("1^30000000*D1", d_syms) == d_syms[0]
    assert parse_polynomial("(-1)^30000001*D1", d_syms) == -d_syms[0]
    assert parse_polynomial("0^30000000 + D1", d_syms) == d_syms[0]
    assert parse_polynomial(f"2^{bits}*D1", d_syms) == 2 ** bits * d_syms[0]
    with pytest.raises(ParseError, match="would exceed") as err:
        parse_polynomial(f"D1*(1/2)^{bits + 1}", d_syms)
    assert err.value.pos == 8  # at the operator
    with pytest.raises(ParseError, match="would exceed") as err:
        parse_polynomial(f"2^{bits - 5}*64*D1", d_syms)
    assert err.value.pos == len(f"2^{bits - 5}")


def test_leading_monomial_found_once(monkeypatch):
    p = 3 * x * x * y - y ** 3 + x
    lead = p.leading_monomial()

    def no_search(mon):
        raise AssertionError("leading monomial searched again")

    monkeypatch.setattr(qsheaf.poly, "monomial_key", no_search)
    assert p.leading_monomial() == lead == ((2, 1), ())
    assert p.leading_coefficient() == 3
    m = p.monic()
    assert m.leading_monomial() == lead
    assert m.terms == {mon: c / 3 for mon, c in p.terms.items()}


def test_parser_caps_nesting():
    d_syms = [Polynomial.linear(1, (1,))]
    depth = qsheaf.poly._MAX_NESTING
    assert parse_polynomial("(" * depth + "D1" + ")" * depth, d_syms) == d_syms[0]
    assert parse_polynomial("-" * (depth + 1) + "D1", d_syms) == (-1) ** (depth + 1) * d_syms[0]
    with pytest.raises(ParseError, match="nesting deeper") as err:
        parse_polynomial("(" * 400 + "D1" + ")" * 400, d_syms)
    assert err.value.pos == depth
    with pytest.raises(ParseError, match="nesting deeper") as err:
        parse_polynomial("-" * 3000 + "D1", d_syms)
    assert err.value.pos == depth + 1  # the leading sign belongs to the expression


# ---- differential checks against sympy ---------------------------------------

def _sympy_poly(sympy, p, gens):
    return sympy.Poly.from_dict({m: sympy.Rational(c.numerator, c.denominator)
                                 for (m, _), c in p.terms.items()}, gens, domain="QQ")


def _homogeneous_ideal(rng, nv, n_gens=(2, 3)):
    gens = []
    for _ in range(rng.randint(*n_gens)):
        deg = rng.randint(2, 3)
        terms = {}
        for _ in range(rng.randint(1, 3)):
            exps = [0] * nv
            for _ in range(deg):
                exps[rng.randrange(nv)] += 1
            terms[(tuple(exps), ())] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]))
        gens.append(Polynomial(nv, 0, terms))
    return gens


def _deformed_p1xp1():
    from qsheaf.model import load_model

    return load_model(os.path.join(os.path.dirname(__file__), "..", "models",
                                   "p1xp1_deformed.json"))


def _slice_anchor_ideal(model, t):
    """Generators of the anchor sector ideal of the c1 = t degree slice."""
    from qsheaf.lattice import find_anchor
    from qsheaf.quantum import degree_slice
    from qsheaf.sectors import sector_ideal

    anchor = find_anchor(model.cl, degree_slice(model.cl, t))
    return list(sector_ideal(model.lin, anchor))


def _differential_ideals():
    from qsheaf.lattice import find_anchor
    from qsheaf.sectors import sector_ideal

    rng = random.Random(2024)
    cases = [_homogeneous_ideal(rng, nv) for nv in (2, 3) for _ in range(6)]
    # four variables and more generators: pairs the chain criterion skips
    cases += [_homogeneous_ideal(rng, 4, n_gens=(3, 4)) for _ in range(6)]
    model = _deformed_p1xp1()
    cl = model.cl
    betas = [cl.zero_curve, *cl.mori]
    for beta in betas + [find_anchor(cl, betas)]:
        cases.append(list(sector_ideal(model.lin, beta)))
    cases += [_slice_anchor_ideal(model, t) for t in (4, 6, 8, 10)]
    return cases


def test_groebner_and_division_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for gens in _differential_ideals():
        nv = gens[0].nv
        syms = sympy.symbols(f"x0:{nv}")  # x0 > x1 > ..., as psi1 > psi2 > ...

        def to_sympy(p):
            return _sympy_poly(sympy, p, syms)

        gb = groebner(Ideal(tuple(gens)))
        ref = sympy.groebner([to_sympy(g) for g in gens], *syms, order="grevlex",
                             domain="QQ")  # reduced and monic over QQ
        assert [to_sympy(g).as_expr() for g in gb.polys] == list(reversed(ref.exprs))
        for _ in range(4):
            p = rand_poly(rng, nv=nv, max_deg=4, terms=5)
            remainder = ref.reduce(to_sympy(p).as_expr())[1]
            assert (to_sympy(normal_form(p, gb)) - sympy.Poly(remainder, *syms, domain="QQ")).is_zero
            d = rand_poly(rng, nv=nv, max_deg=2, terms=3)
            if not d:
                continue
            for num in (p, p * d):
                # {d} is a Groebner basis of (d): d divides num iff the remainder is 0
                rem = sympy.div(to_sympy(num), to_sympy(d))[1]
                assert (not normal_form(num, [d])) == rem.is_zero


def test_groebner_chain_criterion_bounds_reductions(monkeypatch):
    gens = _slice_anchor_ideal(_deformed_p1xp1(), 10)
    calls = []
    real = qsheaf.poly.normal_form

    def spy(p, gb):
        calls.append(p)
        return real(p, gb)

    monkeypatch.setattr(qsheaf.poly, "normal_form", spy)
    gb = groebner(Ideal(tuple(gens)))
    assert len(gb.polys) == 18
    # one reduction per kept S-pair plus one per interreduced element; without
    # the chain criterion this ideal takes 187 reductions
    assert len(calls) <= 3 * len(gb.polys), len(calls)


def test_heap_key_ascends_as_monomial_order_descends():
    rng = random.Random(11)
    mons = {(tuple(rng.randint(0, 3) for _ in range(3)),
             tuple(rng.randint(0, 2) for _ in range(2))) for _ in range(300)}
    by_heap = sorted(mons, key=qsheaf.poly._heap_key)
    assert by_heap == sorted(mons, key=monomial_key, reverse=True)
    assert len({qsheaf.poly._heap_key(m) for m in mons}) == len(mons)


# ---- the capped walk of standard_monomials ------------------------------------

def _full_scan(gb, degree):
    """Standard monomials by filtering every monomial of the degree."""
    leads = [g.leading_monomial()[0] for g in gb.polys]
    return tuple(m for m in monomials_of_degree(gb.nv, degree)
                 if not any(all(x <= y for x, y in zip(lm, m)) for lm in leads))


def _monomial(*exps):
    return Polynomial(len(exps), 0, {(exps, ()): Fraction(1)})


def test_standard_monomials_match_full_scan():
    rng = random.Random(31)
    cases = [_homogeneous_ideal(rng, nv) for nv in (2, 3) for _ in range(4)]
    cases += [_homogeneous_ideal(rng, 4, n_gens=(3, 4)) for _ in range(4)]
    cases += [_slice_anchor_ideal(_deformed_p1xp1(), t) for t in (4, 8)]
    cases += [
        [_monomial(2, 0, 0), _monomial(1, 1, 0)],  # x2 and x3 uncapped
        [_monomial(0, 3, 0), _monomial(1, 0, 1)],  # x1 and x3 uncapped
        [_monomial(3, 0), _monomial(0, 2), _monomial(1, 1)],
        [_monomial(2, 0, 0), _monomial(0, 4, 0), _monomial(0, 0, 1),
         _monomial(1, 3, 0)],
        [_monomial(2, 0, 0, 0), _monomial(0, 2, 0, 0), _monomial(0, 0, 2, 0),
         _monomial(0, 0, 0, 3), _monomial(1, 1, 1, 0)],
        [Polynomial.const(3, 1)],  # the whole ring: nothing survives
    ]
    for gens in cases:
        gb = groebner(Ideal(tuple(gens)))
        assert standard_monomials(gb, -1) == ()
        # every Artinian case here reaches its socle + 1 within the bound
        for degree in range({2: 60, 3: 20, 4: 10}[gb.nv]):
            expected = _full_scan(gb, degree)
            assert standard_monomials(gb, degree) == expected, (gens, degree)
            if not expected:
                break  # socle + 1: every higher piece is zero too


def test_capped_walk_scans_one_candidate_on_p1_power_anchor(monkeypatch):
    from qsheaf.lattice import find_anchor
    from qsheaf.quantum import degree_slice
    from qsheaf.sectors import sector, sector_ideal

    cl, lin = tangent_setup(p1_power(6))
    anchor = sector(lin, find_anchor(cl, degree_slice(cl, 2)))
    gb = groebner(Ideal(sector_ideal(lin, anchor.beta)))
    scanned = []
    walk = qsheaf.poly._capped_exponents

    def counting(caps, degree):
        for exps in walk(caps, degree):
            scanned.append(exps)
            yield exps

    monkeypatch.setattr(qsheaf.poly, "_capped_exponents", counting)
    assert standard_monomials(gb, anchor.n_beta) == ((5,) * 6,)
    assert scanned == [(5,) * 6]
    # the walk over every monomial of the degree scans this many
    assert math.comb(anchor.n_beta + gb.nv - 1, gb.nv - 1) == 324632


# ---- the top-degree functional ------------------------------------------------

def _anchor_top_pieces():
    """(basis, top monomial, degree) of anchor sector rings: the c1 = t slices
    of the deformed P1xP1 model, a seeded deformed (P^1)^3 and tangent F1."""
    from qsheaf.lattice import find_anchor
    from qsheaf.quantum import degree_slice
    from qsheaf.sectors import sector, sector_ideal

    model = _deformed_p1xp1()
    setups = [(model.cl, model.lin, t) for t in (4, 6, 8, 10)]
    setups.append((*deformed_p1_power(3, random.Random(3)), 2))
    setups.append((*tangent_setup(hirzebruch(1)), 5))
    for cl, lin, t in setups:
        sec = sector(lin, find_anchor(cl, degree_slice(cl, t)))
        gb = groebner(Ideal(sector_ideal(lin, sec.beta)))
        (top,) = standard_monomials(gb, sec.n_beta)
        yield gb, (top, ()), sec.n_beta


def test_top_functional_matches_normal_form():
    for gb, top, degree in _anchor_top_pieces():
        value = top_functional(gb, top)
        for exps in monomials_of_degree(gb.nv, degree):
            nf = normal_form(Polynomial(gb.nv, 0, {(exps, ()): 1}), gb)
            assert set(nf.terms) <= {top}
            assert value((exps, ())) == nf.terms.get(top, 0), (exps, top)


def test_top_functional_refuses_a_piece_top_does_not_span():
    # x^2 - y^2 leads with x^2, so degree 2 keeps x*y and y^2 standard
    gb = groebner(Ideal((x * x - y * y,)))
    value = top_functional(gb, ((0, 2), ()))
    assert value(((2, 0), ())) == 1  # x^2 reduces to the top monomial y^2
    with pytest.raises(PolyError, match="standard monomial"):
        value(((1, 1), ()))
