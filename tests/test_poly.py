import math
import os
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsheaf.poly
from qsheaf import cache
from qsheaf.poly import (Ideal, NonHomogeneousIdeal, NonSquare,
                         ParseError, PolyError, Polynomial, det, groebner,
                         monomial_key, normal_form, parse_polynomial,
                         power_product, quotient_dims, standard_monomials, top_functional)
from qsheaf.poly import _mon_mul, _Overflow, _Packing

from _oracles import (_heap_key, _mon_div, _mon_divides, _mon_lcm, groebner_by_fractions,
                      height_by_lcm, ideal_member_oracle, leibniz_det, monic,
                      monomials_of_degree, normal_form_by_fractions,
                      parse_polynomial_by_characters, power_by_tuples, spoly_by_fractions)
from conftest import (INT_DIGIT_LIMIT, all_fans, deformed_p1_power, hirzebruch, p1_power,
                      poly_texts, tangent_setup)

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
    # integer matrices: seeded ones, every other one singular (its last row
    # a combination of the others, zero when n = 1)
    rng = random.Random(5)
    mats = []
    for n in range(1, 6):
        for singular in (False, True):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if singular:
                m[-1] = [sum(k * row[j] for k, row in zip((2, -1), m[:-1]))
                         for j in range(n)]
            mats.append(m)
    assert all(leibniz_det(m) == 0 for m in mats[1::2])
    # every maximal cone, and every facet of one with the ray opposite it
    for _, fan in all_fans():
        for sigma in fan.max_cones:
            mats.append([fan.rays[i] for i in sigma])
            for i in sigma:
                facet = [rho for rho in sigma if rho != i]
                for opp in range(fan.n_rays):
                    if opp not in sigma and tuple(sorted(facet + [opp])) in fan.max_cones:
                        mats.append([fan.rays[rho] for rho in facet + [opp]])
    for m in mats:
        assert det(m) == leibniz_det(m)


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
            assert not normal_form(spoly_by_fractions(f, g), gb)
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


def test_groebner_of_repeated_generators_is_the_basis_without_them():
    # a repeated generator's S-pair reduces to 0 and minimalization drops it
    gens = (x * x - y * y, y ** 3)
    gb = groebner(Ideal(gens))
    assert groebner(Ideal((gens[0], gens[1], gens[0], 2 * gens[1], gens[1]))) == gb


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
    # normal_form refuses them too, in the input and in a divisor
    q = Polynomial(1, 1, {((1,), (1,)): Fraction(1)})
    for f, divisors in ((p, [q]), (q, [p])):
        with pytest.raises(UnsupportedNovikovShape):
            normal_form(f, divisors)


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


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.one_of(st.integers(-2 ** 80, 2 ** 80),
                                 st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80),
                                           st.sampled_from((1, 2, 6, 7, 3 ** 40, 10 ** 30)))),
                       max_size=5))
@example({})
@example({(1, 0): Fraction(1, 6), (0, 1): Fraction(-5, 4), (1, 1): 3})
@settings(max_examples=200, deadline=None)
def test_height_is_the_lcm_formula_bit_for_bit(terms):
    # the content from linalg._primitive gives the same two log2 arguments
    p = Polynomial(2, 0, {(e, ()): c for e, c in terms.items()})
    assert qsheaf.poly._height(p) == height_by_lcm(p)


def test_linear_refuses_a_coefficient_count_other_than_nv():
    assert Polynomial.linear(2, (0, 3)) == 3 * y
    with pytest.raises(PolyError, match=r"^coeffs has length 2, not nv = 1$"):
        Polynomial.linear(1, [1, 1])
    with pytest.raises(PolyError, match=r"^coeffs has length 1, not nv = 2$"):
        Polynomial.linear(2, [1])


def test_leading_monomial_found_once(monkeypatch):
    p = 3 * x * x * y - y ** 3 + x
    lead = p.leading_monomial()

    def no_search(mon):
        raise AssertionError("leading monomial searched again")

    monkeypatch.setattr(qsheaf.poly, "monomial_key", no_search)
    assert p.leading_monomial() == lead == ((2, 1), ())
    assert p.leading_coefficient() == 3
    m = monic(p)
    assert m.leading_monomial() == lead
    assert m.terms == {mon: Fraction(c, 3) for mon, c in p.terms.items()}



# ---- the canonical coefficient form ---------------------------------------------

def _canonical(c):
    """An int, or a Fraction that is not integral: never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _assert_canonical(*polys):
    for p in polys:
        assert all(map(_canonical, p.terms.values())), p.terms


def _literal(c):
    """A rational literal for c, not in lowest terms: 3 reads 6/2."""
    c = Fraction(c)
    return f"{2 * c.numerator}/{2 * c.denominator}"


@given(polys(), st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_coefficients_stay_canonical(a, seed):
    b = rand_poly(random.Random(seed))
    _assert_canonical(a, b, a + b, a - b, b - b, a * b, b ** 3, a ** 2,
                      b * Fraction(4, 2), Fraction(2, 3) * b, 3 * b)
    if b:
        _assert_canonical(monic(b))
    # x^2 - 2/3 y^2 and y^3 leave x*y^2 alone in degree 3
    gb = groebner(Ideal((x * x - Fraction(2, 3) * y * y, y ** 3)))
    _assert_canonical(*gb.polys, normal_form(a * b, gb), normal_form(b, [b + x]))
    if b:
        _assert_canonical(*groebner(Ideal((b, x ** 3, y ** 4))).polys)
    value, pack = top_functional(gb, (1, 2))
    values = [value(pack(exps)) for exps in monomials_of_degree(2, 3)]
    assert all(map(_canonical, values)), values
    d_syms = [Polynomial.linear(2, (1, 0)), Polynomial.linear(2, (0, 1))]
    text = " + ".join(f"{_literal(c)}*D1^{e0}*D2^{e1}" for ((e0, e1), _), c in b.terms.items())
    parsed = parse_polynomial(text or "0/2", d_syms)
    assert parsed == b
    _assert_canonical(parsed)
    stored = cache.deserialize_poly(cache.serialize_poly(b), 2, 0)
    assert stored == b
    _assert_canonical(stored, cache.deserialize_poly(
        [[_literal(c), list(m[0]), list(m[1])] for m, c in b.terms.items()], 2, 0))


def test_integral_fraction_and_int_coefficients_agree():
    mon = ((1, 0), ())
    a = Polynomial(2, 0, {mon: 2})
    b = Polynomial(2, 0, {mon: Fraction(2)})
    assert a == b and hash(a) == hash(b)
    assert type(b.terms[mon]) is int
    assert cache.ideal_key(Ideal((a,))) == cache.ideal_key(Ideal((b,)))
    assert str(a) == str(b)


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


# always a degree bound, as every --poly has: without one, a power such as
# (D1+D2)^1212 passes the height check and expands in full
@given(poly_texts(24), st.integers(min_value=0, max_value=8))
@example("D1^²", 8)
@example("7" * (INT_DIGIT_LIMIT + 1) + "*D1", 8)
@example("D" + "7" * INT_DIGIT_LIMIT, 8)  # the index and the degree below are
@example("(D1*D1)^" + "7" * INT_DIGIT_LIMIT, 8)  # echoed cut, the degree past the limit
@settings(max_examples=300, deadline=None)
def test_parser_matches_the_character_loop(text, max_degree):
    """The token-regex parser against the character loop it replaced: the
    same polynomial, or the same message at the same position.  Where the
    loop let a ValueError out, the regex parser raises a ParseError."""
    d_syms = [Polynomial.linear(3, e) for e in ((1, 0, 0), (0, 1, 0), (1, 1, 1))]
    try:
        expected = parse_polynomial_by_characters(text, d_syms, max_degree)
    except (ParseError, ValueError) as exc:
        expected = exc
    try:
        got = parse_polynomial(text, d_syms, max_degree)
    except ParseError as exc:
        got = exc
    nondecimal = [i for i, ch in enumerate(text) if ch.isdigit() and not ch.isdecimal()]
    if nondecimal:
        # the loop read '²' as a digit and refused it no earlier than int(),
        # after any refusal of the tokens before; the regex reads it as an
        # unexpected character, so its refusal can come first
        assert isinstance(expected, Exception), text
        assert isinstance(got, ParseError) and got.pos <= nondecimal[0], (text, got)
    elif isinstance(expected, ValueError):  # only the int digit limit is left
        assert isinstance(got, ParseError), (text, got)
        assert str(got).endswith("exceeds Python's int digit limit"
                                  f" (at position {got.pos})"), got
    elif isinstance(expected, ParseError):
        assert (type(got), str(got), got.pos) == (ParseError, str(expected), expected.pos)
    else:
        assert isinstance(got, Polynomial), (text, got)
        assert {m: (c, type(c)) for m, c in got.terms.items()} == \
            {m: (c, type(c)) for m, c in expected.terms.items()}


def test_parser_reads_decimal_digits_as_int_does():
    d_syms = [Polynomial.linear(3, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    assert parse_polynomial("٣*D٣ - ٣/١٢", d_syms) == 3 * d_syms[2] - Fraction(1, 4)
    for text, message in [("D1^²", "unexpected character '²' (at position 3)"),
                          ("D²", "symbol 'D' needs a numeric index (at position 0)"),
                          ("1/²", "malformed rational number (at position 1)")]:
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, d_syms)
        assert str(err.value) == message


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int digit limit")
def test_parser_refuses_digit_runs_past_the_int_digit_limit():
    d_syms = [Polynomial.linear(1, (1,))]
    run = "7" * (sys.get_int_max_str_digits() + 1)
    # each run is refused where it starts: numerator, denominator, exponent, index
    for text, at in [(f"{run}*D1", 0), (f"D1 - 1/{run}", 7), (f"D1^{run}", 3),
                     (f"D{run}", 1)]:
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, d_syms)
        assert str(err.value) == (f"{len(run)}-digit number exceeds Python's int digit limit"
                                  f" (at position {at})")
    # a zero denominator is checked before its numerator is read, as before
    with pytest.raises(ParseError, match="zero denominator"):
        parse_polynomial(f"{run}/0", d_syms)
    ones = "1" * (len(run) - 1)  # at the limit itself
    assert parse_polynomial(f"{ones}*D1", d_syms) == int(ones) * d_syms[0]


# ---- the fraction-free Buchberger against the one over Q --------------------------

coefficients = st.one_of(
    st.builds(Fraction, st.integers(min_value=-6, max_value=6).filter(bool),
              st.integers(min_value=1, max_value=7)),
    st.builds(Fraction, st.sampled_from((-2 ** 200, 2 ** 200, 3 ** 127, -(2 ** 200 + 1))),
              st.sampled_from((1, 7, 2 ** 200, 5 ** 90))))


@st.composite
def ideals(draw):
    """Rational ideals in two or three psi variables: psi-homogeneous
    generators, or with Novikov exponents (one or two q coordinates) whose
    terms drop up to one psi degree, as the quantum relations do."""
    nv = draw(st.integers(min_value=2, max_value=3))
    nq = draw(st.sampled_from((0, 0, 1, 2)))
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        deg = draw(st.integers(min_value=1, max_value=3))
        terms = {}
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            q = tuple(draw(st.integers(min_value=0, max_value=1)) for _ in range(nq))
            exps = [0] * nv
            for _ in range(deg - (1 if any(q) else 0)):
                exps[draw(st.integers(min_value=0, max_value=nv - 1))] += 1
            terms[(tuple(exps), q)] = draw(coefficients)
        gens.append(Polynomial(nv, nq, terms))
    return gens


@given(ideals(), st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_groebner_matches_fraction_reference(gens, seed):
    gb = groebner(Ideal(tuple(gens)))
    assert gb == groebner_by_fractions(Ideal(tuple(gens)))
    _assert_canonical(*gb.polys)
    # the division, also by the generators themselves: leads of either sign,
    # neither monic nor a Groebner basis
    rng = random.Random(seed)
    nv, nq = gens[0].nv, gens[0].nq
    for divisors in (list(gb.polys), gens):
        p = rand_poly(rng, nv=nv, max_deg=4, terms=5).with_q(nq) * Fraction(2 ** 70 + 1, 3)
        for q in (p, p * gens[0]):
            r = normal_form(q, divisors)
            assert r == normal_form_by_fractions(q, divisors)
            _assert_canonical(r)


def test_groebner_matches_fraction_reference_on_model_ideals():
    from qsheaf.quantum import qsr_generators

    model = _deformed_p1xp1()
    cases = [_slice_anchor_ideal(model, t) for t in (4, 8)]
    for seed in (0, 1):
        cl, lin = deformed_p1_power(3, random.Random(seed))
        cases += [_slice_anchor_ideal(SimpleNamespace(cl=cl, lin=lin), t) for t in (0, 2)]
    # a Picard rank 4 anchor ring: deformed (P^1)^4 at t = 2
    cl, lin = deformed_p1_power(4, random.Random(0))
    cases.append(_slice_anchor_ideal(SimpleNamespace(cl=cl, lin=lin), 2))
    # the quantum ideals, Novikov exponents in Mori coordinates
    for lin in (model.lin, tangent_setup(hirzebruch(1))[1], tangent_setup(p1_power(3))[1],
                deformed_p1_power(3, random.Random(0))[1]):
        cl = lin.cl
        cases.append([rel.difference.map_q(cl.to_mori, cl.pic_rank)
                      for rel in qsr_generators(lin)])
        assert any(g.has_q() for g in cases[-1])
    for gens in cases:
        assert groebner(Ideal(tuple(gens))) == groebner_by_fractions(Ideal(tuple(gens)))


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
    real = qsheaf.poly._pseudo_remainder

    def spy(terms, rules, packing):
        calls.append(terms)
        return real(terms, rules, packing)

    monkeypatch.setattr(qsheaf.poly, "_pseudo_remainder", spy)
    gb = groebner(Ideal(tuple(gens)))
    assert len(gb.polys) == 18
    # one reduction per kept S-pair plus one per interreduced element; without
    # the chain criterion this ideal takes 187 reductions
    assert len(calls) <= 3 * len(gb.polys), len(calls)


def _exponents(data, n, degree):
    """n nonnegative ints of sum at most degree, in a drawn order."""
    left, exps = data.draw(st.integers(0, degree)), []
    for _ in range(n):
        exps.append(data.draw(st.integers(0, left)))
        left -= exps[-1]
    return tuple(data.draw(st.permutations(exps)))


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_packed_monomials_match_the_tuple_oracles(data):
    nv, nq = data.draw(st.integers(1, 4)), data.draw(st.sampled_from((0, 1, 2)))
    packing = _Packing(nv, data.draw(st.integers(0, 24)), nq)
    pack, half = packing.pack, packing.limit // 2  # a product of two halves fits

    def monomial(degree=half):
        return _exponents(data, nv, degree), _exponents(data, nq, degree)

    mons = [monomial() for _ in range(5)]
    # int order is monomial_key's order, and the packing is one-to-one
    assert sorted(mons, key=pack) == sorted(mons, key=monomial_key)
    assert all(packing.unpack(pack(m)) == m for m in mons)
    assert len({pack(m) for m in mons}) == len(set(mons))
    for a in mons:
        c = (tuple(data.draw(st.integers(0, e)) for e in a[0]),
             tuple(data.draw(st.integers(0, e)) for e in a[1]))  # c divides a
        for b in mons:
            assert pack(a) + pack(b) - packing.offset == pack(_mon_mul(a, b))
            assert pack(a) - pack(c) + pack(b) == pack(_mon_mul(_mon_div(a, c), b))
            assert packing.divides(pack(a), pack(b)) == _mon_divides(a, b), (a, b)
            assert packing.lcm(pack(a), pack(b)) == pack(_mon_lcm(a, b))
            # the negated ints of the division heap pop the larger monomial first
            assert (-pack(a) < -pack(b)) == (_heap_key(a) < _heap_key(b))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_packing_adds_divides_and_refuses_overflow(data):
    nv, nq = data.draw(st.integers(1, 5)), data.draw(st.sampled_from((0, 1, 2)))
    asked = data.draw(st.integers(0, 70))
    packing = _Packing(nv, asked, nq)
    limit, pack, overflow = packing.limit, packing.pack, packing.overflow
    assert limit >= asked
    zero = ((0,) * nv, (0,) * nq)

    def at_limit(n):
        """n exponents of sum exactly limit (none when n is 0)."""
        if not n:
            return ()
        exps = list(_exponents(data, n, limit))
        exps[data.draw(st.integers(0, n - 1))] += limit - sum(exps)
        return tuple(exps)

    top = (at_limit(nv), at_limit(nq))
    assert not pack(top) & overflow and packing.unpack(pack(top)) == top
    block = data.draw(st.integers(0, 1 if nq else 0))
    i = data.draw(st.integers(0, len(zero[block]) - 1))
    one = tuple(tuple(int(b == block and j == i) for j in range(len(zero[b]))) for b in (0, 1))
    # limit + 1 is refused by pack; a product or a shift that reaches it, or
    # an lcm past it, shows a guard bit or raises: never a fitting monomial
    with pytest.raises(_Overflow, match="packing limit"):
        pack(_mon_mul(top, one))
    assert (pack(top) + pack(one) - packing.offset) & overflow
    assert (pack(top) - pack(zero) + pack(one)) & overflow
    assert packing.divides(pack(one), pack(top)) == _mon_divides(one, top)
    if not _mon_divides(one, top):
        with pytest.raises(_Overflow, match="packing limit"):
            packing.lcm(pack(top), pack(one))


def test_groebner_widens_a_run_that_outgrows_its_packing(monkeypatch):
    # groebner sizes its packing to twice the sum of the generators' degrees
    # (limit 31 and 63 here): the S-polynomial of the first two reaches
    # q1^40, and Mora's ideal for n = 8 has a basis element of psi degree
    # 65; normal_form sizes to twice the largest degree (limit 15), and the
    # remainder is q1^24 * psi2^6.  Each run starts over once, wider.
    limits = []
    real = _Packing.__init__

    def spy(self, nv, limit, nq=0):
        real(self, nv, limit, nq)
        limits.append(self.limit)

    monkeypatch.setattr(_Packing, "__init__", spy)
    a, b = (Polynomial.variable(2, i, 1) for i in range(2))
    q = Polynomial.novikov(2, 1, (1,))
    u, v, z, w = (Polynomial.variable(4, i) for i in range(4))
    n = 8
    for gens, widened in (((a - 3 * q ** 8 * b, a ** 5 - 2 * b ** 5), [31, 127]),
                          ((u ** (n + 1) - v * z ** (n - 1) * w, u * v ** (n - 1) - z ** n,
                            u ** n * z - v ** n * w), [63, 255])):
        limits.clear()
        assert groebner(Ideal(gens)) == groebner_by_fractions(Ideal(gens))
        assert limits == widened
    limits.clear()
    assert normal_form(a ** 6, [a - q ** 4 * b]) == b ** 6 * q ** 24
    assert limits == [15, 63]


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
        yield gb, top, sec.n_beta


def test_top_functional_matches_normal_form():
    for gb, top, degree in _anchor_top_pieces():
        value, pack = top_functional(gb, top)
        for exps in monomials_of_degree(gb.nv, degree):
            nf = normal_form(Polynomial(gb.nv, 0, {(exps, ()): 1}), gb)
            assert set(nf.terms) <= {(top, ())}
            assert value(pack(exps)) == nf.terms.get((top, ()), 0), (exps, top)


def test_top_functional_reads_every_divisor_through_the_packing_rule(monkeypatch):
    rules = []
    real = _Packing.rule

    def spy(self, terms):
        rules.append(real(self, terms))
        return rules[-1]

    monkeypatch.setattr(_Packing, "rule", spy)
    for gb, top, degree in _anchor_top_pieces():
        rules.clear()
        top_functional(gb, top)
        assert len(rules) == sum(sum(g.leading_monomial()[0]) <= degree for g in gb.polys)
        assert all(ints[lead] > 0 for _, lead, ints in rules)


def test_top_functional_refuses_a_piece_top_does_not_span():
    # x^2 - y^2 leads with x^2, so degree 2 keeps x*y and y^2 standard
    gb = groebner(Ideal((x * x - y * y,)))
    value, pack = top_functional(gb, (0, 2))
    assert value(pack((2, 0))) == 1  # x^2 reduces to the top monomial y^2
    with pytest.raises(PolyError, match="standard monomial"):
        value(pack((1, 1)))
    # a product past the packing (limit 3 for degree 2) is refused, not wrapped
    with pytest.raises(PolyError, match="monomial above the packing limit 3"):
        value(pack((3, 0)) + pack((1, 0)))


@st.composite
def novikov_polys(draw, nv, nq):
    """Up to four terms, psi exponents 0..3, Novikov exponents of both signs,
    int or Fraction coefficients."""
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        mon = (tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(nv)),
               tuple(draw(st.integers(min_value=-3, max_value=3)) for _ in range(nq)))
        terms[mon] = draw(st.one_of(small_coeffs, st.fractions(
            min_value=-5, max_value=5, max_denominator=6)))
    return Polynomial(nv, nq, terms)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_power_product_equals_tuple_powering(data):
    nv = data.draw(st.integers(min_value=1, max_value=3))
    nq = data.draw(st.integers(min_value=0, max_value=2))
    pairs = data.draw(st.lists(st.tuples(novikov_polys(nv, nq),
                                         st.integers(min_value=0, max_value=5)), max_size=3))
    expected = Polynomial.const(nv, 1, nq)
    for p, k in pairs:
        power = power_by_tuples(p, k)
        assert p ** k == power
        expected = expected * power
    product = power_product(pairs, nv, nq)
    assert product == expected
    assert all(type(c) is int or c.denominator != 1 for c in product.terms.values())


def test_power_product_edge_cases():
    zero, one = Polynomial.zero(2), Polynomial.const(2, 1)
    assert zero ** 0 == one == power_product([], 2) == power_product([(zero, 0), (x, 0)], 2)
    assert zero ** 3 == zero == power_product([(x + y, 2), (zero, 1)], 2)
    assert power_product([(x - y, 2), (x + y, 2)], 2) == x ** 4 - 2 * x * x * y * y + y ** 4
    q = Polynomial(1, 1, {((1,), (-2,)): Fraction(1, 2), ((0,), (3,)): -1})
    assert q ** 5 == power_by_tuples(q, 5)
    with pytest.raises(PolyError):
        power_product([(x, 1)], 3)  # another ring


@pytest.mark.parametrize("base", [x + y, x, Polynomial.zero(2)])
def test_negative_power_raises_at_once(base):
    # k >>= 1 stays at -1, so a binary powering that started would not end
    with pytest.raises(PolyError):
        base ** -1
    with pytest.raises(PolyError):
        power_product([(x, 2), (base, -3)], 2)
