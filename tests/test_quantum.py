import glob
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsheaf import (Ideal, NonFanoEnumerationUnbounded, UnsupportedNovikovShape,
                    beta_K, build_fan, class_lattice, correlator_sector,
                    correlator_series, d_symbols, degree_slice, dominates,
                    effective_window, find_anchor, four_fermi, groebner, h0, h1,
                    linear_part, novikov_series_str, parse_deformation, polymology,
                    qsr_generators, quantum_groebner, quantum_normal_form,
                    relation_annihilates, sector, sector_ideal, tangent_deformation,
                    transition, verify_qc_relation)
import qsheaf.lattice
import qsheaf.poly
import qsheaf.quantum
import qsheaf.sectors
from qsheaf.deform import LinearData
from qsheaf.lattice import CurveClass
from qsheaf.model import load_model
from qsheaf.poly import Polynomial, normal_form
from qsheaf.quantum import _AnchorRing

from _oracles import (GroebnerReference, ResidueReference, degree_slice_by_box,
                      expand_sides, monomials_of_degree, residue_q_by_fractions, uinverse,
                      uproduct, urem, utrim)
from conftest import (all_fans, blown_up_p1xp1, blowup_p3_point, class_of_ray,
                      deformed_p1_power, deformed_p1xp1, deformed_setups, drop_q,
                      hexagon, hirzebruch, p1_fan, p1_power, p1xp1_fan, p2_fan,
                      projective_bundle, q_of, q_set_zero, tangent_setup)


def test_riemann_roch_range():
    for x in range(-20, 21):
        assert h0(x) - h1(x) == x + 1
        assert h0(x) >= 0 and h1(x) >= 0


def test_four_fermi_examples():
    cl, lin = tangent_setup(p1xp1_fan())
    assert four_fermi(lin, cl.zero_curve) == Polynomial.const(2, 1)
    g1, g2 = cl.mori
    assert four_fermi(lin, g1 + g2) == Polynomial.const(2, 1)

    cl, lin = tangent_setup(hirzebruch(2))
    beta = cl.curve_from_d((1, 1, -2, 0))
    # h1(-2) = 1 on the class of rho3, trivial elsewhere
    assert four_fermi(lin, beta) == q_of(lin, class_of_ray(cl, 2))


def test_p1_sector_correlators():
    cl, lin = tangent_setup(p1_fan())
    psi = Polynomial.variable(1, 0)
    g = cl.mori[0]
    anchor = find_anchor(cl, [cl.zero_curve, g])
    assert correlator_sector(lin, psi, cl.zero_curve, anchor) == 1
    assert correlator_sector(lin, psi ** 3, g, anchor) == 1
    # degree rule: psi^2 pairs with no sector
    assert correlator_sector(lin, psi ** 2, cl.zero_curve, anchor) == 0
    assert correlator_sector(lin, psi ** 2, g, anchor) == 0


def test_p1_correlator_ladder():
    cl, lin = tangent_setup(p1_fan())
    psi = Polynomial.variable(1, 0)
    g = cl.mori[0]
    for k in range(4):
        rep = correlator_series(lin, psi ** (2 * k + 1), 8)
        assert rep.series == ((k * g, Fraction(1)),)
        expected = "1" if k == 0 else ("q1" if k == 1 else f"q1^{k}")
        assert novikov_series_str(cl, rep.series) == expected
    assert correlator_series(lin, psi ** 2, 8).series == ()


def test_p2_classical_correlator():
    cl, lin = tangent_setup(p2_fan())
    psi = Polynomial.variable(1, 0)
    rep = correlator_series(lin, psi ** 2, 8)
    assert rep.series == ((cl.zero_curve, Fraction(1)),)
    rep = correlator_series(lin, psi ** 5, 8)
    assert rep.series == ((cl.mori[0], Fraction(1)),)


def test_degree_slice_matches_box_walk():
    p3 = build_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
                   list(itertools.combinations(range(4), 3)))
    fans = [fan for _, fan in all_fans()]
    # dP3, a non-Fano surface, and the rest of the benchmark's tangent ladder
    fans += [hexagon(), blown_up_p1xp1(8), p3, p1_power(3), p1_power(4), blowup_p3_point()]
    compared = 0
    for fan in fans:
        cl = class_lattice(fan)
        if any(g.c1() <= 0 for g in cl.mori):
            with pytest.raises(NonFanoEnumerationUnbounded):
                degree_slice(cl, 2)
            continue
        for t in range(9):
            assert degree_slice(cl, t) == degree_slice_by_box(cl, t), (fan.rays, t)
            compared += 1
    assert compared == 81  # nine Fano fans; F2, F3 and the 8-ray surface are not
    # F1: a*e + b*f with e, f of c1 = 1, 2; the box walk would scan 2.25 million
    assert len(degree_slice(class_lattice(hirzebruch(1)), 2998)) == 1500


def test_degree_slice_enumeration():
    cl = class_lattice(p1xp1_fan())
    slice2 = degree_slice(cl, 2)
    assert [b.d for b in slice2] == [(0, 0, 1, 1), (1, 1, 0, 0)]
    assert degree_slice(cl, 1) == ()
    assert degree_slice(cl, 0) == (cl.zero_curve,)

    cl = class_lattice(hirzebruch(2))
    with pytest.raises(NonFanoEnumerationUnbounded):
        degree_slice(cl, 2)
    # explicit sector lists still work
    lin = linear_part(cl, tangent_deformation(cl))
    syms = d_symbols(cl)
    p = syms[2] * syms[3] * syms[0] * syms[0]
    rep = correlator_series(lin, p, 8, sectors=[cl.curve_from_d((0, 0, 1, 1))])
    assert len(rep.rows) == 1


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("coeff_bound", [4, 5, 6])
def test_non_fano_window_matches_filtered_product(n, coeff_bound):
    cl = class_lattice(hirzebruch(n))
    combos = itertools.product(range(coeff_bound + 1), repeat=len(cl.mori))
    found = {b for b in (cl.from_mori(c) for c in combos if sum(c) <= coeff_bound)
             if b.c1() <= 4}
    assert effective_window(cl, 4, coeff_bound) == tuple(sorted(found, key=lambda b: b.d))


def test_qsr_generators_batyrev_specialization():
    # P2: psi^3 - q
    cl, lin = tangent_setup(p2_fan())
    (rel,) = qsr_generators(lin)
    psi = Polynomial.variable(1, 0)
    assert rel.lhs == psi ** 3
    assert rel.rhs == Polynomial.novikov(1, 1, rel.beta_k.coords)
    assert rel.difference == (psi ** 3).with_q(1) - rel.rhs

    # P1xP1: psi_i^2 - q_i
    cl, lin = tangent_setup(p1xp1_fan())
    rels = qsr_generators(lin)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert rels[0].lhs == x ** 2 and rels[1].lhs == y ** 2
    assert rels[0].rhs == Polynomial.novikov(2, 2, rels[0].beta_k.coords)
    assert rels[1].rhs == Polynomial.novikov(2, 2, rels[1].beta_k.coords)

    # F_n: D1 D2 - q1 D3^n and D3 D4 - q2
    for n in (1, 2, 3):
        cl, lin = tangent_setup(hirzebruch(n))
        syms = d_symbols(cl)
        rels = qsr_generators(lin)
        assert rels[0].lhs == syms[0] * syms[1]
        expected = Polynomial.novikov(2, 2, rels[0].beta_k.coords) * \
            syms[2].with_q(2) ** n
        assert rels[0].rhs == expected
        assert rels[1].lhs == syms[2] * syms[3]
        assert rels[1].rhs == Polynomial.novikov(2, 2, rels[1].beta_k.coords)
        # q-symbols line up with the Mori numbering
        assert cl.mori_coordinates(rels[0].beta_k) == (1, 0)
        assert cl.mori_coordinates(rels[1].beta_k) == (0, 1)


def test_qsr_specializes_to_sr():
    for _, fan in all_fans():
        cl, lin = tangent_setup(fan)
        sr = sector_ideal(lin, lin.cl.zero_curve)
        for rel, gen in zip(qsr_generators(lin), sr):
            assert drop_q(q_set_zero(rel.difference)) == gen


def test_qsr_relations_are_homogeneous():
    # with deg psi = 1 and deg q^beta := c1 . beta, every term of a relation
    # has degree |K|: beta_K puts [K^-] inside one cone, one coefficient per class
    setups = [tangent_setup(fan)[1] for _, fan in all_fans() + [("dP3", hexagon())]]
    setups += deformed_setups()
    for lin in setups:
        weights = [sum(basis) for basis in lin.cl.curve_basis_d]  # c1 of each basis vector
        for rel in qsr_generators(lin):
            degs = {sum(psi) + sum(w * e for w, e in zip(weights, q))
                    for psi, q in rel.difference.terms}
            assert degs == {len(rel.collection.edges)}


def test_verify_relation_grid():
    for _, fan in all_fans():
        cl, lin = tangent_setup(fan)
        window = effective_window(cl, 4, coeff_bound=4)
        for K in cl.primitive_collections:
            bk, _ = beta_K(cl, K)
            for beta in window:
                anchor = find_anchor(cl, [beta, beta + bk])
                assert verify_qc_relation(lin, K, beta, anchor)
                assert verify_qc_relation(lin, K, beta, anchor, route="expand")


def test_verify_relation_minimal_anchor():
    # beta' = beta + beta_K is the boundary case whenever it dominates
    cl, lin = tangent_setup(p1xp1_fan())
    for K in cl.primitive_collections:
        bk, _ = beta_K(cl, K)
        for beta in effective_window(cl, 4):
            bprime = beta + bk
            if dominates(cl, bprime, beta):
                assert verify_qc_relation(lin, K, beta, bprime)


def test_verify_relation_checker_sensitivity(monkeypatch):
    # a point perturbation of h0 must be noticed
    cl, lin = tangent_setup(p1xp1_fan())
    K = cl.primitive_collections[0]
    bk, _ = beta_K(cl, K)
    beta = cl.zero_curve
    anchor = find_anchor(cl, [beta, beta + bk])
    with monkeypatch.context() as m:
        m.setattr(qsheaf.quantum, "h0", lambda v: h0(v) + (1 if v == 1 else 0))
        assert not verify_qc_relation(lin, K, beta, anchor)
    with monkeypatch.context() as m:
        m.setattr(qsheaf.quantum, "h1", lambda v: h1(v) + (1 if v == 0 else 0))
        assert not verify_qc_relation(lin, K, beta, anchor)
    assert verify_qc_relation(lin, K, beta, anchor)


def test_verify_relation_correlator_route():
    cl, lin = tangent_setup(p1xp1_fan())
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    K = cl.primitive_collections[0]
    bk, _ = beta_K(cl, K)
    beta = cl.zero_curve
    anchor = find_anchor(cl, [beta, beta + bk, beta + bk + cl.mori[1]])
    ys = [Polynomial.const(2, 1), x, y, x * y, x * x * y * y]
    assert verify_qc_relation(lin, K, beta, anchor, route="correlator",
                              insertions=ys)


VERIFY_FILES = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "models", "*.json")))
VERIFY_FILES += [os.path.join(os.path.dirname(__file__), "data", name)
                 for name in ("dp3.json", "p1_cube_deformed.json")]


def _record_q_parts(monkeypatch) -> list:
    """Patch LinearData._q_parts to append each (f, num, den) it returns
    to the list returned."""
    q_parts, seen = LinearData._q_parts, []

    def spy(self, exponents):
        seen.append(q_parts(self, exponents))
        return seen[-1]

    monkeypatch.setattr(LinearData, "_q_parts", spy)
    return seen


@pytest.mark.parametrize("path", VERIFY_FILES, ids=os.path.basename)
def test_expand_route_products_equal_the_composed_sides(monkeypatch, path):
    """Each side of the expand route is one LinearData._q_parts product.
    Read as f * num / den, the two are transition * four_fermi * Q_K (or
    Q_[K^-]) as polynomials, on every `verify --all --grid 4` case.  dP3's
    Mori cone is not simplicial; the deformed models carry contents."""
    model = load_model(path)
    cl, lin = model.cl, model.lin
    seen = _record_q_parts(monkeypatch)
    for K, (bk, _) in cl.primitive_relations.items():
        for beta in effective_window(cl, 4, coeff_bound=4):
            anchor = find_anchor(cl, [beta, beta + bk])
            seen.clear()
            assert verify_qc_relation(lin, K, beta, anchor, route="expand")
            sides = tuple(f * Fraction(num, den) for f, num, den in seen)
            assert sides == expand_sides(lin, K, beta, anchor), (K.edges, beta.d)


@pytest.mark.parametrize("path", VERIFY_FILES, ids=os.path.basename)
def test_expand_route_raises_each_class_once_per_side(monkeypatch, path):
    """Each side's LinearData._q_parts call receives at most one (class,
    exponent) pair per class: R, F and Q merged into one exponent, so each
    Q_c is raised once, on every `verify --all --grid 4` case."""
    model = load_model(path)
    cl, lin = model.cl, model.lin
    q_parts, calls = LinearData._q_parts, []

    def spy(self, exponents):
        calls.append(list(exponents))
        return q_parts(self, calls[-1])

    monkeypatch.setattr(LinearData, "_q_parts", spy)
    for K, (bk, _) in cl.primitive_relations.items():
        for beta in effective_window(cl, 4, coeff_bound=4):
            calls.clear()
            assert verify_qc_relation(lin, K, beta, find_anchor(cl, [beta, beta + bk]),
                                      route="expand")
            assert len(calls) == 2
            for pairs in calls:
                classes = [c.index for c, _ in pairs]
                assert len(classes) == len(set(classes)), (K.edges, beta.d)


@pytest.mark.parametrize("name", ["f1.json", "f3.json"])
def test_rank_two_expand_route_packs_nothing(monkeypatch, name):
    """At Picard rank 2 every expand-route product multiplies tangent Q_c,
    homogeneous forms in psi1, psi2 with int coefficients, so power_product
    takes its int-list path and never the packed one: F1's squared binomial
    (psi1 - psi2)^2 and F3's -3*psi1 + psi2, on every `verify --all --grid 4`
    case."""
    def refuse(a, b):
        raise AssertionError("a rank-2 Q_c product reached the packed multiply")

    model = load_model(os.path.join(MODELS, name))
    cl, lin = model.cl, model.lin
    monkeypatch.setattr(qsheaf.poly, "_packed_mul", refuse)
    cases = 0
    for K, (bk, _) in cl.primitive_relations.items():
        for beta in effective_window(cl, 4, coeff_bound=4):
            anchor = find_anchor(cl, [beta, beta + bk])
            assert verify_qc_relation(lin, K, beta, anchor, route="expand"), (K.edges, beta.d)
            cases += 1
    assert cases > 10
    assert any(len(b.terms) > 2 for b, _, _ in lin._parts) == (name == "f1.json")


@pytest.mark.parametrize("k", [3, 4])
def test_tangent_linear_form_powers_pack_nothing(monkeypatch, k):
    """On tangent (P^1)^k, L = -K = 2 psi1 + ... + 2 psik is one linear form,
    so power_product expands L^(n + t) by the multinomial theorem and never
    reaches the packed multiply; each coefficient is 2^m m! / prod e_i!."""
    def refuse(a, b):
        raise AssertionError("a linear-form power reached the packed multiply")

    cl, _ = tangent_setup(p1_power(k))
    L = sum(d_symbols(cl))
    assert set(L.terms.values()) == {2} and len(L.terms) == k
    monkeypatch.setattr(qsheaf.poly, "_packed_mul", refuse)
    for m in range(k, k + 5):
        expected = {(e, ()): 2 ** m * math.factorial(m) // math.prod(map(math.factorial, e))
                    for e in itertools.product(range(m + 1), repeat=k) if sum(e) == m}
        assert (L ** m).terms == expected, m


def test_verify_routes_refuse_a_wrong_primitive_relation(monkeypatch):
    """On a fresh lattice of F1, a [K^-] multiplicity off by one fails the
    expand route.  The exponent route reads no [K^-] multiplicity: its
    left - right is 1 - d_c(beta_K) where d_c(beta_K) > 0 and 0 elsewhere,
    so it still passes.  A d_c(beta_K) of 2 on a class of K fails both."""
    cl = class_lattice(hirzebruch(1))
    lin = linear_part(cl, tangent_deformation(cl))
    K, (bk, kminus) = next((K, rel) for K, rel in cl.primitive_relations.items() if rel[1])
    (c, m), *rest = kminus
    window = effective_window(cl, 3)
    monkeypatch.setitem(cl.primitive_relations, K, (bk, ((c, m + 1), *rest)))
    for beta in window:
        anchor = find_anchor(cl, [beta, beta + bk])
        assert not verify_qc_relation(lin, K, beta, anchor, route="expand"), beta.d
        assert verify_qc_relation(lin, K, beta, anchor), beta.d
    c = cl.classes_of(K.edges)[0]
    bk2 = CurveClass(bk.coords, tuple(x + (rho in c.members) for rho, x in enumerate(bk.d)))
    monkeypatch.setitem(cl.primitive_relations, K, (bk2, kminus))
    for beta in window:
        anchor = find_anchor(cl, [beta, beta + bk2])
        assert not verify_qc_relation(lin, K, beta, anchor, route="expand"), beta.d
        assert not verify_qc_relation(lin, K, beta, anchor), beta.d


def test_expand_route_compares_contents(monkeypatch):
    """On P^1 x P^1 with Q_c1 = 2 psi2^2 and Q_c2 = psi2^2, one primitive
    part, a d_c2(beta_K) of -1 adds a Q_c2 to the left side and one more
    Q_c1 in [K^-] adds a Q_c1 to the right: the integer parts agree, and
    only the contents, 2^a against 2^(a+1), tell the sides apart."""
    cl = class_lattice(p1xp1_fan())
    lin = linear_part(cl, parse_deformation(cl, [(0, (0, 0), "2*D3"), (1, (0, 0), "D3"),
                                                 (2, (0, 0), "D3"), (3, (0, 0), "D4")]))
    c1, c2 = cl.equiv
    assert [lin._parts[c.index][1] for c in cl.equiv] == [2, 1]
    K = next(K for K in cl.primitive_collections if K.edges == c1.members)
    bk, kminus = cl.primitive_relations[K]
    bk2 = CurveClass(bk.coords, tuple(x - (rho in c2.members) for rho, x in enumerate(bk.d)))
    monkeypatch.setitem(cl.primitive_relations, K, (bk2, kminus + ((c1, 1),)))
    seen = _record_q_parts(monkeypatch)
    for beta in effective_window(cl, 4):
        anchor = find_anchor(cl, [beta, beta + bk])
        seen.clear()
        assert not verify_qc_relation(lin, K, beta, anchor, route="expand"), beta.d
        (f, n, d), (g, m, e) = seen
        assert f == g and n * e * 2 == m * d, beta.d
        left, right = expand_sides(lin, K, beta, anchor)
        assert left * 2 == right


def test_expand_route_with_a_singular_class(monkeypatch):
    """A singular A_c (the rank-collapse P^1 of test_deform.py) makes Q_c = 0,
    so both expand sides are zero and compare equal.  A zero side compares
    as the expanded zero did whatever contents the other classes carry:
    on P^1 x P^1 with the collapse on one factor and Q_c = 2 psi2^2 on the
    other, one more Q_c in [K^-] leaves both sides zero, with contents 2^a
    and 2^(a+1), and the route still passes, as 0 == 0 did."""
    collapse = [(0, (0,), "D1"), (0, (-1,), "D1"), (1, (0,), "D1"), (1, (1,), "D1")]
    cl = class_lattice(p1_fan())
    lin = linear_part(cl, parse_deformation(cl, collapse))
    assert not lin.q[0]
    for K, (bk, _) in cl.primitive_relations.items():
        for beta in effective_window(cl, 4):
            anchor = find_anchor(cl, [beta, beta + bk])
            assert not any(expand_sides(lin, K, beta, anchor))
            assert verify_qc_relation(lin, K, beta, anchor, route="expand")
    cl = class_lattice(p1xp1_fan())
    lin = linear_part(cl, parse_deformation(cl, [
        (rho, (m, 0), "D1") for rho, m in ((0, 0), (0, -1), (1, 0), (1, 1))] + [
        (2, (0, 0), "2*D3"), (3, (0, 0), "D3")]))
    c1, c2 = cl.equiv
    assert not lin.q[0] and lin._parts[1][1:] == (2, 1)
    K = next(K for K in cl.primitive_collections if K.edges == c2.members)
    bk, kminus = cl.primitive_relations[K]
    monkeypatch.setitem(cl.primitive_relations, K, (bk, kminus + ((c2, 1),)))
    seen = _record_q_parts(monkeypatch)
    for beta in effective_window(cl, 4):
        anchor = find_anchor(cl, [beta, beta + bk])
        seen.clear()
        assert verify_qc_relation(lin, K, beta, anchor, route="expand")
        (f, n, d), (g, m, e) = seen
        assert not f and not g and n * e * 2 == m * d, beta.d
        assert not any(expand_sides(lin, K, beta, anchor))


def test_relation_and_series_refusals():
    from qsheaf import NotDominating, QuantumError

    cl, lin = tangent_setup(p1xp1_fan())
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    K = cl.primitive_collections[0]
    bk, _ = beta_K(cl, K)
    zero = cl.zero_curve
    with pytest.raises(QuantumError) as exc:
        verify_qc_relation(lin, K, -cl.mori[0], find_anchor(cl, [zero]))
    assert str(exc.value) == f"sector {(-cl.mori[0]).d} is not effective"
    # zero dominates itself but not beta_K
    with pytest.raises(NotDominating) as exc:
        verify_qc_relation(lin, K, zero, zero)
    assert str(exc.value) == f"{zero.d} must dominate both {zero.d} and {bk.d}"
    with pytest.raises(ValueError, match="unknown route 'bogus'"):
        verify_qc_relation(lin, K, zero, find_anchor(cl, [zero, bk]), route="bogus")
    with pytest.raises(QuantumError, match="series insertions must be homogeneous"):
        correlator_series(lin, x * x + x * y * y, 4)
    with pytest.raises(QuantumError) as exc:
        correlator_series(lin, (x + y) ** 5, 2)
    assert str(exc.value) == "degree slice c1 = 3 exceeds max_c1_degree = 2"
    with pytest.raises(QuantumError, match="wrong Novikov ring"):
        quantum_normal_form(lin, x.with_q(1))
    with pytest.raises(UnsupportedNovikovShape, match="not effective"):
        quantum_normal_form(lin, Polynomial.novikov(2, 2, (-cl.mori[0]).coords))


def test_rows_report_ineffective_and_empty_sectors():
    from qsheaf.quantum import _GroebnerRing, _ResidueRing

    # F1: -mori[0] has c1 = -1, so D1 has its degree, and it is not effective
    cl, lin = tangent_setup(hirzebruch(1))
    beta = -cl.mori[0]
    rep = correlator_series(lin, d_symbols(cl)[0], 3, sectors=[beta])
    assert [(row.beta, row.scalar, row.reason) for row in rep.rows] == [(beta, 0, "ineffective")]
    assert type(_AnchorRing(lin, rep.anchor)) is _ResidueRing
    # dP3: effective, but d = -1 on both rays of the primitive collection {0, 4}
    cl, lin = tangent_setup(hexagon())
    beta = cl.curve_from_d((-1, 1, 0, 1, -1, 2))
    assert beta.c1() == 2
    rep = correlator_series(lin, sum(d_symbols(cl)) ** 4, 2, sectors=[beta])
    assert [(row.beta, row.scalar, row.reason) for row in rep.rows] == [(beta, 0, "empty")]
    assert type(_AnchorRing(lin, rep.anchor)) is _GroebnerRing


def test_quantum_normal_form_examples():
    _, lin = tangent_setup(p1_fan())
    psi = Polynomial.variable(1, 0)
    q = Polynomial.novikov(1, 1, lin.cl.mori[0].coords)
    assert quantum_normal_form(lin, psi ** 2) == q

    _, lin = tangent_setup(p2_fan())
    q = Polynomial.novikov(1, 1, lin.cl.mori[0].coords)
    assert quantum_normal_form(lin, psi ** 3) == q
    assert quantum_normal_form(lin, psi ** 4) == q * psi.with_q(1)

    cl, lin = tangent_setup(p1xp1_fan())
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    q1 = Polynomial.novikov(2, 2, cl.mori[0].coords)
    q2 = Polynomial.novikov(2, 2, cl.mori[1].coords)
    assert quantum_normal_form(lin, x * x * y * y) == q1 * q2


def test_quantum_groebner_specializes_on_fano():
    # on the Fano examples the classical parts lead, so q -> 0 of the
    # reduced quantum basis is the classical basis
    for name, fan in all_fans():
        cl, lin = tangent_setup(fan)
        if any(g.c1() <= 0 for g in cl.mori):
            continue  # F2, F3: leading terms migrate into the Novikov part
        qgb = quantum_groebner(lin)
        spec = sorted((drop_q(q_set_zero(g)) for g in qgb if q_set_zero(g)),
                      key=lambda p: sorted(p.terms))
        classical = sorted(groebner(Ideal(sector_ideal(lin, lin.cl.zero_curve))).polys,
                           key=lambda p: sorted(p.terms))
        assert spec == classical


def test_quantum_relations_hold_on_all_hirzebruch():
    for n in (1, 2, 3):
        _, lin = tangent_setup(hirzebruch(n))
        for rel in qsr_generators(lin):
            assert not quantum_normal_form(lin, rel.difference)


def test_mori_pair_of_index_two_has_no_integer_basis():
    # no real fan reaches a denominator > 1, so P1xP1's generators g1, g2 are
    # replaced by g1 + g2, g1 - g2 (a basis of index 2) before the first read
    from qsheaf.cli import _display_poly

    cl = class_lattice(p1xp1_fan())
    g1, g2 = cl.curve_from_d((1, 1, 0, 0)), cl.curve_from_d((0, 0, 1, 1))
    cl.__dict__["mori"] = (g1 + g2, g1 - g2)
    lin = linear_part(cl, tangent_deformation(cl))
    assert not cl.mori_is_basis
    assert cl.to_mori(g1.coords) is None and cl.mori_coordinates(g1) is None
    assert cl.to_mori((2 * g1).coords) == (1, 1)
    assert cl.to_mori((g1 - 3 * g2).coords) == (-1, 2)
    with pytest.raises(UnsupportedNovikovShape, match="no basis"):
        quantum_normal_form(lin, Polynomial.variable(2, 0))
    rel = qsr_generators(lin)[0]
    assert _display_poly(cl, rel.rhs) == rel.rhs.to_str(q_names=["qc1", "qc2"])
    assert "qc" in _display_poly(cl, rel.rhs)


def test_quantum_nf_refused_without_unimodular_basis():
    dp3 = build_fan(2, [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
                    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    cl = class_lattice(dp3)
    assert len(cl.mori) > cl.pic_rank
    lin = linear_part(cl, tangent_deformation(cl))
    with pytest.raises(UnsupportedNovikovShape):
        quantum_normal_form(lin, Polynomial.variable(cl.pic_rank, 0))
    # the relation checker is still available
    K = cl.primitive_collections[0]
    bk, _ = beta_K(cl, K)
    anchor = find_anchor(cl, [cl.zero_curve, bk])
    assert verify_qc_relation(lin, K, cl.zero_curve, anchor)


def test_anchor_degenerate_detected():
    from qsheaf import AnchorDegenerate

    # gamma1*gamma2*delta1*delta2 = 1 collapses the two quadrics onto each
    # other, so no anchor ring has a one-dimensional top piece
    cl, E, lin = deformed_p1xp1("1", "1", "1", "1")
    anchor = find_anchor(cl, [cl.zero_curve])
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    with pytest.raises(AnchorDegenerate):
        correlator_sector(lin, x * y, cl.zero_curve, anchor)


def test_torsion_detected_on_invalid_input():
    from qsheaf import TorsionDetected
    from qsheaf.fan import Fan

    # a hand-built non-smooth "fan" sneaks past the constructor checks;
    # its presentation has elementary divisor 2
    fake = Fan(rank=2, rays=((1, 1), (1, -1)), max_cones=((0, 1),))
    with pytest.raises(TorsionDetected):
        class_lattice(fake)


def test_anchor_independence_of_ratios():
    rng = random.Random(23)
    cl, lin = tangent_setup(p1xp1_fan())
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    g1, g2 = cl.mori
    sectors = [cl.zero_curve, g1, g2, g1 + g2]
    anchor1 = find_anchor(cl, sectors)
    anchor2 = anchor1 + g1 + g2
    for _ in range(6):
        d = rng.randint(0, 2)
        p = (x ** d) * (y ** (2 - d)) if d <= 2 else x * y
        for beta in sectors:
            target = beta.c1() + 2
            if p.psi_degree() != target:
                continue
            v1 = correlator_sector(lin, p, beta, anchor1)
            v2 = correlator_sector(lin, p, beta, anchor2)
            assert v1 == v2  # tangent normalization makes the factor 1


def test_anchor_independence_deformed():
    cl, E, lin = deformed_p1xp1("1/7", "-1/3", "1/3", "1/7")
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    g1, g2 = cl.mori
    sectors = [cl.zero_curve, g1, g2]
    anchor1 = find_anchor(cl, sectors)
    anchor2 = anchor1 + g1 + 2 * g2
    probes = [x * y, x * x, y * y, x ** 3 * y, x * x * y * y]
    ratios = None
    values1 = []
    values2 = []
    for p in probes:
        for beta in sectors:
            if p.psi_degree() != beta.c1() + 2:
                continue
            values1.append(correlator_sector(lin, p, beta, anchor1))
            values2.append(correlator_sector(lin, p, beta, anchor2))
    pairs = [(a, b) for a, b in zip(values1, values2) if a or b]
    assert pairs
    scale = None
    for a, b in pairs:
        assert (a == 0) == (b == 0)
        if a:
            r = b / a
            scale = r if scale is None else scale
            assert r == scale


def test_one_anchor_ring_keeps_insertions_apart():
    from qsheaf.quantum import _AnchorRing

    cl, E, lin = deformed_p1xp1("1/7", "-1/3", "1/3", "1/7")
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    g1, g2 = cl.mori
    sectors = [cl.zero_curve, g1, g2]
    anchor = find_anchor(cl, sectors)
    shared = _AnchorRing(lin, anchor)
    seen = set()
    for p in (x * y, x * x, y * y, x ** 3 * y, x * x * y * y, x * y ** 3):
        for beta in sectors:
            value, _ = shared.row(p, beta)
            fresh, _ = _AnchorRing(lin, anchor).row(p, beta)
            assert value == fresh, (p, beta.d)
            seen.add(value)
    assert len(seen) > 3  # the insertions do not all read alike


def test_relation_annihilates_window():
    cl, lin = tangent_setup(p1xp1_fan())
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    window = effective_window(cl, 4)
    for rel in qsr_generators(lin):
        for insertion in (Polynomial.const(2, 1), x, y, x * y, x * x * y):
            assert relation_annihilates(lin, rel, insertion, window)


def test_relation_annihilates_a_window_with_no_effective_class(monkeypatch):
    """No sector of the window is effective, so no correlator is read: the
    relation holds there vacuously and no anchor ring is built."""
    cl, lin = tangent_setup(hirzebruch(1))
    window = [cl.zero_curve + (-1) * g for g in cl.mori]
    assert not any(map(cl.is_effective, window))
    monkeypatch.setattr(_AnchorRing, "over", mock.Mock(side_effect=AssertionError("built")))
    for rel in qsr_generators(lin):
        for w in (window, []):
            assert relation_annihilates(lin, rel, Polynomial.variable(2, 0), w) is True


def _p1_cube_fan():
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    cones = [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    return build_fan(3, rays, cones)


def _spy_enumerator(monkeypatch) -> list:
    """Record the degree of every graded piece that standard_monomials walks."""
    original = qsheaf.poly.standard_monomials
    degrees = []

    def spy(gb, degree):
        degrees.append(degree)
        return original(gb, degree)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qsheaf" and vars(module).get("standard_monomials") is original:
            monkeypatch.setattr(module, "standard_monomials", spy)
    return degrees


def test_series_enumerates_anchor_top_degree_once(monkeypatch):
    cl, lin = tangent_setup(_p1_cube_fan())
    L = sum(d_symbols(cl))  # the anticanonical class
    degrees = _spy_enumerator(monkeypatch)
    rep = correlator_series(lin, L ** 7, 4)
    assert sum(row.reason == "ok" for row in rep.rows) == 6
    assert degrees == [sector(lin, rep.anchor).n_beta]


def test_series_expands_only_the_anchor_ideal(monkeypatch):
    cl, lin = tangent_setup(_p1_cube_fan())
    original = qsheaf.sectors.sector_ideal
    expanded = []

    def spy(lin, beta):
        expanded.append(beta)
        return original(lin, beta)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qsheaf" and vars(module).get("sector_ideal") is original:
            monkeypatch.setattr(module, "sector_ideal", spy)
    rep = correlator_series(lin, sum(d_symbols(cl)) ** 7, 4)
    assert sum(row.reason == "ok" for row in rep.rows) == 6
    assert expanded == [rep.anchor]


def test_relation_check_enumerates_anchor_top_degree_once(monkeypatch):
    # Picard rank 3, so the anchor ring is built from its Groebner basis
    cl, lin = tangent_setup(_p1_cube_fan())
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    window = degree_slice(cl, 2)
    assert len(window) == 3
    degrees = _spy_enumerator(monkeypatch)
    for rel in qsr_generators(lin):
        del degrees[:]
        assert relation_annihilates(lin, rel, (x + y + z) ** 5, window)
        anchor = find_anchor(cl, list(window) + [b + rel.beta_k for b in window])
        assert degrees == [sector(lin, anchor).n_beta]


def test_series_rows_read_off_the_top_functional(monkeypatch):
    model = load_model(os.path.join(os.path.dirname(__file__), "..", "models",
                                    "p1xp1_deformed.json"))
    cl, lin = model.cl, model.lin
    p = sum(d_symbols(cl)) ** (cl.fan.rank + 10)
    calls = []
    monkeypatch.setattr(qsheaf.quantum, "normal_form",
                        lambda q, gb: calls.append(q) or normal_form(q, gb))
    rep = correlator_series(lin, p, 10)
    assert calls == []  # no row divides its image by the anchor basis
    ok = [row for row in rep.rows if row.reason == "ok"]
    assert len(ok) == 6
    # reference: the generator's coefficient in the normal form of the image
    gb = groebner(Ideal(sector_ideal(lin, rep.anchor)))
    gen = rep.generator.leading_monomial()
    for row in ok:
        image = transition(lin, rep.anchor, row.beta) * p * four_fermi(lin, row.beta)
        nf = normal_form(image, gb)
        assert set(nf.terms) <= {gen}
        assert row.scalar == nf.terms.get(gen, 0)


def test_only_non_monomial_anchor_rings_read_the_top_functional(monkeypatch):
    original = qsheaf.quantum.top_functional

    def refuse(gb, top):
        raise AssertionError("a monomial anchor ideal walked the top functional")

    monkeypatch.setattr(qsheaf.quantum, "top_functional", refuse)
    for k, t_max in ((3, 6), (4, 4)):  # tangent (P^1)^k: every Q_c is a power of psi_i
        cl, lin = tangent_setup(p1_power(k))
        L = sum(d_symbols(cl))
        for t in range(0, t_max + 1, 2):
            assert correlator_series(lin, L ** (k + t), t).series
    calls = []
    monkeypatch.setattr(qsheaf.quantum, "top_functional",
                        lambda gb, top: calls.append(gb) or original(gb, top))
    # both anchor bases mix monomial elements with binomials and longer ones
    for (cl, lin), t in ((deformed_p1_power(3, random.Random(0)), 2),
                         (tangent_setup(hexagon()), 1)):
        del calls[:]
        assert correlator_series(lin, sum(d_symbols(cl)) ** (cl.fan.rank + t), t).series
        (gb,) = calls
        assert {1, 2} <= {len(g.terms) for g in gb.polys}


# ---- Picard rank >= 3: packed monomials against the tuple-keyed reference ----

def _high_rank_ladder():
    """(cl, lin, largest t), with an id, for the Groebner ring's comparison
    with the tuple-keyed reference route."""
    cases = [pytest.param(*tangent_setup(p1_power(3)), 6, id="P1^3"),
             pytest.param(*tangent_setup(p1_power(4)), 4, id="P1^4")]
    cases += [pytest.param(*deformed_p1_power(3, random.Random(seed)), 2,
                           id=f"dP1^3 seed {seed}") for seed in (0, 1, 2)]
    cases.append(pytest.param(*tangent_setup(hexagon()), 1, id="dP3"))
    # monomial anchor ideals whose classes differ in size, and whose Q_c carry contents
    cases.append(pytest.param(*tangent_setup(_projective_product_fan(2, 1, 1)), 4,
                              id="P2xP1xP1"))
    cases.append(pytest.param(*_rescaled_p1_cube(), 6, id="rescaled P1^3"))
    return cases


def _projective_product_fan(*dims):
    """P^a x P^b x ...: factor P^a has rays e_1, ..., e_a and -(e_1 + ... + e_a)
    in its own coordinates, and a cone picks a of its a + 1 rays."""
    rank = sum(dims)
    rays, blocks, at = [], [], 0
    for a in dims:
        first = len(rays)
        rays += [tuple(int(j == at + i) for j in range(rank)) for i in range(a)]
        rays.append(tuple(-int(at <= j < at + a) for j in range(rank)))
        blocks.append(list(itertools.combinations(range(first, first + a + 1), a)))
        at += a
    return build_fan(rank, rays, [sum(choice, ()) for choice in itertools.product(*blocks)])


def _rescaled_p1_cube():
    """Tangent (P^1)^3 with its six Euler-map entries rescaled by 2, 3, 1/5,
    7, -2/3 and 1: Q_c = 6 psi2^2, 7/5 psi1^2 and -2/3 psi3^2, still monomial."""
    cl = class_lattice(p1_power(3))
    factors = ("2", "3", "1/5", "7", "-2/3", "1")
    E = parse_deformation(cl, [(rho, (0, 0, 0), f"{k}*D{rho + 1}")
                               for rho, k in enumerate(factors)])
    return cl, linear_part(cl, E)


@pytest.mark.parametrize("cl, lin, t_max", _high_rank_ladder())
def test_groebner_ring_matches_tuple_reference(cl, lin, t_max):
    from qsheaf.quantum import _GroebnerRing

    assert cl.pic_rank >= 3
    divisors = d_symbols(cl)
    L, W = sum(divisors), sum((k + 1) * D for k, D in enumerate(divisors))
    checked = 0
    for t in range(t_max + 1):
        window = degree_slice(cl, t)
        if not window:
            continue
        anchor = find_anchor(cl, list(window))
        ring, ref = _AnchorRing(lin, anchor), GroebnerReference(lin, anchor)
        assert type(ring) is _GroebnerRing
        assert ring.generator == ref.generator, t
        n = cl.fan.rank + t
        probes = [L ** n, W ** n]
        if t <= 1:  # every monomial of degree n, which spans the insertions
            probes += [Polynomial(cl.pic_rank, 0, {(e, ()): 1})
                       for e in monomials_of_degree(cl.pic_rank, n)]
        for beta in window:
            for p in probes:
                value, reason = ring.row(p, beta)
                assert type(value) is Fraction
                if reason == "ok":
                    assert value == ref.scalar(p, beta), (t, beta.d, p)
                    checked += 1
                else:
                    assert value == 0
    assert checked


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_top_functional_keeps_int_pairs_and_matches_the_tuple_reference(seed):
    from _oracles import top_functional_by_tuples
    from qsheaf.poly import standard_monomials, top_functional
    from qsheaf.sectors import sector_gb

    cl, lin = deformed_p1_power(3, random.Random(seed))
    scales = set()
    for t in (0, 2):
        anchor = find_anchor(cl, list(degree_slice(cl, t)))
        gb, n = sector_gb(lin, anchor), sector(lin, anchor).n_beta
        (top,) = standard_monomials(gb, n)
        value, pack = top_functional(gb, top)
        ref = top_functional_by_tuples(gb, (top, ()))
        for exps in monomials_of_degree(cl.pic_rank, n):
            assert value(pack(exps)) == ref((exps, ())), (t, exps)
        assert len(value.memo) > 1
        assert all(type(v) is int and type(k) is int for v, k in value.memo.values())
        # the least power of the scale: a longer one would carry its factors in v
        assert all(k == 0 or v % value.scale for v, k in value.memo.values())
        scales.add(value.scale)
    assert scales != {1}  # a scale that is no unit, so the powers of S are exercised


def _p1_cube_deformed():
    model = load_model(os.path.join(os.path.dirname(__file__), "data", "p1_cube_deformed.json"))
    return model.cl, model.lin


@pytest.mark.parametrize("setup", [
    pytest.param(_p1_cube_deformed, id="p1_cube_deformed"),
    pytest.param(lambda: deformed_p1_power(3, random.Random(4)), id="dP1^3 seed 4")])
def test_primitive_basis_rows_equal_monic_basis_rows(setup):
    from qsheaf.poly import top_functional
    from qsheaf.quantum import _GroebnerRing
    from qsheaf.sectors import sector_gb

    cl, lin = setup()
    divisors = d_symbols(cl)
    L, W = sum(divisors), sum((k + 1) * D for k, D in enumerate(divisors))
    rational = 0
    for t in (0, 2, 4):  # (P^1)^3 has c1 even on every class
        window = degree_slice(cl, t)
        anchor = find_anchor(cl, list(window))
        gb = sector_gb(lin, anchor)
        rational += any(type(c) is Fraction for g in gb.polys for c in g.terms.values())
        ring, monic = _GroebnerRing(lin, anchor), _GroebnerRing(lin, anchor)
        # the same ring, its functional read off the monic basis itself
        top = ring.generator.leading_monomial()[0]
        monic._value, monic._pack = top_functional(gb, top)
        n = cl.fan.rank + t
        for beta in window:
            for p in (L ** n, W ** n):
                assert ring.row(p, beta) == monic.row(p, beta), (t, beta.d)
    assert rational  # some monic basis has a Fraction the primitive one clears


@pytest.mark.parametrize("setup", [pytest.param(lambda: tangent_setup(p1_power(3)), id="P1^3"),
                                   pytest.param(lambda: tangent_setup(hirzebruch(1)), id="F1")])
def test_row_checks_keep_their_order(setup):
    from qsheaf import QuantumError
    from qsheaf.poly import PolyError

    cl, lin = setup()
    window = degree_slice(cl, 2)
    ring = _AnchorRing(lin, find_anchor(cl, list(window)))
    n = cl.fan.rank + 2
    # an insertion from a ring with one more variable: a row refused by
    # degree never looks at its ring, a row that reaches the functional does
    other = sum(Polynomial.variable(cl.pic_rank + 1, i) for i in range(cl.pic_rank + 1))
    for _ in range(2):  # the insertion's facts are read once, the checks run every time
        assert ring.row(other ** (n - 1), window[0]) == (0, "degree")
        with pytest.raises(PolyError) as exc:
            ring.row(other ** n, window[0])
        assert str(exc.value) == "mixing polynomials from different rings"
        mixed = other ** n + other
        with pytest.raises(QuantumError, match="homogeneous in Sym"):
            ring.row(mixed, window[0])
    assert ring.row(sum(d_symbols(cl)) ** n, window[0])[1] == "ok"


# ---- Picard rank <= 2: residues against the anchor ring's Groebner basis ----

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


def _circulant_p2(eps):
    cl = class_lattice(p2_fan())
    raw = [(0, (0, 0), "D1"), (1, (0, 0), "D2"), (2, (0, 0), "D3"),
           (0, (-1, 1), f"{eps}*D2"), (1, (0, -1), f"{eps}*D3"), (2, (1, 0), f"{eps}*D1")]
    return cl, linear_part(cl, parse_deformation(cl, raw))


def _p3_fan():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    return build_fan(3, rays, list(itertools.combinations(range(4), 3)))


# the tangent bundle of every P(O + O(a_1) + ... + O(a_r)) over P^s with r + s
# <= 5 and 0 <= a_i <= 3: (id, r, s, cl, lin); those with sum a_i > s are not
# Fano and take _slice's windows
_RANK_TWO_FAMILY = [(f"P(O+O({', '.join(map(str, a))})) over P^{s}", len(a), s,
                     *tangent_setup(projective_bundle(s, a)))
                    for r in range(1, 5) for s in range(1, 6 - r)
                    for a in itertools.product(range(4), repeat=r)]


def _low_rank_ladder():
    """(cl, lin, largest t), with an id, for every Picard rank <= 2 case the
    residue route is checked on, the rank-2 family last."""
    cases = [pytest.param(*tangent_setup(fan), 5, id=name) for name, fan in
             (("F1", hirzebruch(1)), ("P2", p2_fan()), ("P3", _p3_fan()),
              ("BlptP3", blowup_p3_point()))]
    for seed in (0, 1, 3):  # seed 2 draws a degenerate pair, checked below
        cases.append(pytest.param(*deformed_p1_power(2, random.Random(seed)), 8,
                                  id=f"dP1^2 seed {seed}"))
    for eps in ("1/3", "-2/5"):
        cases.append(pytest.param(*_circulant_p2(eps), 9, id=f"circulant P2 {eps}"))
    for path in sorted(glob.glob(os.path.join(MODELS, "*.json"))):
        model = load_model(path)
        cases.append(pytest.param(model.cl, model.lin, 4, id=os.path.basename(path)))
    cases += [pytest.param(cl, lin, 3, id=name) for name, _, _, cl, lin in _RANK_TWO_FAMILY]
    return cases


def _slice(cl, t):
    try:
        return degree_slice(cl, t)
    except NonFanoEnumerationUnbounded:  # F2, F3: the slice inside a window
        return tuple(b for b in effective_window(cl, t, coeff_bound=t) if b.c1() == t)


@pytest.mark.parametrize("cl, lin, t_max", _low_rank_ladder())
def test_residue_ring_matches_groebner_ring(cl, lin, t_max):
    from qsheaf.quantum import _GroebnerRing, _ResidueRing

    assert cl.pic_rank <= 2
    L = sum(d_symbols(cl))
    checked = 0
    for t in range(t_max + 1):
        window = _slice(cl, t)
        if not window:
            continue
        anchor = find_anchor(cl, list(window))
        residue, ring = _ResidueRing(lin, anchor), _GroebnerRing(lin, anchor)
        assert type(_AnchorRing(lin, anchor)) is _ResidueRing
        assert residue.generator == ring.generator, t
        # one functional for the whole window, as correlator_series builds it
        covered = _AnchorRing(lin, anchor, [b for b in window if cl.is_effective(b)])
        assert any(covered._cover) and covered.generator == ring.generator, t
        n = cl.fan.rank + t
        # L^n, and every monomial of degree n, which spans the insertions
        probes = [L ** n] + [Polynomial(cl.pic_rank, 0, {((a, n - a)[:cl.pic_rank], ()): 1})
                             for a in range(n + 1 if cl.pic_rank == 2 else 1)]
        for beta in window:
            for p in probes:
                value, again = residue.row(p, beta), covered.row(p, beta)
                assert value == ring.row(p, beta) == again, (t, beta.d, p)
                assert type(value[0]) is type(again[0]) is Fraction
                checked += value[1] == "ok"
    assert checked


def test_rank_two_family_polymology_is_the_h_vector():
    """Each tangent bundle of the family has the classical ring whose graded
    dimensions are its fan's h-vector, the Betti numbers of P^r x P^s."""
    assert len(_RANK_TWO_FAMILY) == 448
    for name, r, s, cl, lin in _RANK_TWO_FAMILY:
        assert cl.pic_rank == 2 and len(cl.primitive_collections) == 2, name
        betti = tuple(sum(0 <= k - i <= s for i in range(r + 1)) for k in range(r + s + 1))
        assert polymology(lin).dims == cl.fan.h_vector() == betti, name


def _deformed_f1():
    """F1 with rational entries: Q_c of the exceptional class D3 is
    1/3 psi1 + 2/3 psi2, and d_c(beta) <= -2 at beta = 2E, so that Q_c
    enters a row's numerator with its rational content."""
    cl = class_lattice(hirzebruch(1))
    raw = [(0, (0, 0), "D1"), (1, (0, 0), "D2"), (2, (0, 0), "D3 + 2/3*D1"),
           (3, (0, 0), "D4"), (0, (-1, 0), "4/7*D3"), (1, (1, 0), "-1/2*D3")]
    return cl, linear_part(cl, parse_deformation(cl, raw))


def _negative_lead():
    """(cl, lin) of `tests/data/f1_negative_lead.json`: F1 with
    q_c = -2u^2 + 2u - 1 for its collection {D1, D2}, so the residue ring's
    D_m have negative leading coefficients other than -1."""
    model = load_model(os.path.join(os.path.dirname(__file__), "data", "f1_negative_lead.json"))
    return model.cl, model.lin


def _reference_ladder():
    """(cl, lin, slices), with an id, for the integer kernel's comparison
    with the Fraction reference route: the deformed draws, every circulant
    epsilon magnitude of the benchmark with both signs, tangent and deformed
    F1, F1 with a negative lc(D_m), and tangent Bl_pt P^3."""
    cases = [pytest.param(*deformed_p1_power(2, random.Random(seed)), range(17),
                          id=f"dP1^2 seed {seed}") for seed in (0, 1)]
    cases.append(pytest.param(*deformed_p1_power(2, random.Random(0)), (24,),
                              id="dP1^2 seed 0 t=24"))
    magnitudes = [Fraction(p, q) for q in (2, 3, 5, 7) for p in (1, 2, 3) if p < q]
    cases += [pytest.param(*_circulant_p2(eps), range(10), id=f"circulant P2 {eps}")
              for m in magnitudes for eps in (m, -m)]
    model = load_model(os.path.join(MODELS, "p1xp1_deformed.json"))
    cases.append(pytest.param(model.cl, model.lin, range(9), id="p1xp1_deformed.json"))
    cases.append(pytest.param(*tangent_setup(hirzebruch(1)), range(9), id="F1"))
    cases.append(pytest.param(*_deformed_f1(), range(7), id="deformed F1"))
    cases.append(pytest.param(*_negative_lead(), range(9), id="f1_negative_lead.json"))
    cases.append(pytest.param(*tangent_setup(blowup_p3_point()), range(7), id="BlptP3"))
    return cases


def test_negative_lead_rung_reaches_a_negative_lc():
    """The ladder's f1_negative_lead.json rung, at t <= 8, reads functionals
    whose D_m has a leading coefficient below -1, so the quotient that
    carries rho_m runs the negative branch of the step multipliers."""
    from qsheaf.quantum import _ResidueRing

    cl, lin = _negative_lead()
    L = sum(d_symbols(cl))
    leads = set()
    for t in range(9):
        window = _slice(cl, t)
        if not window:
            continue
        ring = _ResidueRing(lin, find_anchor(cl, list(window)))
        for beta in window:
            ring.row(L ** (cl.fan.rank + t), beta)
        leads.update(ring._parts(m)[0][-1] for m in ring._functionals)
    assert min(leads) < -1


def test_residue_ring_reads_q_content_from_linear_data():
    from qsheaf.quantum import _ResidueRing

    lins = [lin for lin in deformed_setups() if lin.cl.pic_rank <= 2] + [_deformed_f1()[1]]
    assert len(lins) == 4
    for lin in lins:
        window = next(w for w in (_slice(lin.cl, t) for t in range(1, 6)) if w)
        ring = _ResidueRing(lin, find_anchor(lin.cl, list(window)))
        assert [(b, Fraction(num, den)) for b, num, den in ring._q] == \
            residue_q_by_fractions(lin)
        assert any(num != den for _, num, den in ring._q)  # a rational content


@pytest.mark.parametrize("cl, lin, slices", _reference_ladder())
def test_residue_ring_matches_fraction_reference(cl, lin, slices):
    from qsheaf.quantum import _ResidueRing

    L = sum(d_symbols(cl))
    checked = 0
    for t in slices:
        window = _slice(cl, t)
        if not window:
            continue
        anchor = find_anchor(cl, list(window))
        ring, ref = _ResidueRing(lin, anchor), ResidueReference(lin, anchor)
        assert ring.generator == ref.generator, t
        assert Fraction(ring._norm) == ref.norm, t
        covered = _ResidueRing(lin, anchor, [b for b in window if cl.is_effective(b)])
        n = cl.fan.rank + t
        probes = [L ** n, Polynomial.variable(cl.pic_rank, 0) ** n]
        if t <= 6 and cl.pic_rank == 2:  # every monomial of degree n
            probes += [Polynomial(2, 0, {((a, n - a), ()): 1}) for a in range(n)]
        for beta in window:
            for p in probes:
                # each row on its own functional, then off the one covering the window
                (value, reason), again = ring.row(p, beta), covered.row(p, beta)
                assert type(value) is type(again[0]) is Fraction, (t, beta.d, p)
                assert again == (value, reason), (t, beta.d, p)
                if reason == "ok":
                    assert value == ref.scalar(p, beta), (t, beta.d, p)
                    checked += 1
                else:
                    assert value == 0
    assert checked


def test_explicit_sectors_read_off_one_cover_match_correlator_sector():
    """Rows of a deformed P1xP1 series over explicit sectors, read off one
    functional covering them, equal correlator_sector's, which reads each
    sector alone.  The sectors include an empty class (ineffective at
    Picard rank 2), another ineffective class, and effective classes of the
    wrong degree, which widen the anchor and the cover past every row."""
    cl, _, lin = deformed_p1xp1("1/7", "-1/3", "2/5", "3/2")
    p = sum(d_symbols(cl)) ** 8  # the slice c1 = 6
    empty, ineffective = cl.curve_from_coords((-1, 4)), cl.curve_from_coords((5, -2))
    assert not sector(lin, empty).nonempty and not cl.is_effective(empty)
    wide = [cl.curve_from_coords((5, 4)), cl.curve_from_coords((1, 0))]
    sectors = [*degree_slice(cl, 6), empty, ineffective, *wide]
    rep = correlator_series(lin, p, 6, sectors=sectors)
    ring = _AnchorRing(lin, rep.anchor, [b for b in sectors if cl.is_effective(b)])
    assert ring._cover == (6, 5)  # from (5, 4); the slice's rows need at most (4, 4)
    reasons = [row.reason for row in rep.rows]
    assert reasons == ["ok"] * 4 + ["ineffective"] * 2 + ["degree"] * 2
    for row in rep.rows:
        assert row.scalar == correlator_sector(lin, p, row.beta, rep.anchor), row.beta.d
    assert sum(1 for row in rep.rows if row.scalar) == 4
    # a cover of the first sector alone: the other rows fall outside it and
    # read their own functionals; a cover past the anchor is capped at it
    for cover in ([sectors[0]], [rep.anchor + rep.anchor]):
        ring = _AnchorRing(lin, rep.anchor, cover)
        assert [ring.row(p, row.beta)[0] for row in rep.rows] == [row.scalar for row in rep.rows]
    assert ring._cover == tuple(h0(c.d(rep.anchor)) for c in cl.equiv)


def _trusted_row_cases():
    """(cl, lin, largest t), with an id: the bundled models and the tests/data
    models at t <= 4 (dP3 at t <= 1: its series at t = 2 takes about 20 s
    through the Groebner basis), then the 448-fan rank-2 family at t <= 3."""
    paths = sorted(glob.glob(os.path.join(MODELS, "*.json"))
                   + glob.glob(os.path.join(os.path.dirname(__file__), "data", "*.json")))
    cases = []
    for path in paths:
        model = load_model(path)
        name = os.path.basename(path)
        cases.append(pytest.param(model.cl, model.lin, 1 if name == "dp3.json" else 4, id=name))
    return cases + [pytest.param(cl, lin, 3, id=name) for name, _, _, cl, lin in _RANK_TWO_FAMILY]


def _checked_rows(lin, p, anchor, sectors):
    """Each sector's (scalar, reason) off a ring that owns none of them, so
    every row runs the ceiling, effectivity and dominance checks."""
    ring = _AnchorRing(lin, anchor, [b for b in sectors if lin.cl.is_effective(b)])
    assert not ring._own
    return [ring.row(p, beta) for beta in sectors]


@pytest.mark.parametrize("cl, lin, t_max", _trusted_row_cases())
def test_trusted_rows_equal_checked_rows(cl, lin, t_max):
    """correlator_series builds its anchor from its effective sectors, so
    their rows skip the ceiling, effectivity and dominance checks: each of
    its rows equals the fully checked row against the same anchor, and its
    scalar is correlator_sector's.  Every nonempty slice is read, also as
    explicit sectors with an ineffective class of the slice's degree (at
    Picard rank 1, where there is none, the negated first Mori generator)
    and, below the largest t, an effective class of the next degree, which
    widens the anchor."""
    L = sum(d_symbols(cl))
    checked = 0
    for t in range(t_max + 1):
        window = _slice(cl, t)
        if not window:
            continue
        p = L ** (cl.fan.rank + t)
        wider = _slice(cl, t + 1)[:1] if t < t_max else ()
        # window[0] moved along c1 = t by a multiple of c1(h) g - c1(g) h
        ineffective = next((beta for g, h in itertools.combinations(cl.mori, 2)
                            for a in range(-20, 21)
                            for beta in [window[0] + a * (h.c1() * g + (-g.c1()) * h)]
                            if not cl.is_effective(beta)), -cl.mori[0])
        assert not cl.is_effective(ineffective)
        assert (ineffective.c1() == t) == (len(cl.mori) > 1)
        try:
            reports = [correlator_series(lin, p, t)]
        except NonFanoEnumerationUnbounded:
            reports = []
        reports += [correlator_series(lin, p, t, sectors=window),
                    correlator_series(lin, p, t, sectors=[*window, ineffective, *wider])]
        for rep in reports:
            sectors = [row.beta for row in rep.rows]
            found = [(row.scalar, row.reason) for row in rep.rows]
            assert found == _checked_rows(lin, p, rep.anchor, sectors), t
            for row in rep.rows:
                if row.reason == "ok":
                    assert row.scalar == correlator_sector(lin, p, row.beta, rep.anchor), t
                    checked += 1
        assert reports[-1].rows[len(window)].reason == (
            "ineffective" if ineffective.c1() == t else "degree")
        assert all(row.reason == "degree" for row in reports[-1].rows[len(window) + 1:])
    assert checked


def test_trusted_rows_with_an_effective_empty_sector():
    """dP3's effective class with d = -1 on both rays of the primitive
    collection {0, 4} is an input of the anchor, so its row is owned, and it
    still reads 'empty': the nonemptiness check runs on every row."""
    cl, lin = tangent_setup(hexagon())
    empty = cl.curve_from_d((-1, 1, 0, 1, -1, 2))
    ineffective = cl.curve_from_d((-5, 6, -2, -1, 2, 2))
    assert cl.is_effective(empty) and not cl.is_effective(ineffective)
    p = sum(d_symbols(cl)) ** 4  # the slice c1 = 2
    sectors = [cl.curve_from_d((-2, 2, 0, 0, 0, 2)), empty, ineffective, degree_slice(cl, 1)[0]]
    rep = correlator_series(lin, p, 2, sectors=sectors)
    assert [row.reason for row in rep.rows] == ["ok", "empty", "ineffective", "degree"]
    assert rep.rows[0].scalar
    assert [(row.scalar, row.reason) for row in rep.rows] == \
        _checked_rows(lin, p, rep.anchor, sectors)


_CEILING_FANS = {name: class_lattice(fan) for name, fan in (
    ("F1", hirzebruch(1)), ("P2", p2_fan()), ("P1xP1", p1xp1_fan()), ("dP3", hexagon()),
    ("P1^3", p1_power(3)), ("BlptP3", blowup_p3_point()))}


@given(st.sampled_from(("F1", "P2", "P1xP1", "dP3", "P1^3", "BlptP3")),
       st.lists(st.integers(0, 6), min_size=6, max_size=6),
       st.lists(st.integers(0, 6), min_size=6, max_size=6),
       st.booleans(), st.integers(0, 40))
@settings(max_examples=150, deadline=None)
def test_ceiling_passes_on_every_dominated_sector(name, a, b, anchored, bound):
    """The lemma the owned rows lean on: if A dominates beta, every h0(d_c)
    rises from beta to A, so each collection's generator degree does, and
    a sector ceiling that passes on A passes on beta (here with the
    ceiling lowered to `bound`, so both outcomes occur)."""
    cl = _CEILING_FANS[name]
    mori = len(cl.mori)
    beta = cl.from_mori(b[:mori])
    other = cl.from_mori(a[:mori])
    A = find_anchor(cl, [beta, other]) if anchored else beta + other
    assume(dominates(cl, A, beta))
    for K in cl.primitive_collections:
        assert sum(h0(beta.d[r]) for r in K.edges) <= sum(h0(A.d[r]) for r in K.edges)
    with mock.patch.object(qsheaf.sectors, "_MAX_DEGREE", bound):
        try:
            qsheaf.sectors.ceiling(cl, A.d)
        except qsheaf.sectors.SectorError:
            return
        qsheaf.sectors.ceiling(cl, beta.d)


def test_rank_two_series_inverts_once(monkeypatch):
    """One deformed (P^1)^2 series at t = 10 reads its six rows off one
    functional: quantum._inverse runs once per query, not once per row."""
    cl, lin = deformed_p1_power(2, random.Random(0))
    inverse, calls = qsheaf.quantum._inverse, []

    def counted(e, d):
        calls.append(len(d))
        return inverse(e, d)

    monkeypatch.setattr(qsheaf.quantum, "_inverse", counted)
    rep = correlator_series(lin, sum(d_symbols(cl)) ** 12, 10)
    assert sum(row.reason == "ok" and row.scalar != 0 for row in rep.rows) == 6
    assert len(calls) == 1


def test_residue_ring_refuses_what_the_groebner_ring_refuses():
    from qsheaf import AnchorDegenerate
    from qsheaf.quantum import _GroebnerRing, _ResidueRing

    # Q_2 = 3 Q_1: the two collections share both roots
    cl, lin = deformed_p1_power(2, random.Random(2))
    assert lin.q[1] == lin.q[0] * 3
    anchor = find_anchor(cl, [cl.zero_curve])
    for make in (_ResidueRing, _GroebnerRing):
        with pytest.raises(AnchorDegenerate):
            make(lin, anchor)
    # an anchor that does not dominate the row is refused by both, by the
    # same shared check
    cl, lin = tangent_setup(hirzebruch(1))
    small = find_anchor(cl, [cl.zero_curve])
    beta = degree_slice(cl, 4)[0]
    assert not dominates(cl, small, beta)
    p = sum(d_symbols(cl)) ** 6
    for make in (_ResidueRing, _GroebnerRing):
        with pytest.raises(qsheaf.sectors.NotDominating):
            make(lin, small).row(p, beta)


def test_shared_root_text_is_unchanged():
    from qsheaf import AnchorDegenerate
    from qsheaf.quantum import _ResidueRing

    cl, lin = deformed_p1_power(2, random.Random(2))  # Q_2 = 3 Q_1
    with pytest.raises(AnchorDegenerate) as exc:
        _ResidueRing(lin, find_anchor(cl, [cl.zero_curve]))
    assert str(exc.value) == ("anchor sector of (1, 1, 1, 1): the generators of its "
                              "two collections share a root")


def test_vanishing_q_outside_k_is_a_shared_root():
    """P1xP1 with the rank-collapse entries of test_deform.py on the class of
    D3, D4: that Q_c is 0, the other is psi1^2, so K is the collection of
    D1, D2 and every anchor's E vanishes.  The anchor's power of the zero
    q_c is the empty list, so E = 0 and the refusal is the shared root."""
    from qsheaf import AnchorDegenerate
    from qsheaf.quantum import _ResidueRing

    cl = class_lattice(p1xp1_fan())
    lin = linear_part(cl, parse_deformation(cl, [
        (0, (0, 0), "D1"), (1, (0, 0), "D2"),
        (2, (0, 0), "D3"), (2, (0, -1), "D3"), (3, (0, 0), "D3"), (3, (0, 1), "D3")]))
    assert lin.q[0] == Polynomial.variable(2, 0) ** 2 and not lin.q[1]
    L = sum(d_symbols(cl))
    for anchor, make in [(cl.zero_curve, lambda a: _ResidueRing(lin, a))] + [
            (find_anchor(cl, list(degree_slice(cl, t))),
             lambda a, t=t: correlator_series(lin, L ** (t + 2), t)) for t in (0, 2, 4)]:
        with pytest.raises(AnchorDegenerate) as exc:
            make(anchor)
        assert str(exc.value) == (f"anchor sector of {anchor.d}: the generators of its "
                                  "two collections share a root")


def test_infinite_root_of_both_collections_is_refused(tmp_path, capsys):
    """On P1xP1 with the diagonal entries D3, D4, D3, D4 both Q_c are psi2^2,
    so u = psi1 / psi2 = oo is a root of each collection and neither can be
    K: the residue ring refuses, in the library and through the CLI, whose
    anchor is the least positive class."""
    from qsheaf import AnchorDegenerate
    from qsheaf.cli import run
    from qsheaf.quantum import _ResidueRing

    entries = [(0, [0, 0], "D3"), (1, [0, 0], "D4"), (2, [0, 0], "D3"), (3, [0, 0], "D4")]
    cl = class_lattice(p1xp1_fan())
    lin = linear_part(cl, parse_deformation(cl, entries))
    assert [b for b, _, _ in lin._parts] == [Polynomial.variable(2, 1) ** 2] * 2
    with pytest.raises(AnchorDegenerate) as exc:
        _ResidueRing(lin, cl.zero_curve)
    assert str(exc.value) == ("anchor sector of (0, 0, 0, 0): u = oo is a root of both "
                              "collections")
    fan = cl.fan
    model = {"version": 1,
             "fan": {"rank": 2, "rays": fan.rays, "max_cones": fan.max_cones},
             "deformation": {"entries": [{"rho": rho, "m": m, "coeff": coeff}
                                         for rho, m, coeff in entries]}}
    path = tmp_path / "both_at_infinity.json"
    path.write_text(json.dumps(model))
    assert run(["correlator", str(path), "--poly", "D1^2", "--no-cache"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error[AnchorDegenerate]: anchor sector of (1, 1, 1, 1): u = oo is a "
                   "root of both collections\n")


# ---- the residue route against both reference rings on drawn deformations ---

_DRAWN_LATTICES = {name: class_lattice(fan) for name, fan in (
    ("F1", hirzebruch(1)), ("F2", hirzebruch(2)), ("F3", hirzebruch(3)),
    ("P2", p2_fan()), ("P1xP1", p1xp1_fan()))}


def _drawn_rows(make, refusals, read, window, probes):
    """read(ring, p, beta) for every sector of the window and every probe,
    off the ring make() builds; None when building it or reading a row
    raises one of the refusals."""
    try:
        ring = make()
        return [read(ring, p, beta) for beta in window for p in probes]
    except refusals:
        return None


def _differential_slices(cl, lin):
    """(t, anchor, residue rows, Fraction reference rows, Groebner rows) for
    every nonempty degree slice with t <= 3, each ring on the slice's anchor;
    the probes are L^n and every monomial of degree n, and a refusal is None."""
    from qsheaf import QuantumError
    from qsheaf.quantum import _GroebnerRing, _ResidueRing

    def package(ring, p, beta):
        return ring.row(p, beta)[0]

    def reference(ring, p, beta):
        return ring.scalar(p, beta) if sector(lin, beta).nonempty else 0

    L = sum(d_symbols(cl))
    for t in range(4):
        window = _slice(cl, t)
        if not window:
            continue
        anchor = find_anchor(cl, list(window))
        n = cl.fan.rank + t
        probes = [L ** n] + [Polynomial(cl.pic_rank, 0, {((a, n - a)[:cl.pic_rank], ()): 1})
                             for a in range(n + 1 if cl.pic_rank == 2 else 1)]
        yield (t, anchor,
               _drawn_rows(lambda: _ResidueRing(lin, anchor), QuantumError, package,
                           window, probes),
               # a degenerate anchor: no collection K, no top piece or a shared root
               _drawn_rows(lambda: ResidueReference(lin, anchor),
                           (AssertionError, StopIteration), reference, window, probes),
               _drawn_rows(lambda: _GroebnerRing(lin, anchor), QuantumError, package,
                           window, probes))


def _artinian(lin, anchor):
    """Whether the anchor ring is Artinian: a leading monomial of its
    Groebner basis is a pure power of each variable (CLO ch. 5 section 3)."""
    leads = [g.leading_monomial()[0] for g in qsheaf.sectors.sector_gb(lin, anchor).polys]
    return all(any(m[i] == sum(m) > 0 for m in leads) for i in range(lin.cl.pic_rank))


@given(st.sampled_from(sorted(_DRAWN_LATTICES)), st.data())
@settings(max_examples=150, deadline=None)
def test_residue_ring_matches_both_references_on_drawn_deformations(name, data):
    """Linear deformations of F1, F2, F3, P^2 and P^1 x P^1: ray rho gets
    k * D_rho, k in {0, +-1, +-2, 1/2}, sometimes plus +-D_sigma for another
    ray.  At every degree slice with t <= 3 the residue ring's rows equal
    the Fraction reference's and the Groebner ring's, or all three refuse.
    One exclusion: the Groebner ring accepts an anchor ring that is not
    Artinian whenever its top piece is one-dimensional (at Picard rank 1
    with Q = 0 every graded piece of Q[psi] is; at rank 2, F1 with the
    entries D2, D1, D1, D4 at t = 1), and the residue ring refuses there."""
    cl = _DRAWN_LATTICES[name]
    raw = []
    for rho in range(cl.fan.n_rays):
        coeff = f"{data.draw(st.sampled_from(('0', '1', '-1', '2', '-2', '1/2')))}*D{rho + 1}"
        if data.draw(st.booleans()):
            sigma = data.draw(st.sampled_from([x for x in range(cl.fan.n_rays) if x != rho]))
            coeff += f" {data.draw(st.sampled_from('+-'))} D{sigma + 1}"
        raw.append((rho, (0, 0), coeff))
    lin = linear_part(cl, parse_deformation(cl, raw))
    for t, anchor, residue, fractions, groebner in _differential_slices(cl, lin):
        assert residue == fractions, (raw, t)
        if groebner is not None and not _artinian(lin, anchor):
            assert residue is None, (raw, t)
        else:
            assert residue == groebner, (raw, t)


_F1_SERIES = """\
insertion: -psi1^3 + 9*psi1^2*psi2 - 27*psi1*psi2^2 + 27*psi2^3
anchor: d=[2, 2, 0, 2] mori=[2, 2]
anchor generator: psi1^5*psi2^3 (normalization reference)
sectors:
  beta d=[1, 1, -1, 0] mori=[1, 0]: 1 [ok]
series: q1
"""
_F1_SHARED_ROOT = ("error[AnchorDegenerate]: anchor sector of (2, 2, 0, 2): the generators "
                   "of its two collections share a root\n")


@pytest.mark.parametrize("rho, coeff, code, out, err", [
    pytest.param(2, "-D4", 0, _F1_SERIES, "", id="-D4 at rho 2"),  # q_c = -1, class of D3
    pytest.param(2, "0*D3", 1, "", _F1_SHARED_ROOT, id="0*D3 at rho 2"),  # ahead of D4's
    pytest.param(3, "0*D4", 1, "", _F1_SHARED_ROOT, id="0*D4 at rho 3"),  # the last class
])
def test_f1_unit_and_zero_factors_of_the_residue_product(tmp_path, capsys, rho, coeff, code,
                                                        out, err):
    """models/f1.json with the tangent entries but one: the residue ring
    multiplies a q_c of -1 or 0 into E wherever it falls among the other
    powers, so -D4 at rho = 2 (locally free, polymology 1,2,1) reads
    series q1 as both reference rings do, and a vanishing q_c is refused
    as a shared root at rho = 2 as at rho = 3."""
    from qsheaf.cli import run

    with open(os.path.join(MODELS, "f1.json")) as fh:
        model = json.load(fh)
    entries = [{"rho": r, "m": [0, 0], "coeff": f"D{r + 1}"} for r in range(4)]
    entries[rho]["coeff"] = coeff
    model["deformation"] = {"entries": entries}
    path = tmp_path / "f1.json"
    path.write_text(json.dumps(model))
    capsys.readouterr()
    assert run(["correlator", str(path), "--poly", "(D1+D2+D3+D4)^3", "--no-cache"]) == code
    assert capsys.readouterr() == (out, err)


# ---- the integer one-variable kernel against Fraction arithmetic ------------

_HUGE = 2 ** 200
_coefficients = st.one_of(st.integers(-9, 9),
                          st.integers(_HUGE - 2 ** 16, _HUGE + 2 ** 16),
                          st.integers(-_HUGE - 2 ** 16, -_HUGE + 2 ** 16))


@st.composite
def _upolys(draw, min_degree, max_degree):
    """Integer lists of degree min..max, lowest coefficient first; the lead
    is +-1, small or near +-2^200."""
    degree = draw(st.integers(min_degree, max_degree))
    lead = draw(st.one_of(st.sampled_from((1, -1)), _coefficients.filter(bool)))
    return draw(st.lists(_coefficients, min_size=degree, max_size=degree)) + [lead]


@given(_upolys(0, 12), _upolys(1, 12))
@settings(max_examples=80, deadline=None)
def test_pseudo_division_identity(a, b):
    from qsheaf.quantum import _pseudo_divmod

    m, q, r = _pseudo_divmod(a, b)
    assert len(r) < len(b) and (not r or r[-1])
    total = uproduct(q, b) + [0] * len(a)
    for i, x in enumerate(r):
        total[i] += x
    assert utrim([m * x for x in a]) == utrim(total)
    # m is made of factors of lc(b), never more than lc(b)^(deg a - deg b + 1)
    assert m > 0 and b[-1] ** max(len(a) - len(b) + 1, 0) % m == 0


@given(_upolys(1, 12), _upolys(0, 11))
@settings(max_examples=50, deadline=None)
def test_inverse_identity(d, e):
    from qsheaf.quantum import _inverse

    e = utrim(e[:len(d) - 1])
    found, expected = _inverse(e, d), uinverse(e, d)
    assert (found is None) == (expected is None)
    if found is not None:
        s, g = found
        assert type(g) is int and g != 0
        residue = uproduct(s, e) or [0]
        residue[0] -= g
        assert not urem(residue, d)  # s * e = g mod d
        assert utrim([Fraction(x, g) for x in s]) == expected


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_inverse_refuses_a_shared_factor(data):
    from qsheaf.quantum import _inverse, _inverse_lead

    f = data.draw(_upolys(1, 4))
    x = data.draw(_upolys(1, 8))
    y = data.draw(_upolys(0, len(x) - 2))
    assert _inverse(uproduct(f, y), uproduct(f, x)) is None
    assert _inverse_lead(uproduct(f, y), uproduct(f, x)) is None


@st.composite
def _skipping_pairs(draw):
    """(e, d) whose remainder sequence skips degrees: built bottom-up, a
    step (a, b) -> (b, q * b + a) with deg a < deg b and a quotient q of
    degree 1 to 3, from a nonzero constant."""
    a, b = [draw(_coefficients.filter(bool))], draw(_upolys(1, 3))
    for _ in range(draw(st.integers(0, 3))):
        q = draw(_upolys(1, 3))
        a, b = b, [x + (a[i] if i < len(a) else 0) for i, x in enumerate(uproduct(q, b))]
    return a, b


@given(st.one_of(st.tuples(_upolys(0, 11), _upolys(1, 12)), _skipping_pairs()))
@settings(max_examples=80, deadline=None)
def test_inverse_lead_reads_the_cofactor_off_the_remainders(pair):
    from qsheaf.quantum import _inverse, _inverse_lead

    e, d = pair
    e = utrim(e[:len(d) - 1])
    lead, full, expected = _inverse_lead(e, d), _inverse(e, d), uinverse(e, d)
    assert (lead is None) == (full is None) == (expected is None)
    if lead is not None:
        (k, lc, g), (s, h) = lead, full
        assert all(type(x) is int for x in (k, lc, g)) and g != 0
        assert k == len(s) - 1 == len(expected) - 1
        assert Fraction(lc, g) == Fraction(s[-1], h) == expected[-1]


def _forbid(monkeypatch, names, home=qsheaf.poly):
    """Make every binding of the named functions of the home module raise."""
    for fname in names:
        original = getattr(home, fname)

        def refuse(*args, fname=fname, **kwargs):
            raise AssertionError(f"{fname} called")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qsheaf" and vars(module).get(fname) is original:
                monkeypatch.setattr(module, fname, refuse)


def test_rank_two_correlators_build_no_groebner_basis(monkeypatch):
    model = load_model(os.path.join(MODELS, "p1xp1_deformed.json"))
    cl, lin = model.cl, model.lin
    L = sum(d_symbols(cl))
    window = effective_window(cl, 4)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    _forbid(monkeypatch, ("groebner", "standard_monomials"))
    rep = correlator_series(lin, L ** 8, 6)
    assert sum(row.reason == "ok" for row in rep.rows) == 4
    for rel in qsr_generators(lin):
        assert relation_annihilates(lin, rel, x * y, window)
    K = cl.primitive_collections[0]
    bk, _ = beta_K(cl, K)
    anchor = find_anchor(cl, [cl.zero_curve, bk, bk + cl.mori[1]])
    assert verify_qc_relation(lin, K, cl.zero_curve, anchor, route="correlator",
                              insertions=[Polynomial.const(2, 1), x, y, x * y])


def test_rows_run_their_checks_once_and_multiply_one_product(monkeypatch):
    # Picard rank 3, so the rows come off the Groebner ring
    cl, lin = tangent_setup(_p1_cube_fan())
    original = qsheaf.lattice.dominates
    calls = []

    def spy(cl, beta_prime, beta):
        calls.append(beta)
        return original(cl, beta_prime, beta)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qsheaf" and vars(module).get("dominates") is original:
            monkeypatch.setattr(module, "dominates", spy)
    _forbid(monkeypatch, ("transition",), home=qsheaf.sectors)
    _forbid(monkeypatch, ("four_fermi",), home=qsheaf.quantum)
    p = sum(d_symbols(cl)) ** 7
    rep = correlator_series(lin, p, 4)
    ok = [row.beta for row in rep.rows if row.reason == "ok"]
    assert len(ok) == 6
    # the series built its anchor from these sectors, so its rows trust dominance
    assert calls == []
    # an anchor the caller chooses is checked once per row
    for beta in ok:
        correlator_sector(lin, p, beta, rep.anchor)
    assert calls == ok


def test_series_checks_its_insertion_once(monkeypatch):
    original = Polynomial.is_psi_homogeneous
    checked = []
    monkeypatch.setattr(Polynomial, "is_psi_homogeneous",
                        lambda self: checked.append(self) or original(self))
    # F1 rows come off the residue ring, tangent (P^1)^3 ones off the Groebner ring
    for cl, lin in (tangent_setup(hirzebruch(1)), tangent_setup(_p1_cube_fan())):
        p = sum(d_symbols(cl)) ** (cl.fan.rank + 2)
        checked.clear()
        rep = correlator_series(lin, p, 2)
        assert sum(row.reason == "ok" for row in rep.rows) > 1
        assert sum(q is p for q in checked) == 1


def test_empty_anchor_refused_before_any_basis(monkeypatch):
    from qsheaf import AnchorDegenerate
    from qsheaf.quantum import _GroebnerRing, _ResidueRing

    # rank 4: an effective class of dP3 whose sector is empty (d_0 = d_4 = -1
    # on the primitive collection {0, 4}); no Groebner basis may be built
    cl, lin = tangent_setup(hexagon())
    anchor = cl.curve_from_d((-1, 1, 0, 1, -1, 2))
    assert cl.is_effective(anchor) and not sector(lin, anchor).nonempty
    _forbid(monkeypatch, ("groebner",))
    with pytest.raises(AnchorDegenerate) as exc:
        _GroebnerRing(lin, anchor)
    assert str(exc.value) == "anchor sector of (-1, 1, 0, 1, -1, 2) has top dimension 0"
    # rank 2: a non-effective class of F1 with an empty sector
    cl, lin = tangent_setup(hirzebruch(1))
    anchor = cl.zero_curve + (-1) * cl.mori[0]
    assert not cl.is_effective(anchor) and not sector(lin, anchor).nonempty
    with pytest.raises(AnchorDegenerate) as exc:
        _ResidueRing(lin, anchor)
    assert str(exc.value) == f"anchor sector of {anchor.d} has top dimension 0"
