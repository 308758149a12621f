import glob
import itertools
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsheaf import (Ideal, NonFanoEnumerationUnbounded, UnsupportedNovikovShape,
                    beta_K, build_fan, class_lattice, correlator_sector,
                    correlator_series, d_symbols, degree_slice, dominates,
                    effective_window, find_anchor, four_fermi, groebner, h0, h1,
                    linear_part, novikov_series_str, parse_deformation, qsr_generators,
                    quantum_groebner, quantum_normal_form, relation_annihilates,
                    sector, sector_ideal, tangent_deformation, transition,
                    verify_qc_relation)
import qsheaf.lattice
import qsheaf.poly
import qsheaf.quantum
import qsheaf.sectors
from qsheaf.model import load_model
from qsheaf.poly import Polynomial, normal_form
from qsheaf.quantum import _AnchorRing

from _oracles import (GroebnerReference, ResidueReference, degree_slice_by_box,
                      monomials_of_degree, residue_q_by_fractions, uinverse, uproduct,
                      urem, utrim)
from conftest import (all_fans, blown_up_p1xp1, blowup_p3_point, class_of_ray,
                      deformed_p1_power, deformed_p1xp1, deformed_setups, drop_q,
                      hexagon, hirzebruch, p1_fan, p1_power, p1xp1_fan, p2_fan,
                      q_of, q_set_zero, tangent_setup)


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


# ---- Picard rank >= 3: packed monomials against the tuple-keyed reference ----

def _high_rank_ladder():
    """(cl, lin, largest t), with an id, for the Groebner ring's comparison
    with the tuple-keyed reference route."""
    cases = [pytest.param(*tangent_setup(p1_power(3)), 6, id="P1^3"),
             pytest.param(*tangent_setup(p1_power(4)), 4, id="P1^4")]
    cases += [pytest.param(*deformed_p1_power(3, random.Random(seed)), 2,
                           id=f"dP1^3 seed {seed}") for seed in (0, 1, 2)]
    cases.append(pytest.param(*tangent_setup(hexagon()), 1, id="dP3"))
    return cases


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


def _low_rank_ladder():
    """(cl, lin, largest t), with an id, for every Picard rank <= 2 case the
    residue route is checked on."""
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
        n = cl.fan.rank + t
        # L^n, and every monomial of degree n, which spans the insertions
        probes = [L ** n] + [Polynomial(cl.pic_rank, 0, {((a, n - a)[:cl.pic_rank], ()): 1})
                             for a in range(n + 1 if cl.pic_rank == 2 else 1)]
        for beta in window:
            for p in probes:
                value = residue.row(p, beta)
                assert value == ring.row(p, beta), (t, beta.d, p)
                assert type(value[0]) is Fraction
                checked += value[1] == "ok"
    assert checked


def _deformed_f1():
    """F1 with rational entries: Q_c of the exceptional class D3 is
    1/3 psi1 + 2/3 psi2, and d_c(beta) <= -2 at beta = 2E, so that Q_c
    enters a row's numerator with its rational content."""
    cl = class_lattice(hirzebruch(1))
    raw = [(0, (0, 0), "D1"), (1, (0, 0), "D2"), (2, (0, 0), "D3 + 2/3*D1"),
           (3, (0, 0), "D4"), (0, (-1, 0), "4/7*D3"), (1, (1, 0), "-1/2*D3")]
    return cl, linear_part(cl, parse_deformation(cl, raw))


def _reference_ladder():
    """(cl, lin, slices), with an id, for the integer kernel's comparison
    with the Fraction reference route: the deformed draws, every circulant
    epsilon magnitude of the benchmark with both signs, tangent and deformed
    F1, and tangent Bl_pt P^3."""
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
    cases.append(pytest.param(*tangent_setup(blowup_p3_point()), range(7), id="BlptP3"))
    return cases


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
        n = cl.fan.rank + t
        probes = [L ** n, Polynomial.variable(cl.pic_rank, 0) ** n]
        if t <= 6 and cl.pic_rank == 2:  # every monomial of degree n
            probes += [Polynomial(2, 0, {((a, n - a), ()): 1}) for a in range(n)]
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
    from qsheaf.quantum import _inverse

    f = data.draw(_upolys(1, 4))
    x = data.draw(_upolys(1, 8))
    y = data.draw(_upolys(0, len(x) - 2))
    assert _inverse(uproduct(f, y), uproduct(f, x)) is None


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
    rep = correlator_series(lin, sum(d_symbols(cl)) ** 7, 4)
    ok = [row.beta for row in rep.rows if row.reason == "ok"]
    assert len(ok) == 6
    assert calls == ok


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
