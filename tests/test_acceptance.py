"""Acceptance suite: eight exact criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every expected value is exact (rational/integer identity); the time
budgets are asserted as stated.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from qsheaf import (beta_K, class_lattice, correlator_series, d_symbols,
                    dominates, effective_window, find_anchor, four_fermi,
                    groebner, h0, h1, linear_part, normal_form,
                    novikov_series_str, parse_deformation, polymology,
                    qsr_generators, relation_annihilates, sector, sector_ideal,
                    verify_qc_relation)
from qsheaf.poly import Ideal, Polynomial

from conftest import (all_fans, class_of_ray, deformed_p1xp1, hirzebruch, p1_fan, q_of,
                      tangent_setup, transfers)
from _oracles import ideal_member_oracle, monomials_of_degree


@contextmanager
def criterion(n: int, label: str, budget: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} FAIL: {label}")
        raise
    dt = time.perf_counter() - t0
    assert dt < budget, f"criterion {n} took {dt:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {n} PASS: {label} ({dt:.2f}s)")


def test_criterion_1_polymology_vs_hvector_oracle():
    with criterion(1, "classical polymology equals the face-count h-vector", 1.0):
        for name, fan in all_fans():
            cl, lin = tangent_setup(fan)
            assert polymology(lin).dims == fan.h_vector(), name


def test_criterion_2_batyrev_specialization():
    with criterion(2, "QSR generators reproduce the Batyrev relations", 1.0):
        # P2: psi^3 - q
        cl, lin = tangent_setup(all_fans()[1][1])
        (rel,) = qsr_generators(lin)
        psi = Polynomial.variable(1, 0)
        assert rel.difference == (psi ** 3).with_q(1) - \
            Polynomial.novikov(1, 1, rel.beta_k.coords)
        # P1xP1: psi1^2 - q1, psi2^2 - q2
        cl, lin = tangent_setup(all_fans()[2][1])
        rels = qsr_generators(lin)
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        assert rels[0].difference == (x ** 2).with_q(2) - \
            Polynomial.novikov(2, 2, rels[0].beta_k.coords)
        assert rels[1].difference == (y ** 2).with_q(2) - \
            Polynomial.novikov(2, 2, rels[1].beta_k.coords)
        assert cl.mori_coordinates(rels[0].beta_k) == (1, 0)
        assert cl.mori_coordinates(rels[1].beta_k) == (0, 1)
        # F_n: D1 D2 - q1 D3^n, D3 D4 - q2
        for n in (1, 2, 3):
            cl, lin = tangent_setup(hirzebruch(n))
            syms = d_symbols(cl)
            rels = qsr_generators(lin)
            assert rels[0].lhs == syms[0] * syms[1]
            assert rels[0].rhs == Polynomial.novikov(2, 2, rels[0].beta_k.coords) \
                * syms[2].with_q(2) ** n
            assert rels[1].lhs == syms[2] * syms[3]
            assert rels[1].rhs == Polynomial.novikov(2, 2, rels[1].beta_k.coords)
            assert cl.mori_coordinates(rels[0].beta_k) == (1, 0)
            assert cl.mori_coordinates(rels[1].beta_k) == (0, 1)


def test_criterion_3_quantum_relations_theorem():
    with criterion(3, "quantum relations verified on the c1 <= 6 window", 10.0):
        rng = random.Random(31)
        cases = []
        for name, fan in all_fans():
            cl, lin = tangent_setup(fan)
            window = effective_window(cl, 6, coeff_bound=6)
            for K in cl.primitive_collections:
                bk, _ = beta_K(cl, K)
                for beta in window:
                    anchor = find_anchor(cl, [beta, beta + bk])
                    assert verify_qc_relation(lin, K, beta, anchor), \
                        (name, K.edges, beta.d)
                    cases.append((lin, K, beta, anchor))
        assert len(cases) > 100
        for lin, K, beta, anchor in rng.sample(cases, 10):
            assert verify_qc_relation(lin, K, beta, anchor, route="expand")


def test_criterion_4_hirzebruch_worked_example():
    with criterion(4, "Hirzebruch sector data matches the worked example", 1.0):
        for n in (1, 2, 3):
            cl, lin = tangent_setup(hirzebruch(n))
            beta = cl.curve_from_d((1, 1, -n, 0))
            sec = sector(lin, beta)
            assert sec.degenerate == ((3, 0),)
            assert sec.n_beta == 3
            assert len(sec.enhanced_edges) == 5
            if n == 2:
                assert four_fermi(lin, beta) == q_of(lin, class_of_ray(cl, 2))


def test_criterion_5_p1_correlator_ladder():
    with criterion(5, "P1 correlators <psi^(2k+1)> = q^k for k = 0..3", 5.0):
        cl, lin = tangent_setup(p1_fan())
        psi = Polynomial.variable(1, 0)
        g = cl.mori[0]
        for k in range(4):
            rep = correlator_series(lin, psi ** (2 * k + 1), 8)
            assert rep.series == ((k * g, Fraction(1)),)
            expected = {0: "1", 1: "q1"}.get(k, f"q1^{k}")
            assert novikov_series_str(cl, rep.series) == expected


def _nonlinear_entries(cl, rng, count):
    """Random valid nonlinear characters with random rational coefficients."""
    from qsheaf.deform import _linear_slot, DeformationEntry

    fan = cl.fan
    box = range(-3, 4)
    candidates = []
    for rho in range(fan.n_rays):
        for m in ((a, b) for a in box for b in box):
            if not any(m):
                continue
            ok = all(sum(x * v for x, v in zip(m, fan.rays[rp]))
                     >= (-1 if rp == rho else 0) for rp in range(fan.n_rays))
            if not ok:
                continue
            entry = DeformationEntry(rho, m, Polynomial.linear(cl.pic_rank,
                                                               cl.divisor_classes[rho]))
            if _linear_slot(cl, entry) is None:
                candidates.append((rho, m))
    rng.shuffle(candidates)
    picked = []
    for rho, m in candidates[:count]:
        coeff = f"{rng.randint(1, 5)}/{rng.randint(1, 3)}*D{rng.randint(1, fan.n_rays)}"
        picked.append((rho, m, coeff))
    return picked


def test_criterion_6_deformation_invariances():
    with criterion(6, "nonlinear insensitivity and deformed P1xP1 QSR", 10.0):
        rng = random.Random(41)
        # (a) nonlinear additions change nothing, bit for bit
        for fan in (hirzebruch(1), hirzebruch(2)):
            cl = class_lattice(fan)
            base = [(rho, (0, 0), f"D{rho + 1}") for rho in range(4)]
            extras = _nonlinear_entries(cl, rng, 3)
            assert extras
            lin0 = linear_part(cl, parse_deformation(cl, base))
            lin1 = linear_part(cl, parse_deformation(cl, base + extras))
            assert lin0.q == lin1.q and lin0.matrices == lin1.matrices
            assert sector_ideal(lin0, cl.zero_curve) == sector_ideal(lin1, cl.zero_curve)
            assert polymology(lin0) == polymology(lin1)
            r0 = [(r.lhs, r.rhs) for r in qsr_generators(lin0)]
            r1 = [(r.lhs, r.rhs) for r in qsr_generators(lin1)]
            assert r0 == r1
        # (b) random small linear deformations of P1xP1
        values = ["1/7", "-1/7", "1/3", "-1/3"]
        for _ in range(3):
            picks = [values[rng.randrange(4)] for _ in range(4)]
            cl, E, lin = deformed_p1xp1(*picks)
            assert polymology(lin).dims == (1, 2, 1)
            syms = d_symbols(cl)
            gamma = Fraction(picks[0]) * Fraction(picks[1])
            rels = qsr_generators(lin)
            assert rels[0].lhs == syms[0] * syms[1] - gamma * syms[2] * syms[3]
            assert rels[0].rhs == Polynomial.novikov(2, 2, rels[0].beta_k.coords)
            delta = Fraction(picks[2]) * Fraction(picks[3])
            assert rels[1].lhs == syms[2] * syms[3] - delta * syms[0] * syms[1]
            assert rels[1].rhs == Polynomial.novikov(2, 2, rels[1].beta_k.coords)
            window = effective_window(cl, 4)
            x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
            for _ in range(20):
                d = rng.randint(0, 4)
                ins = Polynomial.zero(2)
                for mono in monomials_of_degree(2, d):
                    ins = ins + Polynomial(2, 0, {(mono, ()):
                                                  Fraction(rng.randint(-3, 3))})
                if not ins:
                    ins = x ** d
                rel = rels[rng.randrange(2)]
                assert relation_annihilates(lin, rel, ins, window)


def test_criterion_7_groebner_membership_oracle():
    with criterion(7, "normal-form membership matches the linear oracle", 30.0):
        rng = random.Random(53)
        checked = 0
        ideals = 0
        while ideals < 100:
            nv = rng.randint(1, 3)
            gens = []
            for _ in range(rng.randint(1, 3)):
                d = rng.randint(1, 3)
                p = Polynomial.zero(nv)
                for mono in monomials_of_degree(nv, d):
                    p = p + Polynomial(nv, 0, {(mono, ()):
                                               Fraction(rng.randint(-2, 2))})
                if p:
                    gens.append(p)
            if not gens:
                continue
            ideals += 1
            gb = groebner(Ideal(tuple(gens)))
            for _ in range(3):
                d = rng.randint(0, 4)
                p = Polynomial.zero(nv)
                for mono in monomials_of_degree(nv, d):
                    p = p + Polynomial(nv, 0, {(mono, ()):
                                               Fraction(rng.randint(-2, 2))})
                member_nf = not normal_form(p, gb)
                member_oracle = ideal_member_oracle(gens, p)
                assert member_nf == member_oracle
                checked += 1
        assert checked >= 100


def test_criterion_8_structural_properties():
    with criterion(8, "Riemann-Roch, dimension identity, transfers, anchors", 10.0):
        for x in range(-20, 21):
            assert h0(x) - h1(x) == x + 1
        rng = random.Random(61)
        fans = all_fans()
        pairs = []
        while len(pairs) < 50:
            _, fan = fans[rng.randrange(len(fans))]
            cl, lin = tangent_setup(fan)
            beta = cl.zero_curve
            delta = cl.zero_curve
            for g in cl.mori:
                beta = beta + rng.randint(0, 3) * g
                delta = delta + rng.randint(0, 2) * g
            bprime = beta + delta
            if dominates(cl, bprime, beta):
                pairs.append((cl, lin, bprime, beta))
        for cl, lin, bprime, beta in pairs:
            gap = sum(h0(bprime.d[rho]) - h0(beta.d[rho])
                      for rho in range(cl.fan.n_rays))
            assert sector(lin, bprime).n_beta == sector(lin, beta).n_beta + gap
            assert transfers(lin, bprime, beta)
        # anchor independence: lambda vectors agree up to one common factor
        from qsheaf import correlator_sector
        configs = 0
        setups = [tangent_setup(all_fans()[2][1]),
                  tangent_setup(all_fans()[1][1]),
                  tangent_setup(hirzebruch(1))]
        cl_d, _, lin_d = deformed_p1xp1("1/7", "-1/3", "1/3", "1/7")
        setups.append((cl_d, lin_d))
        for cl, lin in setups:
            for trial in range(3):
                if configs >= 10:
                    break
                sectors = [cl.zero_curve]
                for g in cl.mori:
                    sectors.append(sectors[-1] + (trial % 2 + 1) * g)
                anchor1 = find_anchor(cl, sectors)
                extra = cl.zero_curve
                for g in cl.mori:
                    extra = extra + (trial + 1) * g
                anchor2 = anchor1 + extra
                lambdas1, lambdas2 = [], []
                for beta in sectors:
                    d = beta.c1() + cl.fan.rank
                    probe = Polynomial.const(cl.pic_rank, 1)
                    for _ in range(d):
                        probe = probe * Polynomial.variable(cl.pic_rank,
                                                            rng.randrange(cl.pic_rank))
                    lambdas1.append(correlator_sector(lin, probe, beta, anchor1))
                    lambdas2.append(correlator_sector(lin, probe, beta, anchor2))
                scale = None
                for a, b in zip(lambdas1, lambdas2):
                    assert (a == 0) == (b == 0)
                    if a:
                        r = b / a
                        if scale is None:
                            scale = r
                        assert r == scale
                configs += 1
        assert configs >= 10
