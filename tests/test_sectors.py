import glob
import itertools
import os
import random
import time
import warnings

import pytest

import qsheaf.deform
import qsheaf.quantum
import qsheaf.sectors
from qsheaf.lattice import find_anchor
from qsheaf.model import load_model
from qsheaf.quantum import degree_slice, effective_window

from qsheaf import (NotDominating, SectorError, beta_K, correlator_sector,
                    correlator_series, d_symbols, dominates, four_fermi, h0, h1, polymology,
                    quotient_dims, sector, sector_gb, sector_ideal, standard_monomials,
                    transition, verify_qc_relation)
from qsheaf.poly import Polynomial

from _oracles import sector_h_vector
from conftest import (all_fans, blowup_p3_point, blown_up_p1xp1, class_of_ray,
                      deformed_p1_power, deformed_setups, hexagon, hirzebruch, p1_fan,
                      p1_power, p1xp1_fan, q_of, tangent_setup, transfers)

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


def test_hirzebruch_sector_worked_example():
    # beta = class of the -n curve: moduli space is P^3 plus one degenerate edge
    for n in (1, 2, 3):
        cl, lin = tangent_setup(hirzebruch(n))
        beta = cl.curve_from_d((1, 1, -n, 0))
        sec = sector(lin, beta)
        assert sec.enhanced_edges == ((0, 0), (0, 1), (1, 0), (1, 1), (3, 0))
        assert sec.degenerate == ((3, 0),)
        assert sec.n_beta == 3
        assert sec.nonempty
        # the sector ring is the cohomology of P^3
        gb = sector_gb(lin, beta)
        assert quotient_dims(gb, 4) == (1, 1, 1, 1, 0)


def test_sector_zero_is_the_base_variety():
    for _, fan in all_fans():
        cl, lin = tangent_setup(fan)
        sec = sector(lin, cl.zero_curve)
        assert sec.n_beta == fan.rank
        assert sec.nonempty
        assert not sec.degenerate


def _sector_ideal_fans():
    """dP3, the 6-ray surface, Bl_pt P^3, (P^1)^3, the bundled models and two
    seeded deformed (P^1)^2: (name, LinearData)."""
    for name, fan in (("dP3", hexagon()), ("Bl6", blown_up_p1xp1(6)),
                      ("BlP3", blowup_p3_point()), ("P1^3", p1_power(3))):
        yield name, tangent_setup(fan)[1]
    for path in sorted(glob.glob(os.path.join(MODELS, "*.json"))):
        yield os.path.basename(path), load_model(path).lin
    for seed in (0, 1):
        yield f"deformed P1^2 seed {seed}", deformed_p1_power(2, random.Random(seed))[1]


def test_sector_ideal_is_the_collection_generators():
    # the one owner of the generators prod_{c in [K]} Q_c^h0(d_c(beta)); at
    # beta = 0 it gives the classical ring, and a degenerate edge (rho, 0)
    # adds nothing because its collection's own generator is Q_[rho]
    for name, lin in _sector_ideal_fans():
        cl = lin.cl
        bound = 4 if cl.pic_rank <= 2 else 2
        products = {}  # exponents (class, h0) -> their product, built once
        for coords in itertools.product(range(-bound, bound + 1), repeat=cl.pic_rank):
            beta = cl.curve_from_coords(coords)
            expected = []
            for K in cl.primitive_collections:
                key = tuple((c, h0(beta.d[c.members[0]])) for c in cl.classes_of(K.edges))
                if key not in products:
                    g = Polynomial.const(cl.pic_rank, 1)
                    for c, e in key:
                        g = g * q_of(lin, c) ** e
                    products[key] = g
                if products[key]:
                    expected.append(products[key])
            gens = sector_ideal(lin, beta)
            assert gens == tuple(expected), (name, coords)
            for rho, _ in sector(lin, beta).degenerate:
                assert q_of(lin, class_of_ray(cl, rho)) in gens, (name, coords, rho)
        assert polymology(lin).gb == sector_gb(lin, cl.zero_curve), name


def test_p1_sector_ladder():
    cl, lin = tangent_setup(p1_fan())
    g = cl.mori[0]
    q = lin.q[0]
    for k in range(4):
        sec = sector(lin, k * g)
        assert sec.n_beta == 2 * k + 1
        assert sector_ideal(lin, k * g) == (q ** (k + 1),)


def test_empty_sector_flagged():
    cl, lin = tangent_setup(hirzebruch(2))
    # d = (-1,-1,2,0): both rays of K={0,1} negative
    beta = cl.curve_from_d((-1, -1, 2, 0))
    # the flags carry it; a non-effective class raises no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sec = sector(lin, beta)
    assert not sec.nonempty
    assert not sec.effective


def test_transition_examples():
    cl, lin = tangent_setup(p1_fan())
    g = cl.mori[0]
    t = transition(lin, g, g)
    assert t == Polynomial.const(1, 1)
    t = transition(lin, 2 * g, g)
    assert t == lin.q[0]  # h0(2) - h0(1) = 1

    cl, lin = tangent_setup(p1xp1_fan())
    g1, g2 = cl.mori
    t = transition(lin, g1 + g2, g1)
    assert t == lin.q[1]


def test_transition_requires_dominance():
    cl, lin = tangent_setup(p1_fan())
    g = cl.mori[0]
    with pytest.raises(NotDominating):
        transition(lin, g, 2 * g)


def _random_dominating_pairs(rng, count, setups=None):
    """count dominating pairs (cl, lin, beta', beta), each drawn from setups,
    a list of LinearData (by default the tangent bundles of all_fans)."""
    if setups is None:
        setups = [tangent_setup(fan)[1] for _, fan in all_fans()]
    pairs = []
    while len(pairs) < count:
        lin = setups[rng.randrange(len(setups))]
        cl = lin.cl
        beta = cl.zero_curve
        delta = cl.zero_curve
        for g in cl.mori:
            beta = beta + rng.randint(0, 3) * g
            delta = delta + rng.randint(0, 2) * g
        bprime = beta + delta
        if dominates(cl, bprime, beta):
            pairs.append((cl, lin, bprime, beta))
    return pairs


def test_dimension_identity_on_dominating_pairs():
    # the identities the correlator layer relies on without re-checking
    # them per row: n_beta' - n_beta is the transition degree, and
    # c1 . beta + dim X + deg F_beta = n_beta for every class of each pair
    rng = random.Random(17)
    pairs = _random_dominating_pairs(rng, 25)
    pairs += _random_dominating_pairs(rng, 16, deformed_setups())
    for cl, lin, bprime, beta in pairs:
        n_b = sector(lin, beta).n_beta
        n_bp = sector(lin, bprime).n_beta
        gap = sum(h0(bprime.d[rho]) - h0(beta.d[rho])
                  for rho in range(cl.fan.n_rays))
        assert n_bp == n_b + gap
        t = transition(lin, bprime, beta)
        if t:
            assert t.psi_degree() == gap
        for b, n in ((beta, n_b), (bprime, n_bp)):
            excess = sum(c.size * h1(c.d(b)) for c in cl.equiv)
            assert b.c1() + cl.fan.rank + excess == n


def test_transfer_check_on_dominating_pairs():
    rng = random.Random(18)
    for cl, lin, bprime, beta in _random_dominating_pairs(rng, 25):
        assert transfers(lin, bprime, beta)
        assert transfers(lin, beta, beta)


def test_transfer_check_f1_negative_arguments():
    cl, lin = tangent_setup(hirzebruch(1))
    beta = cl.curve_from_d((1, 1, -1, 0))
    bprime = beta + cl.curve_from_d((0, 0, 1, 1))
    assert dominates(cl, bprime, beta)
    assert transfers(lin, bprime, beta)


def test_degenerate_edge_generator_is_consistent():
    # when (rho,0) is degenerate, Q_{K_beta} for K containing rho collapses
    # to Q_{[rho]}, so the extra generator is redundant (divisibility)
    for n in (1, 2, 3):
        cl, lin = tangent_setup(hirzebruch(n))
        beta = cl.curve_from_d((1, 1, -n, 0))
        sec = sector(lin, beta)
        assert sec.degenerate == ((3, 0),)
        q_rho = q_of(lin, class_of_ray(cl, 3))
        # K = {2,3}: h0(-n) = 0 and h0(0) = 1 leave exactly Q_{[rho4]}
        assert q_rho in sector_ideal(lin, beta)


@pytest.mark.parametrize("make, slices", [
    pytest.param(lambda: tangent_setup(hirzebruch(1))[1], range(6), id="F1"),
    pytest.param(lambda: tangent_setup(p1_power(3))[1], range(0, 5, 2), id="P1^3"),
    pytest.param(lambda: tangent_setup(blowup_p3_point())[1], range(0, 5, 2), id="BlptP3"),
    pytest.param(lambda: deformed_p1_power(2, random.Random(0))[1], range(0, 9, 2),
                 id="deformed-P1^2"),
    pytest.param(lambda: deformed_p1_power(3, random.Random(0))[1], range(0, 3, 2),
                 id="deformed-P1^3"),
])
def test_anchor_rings_have_the_sector_h_vector(make, slices):
    """The graded dimensions of every slice's anchor ring Sym*W / I_A are the
    h-vector of the enhanced complex of A, counted by the cone sum in
    _oracles, and the top one is 1; at A = 0 that is the fan's h-vector."""
    lin = make()
    cl = lin.cl
    assert sector_h_vector(cl, cl.zero_curve) == cl.fan.h_vector()
    for t in slices:
        anchor = find_anchor(cl, degree_slice(cl, t))
        n = sector(lin, anchor).n_beta
        hvec = sector_h_vector(cl, anchor)
        assert quotient_dims(sector_gb(lin, anchor), n) == hvec, (t, anchor.d)
        assert hvec[n] == 1


def test_sector_top_degree_one_dimensional_tangent():
    rng = random.Random(19)
    for _, fan in all_fans():
        cl, lin = tangent_setup(fan)
        for _ in range(4):
            beta = cl.zero_curve
            for g in cl.mori:
                beta = beta + rng.randint(0, 2) * g
            sec = sector(lin, beta)
            gb = sector_gb(lin, beta)
            assert len(standard_monomials(gb, sec.n_beta)) == 1
            assert quotient_dims(gb, sec.n_beta + 1)[-1] == 0


def test_sector_bookkeeping_expands_no_polynomial(monkeypatch):
    def expand(*args):
        raise AssertionError("sector bookkeeping expanded a Q_c product")

    for name in ("f1", "p1xp1_deformed"):
        model = load_model(os.path.join(os.path.dirname(__file__), "..", "models",
                                        f"{name}.json"))
        window = effective_window(model.cl, 4)
        betas = list(window) + [-b for b in window]
        with monkeypatch.context() as patch:
            patch.setattr(qsheaf.deform.LinearData, "q_product", expand)
            integers = [sector(model.lin, b) for b in betas]
        assert integers == [sector(model.lin, b) for b in betas]
        assert any(not s.nonempty for s in integers)
        assert any(s.degenerate for s in integers) == (name == "f1")


CEILING = r"^sector \(30000000, 30000000, -30000000, 0\) needs a generator of degree " \
    r"60000002, above the ceiling 1000$"


def test_sector_refuses_an_oversized_class_at_once():
    # the ceiling is sector()'s first step, so the 60 million enhanced edges
    # of this class are never listed
    cl, lin = tangent_setup(hirzebruch(1))
    start = time.perf_counter()
    with pytest.raises(SectorError, match=CEILING):
        sector(lin, cl.from_mori((30000000, 0)))
    assert time.perf_counter() - start < 1


def test_ceiling_comes_before_every_expansion(monkeypatch):
    # big does not dominate 0, so transition used to raise NotDominating
    cl, lin = tangent_setup(hirzebruch(1))
    big = cl.from_mori((30000000, 0))

    def expand(*args):
        raise AssertionError("a Q_c product was expanded before the ceiling")

    monkeypatch.setattr(qsheaf.deform.LinearData, "q_product", expand)
    for call in (lambda: transition(lin, big, cl.zero_curve),
                 lambda: transition(lin, cl.zero_curve, big),
                 lambda: sector_ideal(lin, big)):
        with pytest.raises(SectorError, match=CEILING):
            call()
    with pytest.raises(SectorError, match=CEILING):
        four_fermi(lin, big)
    # an ineffective class whose c1 matches the insertion: the row's ceiling
    # comes before its effectivity check, so it raises instead of returning 0
    g1, g2 = cl.mori
    oversized = 30000000 * g1 - 14999999 * g2
    assert oversized.c1() == 2 and not cl.is_effective(oversized)
    with pytest.raises(SectorError, match=r"^sector \(30000000, 30000000, -44999999, "
                       r"-14999999\) needs a generator of degree 60000002, above the "
                       r"ceiling 1000$"):
        correlator_sector(lin, sum(d_symbols(cl)) ** 4, oversized,
                          find_anchor(cl, [cl.zero_curve]))


@pytest.mark.parametrize("name", ["f1", "p1xp1_deformed"])
def test_guards_build_no_sector_data(monkeypatch, name):
    """The ceiling, effectivity and dominance guards read plain integers:
    both verify_qc_relation routes, transition, four_fermi and sector_ideal
    call no sector(), and a correlator query calls it once, for its anchor."""
    model = load_model(os.path.join(MODELS, f"{name}.json"))
    cl, lin = model.cl, model.lin
    calls = []  # the d-vector of every sector() call, wherever it is bound

    def spy(lin, beta):
        calls.append(beta.d)
        return sector(lin, beta)

    monkeypatch.setattr(qsheaf.sectors, "sector", spy)
    monkeypatch.setattr(qsheaf.quantum, "sector", spy)
    for K in cl.primitive_collections:
        bk, _ = beta_K(cl, K)
        for beta in effective_window(cl, 3):
            anchor = find_anchor(cl, [beta, beta + bk])
            assert verify_qc_relation(lin, K, beta, anchor)
            assert verify_qc_relation(lin, K, beta, anchor, route="expand")
            transition(lin, anchor, beta)
            four_fermi(lin, beta)
            sector_ideal(lin, beta)
    assert calls == []
    report = correlator_series(lin, sum(d_symbols(cl)) ** 4, 2)
    assert calls == [report.anchor.d]


@pytest.mark.parametrize("name", ["f1", "p1xp1_deformed"])
def test_row_reasons_agree_with_sector(name):
    """Every row's tag is what sector(lin, beta).effective and .nonempty say,
    over a window with its negated classes.  The empty sectors there are
    all ineffective, and effectivity is checked first; an effective empty
    sector (dP3) is in test_quantum.py::test_rows_report_ineffective_and_empty_sectors."""
    model = load_model(os.path.join(MODELS, f"{name}.json"))
    cl, lin = model.cl, model.lin
    window = effective_window(cl, 4)
    betas = window + tuple(-b for b in window)
    seen = set()
    for t in range(-2, 5):
        report = correlator_series(lin, sum(d_symbols(cl)) ** (t + 2), 4, sectors=betas)
        for row in report.rows:
            sec = sector(lin, row.beta)
            expected = ("degree" if row.beta.c1() != t else
                        "ineffective" if not sec.effective else
                        "ok" if sec.nonempty else "empty")
            assert row.reason == expected, (t, row.beta.d)
            seen.add((row.reason, sec.nonempty))
    assert {("ok", True), ("ineffective", False)} <= seen
