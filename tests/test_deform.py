import itertools
import os
import random
from fractions import Fraction

import pytest

from qsheaf import (CharacterOutsidePolytope, DeformError, DegenerateDeformation,
                    DuplicateEntry, UnknownRayIndex, class_lattice, d_symbols,
                    linear_part, local_freeness_check, parse_deformation,
                    polymology, sector_ideal, tangent_deformation)
from qsheaf.poly import Polynomial, PolyError

from qsheaf.deform import Deformation, DeformationEntry, _linear_slot
from qsheaf.model import load_model

from _oracles import linear_slot_by_pairings, local_freeness_by_points
from conftest import (all_fans, blowup_p3_point, blown_up_p1xp1, deformed_p1_power_entries,
                      deformed_p1xp1, deformed_setups, hexagon, hirzebruch, p1_fan,
                      p1_power, p1xp1_fan, p2_fan, tangent_setup)
from test_acceptance import _nonlinear_entries

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


def test_tangent_deformation_flag():
    cl = class_lattice(p2_fan())
    E = tangent_deformation(cl)
    assert E.is_tangent
    assert len(E.entries) == 3
    # re-parsing the same raw entries keeps the flag
    raw = [(e.rho, e.m, f"D{e.rho + 1}") for e in E.entries]
    assert parse_deformation(cl, raw).is_tangent


def test_polytope_validation():
    cl = class_lattice(p1xp1_fan())
    with pytest.raises(CharacterOutsidePolytope):
        parse_deformation(cl, [(0, (0, 1), "D1")])
    with pytest.raises(DuplicateEntry):
        parse_deformation(cl, [(0, (0, 0), "D1"), (0, (0, 0), "D2")])
    with pytest.raises(UnknownRayIndex):
        parse_deformation(cl, [(7, (0, 0), "D1")])


def test_off_diagonal_linear_entry_accepted():
    # character with pairing pattern (-1, 1, 0, 0) links D1 ~ D2
    cl = class_lattice(p1xp1_fan())
    E = parse_deformation(cl, [(0, (-1, 0), "D3")])
    lin = linear_part(cl, E)
    c0 = cl.equiv[0]
    assert lin.matrices[c0.index][0][1] == Polynomial.linear(2, cl.divisor_classes[2])


@pytest.mark.parametrize("wrong", [Polynomial.linear(3, (1, 0, 0)),
                                   Polynomial.linear(2, (1, 0), nq=1)])
def test_linear_part_refuses_a_coefficient_from_another_ring(wrong):
    # ray 2 of F_1 is its class alone, so Q_c would be the entry itself: alone
    # in its slot, after another entry in that slot, and among valid entries
    cl = class_lattice(hirzebruch(1))
    entry = DeformationEntry(2, (0, 0), wrong)
    tangent = tangent_deformation(cl).entries
    for entries in ((entry,), tangent[2:3] + (entry,), tangent[:2] + (entry,)):
        with pytest.raises(PolyError, match="^mixing polynomials from different rings$"):
            linear_part(cl, Deformation(entries, is_tangent=False))


def test_linear_part_tangent_is_diagonal():
    cl, lin = tangent_setup(p2_fan())
    c = cl.equiv[0]
    mat = lin.matrices[c.index]
    psi = Polynomial.linear(1, (1,))
    for i in range(3):
        for j in range(3):
            assert mat[i][j] == (psi if i == j else Polynomial.zero(1))
    assert lin.q[0] == psi ** 3


def test_deformed_p1xp1_determinant():
    g1, g2 = Fraction(1, 7), Fraction(-1, 3)
    cl, E, lin = deformed_p1xp1("1/7", "-1/3", "1/3", "1/7")
    syms = d_symbols(cl)
    expected_q0 = syms[0] * syms[1] - g1 * g2 * syms[2] * syms[3]
    assert lin.q[0] == expected_q0
    expected_q1 = syms[2] * syms[3] - Fraction(1, 3) * Fraction(1, 7) * syms[0] * syms[1]
    assert lin.q[1] == expected_q1


def test_nonlinear_terms_do_not_change_anything():
    cl = class_lattice(hirzebruch(1))
    base = [(rho, (0, 0), f"D{rho + 1}") for rho in range(4)]
    lin0 = linear_part(cl, parse_deformation(cl, base))
    # m = (0,1) on rho=3 gives the quadratic monomial x2*x3: a nonlinear term
    lin1 = linear_part(cl, parse_deformation(cl, base + [(3, (0, 1), "2*D3")]))
    assert lin0 == lin1
    assert [g.to_str() for g in sector_ideal(lin0, lin0.cl.zero_curve)] == \
        [g.to_str() for g in sector_ideal(lin1, lin1.cl.zero_curve)]
    assert polymology(lin0) == polymology(lin1)


def test_zero_parameters_recover_tangent():
    cl, E, lin = deformed_p1xp1("0", "0", "0", "0")
    _, lin0 = tangent_setup(p1xp1_fan())
    assert lin.q == lin0.q
    assert polymology(lin).dims == polymology(lin0).dims


def test_local_freeness_tangent_passes():
    for _, fan in all_fans():
        cl = class_lattice(fan)
        verdict = local_freeness_check(cl, tangent_deformation(cl), trials=8)
        assert verdict.passed


def test_local_freeness_rank_collapse_fails_with_witness():
    cl = class_lattice(p1_fan())
    E = parse_deformation(cl, [(0, (0,), "D1"), (0, (-1,), "D1"),
                               (1, (0,), "D1"), (1, (1,), "D1")])
    verdict = local_freeness_check(cl, E, trials=8)
    assert not verdict.passed
    assert verdict.witness is not None
    x = verdict.witness
    assert x[0] + x[1] == 0  # the collapse locus


def test_local_freeness_small_deformation_passes():
    cl, E, _ = deformed_p1xp1("1/7", "-1/3", "1/3", "1/7")
    assert local_freeness_check(cl, E, trials=8).passed


def test_local_freeness_rejects_negative_trials():
    cl = class_lattice(p2_fan())
    E = tangent_deformation(cl)
    with pytest.raises(DeformError, match="trials must be nonnegative, got -1"):
        local_freeness_check(cl, E, trials=-1)
    assert local_freeness_check(cl, E, trials=0).passed


def test_sr_ideal_examples():
    _, lin = tangent_setup(p2_fan())
    psi = Polynomial.variable(1, 0)
    assert sector_ideal(lin, lin.cl.zero_curve) == (psi ** 3,)

    cl, lin = tangent_setup(p1xp1_fan())
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert set(sector_ideal(lin, lin.cl.zero_curve)) == {x ** 2, y ** 2}

    cl, E, lin = deformed_p1xp1("1/7", "-1/3", "1/3", "1/7")
    syms = d_symbols(cl)
    gens = sector_ideal(lin, lin.cl.zero_curve)
    # gamma1*gamma2 = -1/21, delta1*delta2 = +1/21
    assert gens[0] == syms[0] * syms[1] + Fraction(1, 21) * syms[2] * syms[3]
    assert gens[1] == syms[2] * syms[3] - Fraction(1, 21) * syms[0] * syms[1]


def test_tangent_q_k_is_image_of_monomial():
    # at E = T_X each Q_K equals prod of the divisor classes over K
    for _, fan in all_fans():
        cl, lin = tangent_setup(fan)
        syms = d_symbols(cl)
        for K, gen in zip(cl.primitive_collections, sector_ideal(lin, lin.cl.zero_curve)):
            expected = Polynomial.const(cl.pic_rank, 1)
            for rho in K.edges:
                expected = expected * syms[rho]
            assert gen == expected
            assert gen.psi_degree() == K.k


def test_polymology_examples_and_hvector_oracle():
    expected = {"P1": (1, 1), "P2": (1, 1, 1), "P1xP1": (1, 2, 1),
                "F1": (1, 2, 1), "F2": (1, 2, 1), "F3": (1, 2, 1)}
    for name, fan in all_fans():
        cl, lin = tangent_setup(fan)
        result = polymology(lin)
        assert result.dims == expected[name]
        assert result.dims == fan.h_vector()
        assert result.generator.psi_degree() == fan.rank


def test_polymology_top_generators():
    _, lin = tangent_setup(p2_fan())
    assert polymology(lin).generator == Polynomial.variable(1, 0) ** 2
    _, lin = tangent_setup(p1xp1_fan())
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    assert polymology(lin).generator == x * y


def test_degenerate_deformation_detected():
    cl = class_lattice(p1_fan())
    E = parse_deformation(cl, [(0, (0,), "D1"), (0, (-1,), "D1"),
                               (1, (0,), "D1"), (1, (1,), "D1")])
    lin = linear_part(cl, E)
    assert not lin.q[0]  # the determinant collapses
    with pytest.raises(DegenerateDeformation):
        polymology(lin)


def test_deformed_polymology_keeps_hvector():
    rng = random.Random(12)
    values = ["1/7", "-1/7", "1/3", "-1/3"]
    for _ in range(5):
        picks = [values[rng.randrange(4)] for _ in range(4)]
        cl, E, lin = deformed_p1xp1(*picks)
        assert polymology(lin).dims == (1, 2, 1)


# ---- Cox monomials x_rho chi^m against the pairing-pattern references ----

def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except DeformError as exc:
        return type(exc), str(exc)


_SLOT_BOXES = {**{name: (fan, 3) for name, fan in all_fans()},
               "dP3": (hexagon(), 3), "blown_up_p1xp1(6)": (blown_up_p1xp1(6), 3),
               "Bl_pt P3": (blowup_p3_point(), 2), "(P1)^3": (p1_power(3), 2)}


@pytest.mark.parametrize("name", list(_SLOT_BOXES))
def test_linear_slot_matches_pairing_pattern(name):
    fan, radius = _SLOT_BOXES[name]
    cl = class_lattice(fan)
    syms = d_symbols(cl)
    box = range(-radius, radius + 1)
    slots = set()
    for rho in range(fan.n_rays):
        for m in itertools.product(box, repeat=fan.rank):
            if any(sum(a * b for a, b in zip(m, v)) < -(rp == rho)
                   for rp, v in enumerate(fan.rays)):
                continue  # outside the polytope of O(D_rho)
            entry = DeformationEntry(rho, m, syms[rho])
            outcome = _outcome(_linear_slot, cl, entry)
            assert outcome == _outcome(linear_slot_by_pairings, cl, entry), (rho, m)
            slots.add(outcome[1])
    assert (0, 0) in slots  # the diagonal entry m = 0 was among them


def _freeness_cases():
    for name in sorted(os.listdir(MODELS)):
        model = load_model(os.path.join(MODELS, name))
        yield name, model.cl, model.deformation
    for k, seed in ((2, 0), (2, 5), (3, 1)):
        yield f"deformed (P1)^{k} seed {seed}", *deformed_p1_power_entries(k, random.Random(seed))
    cl = class_lattice(p2_fan())
    eps = "2/5"
    yield "circulant P2", cl, parse_deformation(cl, [
        (0, (0, 0), "D1"), (1, (0, 0), "D2"), (2, (0, 0), "D3"),
        (0, (-1, 1), f"{eps}*D2"), (1, (0, -1), f"{eps}*D3"), (2, (1, 0), f"{eps}*D1")])
    cl = class_lattice(p1_fan())
    yield "rank-collapse P1", cl, parse_deformation(cl, [
        (0, (0,), "D1"), (0, (-1,), "D1"), (1, (0,), "D1"), (1, (1,), "D1")])
    cl = class_lattice(hirzebruch(1))
    extras = _nonlinear_entries(cl, random.Random(3), 4)
    assert extras
    yield "F1 with nonlinear extras", cl, parse_deformation(
        cl, [(rho, (0, 0), f"D{rho + 1}") for rho in range(4)] + extras)


def test_local_freeness_matches_per_point_pairing():
    verdicts = set()
    for name, cl, E in _freeness_cases():
        for trials in (0, 8, 20):
            verdict = local_freeness_check(cl, E, trials=trials)
            assert verdict == local_freeness_by_points(cl, E, trials), (name, trials)
            verdicts.add(verdict.passed)
    assert verdicts == {True, False}


def test_character_outside_polytope_text():
    cl = class_lattice(p1xp1_fan())  # rays (1, 0), (-1, 0), (0, 1), (0, -1)
    with pytest.raises(CharacterOutsidePolytope) as exc:
        parse_deformation(cl, [(0, (-2, 0), "D1")])  # the ray's own exponent
    assert str(exc.value) == "character (-2, 0) violates <m, v_0> >= -1 for ray 0"
    with pytest.raises(CharacterOutsidePolytope) as exc:
        parse_deformation(cl, [(0, (0, 1), "D1")])
    assert str(exc.value) == "character (0, 1) violates <m, v_3> >= 0 for ray 3"


@pytest.mark.parametrize("coeff", ["polynomial", (1, 0)], ids=["polynomial", "vector"])
def test_non_string_coefficient_is_deform_error(coeff):
    cl = class_lattice(p1xp1_fan())
    if coeff == "polynomial":
        coeff = d_symbols(cl)[0]
    with pytest.raises(DeformError, match="must be a D-symbol string"):
        parse_deformation(cl, [(0, (0, 0), coeff)])


def test_q_product_equals_the_plain_product(monkeypatch):
    cube = load_model(os.path.join(os.path.dirname(__file__), "data", "p1_cube_deformed.json"))
    tangent = [tangent_setup(fan)[1] for fan in (p1_power(3), hirzebruch(1), hexagon())]
    deformed = deformed_setups() + [cube.lin]
    rng = random.Random(9)

    def refuse(*args, **kwargs):
        raise AssertionError("Fraction built")

    for lin in tangent + deformed:
        for _ in range(6):
            exponents = [(c, rng.randint(0, 3)) for c in lin.cl.equiv]
            plain = Polynomial.const(lin.cl.pic_rank, 1)
            for c, e in exponents:
                plain = plain * lin.q[c.index] ** e
            if lin in tangent:  # integral Q_c: not one Fraction
                with monkeypatch.context() as m:
                    m.setattr(Fraction, "__new__", refuse)
                    product = lin.q_product(exponents)
            else:
                product = lin.q_product(exponents)
            assert product == plain
    assert any(type(c) is Fraction for lin in deformed for q in lin.q for c in q.terms.values())


def _spy_ranks(monkeypatch):
    """Record the rank calls of local_freeness_check: ('mod', full rank?) and
    ('exact', None), in order."""
    import qsheaf.deform

    events = []
    exact, modular = qsheaf.deform.matrix_rank, qsheaf.deform.rank_mod

    def spy_exact(rows):
        events.append(("exact", None))
        return exact(rows)

    def spy_modular(rows, p):
        rank = modular(rows, p)
        events.append(("mod", rank == len(rows[0])))
        return rank

    monkeypatch.setattr(qsheaf.deform, "matrix_rank", spy_exact)
    monkeypatch.setattr(qsheaf.deform, "rank_mod", spy_modular)
    return events


def test_local_freeness_certified_mod_p_needs_no_exact_rank(monkeypatch):
    events = _spy_ranks(monkeypatch)
    failed = 0
    for name, cl, E in _freeness_cases():
        verdict = local_freeness_check(cl, E, trials=20)
        failed += not verdict.passed
    # every passing point is certified mod 2^61 - 1; only a witness is exact
    assert sum(kind == "exact" for kind, _ in events) == failed > 0


@pytest.mark.parametrize("prime", [3, 7])
def test_local_freeness_with_a_small_prime_matches_per_point_pairing(monkeypatch, prime):
    import qsheaf.deform

    monkeypatch.setattr(qsheaf.deform, "_FRESHNESS_PRIME", prime)
    events = _spy_ranks(monkeypatch)
    for name, cl, E in _freeness_cases():
        for trials in (0, 20):
            verdict = local_freeness_check(cl, E, trials=trials)
            assert verdict == local_freeness_by_points(cl, E, trials), (name, trials)
    # both fallbacks ran: a drop mod p, and an input with p in a denominator
    before = [events[k - 1] if k else None for k, e in enumerate(events) if e[0] == "exact"]
    assert ("mod", False) in before
    assert any(e != ("mod", False) for e in before)
