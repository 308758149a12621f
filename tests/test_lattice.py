import functools
import glob
import itertools
import os
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsheaf import (IneffectiveClass, LatticeError, NonProjectiveFan, PrimitiveCollection,
                    beta_K, build_fan, class_lattice, dominates, effective_cones_coincide,
                    find_anchor, h0, h1, linear_part, load_model, parse_deformation,
                    qsr_generators, tangent_deformation)
from qsheaf.cli import cmd_analyze, cmd_verify, make_parser
import qsheaf.fan
import qsheaf.lattice
import qsheaf.linalg
from qsheaf.poly import _capped_exponents
from qsheaf.quantum import effective_window

from qsheaf.sectors import SectorError, ceiling, nonempty

from _oracles import (ceiling_reference, construction_by_inverse, dominates_by_difference,
                      dominates_reference, effective_cones_coincide_by_facets,
                      find_anchor_by_classes, find_anchor_by_search, find_anchor_reference,
                      in_cone, is_effective_coords_reference, nonempty_reference,
                      positive_walk, wall_classes)
from conftest import (all_fans, blown_up_p1xp1, blowup_p3_point, class_of_ray,
                      deformed_p1_power_entries, hexagon, hirzebruch, non_projective_fan,
                      p1_fan, p1_power, p1xp1_fan, p2_fan, projective_bundle)

ROOT = os.path.dirname(__file__)
MODEL_FILES = (sorted(glob.glob(os.path.join(ROOT, "..", "models", "*.json")))
               + sorted(glob.glob(os.path.join(ROOT, "data", "*.json"))))


def test_p2_class_lattice():
    cl = class_lattice(p2_fan())
    assert cl.pic_rank == 1
    assert cl.divisor_classes == ((1,), (1,), (1,))


def test_p1_curve_lattice():
    cl = class_lattice(p1_fan())
    assert cl.pic_rank == 1
    assert [g.d for g in cl.mori] == [(1, 1)]


def test_hirzebruch_class_relations():
    # characters give D1 ~ D2 and D4 ~ D3 + n D2, independent of the basis
    for n in (1, 2, 3):
        cl = class_lattice(hirzebruch(n))
        assert cl.pic_rank == 2
        d1, d2, d3, d4 = cl.divisor_classes
        assert d1 == d2
        assert d4 == tuple(a + n * b for a, b in zip(d3, d2))


def test_presentation_exactness():
    # rows of the ray matrix pair to zero against the divisor classes
    for _, fan in all_fans():
        cl = class_lattice(fan)
        for j in range(fan.rank):
            for k in range(cl.pic_rank):
                assert sum(fan.rays[rho][j] * cl.divisor_classes[rho][k]
                           for rho in range(fan.n_rays)) == 0


def test_equiv_classes_examples():
    cl = class_lattice(p2_fan())
    assert [c.members for c in cl.equiv] == [(0, 1, 2)]
    cl = class_lattice(p1xp1_fan())
    assert [c.members for c in cl.equiv] == [(0, 1), (2, 3)]
    for n in (1, 2):
        cl = class_lattice(hirzebruch(n))
        assert [c.members for c in cl.equiv] == [(0, 1), (2,), (3,)]


def test_beta_k_hirzebruch_paper_example():
    for n in (1, 2, 3):
        cl = class_lattice(hirzebruch(n))
        K = cl.primitive_collections[0]
        assert K.edges == (0, 1)
        bk, kminus = beta_K(cl, K)
        assert bk.d == (1, 1, -n, 0)
        assert [(c.members, m) for c, m in kminus] == [((2,), n)]


def test_beta_k_trivial_examples():
    cl = class_lattice(p2_fan())
    bk, kminus = beta_K(cl, cl.primitive_collections[0])
    assert bk.d == (1, 1, 1)
    assert kminus == ()
    cl = class_lattice(p1xp1_fan())
    bk, kminus = beta_K(cl, cl.primitive_collections[0])
    assert bk.d == (1, 1, 0, 0)
    assert kminus == ()


def test_beta_k_consistency_and_primlin():
    for _, fan in all_fans():
        cl = class_lattice(fan)
        for K in cl.primitive_collections:
            bk, kminus = beta_K(cl, K)
            # rays sum to zero against the d-vector
            for j in range(fan.rank):
                assert sum(bk.d[rho] * fan.rays[rho][j]
                           for rho in range(fan.n_rays)) == 0
            assert bk.c1() == K.k - sum(c.size * m for c, m in kminus)
            # primitive collections are unions of equivalence classes
            for rho in K.edges:
                assert set(class_of_ray(cl, rho).members) <= set(K.edges)


def test_primitive_relations_are_derived_once(monkeypatch):
    # dP3: nine primitive collections and a non-simplicial Mori cone, so the
    # generator numbering reads the relations too
    path = os.path.join(os.path.dirname(__file__), "data", "dp3.json")
    original = qsheaf.lattice.locate_cone
    located = []

    def spy(fan, point):
        located.append(point)
        return original(fan, point)

    monkeypatch.setattr(qsheaf.lattice, "locate_cone", spy)
    model = load_model(path)
    cl, parser = model.cl, make_parser()
    assert cmd_analyze(model, parser.parse_args(["analyze", path]))[2] == 0
    assert len(qsr_generators(model.lin)) == 9
    assert cmd_verify(model, parser.parse_args(["verify", path, "--all", "--grid", "2"]))[2] == 0
    assert len(located) == len(cl.primitive_collections) == 9
    K = cl.primitive_collections[0]
    assert beta_K(cl, K) is cl.primitive_relations[K]
    # {0, 1} spans a cone of the hexagon; {0, 1, 2} is P2's only collection
    for edges in ((0, 1), (0, 1, 2)):
        with pytest.raises(LatticeError) as exc:
            beta_K(cl, PrimitiveCollection(edges))
        assert str(exc.value) == f"{edges} is not a primitive collection of this fan"
    assert len(located) == 9


def test_walls_match_facet_walk_oracle():
    fans = [fan for _, fan in all_fans()]
    fans += [p1_power(3), p1_power(4), blowup_p3_point(), hexagon()]
    for fan in fans:
        cl = class_lattice(fan)
        assert cl.walls == wall_classes(cl)


def test_mori_generators_examples():
    assert [g.d for g in class_lattice(p2_fan()).mori] == [(1, 1, 1)]
    assert [g.d for g in class_lattice(p1xp1_fan()).mori] == [(1, 1, 0, 0), (0, 0, 1, 1)]
    for n in (1, 2, 3):
        assert [g.d for g in class_lattice(hirzebruch(n)).mori] == \
            [(1, 1, -n, 0), (0, 0, 1, 1)]


def test_dominates_examples():
    cl = class_lattice(hirzebruch(2))
    b = cl.curve_from_d((1, 1, -2, 0))
    g2 = cl.curve_from_d((0, 0, 1, 1))
    assert dominates(cl, b + g2, b)
    assert dominates(cl, b, b)
    cl2 = class_lattice(p2_fan())
    assert not dominates(cl2, cl2.zero_curve, cl2.mori[0])


def test_dominates_reflexive_transitive():
    rng = random.Random(3)
    for _, fan in all_fans():
        cl = class_lattice(fan)
        gens = cl.mori
        triples = 0
        while triples < 10:
            combos = [[rng.randint(0, 3) for _ in gens] for _ in range(3)]
            betas = []
            for combo in combos:
                b = cl.zero_curve
                for a, g in zip(combo, gens):
                    b = b + a * g
                betas.append(b)
            b1, b2, b3 = betas
            assert dominates(cl, b1, b1)
            if dominates(cl, b3, b2) and dominates(cl, b2, b1):
                assert dominates(cl, b3, b1)
                triples += 1


def test_find_anchor_examples():
    cl = class_lattice(p1_fan())
    b = cl.mori[0]
    assert find_anchor(cl, [cl.zero_curve, b]).d == (2, 2)

    cl = class_lattice(p1xp1_fan())
    assert find_anchor(cl, [cl.zero_curve]).d == (1, 1, 1, 1)

    cl = class_lattice(hirzebruch(1))
    b = cl.curve_from_d((1, 1, -1, 0))
    anchor = find_anchor(cl, [b])
    assert dominates(cl, anchor, b)
    # the positive search direction is b + k*(0,0,1,1) for the smallest
    # workable k, scaled once
    assert anchor.d == (2, 2, 0, 2)


def test_anchor_dominates_all_inputs():
    rng = random.Random(5)
    for _, fan in all_fans():
        cl = class_lattice(fan)
        sectors = []
        for _ in range(3):
            b = cl.zero_curve
            for g in cl.mori:
                b = b + rng.randint(0, 2) * g
            sectors.append(b)
        anchor = find_anchor(cl, sectors)
        for s in sectors:
            assert dominates(cl, anchor, s)


@functools.lru_cache(maxsize=None)
def _guard_window(name):
    """A lattice and its effective classes with c1 <= 5, with their negatives."""
    cl = {"F1": lambda: class_lattice(hirzebruch(1)),
          "deformed P1xP1": lambda: load_model(os.path.join(
              os.path.dirname(__file__), "..", "models", "p1xp1_deformed.json")).cl,
          "Bl_pt P3": lambda: class_lattice(blowup_p3_point()),
          "dP3": lambda: class_lattice(hexagon())}[name]()
    window = effective_window(cl, 5)
    return cl, window + tuple(-b for b in window)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_integer_guards_match_their_definitions(data):
    """dominates and find_anchor on int vectors agree with the CurveClass
    and EquivClass.d definitions; dP3's Mori cone (5 facets in Picard rank
    4) is not simplicial."""
    cl, window = _guard_window(data.draw(st.sampled_from(
        ["F1", "deformed P1xP1", "Bl_pt P3", "dP3"])))
    b1, b2 = data.draw(st.sampled_from(window)), data.draw(st.sampled_from(window))
    for bp, b in ((b1, b2), (b1 + b2, b2), (b2, b1)):
        assert dominates(cl, bp, b) == dominates_by_difference(cl, bp, b), (bp.d, b.d)
    sectors = data.draw(st.lists(st.sampled_from(window), min_size=1, max_size=3))
    try:
        expected = find_anchor_by_classes(cl, sectors)
    except IneffectiveClass:
        with pytest.raises(IneffectiveClass):
            find_anchor(cl, sectors)
    else:
        assert find_anchor(cl, sectors) == expected


@functools.lru_cache(maxsize=None)
def _anchor_window(name):
    """A lattice and its effective classes with c1 <= 4 and Mori
    coefficients <= 4, as `verify --all --grid 4` reads them."""
    cl = class_lattice({"F1": lambda: hirzebruch(1), "F3": lambda: hirzebruch(3),
                        "Bl_pt P3": blowup_p3_point, "(P1)^4": lambda: p1_power(4),
                        "dP3": hexagon}[name]())
    return cl, effective_window(cl, 4, coeff_bound=4)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_find_anchor_is_the_least_dominating_fold(data):
    """find_anchor sums its sectors column by column; it is the fold
    zero_curve + sum of the sectors + n * positive with the least n >= 1
    that dominates every sector.  An ineffective sector among them is
    refused with its own message."""
    cl, window = _anchor_window(data.draw(st.sampled_from(
        ["F1", "F3", "Bl_pt P3", "(P1)^4", "dP3"])))
    sectors = data.draw(st.lists(st.sampled_from(window), min_size=1, max_size=4))
    anchor = find_anchor(cl, sectors)
    assert anchor == find_anchor_by_search(cl, sectors)
    assert all(dominates(cl, anchor, s) for s in sectors)
    bad = -data.draw(st.sampled_from([b for b in window if any(b.coords)]))
    sectors.insert(data.draw(st.integers(0, len(sectors))), bad)
    with pytest.raises(IneffectiveClass) as exc:
        find_anchor(cl, sectors)
    assert str(exc.value) == f"sector {bad.d} is not effective"


def test_find_anchor_refuses_no_sectors():
    cl = class_lattice(hirzebruch(1))
    with pytest.raises(LatticeError) as exc:
        find_anchor(cl, [])
    assert str(exc.value) == "anchor search requires at least one sector"


def _outcome(f, *args):
    """("value", f(*args)), or ("raise", type, text) of what it raised."""
    try:
        return ("value", f(*args))
    except Exception as exc:
        return ("raise", type(exc), str(exc))


@functools.cache
def _kernel_lattices() -> dict:
    """id -> ClassLattice: the bundled and tests/data models, dP3 and every
    P(O + O(a_1) + ... + O(a_r)) over P^s with r + s <= 5 and 0 <= a_i <= 3."""
    out = {os.path.basename(path): load_model(path).cl for path in MODEL_FILES}
    out["dP3"] = class_lattice(hexagon())
    for r in range(1, 5):
        for s in range(1, 6 - r):
            for a in itertools.product(range(4), repeat=r):
                out[f"P(O+O{a}) over P^{s}"] = class_lattice(projective_bundle(s, a))
    return out


def _assert_kernels_match(cl, classes, d_vectors):
    """Every Mori-cone kernel agrees with its reference form on the classes
    and d-vectors, in value or in the exception's type and text."""
    for b in classes:
        assert (cl.is_effective_coords(b.coords)
                == is_effective_coords_reference(cl, b.coords)), b.coords
        for s in classes:
            assert dominates(cl, b, s) == dominates_reference(cl, b, s), (b.d, s.d)
    for sectors in ([], classes[:1], classes[:2], classes[1:3], classes):
        anchor = _outcome(find_anchor, cl, sectors)
        assert anchor == _outcome(find_anchor_reference, cl, sectors), [s.d for s in sectors]
        if anchor[0] == "value":
            for s in sectors:
                assert dominates(cl, anchor[1], s) and dominates_reference(cl, anchor[1], s)
    for d in d_vectors:
        assert _outcome(ceiling, cl, d) == _outcome(ceiling_reference, cl, d), d
        assert nonempty(cl, d) == nonempty_reference(cl, d), d


def test_mori_kernels_match_their_reference_forms_on_every_fan():
    """On each fan: zero, the Mori generators, their negatives, the positive
    class and 1000 times it (above the sector ceiling)."""
    fans = _kernel_lattices()
    assert len(fans) == 7 + 4 + 1 + 448
    for name, cl in fans.items():
        big = cl.positive * 1000
        classes = [cl.zero_curve, *cl.mori, cl.positive, *(-g for g in cl.mori), big]
        _assert_kernels_match(cl, classes, [b.d for b in classes])
        assert _outcome(ceiling, cl, big.d)[1] is SectorError, name


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mori_kernels_match_their_reference_forms(data):
    """Random integer curve coordinates, so ineffective classes and negative
    d entries, some of magnitude past the ceiling, and random d-vectors."""
    fans = _kernel_lattices()
    cl = fans[data.draw(st.sampled_from(sorted(fans)))]
    entry = st.one_of(st.integers(-4, 4), st.integers(-1500, 1500))
    coords = st.lists(entry, min_size=cl.pic_rank, max_size=cl.pic_rank)
    classes = data.draw(st.lists(coords.map(cl.curve_from_coords), min_size=1, max_size=4))
    d_vectors = data.draw(st.lists(st.lists(entry, min_size=cl.fan.n_rays,
                                            max_size=cl.fan.n_rays).map(tuple), max_size=3))
    # classes a sum of sectors dominates, and one short of it
    effective = [b for b in classes if cl.is_effective(b)]
    if effective:
        anchor = find_anchor(cl, effective)
        classes += [anchor, anchor - cl.mori[data.draw(st.integers(0, len(cl.mori) - 1))]]
    _assert_kernels_match(cl, classes, d_vectors + [b.d for b in classes])


def test_positive_matches_the_walk_from_one():
    """The walk started at the packing bound returns the class the walk from
    coefficient sum 1 returns, and the bound is at most that sum: on the
    kernel fans, the blown-up surfaces with 8 to 10 rays and F_a, a <= 20."""
    fans = {name: cl.fan for name, cl in _kernel_lattices().items()}
    fans.update((f"blown_up_p1xp1({n})", blown_up_p1xp1(n)) for n in (8, 9, 10))
    fans.update((f"F_{a}", hirzebruch(a)) for a in range(21))
    for name, fan in fans.items():
        cl = class_lattice(fan)  # a fresh lattice: no cached positive
        combo = positive_walk(cl)
        assert cl.positive == cl.from_mori(combo), name
        rows = [[c.d(g) for g in cl.mori] for c in cl.equiv]
        assert 1 <= qsheaf.lattice._packing_bound(rows) <= sum(combo), name


def test_packing_bound_on_product_of_lines():
    """(P^1)^5: five classes, each positive on one generator of its own,
    so the walk starts at its answer's sum, 5."""
    cl = class_lattice(p1_power(5))
    rows = [[c.d(g) for g in cl.mori] for c in cl.equiv]
    assert qsheaf.lattice._packing_bound(rows) == 5
    assert cl.positive.d == (1,) * 10


def test_effective_cone_diagnostic():
    # the primitive relations generate the Mori cone of a smooth projective
    # toric variety (Batyrev 1991); the facet comparison, the reference, takes
    # C(#collections, pic_rank - 1) kernels (15504 on the 8-ray surface)
    fans = ([fan for _, fan in all_fans()] + [hexagon(), blowup_p3_point()]
            + [p1_power(k) for k in (3, 4, 5)] + [blown_up_p1xp1(n) for n in range(5, 9)])
    for fan in fans:
        cl = class_lattice(fan)
        assert effective_cones_coincide(cl) and effective_cones_coincide_by_facets(cl), fan.rays


def test_in_cone_membership():
    # F1 generator with negative curve coordinates is effective
    cl = class_lattice(hirzebruch(1))
    b = cl.curve_from_d((1, 1, -1, 0))
    assert cl.is_effective(b)
    assert not cl.is_effective(-b)


def test_mori_coordinates():
    cl = class_lattice(hirzebruch(2))
    b = cl.curve_from_d((1, 1, -2, 0))
    g2 = cl.curve_from_d((0, 0, 1, 1))
    assert cl.mori_coordinates(b) == (1, 0)
    assert cl.mori_coordinates(b + 2 * g2) == (1, 2)
    assert cl.mori_coordinates(-b) is None


def test_from_mori_inverts_mori_coordinates():
    for _, fan in all_fans():
        cl = class_lattice(fan)
        for j, g in enumerate(cl.mori):
            assert cl.from_mori([int(k == j) for k in range(len(cl.mori))]) == g
        if not cl.mori_is_basis:
            continue
        for coeffs in itertools.product(range(3), repeat=len(cl.mori)):
            assert cl.mori_coordinates(cl.from_mori(coeffs)) == coeffs


def test_to_mori_gives_ints_on_every_bundled_model():
    root = os.path.dirname(__file__)
    paths = sorted(glob.glob(os.path.join(root, "..", "models", "*.json")))
    for path in paths + sorted(glob.glob(os.path.join(root, "data", "*.json"))):
        cl = load_model(path).cl
        # dP3 alone has more Mori generators than its Picard rank
        assert cl.mori_is_basis == (len(cl.mori) == cl.pic_rank), path
        for coords in itertools.product(range(-2, 3), repeat=cl.pic_rank):
            sol = cl.to_mori(coords)
            if not cl.mori_is_basis:
                assert sol is None, path
                continue
            assert all(type(x) is int for x in sol), path
            assert cl.from_mori(sol).coords == coords, path


def test_mori_generators_read_cached_primitive_collections(monkeypatch):
    import qsheaf.lattice
    cl = class_lattice(hirzebruch(2))
    assert cl.primitive_collections  # fills the cache

    def walk(fan):
        raise AssertionError("primitive collections enumerated again")

    monkeypatch.setattr(qsheaf.lattice, "primitive_collections", walk)
    assert [g.d for g in qsheaf.lattice.mori_generators(cl)] == [(1, 1, -2, 0), (0, 0, 1, 1)]


def test_section_is_dual_to_the_divisor_classes():
    fans = [fan for _, fan in all_fans()]
    fans += [p1_power(3), blowup_p3_point(), hexagon(), blown_up_p1xp1(6)]
    for fan in fans:
        cl = class_lattice(fan)
        rank = range(cl.pic_rank)
        assert [[sum(cl.divisor_classes[rho][k] * cl._section[rho][j]
                     for rho in range(fan.n_rays)) for j in rank]
                for k in rank] == [[int(k == j) for j in rank] for k in rank]
        assert all(cl.curve_from_d(g.d) == g for g in cl.mori)


@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=2))
@settings(max_examples=40, deadline=None)
def test_curve_class_round_trip(coords):
    cl = class_lattice(hirzebruch(2))
    beta = cl.curve_from_coords(coords)
    assert cl.curve_from_d(beta.d) == beta
    assert beta.c1() == sum(beta.d)
    # the Pic / curve bases are dual under the intersection pairing
    for rho in range(4):
        assert cl.pairing(cl.divisor_classes[rho], beta) == beta.d[rho]


@pytest.mark.parametrize("make_fan", [hexagon, lambda: hirzebruch(3), blowup_p3_point],
                         ids=["dP3", "F3", "Bl_pt P3"])
def test_is_effective_matches_caratheodory_oracle(make_fan):
    cl = class_lattice(make_fan())
    gens = [g.coords for g in cl.mori]
    # the oracle's subset search makes a rank-4 box of radius 3 take ~40 s
    radius = 3 if cl.pic_rank <= 2 else 1
    for coords in itertools.product(range(-radius, radius + 1), repeat=cl.pic_rank):
        beta = cl.curve_from_coords(coords)
        assert cl.is_effective(beta) == in_cone(coords, gens), coords


def test_hexagon_mori_cone_is_not_simplicial():
    cl = class_lattice(hexagon())
    assert cl.pic_rank == 4
    assert len(cl.mori) == 6
    assert effective_cones_coincide(cl)


def test_non_projective_fan_rejected():
    with pytest.raises(NonProjectiveFan):
        class_lattice(non_projective_fan())


def test_find_anchor_rejects_ineffective_sector():
    cl = class_lattice(hirzebruch(1))
    b = cl.curve_from_d((1, 1, -1, 0))
    with pytest.raises(IneffectiveClass):
        find_anchor(cl, [cl.zero_curve, -b])


def test_riemann_roch_helpers():
    assert (h0(2), h1(2)) == (3, 0)
    assert (h0(-1), h1(-1)) == (0, 0)
    assert (h0(-3), h1(-3)) == (0, 2)


def _positive_by_filtered_product(cl):
    """The definition of ClassLattice.positive: the first combination of the
    Mori generators, by coefficient sum and then lexicographically, that is
    positive on every class; the full product is walked and filtered by sum."""
    for total in itertools.count(1):
        for combo in itertools.product(range(total + 1), repeat=len(cl.mori)):
            if sum(combo) != total:
                continue
            cand = cl.from_mori(combo)
            if all(c.d(cand) > 0 for c in cl.equiv):
                return cand


# the conftest fans on which the filtered product finishes
_POSITIVE_FANS = {**dict(all_fans()), "dP3": hexagon(), "Bl_pt P3": blowup_p3_point(),
                  "(P1)^3": p1_power(3), "(P1)^4": p1_power(4),
                  "blown_up_p1xp1(5)": blown_up_p1xp1(5),
                  "blown_up_p1xp1(6)": blown_up_p1xp1(6)}


@pytest.mark.parametrize("name", list(_POSITIVE_FANS))
def test_positive_matches_filtered_product(name):
    cl = class_lattice(_POSITIVE_FANS[name])
    assert cl.positive == _positive_by_filtered_product(cl)


def test_positive_on_eight_mori_generators_is_fast():
    cl = class_lattice(blown_up_p1xp1(8))
    assert len(cl.mori) == 8
    start = time.perf_counter()
    positive = cl.positive
    assert time.perf_counter() - start < 10
    assert all(c.d(positive) > 0 for c in cl.equiv)


def _positive_by_compositions(cl):
    """The first positive class by the plain walk over every composition of
    each coefficient sum, with no prefix cut: poly's lex-descending walker,
    reversed into lexicographic order."""
    rows = [[c.d(g) for g in cl.mori] for c in cl.equiv]
    for total in itertools.count(1):
        for combo in reversed(list(_capped_exponents([total + 1] * len(cl.mori), total))):
            if all(sum(a * b for a, b in zip(row, combo)) > 0 for row in rows):
                return cl.from_mori(combo)


@pytest.mark.parametrize("n_rays", [7, 8])
def test_positive_matches_composition_walk(n_rays):
    cl = class_lattice(blown_up_p1xp1(n_rays))
    assert cl.positive == _positive_by_compositions(cl)


def test_positive_on_nine_mori_generators_is_fast():
    cl = class_lattice(blown_up_p1xp1(9))
    assert len(cl.mori) == 9
    start = time.perf_counter()
    positive = cl.positive
    assert time.perf_counter() - start < 5
    assert positive.d == (1, 1, 1, 1, 1, 2, 2, 1, 1)


def _projective_space(n):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    return build_fan(n, rays, list(itertools.combinations(range(n + 1), n)))


def _from_file(path):
    model = load_model(path)
    return model.cl, model.deformation


def _tangent(fan):
    cl = class_lattice(fan)
    return cl, tangent_deformation(cl)


def _circulant_p2():
    cl = class_lattice(p2_fan())
    return cl, parse_deformation(cl, [
        (0, (0, 0), "D1"), (1, (0, 0), "D2"), (2, (0, 0), "D3"),
        (0, (-1, 1), "2/5*D2"), (1, (0, -1), "2/5*D3"), (2, (1, 0), "2/5*D1")])


def _diagonal_p1xp1():
    # diagonal A_c whose entries differ, so the order of their product shows
    cl = class_lattice(p1xp1_fan())
    return cl, parse_deformation(cl, [(0, (0, 0), "D3 + D1"), (1, (0, 0), "D2 - D3"),
                                      (2, (0, 0), "2*D4"), (3, (0, 0), "D1 + D4")])


# name -> () -> (cl, deformation): the bundled and test model files, P^n,
# (P^1)^k, F_a, four larger fans (the Picard rank-7 surface among them), the
# 24 P(O + O(a_1) + ... + O(a_r)) over P^s with r + s <= 3 and 0 <= a_i <= 3
# (non-Fano once a_i >= 2), seeded deformed (P^1)^k, a circulant P^2 and a
# diagonal but not tangent P1xP1
_CONSTRUCTION_CASES = {
    **{os.path.basename(path): functools.partial(_from_file, path) for path in MODEL_FILES},
    **{f"P{n}": (lambda n=n: _tangent(_projective_space(n))) for n in range(1, 5)},
    **{f"(P1)^{k}": (lambda k=k: _tangent(p1_power(k))) for k in range(1, 6)},
    **{f"F{a}": (lambda a=a: _tangent(hirzebruch(a))) for a in range(4)},
    "dP3": lambda: _tangent(hexagon()),
    "blown_up_p1xp1(8)": lambda: _tangent(blown_up_p1xp1(8)),
    "blown_up_p1xp1(9)": lambda: _tangent(blown_up_p1xp1(9)),
    "Bl_pt P3": lambda: _tangent(blowup_p3_point()),
    **{f"P(O+O{a}) over P^{s}": (lambda s=s, a=a: _tangent(projective_bundle(s, a)))
       for r in (1, 2) for s in range(1, 4 - r) for a in itertools.product(range(4), repeat=r)},
    **{f"deformed (P1)^{k} seed {seed}":
       (lambda k=k, seed=seed: deformed_p1_power_entries(k, random.Random(seed)))
       for k, seed in ((2, 0), (2, 1), (3, 0), (4, 2))},
    "circulant P2": _circulant_p2,
    "diagonal P1xP1": _diagonal_p1xp1,
}


@pytest.mark.parametrize("name", list(_CONSTRUCTION_CASES))
def test_construction_matches_the_inverse_oracle(name):
    """The section carried through the Smith form, the walls and located
    relations made classes by one product, and the one facet sweep give
    exactly, and in the same order, what inverse(R), curve_from_d, per-wall
    ranks and Laplace expansion gave."""
    cl, deformation = _CONSTRUCTION_CASES[name]()
    expected = construction_by_inverse(cl.fan, deformation)
    for key in ("divisor_classes", "curve_basis_d", "_section", "walls", "facets", "mori",
                "positive", "_mori_solve"):
        assert getattr(cl, key) == expected[key], key
    assert list(cl.primitive_relations.items()) == list(expected["primitive_relations"].items())
    q = linear_part(cl, deformation).q
    assert [list(p.terms.items()) for p in q] == [list(p.terms.items()) for p in expected["q"]]


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda dim: st.tuples(st.lists(st.lists(st.integers(min_value=-4, max_value=4),
                                            min_size=dim, max_size=dim),
                                   min_size=dim - 1, max_size=dim - 1),
                          st.just(dim))))
@settings(max_examples=300, deadline=None)
def test_facet_normal_is_the_kernel_basis_vector(case):
    # up to dim 3 the normal is a cross product, with kernel_basis's sign
    rows, dim = case
    kernel = qsheaf.linalg.kernel_basis(rows, dim)
    assert qsheaf.lattice._normal(rows, dim) == (tuple(kernel[0]) if len(kernel) == 1 else None)


def test_pointedness_matches_the_rank_oracle():
    # no wall lies on every facet exactly when the facet normals span Pic
    assert construction_by_inverse(non_projective_fan()) is None
    with pytest.raises(NonProjectiveFan):
        class_lattice(non_projective_fan())
    assert all(construction_by_inverse(fan) is not None for _, fan in all_fans())


# eliminations (linalg._integer_rref calls) of load_model then cl.mori: none
# at rank and Picard rank <= 2, where the walk's first inverse is an adjugate
# and each facet normal a cross product; no inverse of the Smith transform
# and no rank
_ELIMINATIONS = {"f1.json": 0, "f2.json": 0, "f3.json": 0, "p1.json": 0, "p1xp1.json": 0,
                 "p1xp1_deformed.json": 0, "p2.json": 0}


def test_bundled_models_take_pinned_eliminations(monkeypatch):
    calls = []
    original = qsheaf.linalg._integer_rref

    def counted(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(qsheaf.linalg, "_integer_rref", counted)
    counts = {}
    for path in sorted(glob.glob(os.path.join(ROOT, "..", "models", "*.json"))):
        calls.clear()
        load_model(path).cl.mori
        counts[os.path.basename(path)] = len(calls)
    assert counts == _ELIMINATIONS


@pytest.mark.parametrize("method, entries, message", [
    ("curve_from_coords", [Fraction(1, 2), 0], "curve coordinate Fraction(1, 2) is not an integer"),
    ("curve_from_coords", [1.5, 0], "curve coordinate 1.5 is not an integer"),
    ("curve_from_coords", [True, 0], "curve coordinate True is not an integer"),
    ("curve_from_coords", [1, "0"], "curve coordinate '0' is not an integer"),
    ("curve_from_d", [0.5, 0.5, 0, 0], "d-vector entry 0.5 is not an integer"),
    ("curve_from_d", [1, 1, -1, False], "d-vector entry False is not an integer"),
    ("curve_from_d", ["1", "1", "-1", "0"], "d-vector entry '1' is not an integer"),
    ("curve_from_d", [Fraction(1), 1, -1, 0], "d-vector entry Fraction(1, 1) is not an integer"),
    ("curve_from_coords", [Fraction(1, 3 ** 100), 0],
     "curve coordinate " + repr(Fraction(1, 3 ** 100))[:48] + "... is not an integer"),
], ids=["half", "float", "bool", "str", "float-d", "bool-d", "str-d", "integral-fraction-d",
        "long-echo"])
def test_curve_entries_must_be_ints(method, entries, message):
    # int() once made Fraction(1, 2) and 0.5 the zero class and 1.5 a 1
    cl = load_model(os.path.join(ROOT, "..", "models", "f1.json")).cl
    with pytest.raises(LatticeError) as exc:
        getattr(cl, method)(entries)
    assert str(exc.value) == message
    assert cl.curve_from_coords([1, 0]).coords == (1, 0)
    assert cl.curve_from_d((1, 1, -1, 0)).d == (1, 1, -1, 0)


@pytest.mark.parametrize("make_fan", [p1xp1_fan, lambda: hirzebruch(1), lambda: p1_power(3)],
                         ids=["P1xP1", "F1", "(P1)^3"])
def test_positive_walk_takes_zero_coefficients(make_fan):
    # with the sum of the generators and the last one again appended, the
    # first positive combination is that class alone: zeros before the last
    cl = class_lattice(make_fan())
    total = cl.mori[-1]
    for g in cl.mori:
        total = total + g
    cl.__dict__["mori"] = cl.mori + (total,)
    assert cl.positive == total
    assert cl.positive == _positive_by_filtered_product(cl)


_LAZIES = {qsheaf.fan.Fan: ("_walk",),
           qsheaf.lattice.ClassLattice: ("equiv", "primitive_collections", "primitive_relations",
                                         "mori", "walls", "facets", "_facet_walls", "positive",
                                         "_representatives", "_mori_solve")}


@pytest.mark.parametrize("make_fan", [p2_fan, lambda: hirzebruch(1), blowup_p3_point],
                         ids=["P2", "F1", "BlptP3"])
def test_lazies_fill_the_instance_dict_once(make_fan):
    # fan._cached_property computes a lazy on its first read and stores it in
    # the instance __dict__, which then answers every later read, also on the
    # frozen Fan, whose own __setattr__ refuses; the class reads the descriptor
    built = make_fan()
    fan = qsheaf.fan.Fan(rank=built.rank, rays=built.rays, max_cones=built.max_cones)
    cl = class_lattice(built)
    for obj, names in ((fan, _LAZIES[qsheaf.fan.Fan]), (cl, _LAZIES[qsheaf.lattice.ClassLattice])):
        kind = type(obj)
        assert {name for name, attr in vars(kind).items()
                if isinstance(attr, qsheaf.fan._cached_property)} == set(names)
        for name in names:
            assert getattr(kind, name) is vars(kind)[name]
            obj.__dict__.pop(name, None)
            first = getattr(obj, name)
            assert obj.__dict__[name] is first
            assert getattr(obj, name) is first
    assert fan._walk == built._walk
