import itertools
import random
import re
from fractions import Fraction

import pytest

import qsheaf.fan
from qsheaf import (DuplicateRay, IncompleteFan, NonPrimitiveRay, Fan, NonUnimodularCone,
                    build_fan, det, locate_cone, primitive_collections)
from qsheaf.linalg import inverse

from _oracles import primitive_collections_by_subsets, solve_columns, walls_by_pairing
from conftest import (all_fans, blowup_p3_point, blown_up_p1xp1, hexagon, hirzebruch,
                      p1_fan, p1_power, p1xp1_fan, p2_fan)


def test_p1_is_smallest_complete_smooth_fan():
    fan = p1_fan()
    assert fan.rank == 1
    assert fan.n_rays == 2
    assert fan.h_vector() == (1, 1)


def test_hirzebruch_matches_paper_data():
    fan = hirzebruch(3)
    assert fan.rays == ((1, 0), (-1, 3), (0, 1), (0, -1))
    assert len(fan.max_cones) == 4


def test_non_unimodular_cone_rejected():
    # the first listed cone, where the walk starts, is the singular one
    with pytest.raises(NonUnimodularCone, match=re.escape(
            "cone (0, 1) has determinant -2; fan is not smooth")):
        build_fan(2, [(0, 1), (2, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def test_non_primitive_ray_rejected():
    with pytest.raises(NonPrimitiveRay):
        build_fan(2, [(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def test_duplicate_ray_rejected():
    with pytest.raises(DuplicateRay):
        build_fan(2, [(1, 0), (1, 0), (0, 1)], [(0, 2), (1, 2)])


def test_incomplete_fan_rejected():
    with pytest.raises(IncompleteFan, match=re.escape(
            "facet (0,) lies in 1 maximal cone(s); support does not close up")):
        build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])


def test_facet_in_three_cones_rejected():
    with pytest.raises(IncompleteFan, match=re.escape("facet (0,) lies in 3 maximal cone(s)")):
        build_fan(2, [(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 1), (1, 2), (0, 2), (0, 3)])


def test_one_cone_rank_one_fan_rejected():
    with pytest.raises(IncompleteFan, match=re.escape("facet () lies in 1 maximal cone(s)")):
        build_fan(1, [(1,)], [(0,)])


def test_wrong_cone_arity_rejected():
    with pytest.raises(NonUnimodularCone, match=re.escape(
            "maximal cone (0, 1, 2) does not have exactly 2 distinct rays")):
        build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1, 2)])


def test_overlapping_cones_rejected():
    # facet pairing holds but the quadrant cone overlaps its two subcones
    with pytest.raises(IncompleteFan, match=re.escape(
            "maximal cones sharing facet (0,) overlap on one side")):
        build_fan(2, [(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2), (1, 2)])


def _walk_fans():
    """The fans the walk's oracle checks run on: (P^1)^k for k <= 5, F_a for
    a <= 3, dP3, P1xP1 blown up to eight rays, and Bl_pt P^3."""
    return ([p1_power(k) for k in range(1, 6)] + [hirzebruch(a) for a in range(4)]
            + [hexagon(), blown_up_p1xp1(8), blowup_p3_point()])


def test_wall_relations_stored_by_build_fan():
    fans = [fan for _, fan in all_fans()] + _walk_fans()
    for fan in fans:
        # the walk's pivots against rational elimination, facet by facet
        assert fan.walls == walls_by_pairing(fan), fan.rays
        facets = {facet for sigma in fan.max_cones
                  for facet in itertools.combinations(sigma, fan.rank - 1)}
        assert [facet for facet, _ in fan.walls] == sorted(facets)
        for facet, d in fan.walls:
            a, b = [rho for rho in range(fan.n_rays) if rho not in facet and d[rho]]
            assert d[a] == d[b] == 1
            assert all(sum(d[rho] * fan.rays[rho][j] for rho in range(fan.n_rays)) == 0
                       for j in range(fan.rank))
            # the two cones of the wall, with their opposite rays on opposite sides
            cones = [tuple(sorted(facet + (c,))) for c in (a, b)]
            assert all(sigma in fan.max_cones for sigma in cones)
            assert sum(det([fan.rays[i] for i in facet + (c,)]) for c in (a, b)) == 0


def test_duals_pair_to_the_identity_with_their_cone():
    fans = [fan for _, fan in all_fans()] + _walk_fans() + [blown_up_p1xp1(6)]
    for fan in fans:
        assert list(fan.duals) == list(fan.max_cones)
        for sigma, duals in fan.duals.items():
            assert [[sum(a * b for a, b in zip(m, fan.rays[j])) for j in sigma]
                    for m in duals] == [[int(i == j) for j in sigma] for i in sigma]
            # the exchange gives the cone's own inverse, not only some dual basis
            assert (duals, 1) == inverse(list(zip(*(fan.rays[i] for i in sigma)))), sigma


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_walk_takes_one_inverse_per_component_and_no_determinant(monkeypatch):
    inverses = _count_calls(monkeypatch, qsheaf.fan, "inverse")
    dets = _count_calls(monkeypatch, qsheaf.fan, "det")
    fan = p1_power(5)
    assert (len(fan.max_cones), len(inverses), len(dets)) == (32, 1, 0)
    # two copies of P^2's fan, one turned by a half turn: every facet pairs
    # up on opposite sides, but the facet graph has two components, so the
    # walk from the first cone refuses the first cone of the second one
    # before it takes a second inverse
    inverses.clear()
    with pytest.raises(IncompleteFan, match=re.escape(
            "cone (3, 4) is not reached from cone (0, 1) across shared facets; "
            "a complete fan's facet graph is connected")):
        build_fan(2, [(1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)],
                  [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert (len(inverses), len(dets)) == (1, 0)


def test_cone_reached_by_exchange_refused_with_its_determinant(monkeypatch):
    # the walk starts at (0, 1), reaches (1, 2) with pivot -1, then (0, 2)
    # with pivot -2: only the refusal computes a determinant
    dets = _count_calls(monkeypatch, qsheaf.fan, "det")
    with pytest.raises(NonUnimodularCone, match=re.escape(
            "cone (0, 2) has determinant -2; fan is not smooth")):
        build_fan(2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (0, 2)])
    assert dets == [([(1, 0), (-1, -2)],)]


def test_fan_equality_ignores_cached_walls():
    fan = p1_fan()
    bare = Fan(rank=fan.rank, rays=fan.rays, max_cones=fan.max_cones)
    assert bare == fan and hash(bare) == hash(fan)
    assert bare.walls == fan.walls == (((), (1, 1)),)


def test_primitive_collections_examples():
    assert [pc.edges for pc in primitive_collections(p2_fan())] == [(0, 1, 2)]
    assert [pc.edges for pc in primitive_collections(p1xp1_fan())] == [(0, 1), (2, 3)]
    for n in (1, 2, 3):
        assert [pc.edges for pc in primitive_collections(hirzebruch(n))] == [(0, 1), (2, 3)]


def test_primitive_collection_definition_restated():
    for _, fan in all_fans():
        faces = fan.cone_faces()
        for pc in primitive_collections(fan):
            assert pc.edges not in faces
            for i in range(pc.k):
                subset = pc.edges[:i] + pc.edges[i + 1:]
                assert subset in faces
            for sigma in fan.max_cones:
                assert not set(pc.edges) <= set(sigma)


def test_primitive_collections_match_the_subset_walk():
    # the minimal non-faces, built from faces plus one ray, against every
    # ray subset tested by definition; both in (size, lex) order
    fans = [blown_up_p1xp1(n) for n in range(4, 13)] + [hexagon(), blowup_p3_point()]
    fans += [p1_power(k) for k in range(2, 6)] + [hirzebruch(a) for a in range(4)]
    for fan in fans:
        assert (tuple(pc.edges for pc in primitive_collections(fan))
                == primitive_collections_by_subsets(fan)), fan.rays


def test_fan_reconstruction_from_primitive_collections():
    for _, fan in all_fans():
        pcs = primitive_collections(fan)
        reconstructed = set()
        for k in range(fan.n_rays + 1):
            for s in itertools.combinations(range(fan.n_rays), k):
                if not any(set(pc.edges) <= set(s) for pc in pcs):
                    reconstructed.add(s)
        assert reconstructed == set(fan.cone_faces())


def test_locate_cone_examples():
    # F_n: v1 + v2 = (0, n) sits on the ray rho3 with coefficient n
    for n in (1, 2, 3):
        cone, coeffs = locate_cone(hirzebruch(n), (0, n))
        assert cone == (2,)
        assert coeffs == (Fraction(n),)
    assert locate_cone(p2_fan(), (0, 0)) == ((), ())
    cone, coeffs = locate_cone(p1xp1_fan(), (2, 3))
    assert cone == (0, 2)
    assert coeffs == (Fraction(2), Fraction(3))


def _relint_faces(fan, point):
    """Brute force: faces whose relative interior contains the point."""
    hits = []
    for face in fan.cone_faces():
        if not face:
            if all(x == 0 for x in point):
                hits.append(face)
            continue
        cols = [[Fraction(fan.rays[i][j]) for j in range(fan.rank)] for i in face]
        sol = solve_columns(cols, [Fraction(x) for x in point])
        if sol is not None and all(c > 0 for c in sol):
            hits.append(face)
    return hits


def test_locate_cone_is_a_partition():
    rng = random.Random(11)
    fans = [fan for _, fan in all_fans()]
    for trial in range(1000):
        fan = fans[trial % len(fans)]
        point = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                      for _ in range(fan.rank))
        hits = _relint_faces(fan, point)
        assert len(hits) == 1
        cone, coeffs = locate_cone(fan, point)
        assert cone == tuple(sorted(hits[0]))
        assert all(c > 0 for c in coeffs)
        recombined = [sum(c * fan.rays[i][j] for c, i in zip(coeffs, cone))
                      for j in range(fan.rank)]
        assert tuple(recombined) == tuple(Fraction(x) for x in point)


def test_h_vector_from_face_counts():
    assert p2_fan().h_vector() == (1, 1, 1)
    assert p1xp1_fan().h_vector() == (1, 2, 1)
    assert hirzebruch(2).h_vector() == (1, 2, 1)
