"""End-to-end runs on rank-3 fans and a fully deformed projective plane."""

from fractions import Fraction
from itertools import combinations

from qsheaf import (beta_K, build_fan, class_lattice, correlator_series,
                    d_symbols, det, effective_window, find_anchor, linear_part,
                    parse_deformation, polymology, qsr_generators,
                    quantum_normal_form, sector, verify_qc_relation)
from qsheaf.poly import Polynomial

from _oracles import solve_columns
from conftest import drop_q, p2_fan, q_set_zero, tangent_setup


def p3_fan():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    return build_fan(3, rays, list(combinations(range(4), 3)))


def p1xp2_fan():
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1)]
    cones = [(a, b, c) for a in (0, 1) for b, c in combinations((2, 3, 4), 2)]
    return build_fan(3, rays, cones)


def test_p3_polymology_and_quantum_ring():
    cl, lin = tangent_setup(p3_fan())
    assert cl.pic_rank == 1
    result = polymology(lin)
    assert result.dims == (1, 1, 1, 1)
    psi = Polynomial.variable(1, 0)
    (rel,) = qsr_generators(lin)
    assert rel.lhs == psi ** 4
    assert rel.rhs == Polynomial.novikov(1, 1, rel.beta_k.coords)
    q = Polynomial.novikov(1, 1, cl.mori[0].coords)
    assert quantum_normal_form(lin, psi ** 4) == q
    # point-class ladder
    g = cl.mori[0]
    for k in range(3):
        rep = correlator_series(lin, psi ** (4 * k + 3), 12)
        assert rep.series == ((k * g, Fraction(1)),)


def test_p3_sector_data():
    cl, lin = tangent_setup(p3_fan())
    g = cl.mori[0]
    sec = sector(lin, g)
    # 4 rays each with d = 1 contribute two edges apiece
    assert len(sec.enhanced_edges) == 8
    assert sec.n_beta == 7
    assert not sec.degenerate


def test_p1xp2_batyrev_relations():
    cl, lin = tangent_setup(p1xp2_fan())
    assert cl.pic_rank == 2
    assert [c.members for c in cl.equiv] == [(0, 1), (2, 3, 4)]
    rels = qsr_generators(lin)
    assert [K.collection.edges for K in rels] == [(0, 1), (2, 3, 4)]
    syms = d_symbols(cl)
    assert rels[0].lhs == syms[0] * syms[1]
    assert rels[1].lhs == syms[2] * syms[3] * syms[4]
    assert rels[0].kminus == () and rels[1].kminus == ()
    for rel in rels:
        assert not quantum_normal_form(lin, rel.difference)


def test_p1xp2_theorem_window():
    cl, lin = tangent_setup(p1xp2_fan())
    for K in cl.primitive_collections:
        bk, _ = beta_K(cl, K)
        for beta in effective_window(cl, 5):
            anchor = find_anchor(cl, [beta, beta + bk])
            assert verify_qc_relation(lin, K, beta, anchor)
            assert verify_qc_relation(lin, K, beta, anchor, route="expand")


def _surface_intersection_oracle(fan):
    """Intersection numbers D_i . D_j of a smooth toric surface.

    Independent route: the wall curve of the ray i is the divisor D_i, and
    its relation vector v_a + v_b + sum(lam * v) = 0 lists every pairing
    D_i . D_j directly.  No class-lattice machinery involved.
    """
    pairs = {}
    for i in range(fan.n_rays):
        owners = [sigma for sigma in fan.max_cones if i in sigma]
        assert len(owners) == 2
        (a,) = set(owners[0]) - {i}
        (b,) = set(owners[1]) - {i}
        target = [Fraction(fan.rays[a][k] + fan.rays[b][k]) for k in range(2)]
        (lam,) = solve_columns([[Fraction(x) for x in fan.rays[i]]], target)
        d = [0] * fan.n_rays
        d[a] = 1
        d[b] = 1
        d[i] = -int(lam)
        pairs[i] = d
    return pairs


def test_classical_pairing_matches_intersection_numbers():
    # the anchor convention fixes correlators up to one scalar per anchor, so
    # the classical pairing matrix must be a single rational multiple of the
    # honest intersection matrix (and exactly equal where that scalar is 1)
    from conftest import all_fans
    from qsheaf import correlator_sector, find_anchor

    for name, fan in all_fans():
        if fan.rank != 2:
            continue
        cl, lin = tangent_setup(fan)
        oracle = _surface_intersection_oracle(fan)
        anchor = find_anchor(cl, [cl.zero_curve])
        syms = d_symbols(cl)
        scale = None
        for i in range(fan.n_rays):
            for j in range(fan.n_rays):
                value = correlator_sector(lin, syms[i] * syms[j],
                                          cl.zero_curve, anchor)
                expected = oracle[i][j]
                if expected == 0:
                    assert value == 0, (name, i, j)
                    continue
                ratio = value / expected
                if scale is None:
                    scale = ratio
                assert ratio == scale, (name, i, j)
        assert scale is not None and scale > 0
        if name in ("P2", "P1xP1"):
            assert scale == 1


def deformed_p2(eps: str):
    """Full 3x3 circulant deformation of the plane's Euler map."""
    cl = class_lattice(p2_fan())
    raw = [(0, (0, 0), "D1"), (1, (0, 0), "D2"), (2, (0, 0), "D3"),
           (0, (-1, 1), f"{eps}*D2"),   # slot (0,1)
           (1, (0, -1), f"{eps}*D3"),   # slot (1,2)
           (2, (1, 0), f"{eps}*D1")]    # slot (2,0)
    E = parse_deformation(cl, raw)
    return cl, E, linear_part(cl, E)


def test_deformed_p2_full_matrix():
    eps = Fraction(1, 5)
    cl, E, lin = deformed_p2("1/5")
    psi = Polynomial.variable(1, 0)
    zero = Polynomial.zero(1)
    expected = [[psi, eps * psi, zero],
                [zero, psi, eps * psi],
                [eps * psi, zero, psi]]
    assert lin.matrices[0] == tuple(tuple(r) for r in expected)
    # circulant determinant: (1 + eps^3) psi^3
    assert lin.q[0] == det(expected) == (1 + eps ** 3) * psi ** 3
    assert polymology(lin).dims == (1, 1, 1)
    (rel,) = qsr_generators(lin)
    assert rel.lhs == (1 + eps ** 3) * psi ** 3
    assert drop_q(q_set_zero(rel.difference)) == rel.lhs
    K = cl.primitive_collections[0]
    bk, _ = beta_K(cl, K)
    for beta in effective_window(cl, 6):
        anchor = find_anchor(cl, [beta, beta + bk])
        assert verify_qc_relation(lin, K, beta, anchor)
        assert verify_qc_relation(lin, K, beta, anchor, route="expand")


def test_deformed_p2_correlators_rescale():
    from qsheaf import correlator_sector

    c = 1 + Fraction(1, 5) ** 3  # Q_c = c * psi^3
    cl, _, lind = deformed_p2("1/5")
    psi = Polynomial.variable(1, 0)
    g = cl.mori[0]
    # against its own anchor, each transition contributes one factor of c
    repd = correlator_series(lind, psi ** 5, 8)
    assert repd.series == ((g, c),)
    # the anchor-independent ratio sees the relation c psi^3 = q
    anchor = find_anchor(cl, [cl.zero_curve, g]) + g
    top = correlator_sector(lind, psi ** 5, g, anchor)
    classical = correlator_sector(lind, psi ** 2, cl.zero_curve, anchor)
    assert top / classical == 1 / c
