import itertools
import os
import random
import sys

import pytest
from hypothesis import strategies as st

from qsheaf import (Polynomial, PolyError, build_fan, class_lattice, h0, linear_part,
                    load_model, normal_form, parse_deformation, tangent_deformation,
                    transition)

MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


def p1_fan():
    return build_fan(1, [(1,), (-1,)], [(0,), (1,)])


def p2_fan():
    return build_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def p1xp1_fan():
    return build_fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)],
                     [(0, 2), (1, 2), (1, 3), (0, 3)])


def hirzebruch(n):
    return build_fan(2, [(1, 0), (-1, n), (0, 1), (0, -1)],
                     [(0, 2), (1, 2), (1, 3), (0, 3)])


def p1_power(k):
    """(P^1)^k with rays e_1, -e_1, e_2, -e_2, ..."""
    rays = []
    for i in range(k):
        e = tuple(1 if j == i else 0 for j in range(k))
        rays += [e, tuple(-x for x in e)]
    cones = [tuple(2 * i + s for i, s in enumerate(choice))
             for choice in itertools.product((0, 1), repeat=k)]
    return build_fan(k, rays, cones)


def hexagon():
    """dP3, the blowup of P2 in three points: six Mori generators in rank 4."""
    rays = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    return build_fan(2, rays, [(i, (i + 1) % 6) for i in range(6)])


def blown_up_p1xp1(n_rays):
    """The smooth surface with n_rays >= 4 rays blown up from P1xP1 at
    torus-fixed points: step k inserts v_i + v_(i+1) after the ray at
    position i = 2k (mod the ray count) of the counterclockwise cycle."""
    rays = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for k in range(n_rays - 4):
        i = 2 * k % len(rays)
        a, b = rays[i], rays[(i + 1) % len(rays)]
        rays.insert(i + 1, (a[0] + b[0], a[1] + b[1]))
    return build_fan(2, rays, [(i, (i + 1) % n_rays) for i in range(n_rays)])


def blowup_p3_point():
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)]
    cones = [(0, 1, 3), (1, 2, 3), (0, 2, 3), (0, 1, 4), (1, 2, 4), (0, 2, 4)]
    return build_fan(3, rays, cones)


# A smooth complete fan with no strictly convex support function: the six
# cones joining e1, e2, e3 to the inner triangle (2,1,1), (1,2,1), (1,1,2)
# are glued with a twist.
NON_PROJECTIVE_RAYS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1),
                       (2, 1, 1), (1, 2, 1), (1, 1, 2), (1, 1, 1)]
NON_PROJECTIVE_CONES = [(0, 1, 3), (1, 2, 3), (0, 2, 3), (4, 5, 7), (5, 6, 7),
                        (6, 4, 7), (0, 1, 5), (0, 4, 5), (1, 2, 6), (1, 5, 6),
                        (2, 0, 4), (2, 6, 4)]


def non_projective_fan():
    return build_fan(3, NON_PROJECTIVE_RAYS, NON_PROJECTIVE_CONES)


def all_fans():
    """The six worked examples: P1, P2, P1xP1, F1, F2, F3."""
    return [("P1", p1_fan()), ("P2", p2_fan()), ("P1xP1", p1xp1_fan()),
            ("F1", hirzebruch(1)), ("F2", hirzebruch(2)), ("F3", hirzebruch(3))]


INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)()


def poly_texts(max_pieces):
    """Strings in and around the polynomial syntax: symbols, numbers, the six
    operators and the slash, whitespace beyond the space, the superscript
    digit '²' (str.isdigit, yet not a digit int() reads), the Arabic-Indic
    three '٣' (one it does read), and digit runs at Python's int digit limit."""
    pieces = ["D", "D1", "D2", "D3", "D7", "0", "1", "2", "12", "3/2", "/", "+", "-", "*",
              "^", "(", ")", " ", "\t", "\n", "\xa0", "\u3000", "²", "٣", "%"]
    pieces += ["7" * n for n in range(INT_DIGIT_LIMIT - 1, INT_DIGIT_LIMIT + 2)]
    return st.lists(st.sampled_from(pieces), max_size=max_pieces).map("".join)


def beta_texts(max_pieces):
    """Strings in and around a --beta list of Mori coordinates: digits,
    signs, commas (so empty fields too), whitespace beyond the space, '٣'
    (a digit int() reads), '²' (one it does not), letters, an underscore,
    and digit runs at Python's int digit limit."""
    pieces = ["0", "1", "2", "7", "12", "-", "+", ",", ",", " ", "\t", "\u3000", "٣", "²",
              "x", "e", "_"]
    pieces += ["7" * n for n in range(INT_DIGIT_LIMIT - 1, INT_DIGIT_LIMIT + 2)]
    return st.lists(st.sampled_from(pieces), max_size=max_pieces).map("".join)


def class_of_ray(cl, rho):
    """The linear-equivalence class of the divisor D_rho."""
    (c,) = (c for c in cl.equiv if rho in c.members)
    return c


def q_of(lin, c):
    """Q_c = det A_c of the equivalence class c."""
    return lin.q[c.index]


def q_set_zero(p):
    """p with every q^beta, beta != 0, specialized to zero."""
    zero = (0,) * p.nq
    return Polynomial(p.nv, p.nq, {m: c for m, c in p.terms.items() if m[1] == zero})


def drop_q(p):
    """p without its Novikov coordinates; it must carry no nonzero exponent."""
    if p.has_q():
        raise PolyError("polynomial has nonzero Novikov exponents")
    return Polynomial(p.nv, 0, {(m, ()): c for (m, _), c in p.terms.items()})


def transfers(lin, bprime, beta):
    """transition(beta', beta) * Q_{K,beta} lies in (Q_{K,beta'}) for every
    primitive collection K, where Q_{K,beta} = prod_{c in K} Q_c^h0(d_c(beta)).
    One polynomial is a Groebner basis of the ideal it spans."""
    cl = lin.cl
    r = transition(lin, bprime, beta)

    def q_kb(K, b):
        return lin.q_product((c, h0(c.d(b))) for c in cl.classes_of(K.edges))
    return all(not normal_form(r * q_kb(K, beta), [q_kb(K, bprime)])
               for K in cl.primitive_collections)


def tangent_setup(fan):
    cl = class_lattice(fan)
    lin = linear_part(cl, tangent_deformation(cl))
    return cl, lin


def deformed_p1xp1(g1, g2, d1, d2):
    """P1xP1 with off-diagonal linear entries gamma_i, delta_i (as strings)."""
    cl = class_lattice(p1xp1_fan())
    raw = [
        (0, (0, 0), "D1"), (1, (0, 0), "D2"),
        (2, (0, 0), "D3"), (3, (0, 0), "D4"),
        (0, (-1, 0), f"{g1}*D3"), (1, (1, 0), f"{g2}*D3"),
        (2, (0, -1), f"{d1}*D1"), (3, (0, 1), f"{d2}*D1"),
    ]
    E = parse_deformation(cl, raw)
    return cl, E, linear_part(cl, E)


def deformed_p1_power(k, rng):
    """(P^1)^k with seeded off-diagonal entries at the characters -e_i, +e_i,
    both multiples of the class of factor i+1 (mod k); cl and LinearData."""
    cl, E = deformed_p1_power_entries(k, rng)
    return cl, linear_part(cl, E)


def deformed_setups():
    """LinearData of models/p1xp1_deformed.json, seeded deformed (P^1)^2
    (seeds 0 and 1) and deformed (P^1)^3 (seed 0)."""
    return [load_model(os.path.join(MODELS, "p1xp1_deformed.json")).lin] + [
        deformed_p1_power(k, random.Random(seed))[1] for k, seed in ((2, 0), (2, 1), (3, 0))]


def deformed_p1_power_entries(k, rng):
    """The deformation of deformed_p1_power: cl and the Deformation."""
    cl = class_lattice(p1_power(k))
    raw = [(rho, (0,) * k, f"D{rho + 1}") for rho in range(2 * k)]
    for i in range(k):
        e = tuple(1 if j == i else 0 for j in range(k))
        neighbour = 2 * ((i + 1) % k) + 1  # a ray of the class of factor i+1
        for rho, m in ((2 * i, tuple(-x for x in e)), (2 * i + 1, e)):
            coeff = f"{rng.choice((-1, 1)) * rng.randint(1, 5)}/{rng.randint(1, 7)}"
            raw.append((rho, m, f"{coeff}*D{neighbour}"))
    return cl, parse_deformation(cl, raw)


@pytest.fixture
def p1():
    return tangent_setup(p1_fan())


@pytest.fixture
def p2():
    return tangent_setup(p2_fan())


@pytest.fixture
def p1xp1():
    return tangent_setup(p1xp1_fan())


@pytest.fixture
def f1():
    return tangent_setup(hirzebruch(1))


@pytest.fixture
def f2():
    return tangent_setup(hirzebruch(2))
