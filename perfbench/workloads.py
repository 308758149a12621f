"""Seeded inputs and the four workloads of the qsheaf benchmark.

A workload's ``setup(seed, root)`` builds every input of one pass through
the public ``qsheaf`` API and returns a Plan: the queries of the pass, in
the order a single client sends them, each with a check of its result.
The seed is consumed here; the package only ever sees the generated fans,
deformations and polynomials.  Package functions are looked up on their
modules at call time, so a traced run's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import glob
import io
import itertools
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import qsheaf
import qsheaf.cli

import oracles

# Magnitudes below 1, so eps_i = gamma * gamma' can never make (P^1)^2
# degenerate; the cost of a deformed series barely depends on which is drawn.
DEFORM_MAGNITUDES = tuple(Fraction(p, q) for q in (2, 3, 5, 7) for p in (1, 2, 3) if p < q)


@dataclass
class Query:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the result is right
    phase: str = ""


@dataclass
class Plan:
    queries: list
    close: Callable[[], dict] = field(default=lambda: {})  # returns extra measurements


# ---- seeded model generators ----------------------------------------------

def projective_space(n: int):
    rays = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    return qsheaf.build_fan(n, rays, list(itertools.combinations(range(n + 1), n)))


def p1_power(k: int):
    """(P^1)^k with rays e_1, -e_1, e_2, -e_2, ..."""
    rays = []
    for i in range(k):
        e = tuple(1 if j == i else 0 for j in range(k))
        rays += [e, tuple(-x for x in e)]
    cones = [tuple(2 * i + s for i, s in enumerate(choice))
             for choice in itertools.product((0, 1), repeat=k)]
    return qsheaf.build_fan(k, rays, cones)


def hirzebruch(a: int):
    return qsheaf.build_fan(2, [(1, 0), (-1, a), (0, 1), (0, -1)],
                            [(0, 2), (1, 2), (1, 3), (0, 3)])


def blowup_p3_point():
    """P^3 blown up at the torus-fixed point of the cone (e1, e2, e3)."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 1)]
    cones = [(0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4)]
    return qsheaf.build_fan(3, rays, cones)


def _lattice(fan):
    cl = qsheaf.class_lattice(fan)
    cl.mori  # noqa: B018 - Mori generators are computed lazily; build them here
    return cl


def tangent_model(fan):
    cl = _lattice(fan)
    return cl, qsheaf.linear_part(cl, qsheaf.tangent_deformation(cl))


def _rational(rng: random.Random) -> Fraction:
    return rng.choice(DEFORM_MAGNITUDES) * rng.choice((1, -1))


def deformed_p1_power(k: int, rng: random.Random):
    """(P^1)^k with seeded off-diagonal entries at the characters -e_i, +e_i.

    Both entries of factor i are multiples of the class of factor i+1
    (mod k), so Q_i = H_i^2 - eps_i H_(i+1)^2 with eps_i their product.
    Draws that polymology flags as degenerate are rejected.
    """
    cl = _lattice(p1_power(k))
    zero = (0,) * k
    while True:
        raw = [(rho, zero, f"D{rho + 1}") for rho in range(2 * k)]
        eps = []
        for i in range(k):
            e = tuple(1 if j == i else 0 for j in range(k))
            neighbour = 2 * ((i + 1) % k) + 1  # 1-based symbol of a ray of class H_(i+1)
            gamma, gamma2 = _rational(rng), _rational(rng)
            raw.append((2 * i, tuple(-x for x in e), f"{gamma}*D{neighbour}"))
            raw.append((2 * i + 1, e, f"{gamma2}*D{neighbour}"))
            eps.append(gamma * gamma2)
        deformation = qsheaf.parse_deformation(cl, raw)
        try:
            # a throwaway LinearData, so the query memos start empty
            qsheaf.polymology(qsheaf.linear_part(cl, deformation))
        except qsheaf.DegenerateDeformation:
            continue
        return cl, qsheaf.linear_part(cl, deformation), eps


def circulant_p2(rng: random.Random):
    """P^2 with the full 3x3 circulant deformation of its Euler map."""
    cl = _lattice(projective_space(2))
    eps = _rational(rng)
    raw = [(0, (0, 0), "D1"), (1, (0, 0), "D2"), (2, (0, 0), "D3"),
           (0, (-1, 1), f"{eps}*D2"), (1, (0, -1), f"{eps}*D3"), (2, (1, 0), f"{eps}*D1")]
    return cl, qsheaf.linear_part(cl, qsheaf.parse_deformation(cl, raw))


def insertion_coeffs(n_rays: int, rng: random.Random, seed: int) -> list:
    """Seeded positive coefficients c_rho of L = sum c_rho D_rho; seed 0 gives -K."""
    if seed == 0:
        return [1] * n_rays
    return [rng.randint(1, 3) for _ in range(n_rays)]


def insertion(cl, coeffs):
    syms = qsheaf.d_symbols(cl)
    total = syms[0] * coeffs[0]
    for s, c in zip(syms[1:], coeffs[1:]):
        total = total + s * c
    return total


def nonempty_degrees(cl, t_max: int) -> list:
    """c1-degrees t <= t_max reached by a nonnegative sum of Mori generators."""
    weights = [g.c1() for g in cl.mori]
    reach = {0}
    for t in range(1, t_max + 1):
        if any(t - w in reach for w in weights if 0 < w <= t):
            reach.add(t)
    return sorted(reach)


def p1_power_slice(k: int, t: int) -> list:
    """d-vectors of the degree-t slice of (P^1)^k."""
    if t % 2:
        return []
    out = []
    for a in itertools.product(range(t // 2 + 1), repeat=k):
        if sum(a) == t // 2:
            out.append(tuple(x for ai in a for x in (ai, ai)))
    return out


# ---- series workloads -------------------------------------------------------

def _series_query(label, lin, L, t, expect):
    rank = lin.cl.fan.rank

    def call():
        return qsheaf.correlator_series(lin, L ** (rank + t), t)

    def check(report):
        return oracles.compare_series(report.series, expect())

    return Query(label, call, check)


# Expected values are pure functions of (workload, seed, query); computing
# them once per process keeps oracle time out of all but the first pass.
_EXPECTED: dict = {}


def _expected(key, fn):
    def get():
        if key not in _EXPECTED:
            _EXPECTED[key] = fn()
        return _EXPECTED[key]
    return get


TANGENT_LADDER = (
    ("P2", lambda: projective_space(2), 9),
    ("P3", lambda: projective_space(3), 8),
    ("F1", lambda: hirzebruch(1), 5),
    ("P1^3", lambda: p1_power(3), 6),
    ("P1^4", lambda: p1_power(4), 4),
    ("BlptP3", blowup_p3_point, 5),
)


def setup_series_tangent(seed: int, root: str) -> Plan:
    rng = random.Random(seed)
    recorded = oracles.load_recorded()
    queries = []
    for name, make_fan, t_max in TANGENT_LADDER:
        cl, lin = tangent_model(make_fan())
        coeffs = insertion_coeffs(cl.fan.n_rays, rng, seed)
        L = insertion(cl, coeffs)
        k = cl.fan.rank
        for t in nonempty_degrees(cl, t_max):
            label = f"{name} t={t}"
            if name.startswith("P1^"):
                expect = _expected(("tangent", seed, label), lambda k=k, t=t, c=coeffs:
                                   oracles.p1_power_tangent(k, p1_power_slice(k, t), c))
            else:
                expect = _expected(("tangent", seed, label), lambda e=recorded[name][str(t)],
                                   classes=cl.divisor_classes, c=coeffs:
                                   oracles.recorded_tangent(e, oracles.coordinates_in(
                                       classes, e["basis_rays"], c)))
            queries.append(_series_query(label, lin, L, t, expect))
    return Plan(queries)


def setup_series_deformed(seed: int, root: str) -> Plan:
    rng = random.Random(seed)
    queries = []
    for name, k, t_max in (("dP1^2a", 2, 12), ("dP1^2b", 2, 10), ("dP1^3", 3, 2)):
        cl, lin, eps = deformed_p1_power(k, rng)
        coeffs = insertion_coeffs(cl.fan.n_rays, rng, seed)
        L = insertion(cl, coeffs)
        for t in nonempty_degrees(cl, t_max):
            label = f"{name} t={t}"
            expect = _expected(("deformed", seed, label), lambda k=k, e=eps, t=t, c=coeffs:
                               oracles.deformed_p1_power(k, e, p1_power_slice(k, t), c))
            queries.append(_series_query(label, lin, L, t, expect))
    cl, lin = circulant_p2(rng)
    L = insertion(cl, insertion_coeffs(cl.fan.n_rays, rng, seed))
    for t in nonempty_degrees(cl, 9):
        # Picard rank 1: one sector per slice, d = (t/3, t/3, t/3)
        expect = (lambda t=t: {oracles.d_key((t // 3,) * 3): Fraction(1)})
        queries.append(_series_query(f"dP2circ t={t}", lin, L, t, expect))
    return Plan(queries)


# ---- verify-window ---------------------------------------------------------

def setup_verify_window(seed: int, root: str) -> Plan:
    rng = random.Random(seed)
    models = [("P1^4", *tangent_model(p1_power(4)), 4),
              ("P1^5", *tangent_model(p1_power(5)), 2),
              ("F1", *tangent_model(hirzebruch(1)), 6),
              ("F3", *tangent_model(hirzebruch(3)), 6),
              ("BlptP3", *tangent_model(blowup_p3_point()), 6),
              ("dP1^2", *deformed_p1_power(2, rng)[:2], 6)]
    queries = []
    for name, cl, lin, grid in models:
        window = qsheaf.effective_window(cl, grid, coeff_bound=grid)
        for K in cl.primitive_collections:
            bk, _ = qsheaf.beta_K(cl, K)
            for beta in window:
                expand = len(queries) % 5 == 0

                def call(cl=cl, lin=lin, K=K, beta=beta, bk=bk, expand=expand):
                    anchor = qsheaf.find_anchor(cl, [beta, beta + bk])
                    ok = qsheaf.verify_qc_relation(lin, K, beta, anchor)
                    if expand:
                        ok = ok and qsheaf.verify_qc_relation(lin, K, beta, anchor,
                                                              route="expand")
                    return ok

                queries.append(Query(f"{name} K={K.edges} d={beta.d}", call,
                                     lambda ok: None if ok is True else "relation failed"))
    return Plan(queries)


# ---- cli-batch -------------------------------------------------------------

WARM_PASSES = 3


def cli_commands(root: str, rng: random.Random) -> list:
    commands = []
    for path in sorted(glob.glob(os.path.join(root, "models", "*.json"))):
        model = qsheaf.load_model(path)
        cl = model.cl
        commands += [["analyze", path], ["polymology", path], ["qsr", path]]
        r = len(cl.mori)
        for j in range(r):
            beta = ",".join("1" if i == j else "0" for i in range(r))
            commands.append(["sector", path, "--beta", beta])
        if all(g.c1() > 0 for g in cl.mori):
            total = "+".join(f"D{rho + 1}" for rho in range(cl.fan.n_rays))
            for t in range(7):
                commands.append(["correlator", path, "--poly", f"({total})^{cl.fan.rank + t}"])
        commands.append(["verify", path, "--all", "--grid", "4"])
    if not commands:
        raise FileNotFoundError(f"no models/*.json under {root}")
    rng.shuffle(commands)
    return commands


def run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qsheaf.cli.run(argv)
    return code, out.getvalue()


def setup_cli_batch(seed: int, root: str) -> Plan:
    """One cold pass against a fresh QSHEAF_CACHE, then WARM_PASSES warm ones."""
    commands = cli_commands(root, random.Random(seed))
    store = tempfile.mkdtemp(prefix="cache-", dir=os.path.join(root, ".perfbench-out"))
    previous = os.environ.get("QSHEAF_CACHE")
    os.environ["QSHEAF_CACHE"] = store
    cold = {}
    queries = []
    for i, argv in enumerate(commands):
        label = " ".join([argv[0], os.path.basename(argv[1])] + argv[2:])

        def check_cold(result, i=i):
            code, text = result
            cold[i] = text
            return None if code == 0 else f"exit code {code}"

        queries.append(Query(label, lambda argv=argv: run_cli(argv), check_cold, "cold"))
    for _ in range(WARM_PASSES):
        for i, argv in enumerate(commands):
            def check_warm(result, i=i):
                code, text = result
                if code != 0:
                    return f"exit code {code}"
                return None if text == cold.get(i) else "warm output differs from cold"

            queries.append(Query(queries[i].label, lambda argv=argv: run_cli(argv),
                                 check_warm, "warm"))

    def close() -> dict:
        size = sum(os.path.getsize(p) for p in glob.glob(os.path.join(store, "*")))
        shutil.rmtree(store, ignore_errors=True)
        if previous is None:
            os.environ.pop("QSHEAF_CACHE", None)
        else:
            os.environ["QSHEAF_CACHE"] = previous
        return {"cache.store_bytes": size}

    return Plan(queries, close)


# name -> (set-up, raw seconds one cycle took at the reference commit on a
# shared 2-core 2.1 GHz Xeon VM).  A run makes seconds / cycle time cycles, a
# fixed amount of work, so every run of a workload pools the same number of
# samples.
WORKLOADS = {
    "series-tangent": (setup_series_tangent, 2.5),
    "series-deformed": (setup_series_deformed, 4.4),
    "verify-window": (setup_verify_window, 2.6),
    "cli-batch": (setup_cli_batch, 3.2),
}
