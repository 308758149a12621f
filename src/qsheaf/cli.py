"""Batch command line front end.

Subcommands: analyze, polymology, sector, qsr, correlator, verify.  Reports
are deterministic (stable ordering, fixed seeds, no timestamps); text and
JSON renderings carry the same content.  Exit codes: 0 success, 1 validation
or usage error or a closed stdout pipe, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import cache
from .fan import FanError
from .lattice import LatticeError, effective_cones_coincide, find_anchor
from .poly import (PolyError, Polynomial, echo, parse_polynomial, rational_str,
                   signed_sum)
from .deform import DeformError, d_symbols, local_freeness_check, polymology
from .sectors import SectorError, sector, sector_ideal
from .quantum import (QuantumError, correlator_series, effective_window,
                      novikov_series_str, novikov_symbol, qsr_generators,
                      verify_qc_relation)
from .model import Model, ModelError, load_model, read_int

SCHEMA = "qsheaf-report/1"


class UsageError(ValueError):
    """A malformed command line: unknown command or flag, missing or bad value."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


VALIDATION_ERRORS = (FanError, LatticeError, PolyError, DeformError,
                     SectorError, QuantumError, ModelError, ValueError)


def _beta_dict(cl, beta) -> dict:
    d = {"coords": list(beta.coords), "d": list(beta.d)}
    mori = cl.mori_coordinates(beta)
    if mori is not None:
        d["mori"] = list(mori)
    return d


def _display_poly(cl, p: Polynomial) -> str:
    """Render with Novikov exponents in Mori coordinates when possible."""
    if cl.mori_is_basis:
        return p.map_q(cl.to_mori, p.nq).to_str()
    return p.to_str(q_names=[f"qc{j + 1}" for j in range(p.nq)])


def _beta_str(beta: dict) -> str:
    """Text form of a _beta_dict."""
    return f"d={beta['d']}" + (f" mori={beta['mori']}" if "mori" in beta else "")


# ---- subcommands -----------------------------------------------------------

def _psi_legend(cl) -> list:
    """Each Picard basis generator as a combination of divisor symbols."""
    return [{"symbol": f"psi{k + 1}",
             "in_divisors": signed_sum((cl._section[rho][k], f"D{rho + 1}")
                                       for rho in range(cl.fan.n_rays)
                                       if cl._section[rho][k])}
            for k in range(cl.pic_rank)]


def cmd_analyze(model: Model, args) -> tuple:
    cl = model.cl
    fan = model.fan
    trials = args.trials if args.trials is not None else model.option("trials")
    verdict = local_freeness_check(cl, model.deformation, trials=trials)
    coincide = effective_cones_coincide(cl)
    bk_rows = [{"collection": list(K.edges), "beta": _beta_dict(cl, bk),
                "kminus": [{"class_index": c.index, "members": list(c.members),
                            "multiplicity": m} for c, m in kminus]}
               for K, (bk, kminus) in cl.primitive_relations.items()]
    body = {
        "fan": {"rank": fan.rank, "rays": [list(v) for v in fan.rays],
                "max_cones": [list(c) for c in fan.max_cones]},
        "pic_rank": cl.pic_rank,
        "divisor_classes": [{"ray": rho, "symbol": f"D{rho + 1}",
                             "class": list(cl.divisor_classes[rho])}
                            for rho in range(fan.n_rays)],
        "picard_basis": _psi_legend(cl),
        "equiv_classes": [{"index": c.index, "members": list(c.members),
                           "class": list(c.vec)} for c in cl.equiv],
        "primitive_collections": [list(K.edges) for K in cl.primitive_collections],
        "mori_generators": [{"symbol": f"q{j + 1}", "coords": list(g.coords),
                             "d": list(g.d), "c1": g.c1()}
                            for j, g in enumerate(cl.mori)],
        "beta_K": bk_rows,
        "effective_cones_coincide": coincide,
        "deformation": {"is_tangent": model.deformation.is_tangent,
                        "entries": [{"rho": e.rho, "m": list(e.m),
                                     "coeff": e.coeff.to_str(),
                                     "coeff_input": e.source}
                                    for e in model.deformation.entries]},
        "local_freeness": {"passed": verdict.passed,
                           "witness": None if verdict.witness is None
                           else [rational_str(x) for x in verdict.witness],
                           "trials": trials, "note": verdict.note},
    }
    lines = [
        f"fan: rank {fan.rank}, {fan.n_rays} rays, {len(fan.max_cones)} maximal cones",
        f"pic rank: {cl.pic_rank}",
    ]
    lines += [f"  [{row['symbol']}] = {row['class']}" for row in body["divisor_classes"]]
    lines.append("picard basis:")
    lines += [f"  {row['symbol']} = {row['in_divisors']}" for row in body["picard_basis"]]
    lines.append("equivalence classes:")
    lines += [f"  c{c['index']}: rays {c['members']} class {c['class']}"
              for c in body["equiv_classes"]]
    lines.append("primitive collections:")
    lines += [f"  {pc}" for pc in body["primitive_collections"]]
    lines.append("mori generators:")
    lines += [f"  {g['symbol']}: d={g['d']} c1={g['c1']}" for g in body["mori_generators"]]
    lines.append("beta_K:")
    for row in bk_rows:
        km = ", ".join(f"c{e['class_index']}^{e['multiplicity']}" for e in row["kminus"])
        lines.append(f"  K={row['collection']}: d={row['beta']['d']}"
                     + (f" [K-]: {km}" if km else ""))
    lines.append(f"beta_K cone == wall-curve cone: {coincide}")
    lines.append(f"deformation: {'tangent bundle' if model.deformation.is_tangent else 'deformed'}"
                 f" ({len(model.deformation.entries)} entries)")
    if not model.deformation.is_tangent:
        for e in model.deformation.entries:
            src = f"  (input: {e.source})" if e.source else ""
            lines.append(f"  rho={e.rho} m={list(e.m)}: {e.coeff.to_str()}{src}")
    lines.append(f"local freeness ({trials} trials): "
                 + ("pass (probabilistic)" if verdict.passed
                    else f"FAIL witness={body['local_freeness']['witness']}"))
    return lines, body, 0


def cmd_polymology(model: Model, args) -> tuple:
    cl = model.cl
    result = polymology(model.lin)
    body = {
        "sr_generators": [g.to_str() for g in sector_ideal(model.lin, cl.zero_curve)],
        "groebner_basis": [g.to_str() for g in result.gb.polys],
        "dims": list(result.dims),
        "generator": result.generator.to_str(),
        "h_vector": list(model.fan.h_vector()),
        "divisor_classes": [{"symbol": f"D{rho + 1}",
                             "class": list(cl.divisor_classes[rho])}
                            for rho in range(model.fan.n_rays)],
    }
    lines = ["stanley-reisner generators:"]
    lines += [f"  {s}" for s in body["sr_generators"]]
    lines.append("groebner basis:")
    lines += [f"  {s}" for s in body["groebner_basis"]]
    lines.append("graded dims: " + ",".join(str(d) for d in result.dims))
    lines.append(f"top-degree generator: {body['generator']}")
    lines.append("h-vector: " + ",".join(str(h) for h in body["h_vector"]))
    return lines, body, 0


def _parse_beta(model: Model, text: str):
    cl = model.cl
    coeffs = []
    for k, field in enumerate(text.split(","), 1):
        if not field.strip():
            raise ModelError(f"--beta field {k} of {echo(text)} is empty")
        n = read_int(field, f"--beta field {k}")
        if n is None:
            raise ModelError(f"--beta field {k} of {echo(text)} is not an integer")
        coeffs.append(n)
    if len(coeffs) != len(cl.mori):
        raise ModelError(
            f"--beta needs {len(cl.mori)} Mori coordinates, got {len(coeffs)}")
    return cl.from_mori(coeffs)


def cmd_sector(model: Model, args) -> tuple:
    if not args.beta:
        raise ModelError("sector requires --beta <comma-separated Mori coordinates>")
    cl = model.cl
    beta = _parse_beta(model, args.beta)
    sec = sector(model.lin, beta)
    body = {
        "beta": _beta_dict(cl, beta),
        "enhanced_edges": [list(e) for e in sec.enhanced_edges],
        "degenerate_edges": [list(e) for e in sec.degenerate],
        "n_beta": sec.n_beta,
        "nonempty": sec.nonempty,
        "effective": sec.effective,
        "ideal_generators": [g.to_str() for g in sector_ideal(model.lin, beta)],
    }
    lines = [
        f"sector beta: {_beta_str(body['beta'])}",
        f"enhanced edges ({len(sec.enhanced_edges)}): "
        + " ".join(f"({r},{i})" for r, i in sec.enhanced_edges),
        f"degenerate edges: " + (" ".join(f"({r},{i})" for r, i in sec.degenerate) or "none"),
        f"n_beta: {sec.n_beta}",
        f"nonempty: {sec.nonempty}",
        f"effective: {sec.effective}",
        "ideal generators:",
    ]
    lines += [f"  {s}" for s in body["ideal_generators"]]
    return lines, body, 0


def cmd_qsr(model: Model, args) -> tuple:
    cl = model.cl
    rels = qsr_generators(model.lin)
    rows = [{"collection": list(rel.collection.edges), "beta_K": _beta_dict(cl, rel.beta_k),
             "lhs": rel.lhs.to_str(), "rhs": _display_poly(cl, rel.rhs),
             "difference": _display_poly(cl, rel.difference), "degree": rel.degree()}
            for rel in rels]
    lines = ["quantum stanley-reisner relations:"]
    for rel, row in zip(rels, rows):
        qsym = novikov_symbol(cl, rel.beta_k) or "1"
        structure = " * ".join([qsym] + [f"Qc{c.index}" + (f"^{m}" if m > 1 else "")
                                         for c, m in rel.kminus])
        lines.append(f"  K={row['collection']} (degree {row['degree']}): "
                     f"Q_K = {structure}")
        lines.append(f"    Q_K = {row['lhs']}")
        lines.append(f"    rhs = {row['rhs']}")
    return lines, {"relations": rows}, 0


def cmd_correlator(model: Model, args) -> tuple:
    if not args.poly:
        raise ModelError("correlator requires --poly <expression>")
    cl = model.cl
    max_degree = args.max_degree if args.max_degree is not None else model.option("max_c1_degree")
    if max_degree < 0:
        raise ModelError(f"--max-degree (option max_c1_degree) must be nonnegative, "
                         f"got {max_degree}")
    # a series insertion has psi degree rank + c1, so a larger one is refused
    # before its powers are expanded
    p = parse_polynomial(args.poly, d_symbols(cl), max_degree=cl.fan.rank + max_degree)
    rep = correlator_series(model.lin, p, max_degree)
    rows = [{"beta": _beta_dict(cl, r.beta), "scalar": rational_str(r.scalar),
             "reason": r.reason} for r in rep.rows]
    series = novikov_series_str(cl, rep.series)
    body = {
        "poly": p.to_str(),
        "anchor": _beta_dict(cl, rep.anchor),
        "generator": rep.generator.to_str(),
        "sectors": rows,
        "series": series,
    }
    lines = [
        f"insertion: {body['poly']}",
        f"anchor: {_beta_str(body['anchor'])}",
        f"anchor generator: {body['generator']} (normalization reference)",
        "sectors:",
    ]
    for row in rows:
        lines.append(f"  beta {_beta_str(row['beta'])}: {row['scalar']} [{row['reason']}]")
    lines.append(f"series: {series}")
    return lines, body, 0


def cmd_verify(model: Model, args) -> tuple:
    cl = model.cl
    grid = args.grid if args.grid is not None else 6
    if grid < 0:
        raise ModelError(f"--grid must be nonnegative, got {grid}")
    if args.all:
        window = effective_window(cl, grid, coeff_bound=grid)
    else:
        window = tuple(sorted({cl.zero_curve, *cl.mori}, key=lambda b: b.d))
    cases = [(K, bk, beta) for K, (bk, _) in cl.primitive_relations.items()
             for beta in window]
    rng = random.Random(20240)
    expand_idx = set()
    if args.all and cases:
        sample = min(10, len(cases))
        expand_idx = set(rng.sample(range(len(cases)), sample))
    rows = []
    all_ok = True
    for idx, (K, bk, beta) in enumerate(cases):
        anchor = find_anchor(cl, [beta, beta + bk])
        ok = verify_qc_relation(model.lin, K, beta, anchor)
        routes = ["exponent"]
        if idx in expand_idx:
            ok = ok and verify_qc_relation(model.lin, K, beta, anchor, route="expand")
            routes.append("expand")
        all_ok = all_ok and ok
        rows.append({"collection": list(K.edges), "beta": _beta_dict(cl, beta),
                     "anchor": _beta_dict(cl, anchor),
                     "routes": routes, "passed": ok})
    body = {"grid": grid, "cases": rows, "all_passed": all_ok}
    lines = [f"verifying quantum relations over {len(window)} sector(s), grid {grid}:"]
    for row in rows:
        status = "pass" if row["passed"] else "FAIL"
        lines.append(f"  K={row['collection']} beta d={row['beta']['d']} "
                     f"[{'+'.join(row['routes'])}]: {status}")
    lines.append("result: " + ("all relations verified" if all_ok else "FAILURES detected"))
    return lines, body, 0 if all_ok else 2


COMMANDS = {
    "analyze": cmd_analyze,
    "polymology": cmd_polymology,
    "sector": cmd_sector,
    "qsr": cmd_qsr,
    "correlator": cmd_correlator,
    "verify": cmd_verify,
}


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsheaf",
        description="exact quantum sheaf cohomology of toric tangent-bundle deformations")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("model", help="path to a JSON model file")
    parser.add_argument("--beta", help="curve class as comma-separated Mori coordinates")
    parser.add_argument("--poly", help="insertion polynomial in D-symbols")
    parser.add_argument("--max-degree", type=int, dest="max_degree",
                        help="bound on c1-degree for series enumeration")
    parser.add_argument("--grid", type=int, help="c1-degree bound for verify")
    parser.add_argument("--all", action="store_true",
                        help="verify over the full sector window")
    parser.add_argument("--trials", type=int, help="local-freeness sample count")
    parser.add_argument("--no-cache", action="store_true", dest="no_cache",
                        help="disable the persistent Groebner cache")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    return parser


_PARSER = make_parser()  # parse_args keeps no state between calls


def run(argv) -> int:
    try:
        args = _PARSER.parse_args(argv)  # --help still exits 0
        cache.set_store(None)
        if not args.no_cache:
            try:
                cache.set_store(cache.FileCache())
            except OSError:
                pass
        model = load_model(args.model)
        lines, body, code = COMMANDS[args.command](model, args)
    except VALIDATION_ERRORS as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    finally:
        cache.set_store(None)
    if args.format == "json":
        # every report's envelope: schema and command are its first keys
        report = {"schema": SCHEMA, "command": args.command, **body}
        print(json.dumps(report, indent=2))
    else:
        print("\n".join(lines))
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # the reader went away; send the unflushed rest to devnull so the
        # exit-time flush cannot fail again ("Note on SIGPIPE", signal docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
