"""Regenerate recorded.json: monomial correlators of the tangent ladder.

For each tangent model of the series-tangent ladder that has no closed-form
oracle, and each nonempty degree t, records <prod_b D_b^m_b>_beta for every
monomial m of degree dim X + t in a basis of divisor rays, every sector
beta of the slice, divided by the first nonzero value.  The check
recombines them for any seeded insertion L, so the file covers every seed.

Run from the repository root:  python3 perfbench/record.py
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import qsheaf  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


def record_model(make_fan, t_max: int) -> dict:
    cl, lin = workloads.tangent_model(make_fan())
    basis = oracles.independent_rays(cl.divisor_classes)
    syms = qsheaf.d_symbols(cl)
    out = {}
    for t in workloads.nonempty_degrees(cl, t_max):
        rows = {}
        for m in oracles.monomials(len(basis), cl.fan.rank + t):
            p = qsheaf.Polynomial.const(cl.pic_rank, 1)
            for b, e in zip(basis, m):
                p = p * syms[b] ** e
            report = qsheaf.correlator_series(lin, p, t)
            for beta, coeff in report.series:
                rows.setdefault(oracles.d_key(beta.d), {})[",".join(map(str, m))] = coeff
        first = next(v for k in sorted(rows, key=lambda k: tuple(map(int, k.split(","))))
                     for v in rows[k].values())
        out[str(t)] = {"basis_rays": list(basis),
                       "values": {k: {m: str(v / first) for m, v in row.items()}
                                  for k, row in sorted(rows.items())}}
    return out


def main() -> None:
    data = {name: record_model(make_fan, t_max)
            for name, make_fan, t_max in workloads.TANGENT_LADDER
            if not name.startswith("P1^")}
    with open(oracles.RECORDED_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
