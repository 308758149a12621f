"""Optional content-addressed store for reduced Groebner bases.

Sector ideals recur across queries, so the CLI persists reduced bases keyed
by a hash of (key format, generators).  The store is process-global and
off by default; results are identical with or without it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from fractions import Fraction
from typing import Optional

from .poly import GroebnerBasis, Ideal, Polynomial, groebner

# Names the monomial order and the normalisation of stored bases; a change to
# either must change this tag, so that entries of the old form are never hit.
KEY_FORMAT = "qsheaf-gb/2 grevlex reduced monic"

_store: Optional["FileCache"] = None


def set_store(store: Optional["FileCache"]) -> None:
    global _store
    _store = store


def default_cache_dir() -> str:
    env = os.environ.get("QSHEAF_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "qsheaf")


def serialize_poly(p: Polynomial) -> list:
    items = sorted(p.terms.items(), key=lambda kv: (kv[0][0], kv[0][1]))
    return [[str(c), list(mon[0]), list(mon[1])] for mon, c in items]


def deserialize_poly(data: list, nv: int, nq: int) -> Polynomial:
    terms = {}
    for coeff, p_exps, q_exps in data:
        terms[(tuple(p_exps), tuple(q_exps))] = Fraction(coeff)
    return Polynomial(nv, nq, terms)


def ideal_key(ideal: Ideal) -> str:
    nq = ideal.generators[0].nq if ideal.generators else 0
    payload = json.dumps({
        "format": KEY_FORMAT,
        "nv": ideal.nv,
        "nq": nq,
        "gens": [serialize_poly(g) for g in ideal.generators],
    }, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class FileCache:
    """Writes are atomic (write to a temp file, then rename)."""

    def __init__(self, root: Optional[str] = None):
        self.root = root or default_cache_dir()
        os.makedirs(self.root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def get(self, key: str) -> Optional[GroebnerBasis]:
        """The stored basis, or None on a miss.

        An entry that cannot be read or decoded, whatever its defect, is a
        miss: the caller recomputes the basis and overwrites the entry.
        """
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                data = json.load(fh)
            polys = tuple(deserialize_poly(p, data["nv"], data["nq"])
                          for p in data["polys"])
            return GroebnerBasis(polys, data["nv"])
        except Exception:
            return None

    def put(self, key: str, gb: GroebnerBasis) -> None:
        nq = gb.polys[0].nq if gb.polys else 0
        data = {
            "nv": gb.nv,
            "nq": nq,
            "polys": [serialize_poly(g) for g in gb.polys],
        }
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(data, fh, separators=(",", ":"))
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def cached_groebner(ideal: Ideal) -> GroebnerBasis:
    """Groebner basis through the active store, or directly when none is set."""
    store = _store
    if store is None:
        return groebner(ideal)
    key = ideal_key(ideal)
    hit = store.get(key)
    if hit is not None:
        return hit
    gb = groebner(ideal)
    store.put(key, gb)
    return gb
