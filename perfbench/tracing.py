"""Per-layer tracing of qsheaf from outside the package.

``Tracer.install`` replaces each public layer function with a wrapper that
records a span (name, start, end, parent, query id) and the layer's work
counters.  Modules copy bindings (``from .poly import normal_form``), so the
wrapper is written into every module global and class attribute of the
package that holds the original; afterwards any reference still reaching an
original (module global, class attribute, container in a module global,
default argument, closure cell) is an error, so a refactor cannot silently
drop a layer from the trace.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter

PACKAGE = "qsheaf"

# (module, attribute path, span name); attribute paths with a dot are methods
TARGETS = (
    ("qsheaf.fan", "build_fan", "fan.build_fan"),
    ("qsheaf.lattice", "class_lattice", "lattice.class_lattice"),
    ("qsheaf.lattice", "mori_generators", "lattice.mori_generators"),
    ("qsheaf.lattice", "in_cone", "lattice.in_cone"),
    ("qsheaf.lattice", "find_anchor", "lattice.find_anchor"),
    ("qsheaf.lattice", "dominates", "lattice.dominates"),
    ("qsheaf.linalg", "rref", "linalg.rref"),
    ("qsheaf.linalg", "matrix_rank", "linalg.matrix_rank"),
    ("qsheaf.linalg", "solve_columns", "linalg.solve_columns"),
    ("qsheaf.deform", "linear_part", "deform.linear_part"),
    ("qsheaf.deform", "polymology", "deform.polymology"),
    ("qsheaf.deform", "LinearData.groebner_of", "deform.groebner_of"),
    ("qsheaf.poly", "det", "poly.det"),
    ("qsheaf.poly", "groebner", "poly.groebner"),
    ("qsheaf.poly", "normal_form", "poly.normal_form"),
    ("qsheaf.poly", "standard_monomials", "poly.standard_monomials"),
    ("qsheaf.poly", "parse_polynomial", "poly.parse_polynomial"),
    ("qsheaf.sectors", "sector", "sectors.sector"),
    ("qsheaf.sectors", "transition", "sectors.transition"),
    ("qsheaf.quantum", "correlator_series", "quantum.correlator_series"),
    ("qsheaf.quantum", "degree_slice", "quantum.degree_slice"),
    ("qsheaf.quantum", "effective_window", "quantum.effective_window"),
    ("qsheaf.quantum", "four_fermi", "quantum.four_fermi"),
    ("qsheaf.quantum", "verify_qc_relation", "quantum.verify_qc_relation"),
    ("qsheaf.cache", "cached_groebner", "cache.cached_groebner"),
    ("qsheaf.cache", "FileCache.get", "cache.get"),
    ("qsheaf.cache", "FileCache.put", "cache.put"),
    ("qsheaf.model", "load_model", "model.load_model"),
    ("qsheaf.cli", "run", "cli.run"),
)

# per-layer metrics: timed spans report calls and self time per cycle
CALLS = ("fan.build_fan", "lattice.in_cone", "lattice.find_anchor", "lattice.dominates",
         "linalg.rref", "linalg.solve_columns", "deform.groebner_of", "poly.det",
         "poly.groebner", "poly.normal_form", "poly.standard_monomials",
         "sectors.sector", "sectors.transition", "quantum.verify_qc_relation",
         "cache.get", "cache.put", "cli.run")
SELF = ("fan.build_fan", "lattice.class_lattice", "lattice.mori_generators",
        "lattice.in_cone", "lattice.find_anchor", "linalg.rref", "deform.linear_part",
        "deform.polymology", "poly.det", "poly.groebner", "poly.normal_form",
        "poly.standard_monomials", "poly.parse_polynomial", "sectors.sector",
        "sectors.transition", "quantum.correlator_series", "quantum.degree_slice",
        "quantum.effective_window", "quantum.four_fermi", "quantum.verify_qc_relation",
        "cache.get", "cache.put", "model.load_model", "cli.run")


class TraceBindingError(RuntimeError):
    """A reference to an unwrapped layer function survived installation."""


def _anchor_n_beta(cl, anchor) -> int:
    import qsheaf
    return sum(qsheaf.h0(x) for x in anchor.d) - cl.pic_rank


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id, query id)
        self.stack = []          # open spans: [id, name, start, child seconds, query id]
        self.calls = Counter()
        self.self_s = Counter()  # raw seconds
        self.scaled_self_s = Counter()  # reference seconds (see speed.py)
        self._self_at_cycle_start = Counter()
        self.count = Counter()   # work counters, some also keyed by phase
        self.anchor_n_beta_max = 0
        self.phase = ""
        self.missing = []
        self._patched = []       # (owner, attribute, original) to restore
        self._next_id = 0

    # ---- spans ---------------------------------------------------------
    def begin(self, name: str, qid=None) -> None:
        if qid is None and self.stack:
            qid = self.stack[-1][4]
        self.stack.append([self._next_id, name, time.perf_counter(), 0.0, qid])
        self._next_id += 1

    def end(self) -> None:
        stop = time.perf_counter()
        sid, name, start, child, qid = self.stack.pop()
        duration = stop - start
        parent = None
        if self.stack:
            self.stack[-1][3] += duration
            parent = self.stack[-1][0]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self.spans.append((sid, name, start, stop, parent, qid))

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if observe:
                observe(result, *args, **kwargs)
            return result
        return wrapper

    def cycle_done(self, scale: float) -> None:
        """Rescale the self time of the cycle just traced to reference seconds."""
        for name, seconds in self.self_s.items():
            self.scaled_self_s[name] += (seconds - self._self_at_cycle_start[name]) * scale
        self._self_at_cycle_start = Counter(self.self_s)

    # ---- work counters -------------------------------------------------
    def _observe_lattice_in_cone(self, result, *args, **kwargs):
        self.count["in_cone.true"] += bool(result)

    def _observe_lattice_find_anchor(self, anchor, cl, *args, **kwargs):
        self.anchor_n_beta_max = max(self.anchor_n_beta_max, _anchor_n_beta(cl, anchor))

    def _observe_quantum_correlator_series(self, report, lin, *args, **kwargs):
        self.anchor_n_beta_max = max(self.anchor_n_beta_max,
                                     _anchor_n_beta(lin.cl, report.anchor))

    def _observe_poly_groebner(self, gb, *args, **kwargs):
        self.count["groebner.basis_size"] += len(gb.polys)

    def _observe_poly_normal_form(self, result, p, *args, **kwargs):
        self.count["normal_form.terms_in"] += len(p.terms)

    def _observe_poly_standard_monomials(self, monos, gb, degree, *args, **kwargs):
        self.count["standard_monomials.scanned"] += math.comb(degree + gb.nv - 1, gb.nv - 1)
        self.count["standard_monomials.returned"] += len(monos)

    def _observe_cache_cached_groebner(self, result, *args, **kwargs):
        self.count["cached_groebner.calls"] += 1

    def _observe_cache_get(self, hit, *args, **kwargs):
        for key in ("cache.get", f"cache.get@{self.phase}"):
            self.count[key + ".calls"] += 1
            self.count[key + ".hits"] += hit is not None

    def _observe_cache_put(self, result, *args, **kwargs):
        self.count[f"cache.put@{self.phase}.calls"] += 1

    # ---- installation --------------------------------------------------
    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if (name == PACKAGE or name.startswith(PACKAGE + ".")) and mod}
        originals = {}
        missing = []
        for modname, path, span in TARGETS:
            owner = modules.get(modname)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, parts[-1], None) if owner is not None else None
            if fn is None:
                missing.append(f"{modname}.{path}")
                continue
            originals[id(fn)] = (fn, self._wrap(span, fn))
            if len(parts) > 1:
                self._patch(owner, parts[-1], fn, originals[id(fn)][1])
        if missing and missing != self.missing:
            print(f"trace: layer functions not found, reported as zero: "
                  f"{', '.join(missing)}", file=sys.stderr)
        self.missing = missing
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and value is originals[id(value)][0]:
                    self._patch(mod, attr, value, originals[id(value)][1])
        wrappers = {id(w) for _, w in originals.values()}
        leftovers = self._references(modules, originals, wrappers)
        if leftovers:
            self.uninstall()
            raise TraceBindingError("unwrapped references to traced layer functions: "
                                    + ", ".join(leftovers))

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    @staticmethod
    def _references(modules, originals, wrappers) -> list:
        """Every place in the package still holding an original function."""
        def held(value):
            return id(value) in originals and value is originals[id(value)][0]

        found = []
        for modname, mod in modules.items():
            for attr, value in vars(mod).items():
                where = f"{modname}.{attr}"
                if held(value):
                    found.append(where)
                elif isinstance(value, dict):
                    found += [f"{where}[{k!r}]" for k, v in value.items() if held(v)]
                elif isinstance(value, (list, tuple, set, frozenset)):
                    found += [f"{where}[...]" for v in value if held(v)]
                elif inspect.isclass(value) and value.__module__ == modname:
                    found += [f"{where}.{k}" for k, v in vars(value).items()
                              if held(getattr(v, "__func__", v))]
                if (inspect.isfunction(value) and value.__module__ == modname
                        and id(value) not in wrappers):
                    cells = value.__closure__ or ()
                    defaults = (value.__defaults__ or ()) + tuple(
                        (value.__kwdefaults__ or {}).values())
                    if any(held(v) for v in defaults):
                        found.append(f"{where} (default argument)")
                    if any(held(c.cell_contents) for c in cells
                           if c.cell_contents is not None):
                        found.append(f"{where} (closure)")
        return found

    # ---- reporting -----------------------------------------------------
    def metrics(self, cycles: int, extras, overhead_s: float) -> dict:
        c = self.count
        per = 1 / cycles

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for name in CALLS:
            out[f"{name}.calls"] = (self.calls[name] * per, "count")
        for name in SELF:
            out[f"{name}.self_s"] = (self.scaled_self_s[name] * per, "s")
        out["lattice.in_cone.true_ratio"] = (
            ratio(c["in_cone.true"], self.calls["lattice.in_cone"]), "ratio")
        out["deform.groebner_of.memo_hit_ratio"] = (
            1 - ratio(c["cached_groebner.calls"], self.calls["deform.groebner_of"])
            if self.calls["deform.groebner_of"] else 0.0, "ratio")
        out["poly.groebner.basis_size"] = (c["groebner.basis_size"] * per, "count")
        out["poly.normal_form.terms_in"] = (c["normal_form.terms_in"] * per, "count")
        out["poly.standard_monomials.scanned"] = (
            c["standard_monomials.scanned"] * per, "count")
        out["poly.standard_monomials.yield"] = (
            ratio(c["standard_monomials.returned"], c["standard_monomials.scanned"]), "ratio")
        out["quantum.anchor_n_beta.max"] = (self.anchor_n_beta_max, "count")
        out["cache.get.hit_ratio"] = (
            ratio(c["cache.get.hits"], c["cache.get.calls"]), "ratio")
        out["cache.get.hit_ratio.warm"] = (
            ratio(c["cache.get@warm.hits"], c["cache.get@warm.calls"]), "ratio")
        out["cache.put.calls.warm"] = (c["cache.put@warm.calls"] * per, "count")
        out["cache.store_bytes"] = (
            sum(e.get("cache.store_bytes", 0) for e in extras) * per, "B")
        out["trace.overhead_s"] = (overhead_s, "s")
        return dict(sorted(out.items()))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, stop, parent, qid in self.spans:
                fh.write(json.dumps([sid, name, round(start, 7), round(stop, 7), parent, qid]))
                fh.write("\n")
