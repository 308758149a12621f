"""Versioned JSON model files: fan, deformation, options.

Integers may be written as JSON numbers or strings (exactness over
convenience); rational coefficients appear only inside D-symbol coefficient
expressions, which are parsed by the polynomial parser.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from .fan import Fan, build_fan
from .lattice import ClassLattice, class_lattice
from .deform import (Deformation, LinearData, linear_part, parse_deformation,
                     tangent_deformation)

MODEL_VERSION = 1

DEFAULT_OPTIONS = {
    "trials": 20,
    "max_c1_degree": 8,
}

# accepted in version-1 files and ignored: the anchor search needs no bound
IGNORED_OPTIONS = ("anchor_bound",)


class ModelError(Exception):
    pass


@dataclass
class Model:
    fan: Fan
    cl: ClassLattice
    deformation: Deformation
    lin: LinearData
    options: dict = field(default_factory=dict)

    def option(self, key: str):
        return self.options.get(key, DEFAULT_OPTIONS[key])


def _as_int(value, context: str) -> int:
    if isinstance(value, bool):
        raise ModelError(f"{context}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ModelError(f"{context}: {value!r} is not an integer") from None
    raise ModelError(f"{context}: {value!r} is not an integer")


def _list(value, context: str):
    if not isinstance(value, (list, tuple)):
        raise ModelError(f"{context}: expected a list")
    return value


def _int_vector(value, context: str) -> tuple:
    return tuple(_as_int(x, context) for x in _list(value, context))


def build_model(data: dict) -> Model:
    """Validate a parsed model dictionary and construct all derived objects."""
    if not isinstance(data, dict):
        raise ModelError("model file must contain a JSON object")
    version = _as_int(data.get("version", 0), "version")
    if version != MODEL_VERSION:
        raise ModelError(f"unrecognized model version {version!r}; expected {MODEL_VERSION}")
    fan_section = data.get("fan")
    if not isinstance(fan_section, dict):
        raise ModelError("model file needs a 'fan' section")
    rank = _as_int(fan_section.get("rank", 0), "fan.rank")
    rays = [_int_vector(v, "fan.rays") for v in _list(fan_section.get("rays", []), "fan.rays")]
    cones = [_int_vector(c, "fan.max_cones")
             for c in _list(fan_section.get("max_cones", []), "fan.max_cones")]
    fan = build_fan(rank, rays, cones)
    cl = class_lattice(fan)

    deform_section = data.get("deformation")
    if deform_section is None:
        deformation = tangent_deformation(cl)
    else:
        if not isinstance(deform_section, dict):
            raise ModelError("'deformation' must be an object with 'entries'")
        raw = []
        for entry in _list(deform_section.get("entries", []), "deformation.entries"):
            if not isinstance(entry, dict):
                raise ModelError("deformation entries must be objects")
            rho = _as_int(entry.get("rho"), "deformation.rho")
            m = _int_vector(entry.get("m", []), "deformation.m")
            coeff = entry.get("coeff")
            if not isinstance(coeff, str):
                raise ModelError("deformation coefficients must be D-symbol strings")
            raw.append((rho, m, coeff))
        deformation = parse_deformation(cl, raw)

    options = {}
    section = data.get("options") or {}
    if not isinstance(section, dict):
        raise ModelError("'options' must be an object")
    for key, value in section.items():
        if key in IGNORED_OPTIONS:
            continue
        if key not in DEFAULT_OPTIONS:
            raise ModelError(f"unknown option {key!r}")
        options[key] = _as_int(value, f"options.{key}")

    lin = linear_part(cl, deformation)
    return Model(fan=fan, cl=cl, deformation=deformation, lin=lin, options=options)


def load_model(path: str) -> Model:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(
            f"model file {path} is not valid JSON: line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from None
    return build_model(data)
