"""Versioned JSON model files: fan, deformation, options.

Integers may be written as JSON numbers or strings (exactness over
convenience); rational coefficients appear only inside D-symbol coefficient
expressions, which are parsed by the polynomial parser.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from .fan import Fan, build_fan
from .lattice import ClassLattice, class_lattice
from .deform import (Deformation, LinearData, linear_part, parse_deformation,
                     tangent_deformation)
from .poly import echo

MODEL_VERSION = 1

DEFAULT_OPTIONS = {
    "trials": 20,
    "max_c1_degree": 8,
}


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


_INT = re.compile(r"\s*[+-]?(\d(?:_?\d)*)\s*")  # the base-10 syntax int() reads


def read_int(text: str, context: str) -> int | None:
    """int(text, 10), or None when text is no integer; a digit run past
    Python's int digit limit is a ModelError naming context."""
    try:
        return int(text, 10)
    except ValueError:
        if not _INT.fullmatch(text):
            return None
    digits = sum(map(str.isdecimal, text))
    raise ModelError(f"{context}: {digits}-digit integer exceeds Python's int digit limit")


def _as_int(value, context: str) -> int:
    if isinstance(value, bool):
        raise ModelError(f"{context}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    n = read_int(value, context) if isinstance(value, str) else None
    if n is None:
        raise ModelError(f"{context}: {echo(value)} is not an integer")
    return n


def _list(value, context: str):
    if not isinstance(value, (list, tuple)):
        raise ModelError(f"{context}: expected a list")
    return value


def _int_vector(value, context: str) -> tuple:
    value = tuple(_list(value, context))
    if {int}.issuperset(map(type, value)):  # JSON numbers, no bool: nothing to read
        return value
    return tuple(_as_int(x, context) for x in value)


# the keys of each object in a version-1 file; any other is a misspelling,
# which must not silently select a default (a lost "deformation" is T_X)
_KEYS = {"": frozenset({"version", "fan", "deformation", "options"}),
         "'fan'": frozenset({"rank", "rays", "max_cones"}),
         "'deformation'": frozenset({"entries"}),
         "a deformation entry": frozenset({"rho", "m", "coeff"})}


def _known_keys(section: dict, where: str):
    keys = _KEYS[where]
    if not keys.issuperset(section):
        key = next(k for k in section if k not in keys)  # the first, in file order
        raise ModelError(f"unknown key {echo(key)}" + (f" in {where}" if where else ""))


def build_model(data: dict) -> Model:
    """Validate a parsed model dictionary and construct all derived objects."""
    if not isinstance(data, dict):
        raise ModelError("model file must contain a JSON object")
    version = _as_int(data.get("version", 0), "version")
    if version != MODEL_VERSION:
        raise ModelError(f"unrecognized model version {echo(version)}; expected {MODEL_VERSION}")
    _known_keys(data, "")
    fan_section = data.get("fan")
    if not isinstance(fan_section, dict):
        raise ModelError("model file needs a 'fan' section")
    _known_keys(fan_section, "'fan'")
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
        _known_keys(deform_section, "'deformation'")
        raw = []
        for entry in _list(deform_section.get("entries", []), "deformation.entries"):
            if not isinstance(entry, dict):
                raise ModelError("deformation entries must be objects")
            _known_keys(entry, "a deformation entry")
            rho = _as_int(entry.get("rho"), "deformation.rho")
            m = _int_vector(entry.get("m", []), "deformation.m")
            coeff = entry.get("coeff")
            if not isinstance(coeff, str):
                raise ModelError("deformation coefficients must be D-symbol strings")
            raw.append((rho, m, coeff))
        deformation = parse_deformation(cl, raw)

    options = {}
    section = data.get("options")
    if not isinstance(section, (dict, type(None))):
        raise ModelError("'options' must be an object")
    for key, value in (section or {}).items():
        if key not in DEFAULT_OPTIONS:
            raise ModelError(f"unknown option {echo(key)}")
        options[key] = _as_int(value, f"options.{key}")

    lin = linear_part(cl, deformation)
    return Model(fan=fan, cl=cl, deformation=deformation, lin=lin, options=options)


def load_model(path: str) -> Model:
    try:
        with open(path, "rb", buffering=0) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from None
    try:  # UTF-8 text, as json.loads(bytes) would also take UTF-16 and UTF-32
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelError(f"model file {path} is not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None
    if "\r" in text:  # the newlines text mode reads, which JSON error lines count
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(
            f"model file {path} is not valid JSON: line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}") from None
    except RecursionError:
        raise ModelError(f"model file {path} nests JSON too deeply") from None
    except ValueError:  # JSONDecodeError is caught above: an int past the digit limit
        raise ModelError(f"model file {path} has an integer longer than Python's "
                         f"int digit limit") from None
    return build_model(data)
