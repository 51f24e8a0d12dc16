"""JSON state files and deterministic result serialization.

Schema::

    {
      "modes": [{"id": "a1", "site": "A", "kind": "field", "capacity": 1}, ...],
      "terms": [{"occ": [1, 0], "amp": [0.7071067811865476, 0.0]}, ...]
    }

Mode ids, sites and kinds are strings, capacities and occupations are
integers (a float with no fractional part is accepted) and amplitudes are
[real, imaginary] pairs of finite numbers; anything else is a parse error.
Files whose norm deviates from 1 by at most 1e-6 are renormalized with a
warning; larger deviations are parse errors.  All floats in emitted files
are rounded to 12 significant digits so identical runs produce
byte-identical output.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .fock import (
    CapacityError,
    DensityOperator,
    LayoutError,
    ModeDescriptor,
    ModeLayout,
    PureState,
    StateValidationError,
)

NORM_FILE_TOL = 1e-6
SIG_DIGITS = 12


class StateFileError(ValueError):
    """Malformed state file."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise StateFileError(message)


def _integer(value, what: str) -> int:
    """A JSON integer, or a float with no fractional part, as an int."""
    _require(isinstance(value, int) and not isinstance(value, bool)
             or isinstance(value, float) and value.is_integer(),
             f"{what} must be an integer, got {value!r}")
    return int(value)


def parse_state(data: dict) -> PureState:
    """The state a schema document describes; any malformed part raises
    ``StateFileError``."""
    _require(isinstance(data, dict), "top level must be an object")
    _require("modes" in data and "terms" in data, "missing 'modes' or 'terms'")
    _require(isinstance(data["modes"], list) and isinstance(data["terms"], list),
             "'modes' and 'terms' must be lists")
    modes = []
    for entry in data["modes"]:
        _require(isinstance(entry, dict), "mode entries must be objects")
        for key in ("id", "site", "kind", "capacity"):
            _require(key in entry, f"mode entry missing {key!r}")
        for key in ("id", "site", "kind"):
            _require(isinstance(entry[key], str),
                     f"mode {key} must be a string, got {entry[key]!r}")
        capacity = _integer(entry["capacity"], "capacity")
        try:
            modes.append(ModeDescriptor(entry["id"], entry["site"], entry["kind"], capacity))
        except LayoutError as exc:
            raise StateFileError(f"bad mode entry {entry}: {exc}") from exc
    try:
        layout = ModeLayout(tuple(modes))
    except LayoutError as exc:
        raise StateFileError(str(exc)) from exc

    amps: dict[tuple[int, ...], complex] = {}
    for term in data["terms"]:
        _require(isinstance(term, dict) and "occ" in term and "amp" in term,
                 "term entries need 'occ' and 'amp'")
        _require(isinstance(term["occ"], list), "occupations must be lists")
        occ = tuple(_integer(x, "occupation") for x in term["occ"])
        amp = term["amp"]
        _require(isinstance(amp, list) and len(amp) == 2
                 and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                         and abs(x) <= sys.float_info.max for x in amp),
                 "amplitudes must be [real, imaginary] pairs of finite numbers")
        try:
            layout.check_label(occ)
        except (CapacityError, StateValidationError) as exc:
            raise StateFileError(f"bad occupation {occ}: {exc}") from exc
        amps[occ] = amps.get(occ, 0.0) + complex(float(amp[0]), float(amp[1]))

    norm = float(np.sqrt(sum(abs(a) ** 2 for a in amps.values()))) if amps else 0.0
    _require(abs(norm - 1.0) <= NORM_FILE_TOL,
             f"amplitudes have norm {norm}; expected 1 within {NORM_FILE_TOL}")
    if norm != 1.0:
        print(f"warning: renormalizing state file (norm {norm})", file=sys.stderr)
    try:
        return PureState(layout, amps, normalize=True)
    except StateValidationError as exc:
        raise StateFileError(str(exc)) from exc


def load_state(path: str) -> PureState:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise StateFileError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(f"invalid JSON in {path!r}: {exc}") from exc
    return parse_state(data)


def _modes_to_list(layout: ModeLayout) -> list[dict]:
    return [{"id": m.id, "site": m.site, "kind": m.kind, "capacity": m.capacity}
            for m in layout.modes]


def state_to_dict(state: PureState) -> dict:
    return {
        "modes": _modes_to_list(state.layout),
        "terms": [{"occ": list(label), "amp": [a.real, a.imag]}
                  for label, a in sorted(state.amplitudes.items())],
    }


def density_to_dict(rho: DensityOperator) -> dict:
    return {
        "modes": _modes_to_list(rho.layout),
        "basis": [list(label) for label in rho.basis],
        "matrix": [[[z.real, z.imag] for z in row] for row in rho.matrix],
    }


def round_floats(obj):
    """Recursively round floats to ``SIG_DIGITS`` significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.{SIG_DIGITS}g}")
    if isinstance(obj, complex):
        return [round_floats(obj.real), round_floats(obj.imag)]
    if isinstance(obj, (np.floating,)):
        return round_floats(float(obj))
    if isinstance(obj, (np.complexfloating,)):
        return round_floats(complex(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def dump_json(data: dict) -> str:
    """Indented, key-sorted JSON text of ``data``, whose floats
    ``round_floats`` has already rounded (so each result is rounded once
    however many documents carry it)."""
    return json.dumps(data, indent=2, sort_keys=True)


def format_float(x: float) -> str:
    return f"{x:.{SIG_DIGITS}g}"
