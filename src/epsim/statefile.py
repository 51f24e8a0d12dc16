"""JSON state files and deterministic result serialization.

Schema::

    {
      "modes": [{"id": "a1", "site": "A", "kind": "field", "capacity": 1}, ...],
      "terms": [{"occ": [1, 0], "amp": [0.7071067811865476, 0.0]}, ...]
    }

A file is UTF-8 JSON: other bytes, or nesting past the parser's recursion
limit, are parse errors.  Mode ids, sites and kinds are strings,
capacities and occupations are integers (a float with no fractional part
is accepted) and amplitudes are [real, imaginary] pairs of finite numbers;
anything else is a parse error.
Repeated occupations are summed.  Files whose norm (``fock._norm``, infinite
only where a modulus passes the largest float) deviates from 1 by at most
1e-6 are renormalized with a ``UserWarning``; larger deviations are parse
errors.  The labels are checked after the norm, by ``PureState``.

Results are written by ``dump_json``, one pass over the result tree that
rounds every float to 12 significant digits as it writes it, so identical
runs produce byte-identical output.  A float is written from its 12-digit
text, which is already the repr of the rounded float outside a few
notations and ranges (see ``_float_text``), so the bytes are those of
rounding through ``float`` and taking the repr.  It renders the kinds a
report holds, by exact type: float, int, bool, None, str, complex (as
[real, imaginary]), list, and dict with str or int keys; anything else, a
subclass, tuple or numpy scalar included, raises ``TypeError``.  Its text is the text of the
standard library route ``json.dumps(rounded, indent=2, sort_keys=True)``,
which the test suite keeps as its oracle.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from json.encoder import encode_basestring_ascii

import numpy as np

from .fock import (
    CapacityError,
    DensityOperator,
    LayoutError,
    ModeDescriptor,
    ModeLayout,
    PureState,
    StateValidationError,
    _norm,
)

NORM_FILE_TOL = 1e-6
SIG_DIGITS = 12
_ROUND_FORMAT = f".{SIG_DIGITS}g"


class StateFileError(ValueError):
    """Malformed state file."""


def _require(cond: bool, message: str) -> None:
    """Raise ``StateFileError(message)`` unless ``cond``; a message that
    formats a value is built at its failing check instead, so valid input
    pays for no repr."""
    if not cond:
        raise StateFileError(message)


def _integer(value, what: str) -> int:
    """A JSON integer, or a float with no fractional part, as an int."""
    if not (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        raise StateFileError(f"{what} must be an integer, got {value!r}")
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
            if key not in entry:
                raise StateFileError(f"mode entry missing {key!r}")
        for key in ("id", "site", "kind"):
            if not isinstance(entry[key], str):
                raise StateFileError(f"mode {key} must be a string, got {entry[key]!r}")
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
        amps[occ] = amps.get(occ, 0.0) + complex(float(amp[0]), float(amp[1]))

    try:
        norm = _norm([abs(a) for a in amps.values()])
    except OverflowError:
        # abs() raises where a modulus passes the largest float.
        norm = math.inf
    if not abs(norm - 1.0) <= NORM_FILE_TOL:
        raise StateFileError(f"amplitudes have norm {norm}; expected 1 within {NORM_FILE_TOL}")
    try:
        state = PureState(layout, amps, normalize=True)
    except (CapacityError, StateValidationError) as exc:
        raise StateFileError(str(exc)) from exc
    if norm != 1.0:
        warnings.warn(f"renormalizing state file (norm {norm})", stacklevel=2)
    return state


def load_state(path: str) -> PureState:
    """The state in the UTF-8 JSON file ``path``.  An unreadable file,
    bytes that are not UTF-8, text that is not JSON or nests deeper than the
    parser's recursion limit, and any schema fault raise ``StateFileError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise StateFileError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(f"invalid JSON in {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise StateFileError(f"{path!r} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise StateFileError(f"JSON in {path!r} nests too deeply to parse") from exc
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
    matrix = np.ascontiguousarray(rho.matrix)
    return {
        "modes": _modes_to_list(rho.layout),
        "basis": [list(label) for label in rho.basis],
        # [real, imaginary] pairs from one tolist() of the real view.
        "matrix": matrix.view(np.float64).reshape(*matrix.shape, 2).tolist(),
    }


def _key_text(key) -> str:
    """JSON text of a dict key: a str, or an int quoted as ``json`` quotes
    it."""
    kind = type(key)
    if kind is str:
        return encode_basestring_ascii(key)
    if kind is int:
        return f'"{int.__repr__(key)}"'
    raise TypeError(f"keys must be str or int, not {kind.__name__}")


def _float_text(x: float) -> str:
    """JSON text of ``x`` rounded to ``SIG_DIGITS`` significant digits:
    ``json.dumps(float(format(x, _ROUND_FORMAT)))``, mostly without the
    round trip.

    A decimal of at most 15 significant digits in the normal range is the
    shortest repr of its double (DBL_DIG = 15), so the rounded text is
    that repr, up to a ``.0`` that repr adds to integer texts, wherever
    both pick the same notation.  Four kinds of text take the round trip:
    NaN and infinities; three-digit exponents, which hold the subnormals
    (``.12g`` writes 5e-324 as 4.94065645841e-324) and the other extreme
    magnitudes; and exponents 12 to 15, which repr writes positionally.
    """
    text = format(x, _ROUND_FORMAT)
    if "e" in text:
        if text[-4] == "e" and not "+12" <= text[-3:] <= "+15":
            return text
    elif "." in text:
        return text
    elif "n" not in text:                   # not nan, inf or -inf
        return text + ".0"
    return json.dumps(float(text))


def _render(obj, newline: str, out: list[str]) -> None:
    """Append the JSON text of ``obj`` to ``out``; ``newline`` is the line
    break plus indent of the line ``obj`` starts on.  A float inside a list
    or dict is written there, without a call of its own to ``_render``."""
    kind = type(obj)
    if kind is float:
        out.append(_float_text(obj))
    elif kind is list:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "," + inner
        start = len(out)
        for value in obj:
            out.append(separator)
            if type(value) is float:
                out.append(_float_text(value))
            else:
                _render(value, inner, out)
        out[start] = "[" + inner
        out.append(newline + "]")
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "," + inner
        start = len(out)
        for key in sorted(obj):
            out.append(separator)
            out.append(_key_text(key) + ": ")
            value = obj[key]
            if type(value) is float:
                out.append(_float_text(value))
            else:
                _render(value, inner, out)
        out[start] = "{" + inner
        out.append(newline + "}")
    elif kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif kind is complex:
        _render([obj.real, obj.imag], newline, out)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def dump_json(data, depth: int = 0) -> str:
    """Indented, key-sorted JSON text of ``data`` with every float rounded
    to ``SIG_DIGITS`` significant digits as it is written (dict keys are
    not rounded).

    One pass over the tree that writes each float from its 12-digit text
    (``_float_text``); the text equals
    ``json.dumps(rounded, indent=2, sort_keys=True)`` of the rounded tree,
    with every line after the first indented ``depth`` more levels, so it
    can stand as a member of an enclosing object at that depth (see
    ``dump_members``).  Any kind the module docstring does not list raises
    ``TypeError``.
    """
    out: list[str] = []
    _render(data, "\n" + "  " * depth, out)
    return "".join(out)


def dump_members(members: dict[str, str]) -> str:
    """JSON text of an object whose member values are already rendered by
    ``dump_json(value, depth=1)``, keys sorted as ``dump_json`` sorts them."""
    return "{\n" + ",\n".join(f"  {encode_basestring_ascii(key)}: {text}"
                               for key, text in sorted(members.items())) + "\n}"


def format_float(x: float) -> str:
    return f"{x:.{SIG_DIGITS}g}"
