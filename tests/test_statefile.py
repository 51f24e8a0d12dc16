"""``statefile.dump_json`` against the standard library route it replaces,
and the text of the state-file parse errors."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsim.statefile import StateFileError, dump_json, dump_members, parse_state
from oracles import dump_json_oracle

# Signed zeros, the non-finite values, the smallest subnormal and the largest
# finite float, plus magnitudes 1e12..1e16, where the 12-digit rounding and
# repr disagree about exponents.
SPECIAL_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308)
FLOATS = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(1e12, 1e16),
    st.floats(-1e16, -1e12),
    st.floats(allow_nan=True, allow_infinity=True),
)
# The kinds a report holds; ``dump_json`` rejects every other kind.
LEAVES = st.one_of(
    FLOATS,
    st.integers(-2 ** 70, 2 ** 70),
    st.booleans(),
    st.none(),
    st.text(),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
)


def _containers(children):
    # One key kind per dict: json sorts keys, and str keys do not order
    # against ints.
    return st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4),
        st.dictionaries(st.integers(-2 ** 70, 2 ** 70), children, max_size=4),
    )


TREES = st.recursive(LEAVES, _containers, max_leaves=16)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=TREES)
def test_dump_json_equals_stdlib_route(data):
    assert dump_json(data) == dump_json_oracle(data)
    # At depth 1 the text stands as a member of an enclosing object.
    document = dump_members({"results": dump_json(data, depth=1)})
    assert document == dump_json_oracle({"results": data})


@pytest.mark.parametrize("data", [
    np.bool_(True), {1, 2}, object(), [1.5, {"a": {0.5}}], {(1, 2): 0.5},
    {"a": 1, 2: "b"},
], ids=["numpy-bool", "set", "object", "nested-set", "tuple-key", "mixed-keys"])
def test_unserializable_types_raise(data):
    with pytest.raises(TypeError):
        dump_json_oracle(data)
    with pytest.raises(TypeError):
        dump_json(data)


class _Float(float):
    pass


class _Dict(dict):
    pass


@pytest.mark.parametrize("data", [
    np.float64(1.5), np.float32(1.5), np.int64(3), np.complex128(1 + 2j), (1.0, 2),
    {0.5: 1}, {True: 1}, {None: 1}, _Float(1.5), _Dict(a=1.0),
    [1.0, {"a": np.float64(2.0)}],
], ids=["float64", "float32", "int64", "complex128", "tuple", "float-key", "bool-key",
        "none-key", "float-subclass", "dict-subclass", "nested-float64"])
def test_kinds_no_report_holds_raise(data):
    # The standard library route accepts each of these; no report holds one.
    dump_json_oracle(data)
    with pytest.raises(TypeError):
        dump_json(data)


VALID_DOCUMENT = {
    "modes": [{"id": "a", "site": "A", "kind": "field", "capacity": 1},
              {"id": "b", "site": "B", "kind": "field", "capacity": 1}],
    "terms": [{"occ": [1, 0], "amp": [0.6, 0.0]}, {"occ": [0, 1], "amp": [0.8, 0.0]}],
}


@pytest.mark.parametrize("where, key, value, message", [
    ("term", "occ", ["x", 0], "occupation must be an integer, got 'x'"),
    ("term", "occ", [True, 0], "occupation must be an integer, got True"),
    ("mode", "capacity", 1.7, "capacity must be an integer, got 1.7"),
    ("mode", "id", None, "mode id must be a string, got None"),
    ("mode", "kind", 5, "mode kind must be a string, got 5"),
    ("mode", "site", ..., "mode entry missing 'site'"),
    ("term", "amp", [1.2, 0.0], "amplitudes have norm 1.4422205101855958; expected 1 "
                                "within 1e-06"),
], ids=["occ-string", "occ-bool", "capacity-fraction", "id-null", "kind-number",
        "site-missing", "norm"])
def test_parse_error_messages(where, key, value, message):
    # Each message is built only when its check fails; its text is fixed.
    data = json.loads(json.dumps(VALID_DOCUMENT))
    target = {"mode": data["modes"][0], "term": data["terms"][0]}[where]
    if value is ...:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(StateFileError) as exc:
        parse_state(data)
    assert str(exc.value) == message
