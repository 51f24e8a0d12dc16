"""``statefile.dump_json`` against the standard library route it replaces,
the text of the state-file parse errors, and the summing of repeated
occupations."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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


# Where the 12-digit text and repr can part: the signed zeros, both sides of
# each notation switch (1e-4, and 1e12 for the 12-digit text, 1e16 for repr),
# and both ends of the normal range.
EDGE_FLOATS = (0.0, -0.0, 1e-5, 1e-4, 999999999999.5, 1e12, 9.999999999995e15, 1e16,
               5e-324, 2.2250738585072014e-308, 1.7976931348623157e308)


def assert_float_text(x):
    # A float at the top, in a list and in a dict: the three places
    # dump_json writes one.
    for data in (x, [x], {"x": x}):
        assert dump_json(data) == dump_json_oracle(data)


@pytest.mark.parametrize("x", EDGE_FLOATS + tuple(-x for x in EDGE_FLOATS[2:]))
def test_edge_float_text_equals_stdlib_route(x):
    assert_float_text(x)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(x=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(math.nan)
@example(-math.inf)
def test_float_text_equals_stdlib_route(x):
    assert_float_text(x)


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
    # A square past the largest float leaves the norm finite; a modulus past it does not.
    ("term", "amp", [1e200, 0.0], "amplitudes have norm 1e+200; expected 1 within 1e-06"),
    ("term", "amp", [1.5e308, 1.5e308], "amplitudes have norm inf; expected 1 within 1e-06"),
], ids=["occ-string", "occ-bool", "capacity-fraction", "id-null", "kind-number",
        "site-missing", "norm", "norm-square-past-float", "norm-modulus-past-float"])
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


def _two_mode_document(terms):
    return dict(VALID_DOCUMENT, terms=[{"occ": occ, "amp": [amp, 0.0]} for occ, amp in terms])


def test_repeated_occupations_summed():
    """Terms on one occupation, written as ints or as integral floats, are
    summed before the norm is checked: the listed terms alone have norm
    0.906, their sums norm 1, so the file loads without renormalizing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = parse_state(_two_mode_document([([1, 0], 0.3), ([1.0, 0], 0.3), ([0, 1], 0.8)]))
        assert dict(state.amplitudes) == {(1, 0): 0.6, (0, 1): 0.8}
        cancelled = parse_state(_two_mode_document([([1, 0], 0.5), ([0, 1], 1.0),
                                                    ([1, 0], -0.5)]))
        assert dict(cancelled.amplitudes) == {(0, 1): 1.0}
