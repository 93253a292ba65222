"""The JSON renderer behind every agdim document: ``cli._dumps(x)`` must be
``json.dumps(x, indent=2)`` byte for byte."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agdim.cli import _dumps, _layout, _template

ODD_TEXT = ['"', "\\", "%", "%s", "%%", "\x00", "\n", "\x1f", "\x7f", "é", " ", "\ud800", "😀"]

texts = st.one_of(st.text(), st.sampled_from(ODD_TEXT), st.lists(st.sampled_from(ODD_TEXT)).map("".join))
keys = st.one_of(texts, st.sampled_from(["a", "b", "%", "%(a)s", "%d"]))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**80),
    st.integers(min_value=-(2**80), max_value=-(2**63) - 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]),
    texts,
)
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=30,
)
# Rows over a few keys, so that shapes both repeat and differ from row to
# row: a key's value is a scalar in one row and a dict, a list or a tuple
# in the next, and a nested value may nest again.
small_keys = st.sampled_from(["case", "params", "%x", "n"])
nested = st.one_of(
    scalars,
    st.lists(st.one_of(scalars, st.lists(scalars, max_size=2)), max_size=3),
    st.lists(scalars, max_size=3).map(tuple),
    st.dictionaries(small_keys, st.one_of(scalars, st.dictionaries(small_keys, scalars, max_size=2)), max_size=3),
)
rows = st.lists(st.dictionaries(small_keys, nested, max_size=4), max_size=12)


@settings(max_examples=250, deadline=None)
@given(documents)
@example({"%": "%s", "%(a)s": ["%%", {"%d": -0.0}]})
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": ()})
@example([{}, {}, {"a": {}}, {"a": []}])
def test_matches_json_indent_2(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2)


@settings(max_examples=250, deadline=None)
@given(rows)
@example([{"a": 1}, {"a": [1]}, {"a": {"b": 1}}, {"a": {"b": [1]}}, {"a": {"b": 2}}, {"a": 3}])
@example([{"p": (1, 2)}, {"p": [1, 2]}, {"p": [[1], 2]}, 7, [{"p": 1}]])
def test_rows_of_differing_shapes(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2)


@settings(max_examples=50, deadline=None)
@given(documents)
def test_nested_indent(doc):
    # exact because an encoded string never holds a raw newline
    assert _dumps(doc, "\n  ") == json.dumps(doc, indent=2).replace("\n", "\n  ")


@pytest.mark.parametrize("doc", [{1: 2}, {"a": {None: 1}}, [{"a": 1}, {"a": 1, 2.5: 0}], [{(1,): 0}]])
def test_non_str_key_is_a_type_error(doc):
    with pytest.raises(TypeError, match="keys must be str"):
        _dumps(doc)


def test_unencodable_leaf_is_a_type_error():
    with pytest.raises(TypeError):
        _dumps({"a": [1, {2, 3}]})


@settings(max_examples=250, deadline=None)
@given(st.dictionaries(keys, nested, max_size=5))
@example({"case": "I", "params": {"p": 1, "n": 3}, "hss_dim": 2, "min_compact_factors": True})
@example({"%s": "%", "\x00": [0, 2**70, -1], "%%": {"%d": False}})
def test_layout_filled_with_int_leaves(row):
    # A row of a long export: the template of its layout, filled with its
    # int leaves (never a bool) in document order, is its text in the list.
    leaves: list = []
    _template(row, "\n    ", leaves)
    ints = tuple(x for x in leaves if type(x) is int)
    assert _layout(row) % ints == "\n    " + json.dumps(row, indent=2).replace("\n", "\n    ")
