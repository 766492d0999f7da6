import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from alphadet.rationals import dumps

# every character class that json escapes differently: the short escapes,
# other controls, DEL, non-ASCII, line separators, astral characters (a
# surrogate pair) and lone surrogates
_SPECIAL = ['"', "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\x80",
            "\xe9", "\u2028", "\uffff", "\U0001d538", "\U0010ffff", "\ud800", "\udfff"]
_text = st.text(st.one_of(st.sampled_from(_SPECIAL), st.characters(exclude_categories=())))
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=False, allow_infinity=False),
    _text,
)
_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_text, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(value=_values, indent=st.sampled_from([None, 2]))
def test_dumps_is_json_dumps(value, indent):
    assert dumps(value, indent) == json.dumps(value, indent=indent)


def test_dumps_writes_empty_containers_and_nesting_as_json_does():
    value = {"a": [], "b": {}, "c": (), "d": [[{}], {"e": [1, (2, None)]}], "": "x"}
    for indent in (None, 2):
        assert dumps(value, indent) == json.dumps(value, indent=indent)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, Fraction(1, 2), [Fraction(1)], {"a": {1}}, {1: "x"}, {("a",): 1}, {None: 1},
     float("nan"), float("inf"), [float("-inf")], b"bytes", object()],
)
def test_dumps_refuses_what_the_package_does_not_write(value):
    # json would write a non-str key or a non-finite float; dumps refuses them
    for indent in (None, 2):
        with pytest.raises(TypeError):
            dumps(value, indent)
