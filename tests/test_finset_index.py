"""Property tests for FinSet's hashed member index and the FinFunction
validation that reads it."""

from __future__ import annotations

import dataclasses

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from limsketch.finset import FinFunction, FinSet  # noqa: E402
from oracle_surface import finset  # noqa: E402

names = st.text(alphabet="abc", max_size=3)
distinct = st.lists(names, unique=True, max_size=8)


@given(distinct, st.lists(names, max_size=8))
def test_membership_agrees_with_the_tuple(elements, probes):
    s = FinSet(tuple(elements))
    for x in elements + probes:
        assert (x in s) == (x in s.elements)


@given(distinct)
def test_equality_hash_and_repr_see_elements_alone(elements):
    a, b = FinSet(tuple(elements)), finset(elements)
    assert a == b
    assert hash(a) == hash(b) == hash((a.elements,))
    assert repr(a) == repr(b) == f"FinSet(elements={tuple(elements)!r})"


@given(distinct, distinct)
def test_replace_rebuilds_the_index(old, new):
    s = dataclasses.replace(FinSet(tuple(old)), elements=tuple(new))
    assert s == FinSet(tuple(new))
    for x in old + new:
        assert (x in s) == (x in new)


@given(st.lists(names, min_size=1, max_size=8))
def test_replace_still_rejects_duplicates(elements):
    s = FinSet(tuple(dict.fromkeys(elements)))
    with pytest.raises(ValueError, match="duplicate elements in FinSet"):
        dataclasses.replace(s, elements=tuple(elements) + (elements[0],))


@st.composite
def functions(draw):
    dom = draw(distinct)
    cod = draw(st.lists(names, unique=True, min_size=1, max_size=8))
    return dom, cod, {x: draw(st.sampled_from(cod)) for x in dom}


@given(functions())
def test_valid_function_accepted(f):
    dom, cod, mapping = f
    assert FinFunction(finset(dom), finset(cod), mapping).mapping == mapping


@given(functions(), st.data())
def test_non_total_map_rejected(f, data):
    dom, cod, mapping = f
    hypothesis.assume(dom)
    drop = data.draw(st.sets(st.sampled_from(dom), min_size=1))
    partial = {x: y for x, y in mapping.items() if x not in drop}
    msg = f"function not total on dom (missing {sorted(drop)}, extra [])"
    with pytest.raises(ValueError) as err:
        FinFunction(finset(dom), finset(cod), partial)
    assert str(err.value) == msg


@given(functions(), st.sets(names, min_size=1))
def test_extra_key_rejected(f, keys):
    dom, cod, mapping = f
    extra = keys - set(dom)
    hypothesis.assume(extra)
    msg = f"function not total on dom (missing [], extra {sorted(extra)})"
    with pytest.raises(ValueError) as err:
        FinFunction(finset(dom), finset(cod), {**mapping, **{k: cod[0] for k in extra}})
    assert str(err.value) == msg


@given(functions(), st.data())
def test_value_outside_cod_rejected(f, data):
    dom, cod, mapping = f
    hypothesis.assume(dom)
    outside = data.draw(st.lists(names.filter(lambda y: y not in cod), min_size=1))
    bad = {**mapping, **dict(zip(dom, outside))}
    msg = f"function values outside cod: {sorted(set(bad.values()) - set(cod))}"
    with pytest.raises(ValueError) as err:
        FinFunction(finset(dom), finset(cod), bad)
    assert str(err.value) == msg
