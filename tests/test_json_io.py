"""The JSON writer's bytes and the one-decode reader.

- ``dsl.dump_json`` equals ``json.dumps(x, indent=2)`` on str-keyed trees
  of dicts, lists, tuples, strings, numbers, booleans and None, and
  ``serialize_json`` writes pinned bytes for the corpus, three benchmark
  chains and a capped chase result;
- ``dsl.parse_json`` on text reads what a decode through ``dsl._Object``
  reads, or reports the same issues, on the corpus, on repeated keys, on
  names holding a colon and on malformed JSON; a clean document builds no
  ``_Object``;
- ``dsl.parse`` leaves no reference cycle behind, so the token lists of a
  text go when it returns, not at the next full collection.
"""
from __future__ import annotations

import copy
import gc
import hashlib
import json
import random
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import limsketch
from limsketch import dsl
from limsketch.engine import ChaseConfig, saturate
from limsketch.sketch import Sketch

from test_dsl import corpus_decls, mutated_decl_forms, with_repeated_key
from test_engine import RULES, mp_basic

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

CORPUS = ("bank.sk", "graph.sk", "magma.sk", "mp.sk")
OBJECT = dsl._Object  # the oracle's, whatever a test patches

leaves = (st.text() | st.integers() | st.floats(allow_nan=False)
          | st.booleans() | st.none())
trees = st.recursive(
    leaves | st.lists(st.text(), max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(st.text(), kids, max_size=4)
    | st.dictionaries(st.text(), st.text(), max_size=4),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_dump_json_is_json_dumps_indented(x):
    assert dsl.dump_json(x) == json.dumps(x, indent=2)


@pytest.mark.parametrize("x", [
    {}, [], (), {"a": ()}, {"a": ("x", "y")}, ("x", ("y",)), {"": ""},
    {"k:": "v: w", "é\n": "\"\\"}, [["x"], [], {}, [1]], [None, True]])
def test_dump_json_edge_cases(x):
    assert dsl.dump_json(x) == json.dumps(x, indent=2)


def corpus_files() -> list[list]:
    return [dsl.parse_path(resources.files("limsketch") / "corpus" / name)
            for name in CORPUS]


def json_digest() -> tuple[str, int]:
    """sha256 and byte count of ``serialize_json`` over every corpus
    declaration, ``chain(n, seed 7 + n)`` for n = 15, 30, 60 and
    ``mp_basic`` under both rules capped at 2 rounds."""
    corpus = {d.name: d for d in corpus_files()[3]}
    env = workloads.Env(limsketch, corpus, corpus["mp_sp"], [], None, Path("."))
    decls = [d for decls in corpus_files() for d in decls]
    decls += [dsl.NamedSpec(f"chain{n}", workloads.chain(env, n, 7 + n))
              for n in (15, 30, 60)]
    capped = saturate(mp_basic(), RULES, ChaseConfig(max_rounds=2)).result
    decls.append(dsl.NamedSpec("capped", capped))
    data = "".join(dsl.serialize_json(d) + "\n" for d in decls).encode()
    return hashlib.sha256(data).hexdigest(), len(data)


def test_serialize_json_bytes_are_pinned():
    # the same digest as json.dumps(doc, indent=2) wrote before dump_json
    assert json_digest() == (
        "08c1413acdabc5ce98178f1bc6406d7e27b60c27791498a5337970bab8b6d88f",
        1_486_369)


def oracle(text: str, env=None):
    """What ``parse_json`` read from a decode that keeps every pair."""
    try:
        data = json.loads(text, object_pairs_hook=OBJECT)
    except json.JSONDecodeError as e:
        return [(e.lineno, e.colno, e.msg)]
    return outcome(data, env)


def outcome(source, env=None):
    try:
        return dsl.parse_json(source, env)
    except dsl.ParseError as e:
        return [(i.line, i.col, i.message) for i in e.issues]


@pytest.fixture
def objects(monkeypatch):
    """A count of the ``_Object`` instances built."""
    built = []

    class Counted(dsl._Object):
        def __init__(self, pairs):
            built.append(pairs)
            super().__init__(pairs)

    monkeypatch.setattr(dsl, "_Object", Counted)
    return built


def test_corpus_reads_like_the_oracle_and_builds_no_object(objects):
    for decls in corpus_files():
        text = dsl.serialize_json(decls)
        assert outcome(text) == oracle(text) == decls
        env = {d.name: d for d in decls if isinstance(d, Sketch)}
        for decl in decls:
            text = dsl.serialize_json(decl)
            assert outcome(text, env) == oracle(text, env)
    assert not objects


def repeated_key_texts() -> list[tuple[str, dict]]:
    """Every top-level table of the corpus spec and morphism documents,
    and every action table, written with a key repeated: once with the
    same value, once with another; and the mutations of ``test_dsl`` that
    map a morphism's object twice."""
    out = []
    for kind in (dsl.NamedSpec, dsl.NamedMorphism):
        for decl, env in corpus_decls(kind):
            doc = json.loads(dsl.serialize_json(decl))
            tables = [(doc, k) for k, v in doc.items() if isinstance(v, dict)]
            tables += [(doc["actions"], a) for a in doc.get("actions", {})]
            for where, key in tables:
                items = list(where[key].items())
                if not items:
                    continue
                k, v = items[0]
                other = items[-1][1]
                for again in (v, other):
                    text = with_repeated_key(copy.deepcopy(where), key,
                                             items + [(k, again)])
                    if where is not doc:
                        held = copy.deepcopy(doc)
                        held["actions"] = "@actions@"
                        text = json.dumps(held).replace('"@actions@"', text)
                    out.append((text, env))
    rng = random.Random(0)
    for decl, env in corpus_decls(dsl.NamedMorphism):
        for _ in range(3):
            out.append((mutated_decl_forms(decl, "object mapped twice", rng)[1],
                        env))
    return out


def test_repeated_keys_read_like_the_oracle(objects):
    cases = repeated_key_texts()
    assert len(cases) > 40
    rejected = 0
    for text, env in cases:
        assert outcome(text, env) == oracle(text, env)
        rejected += isinstance(oracle(text, env)[0], tuple)
    assert objects and rejected


COLON_DOCS = [
    {"kind": "spec", "name": "s", "over": "graph", "carriers": {"V": ["a:b"]},
     "actions": {}},
    {"kind": "spec", "name": "s", "over": "graph", "carriers": {"V:": ["a"]},
     "actions": {}},
    {"kind": "sketch", "name": "a:", "objects": ["A"], "arrows": [],
     "monos": [], "cones": [], "equations": []},
    {"kind": "morphism", "name": "m", "src": "graph", "tgt": "graph",
     "objects": {"V": "V:", "E": "E"}, "arrows": {}},
]


@pytest.mark.parametrize("doc", COLON_DOCS)
def test_a_name_holding_a_colon_reads_like_the_oracle(doc):
    text = json.dumps(doc, indent=2)
    assert outcome(text) == oracle(text)
    assert isinstance(oracle(text)[0], tuple)


def test_a_colon_and_a_repeated_key_together_read_like_the_oracle():
    text = ('{"kind": "morphism", "name": "m", "src": "graph", "tgt": '
            '"graph", "objects": {"V": "V", "V": "E", "E": "E:"}, '
            '"arrows": {}}')
    assert outcome(text) == oracle(text)


@pytest.mark.parametrize("text", [
    "", "{", "[", '{"kind": "spec",}', '{"kind" "spec"}', "[1, 2,]",
    '{"kind": "spec", "name": "s"', "nul", '{"a": 1} x', '"a:b',
    '{"kind": "config", "name": "c", "max_rounds": 01}'])
def test_malformed_json_reports_like_the_oracle(text):
    assert outcome(text) == oracle(text)


@pytest.mark.parametrize("text", [
    "sketch a { object A }\nspec s over a { elem x : A }\n",
    "sketch a { object A }\nspec s over a { elem x : B }\n"])
def test_text_parse_leaves_no_cyclic_garbage(text):
    gc.collect()
    gc.disable()
    try:
        try:
            dsl.parse(text)
        except dsl.ParseError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()
