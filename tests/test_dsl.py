"""Text and JSON formats: parsing, canonical serialization, errors."""

import dataclasses
import json
import random
import re
import sys
from importlib import resources
from pathlib import Path

import pytest

import limsketch
from limsketch import dsl
from limsketch.engine import ChaseConfig, rules_of, saturate
from limsketch.localizer import SketchMorphism, break_cycles
from limsketch.sketch import (
    Sketch,
    ValidationReport,
    Violation,
    builtin_sketches,
)

from test_engine import MP_RULE, RULES, mp_basic

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

MP = builtin_sketches()["mp_theory"]
SP, LOC = break_cycles(MP)
SP_NAMED = dataclasses.replace(SP, name="mp_sp")
SIGMA = SketchMorphism(SP_NAMED, MP, LOC.underlying.object_map,
                       LOC.underlying.arrow_map)
ENV = {"mp_sp": SP_NAMED, "mp_theory": MP}

PAIR_SPEC = """spec pair over graph {
  elem v0 : V
  elem v1 : V
  elem e0 : E
  act s(e0) = v0
  act t(e0) = v1
}
"""


def test_builtin_sketches_round_trip():
    """parse after serialize is the canonicalised sketch, byte-stably."""
    for name, sk in builtin_sketches().items():
        text = dsl.serialize(sk)
        back = dsl.parse(text)
        assert len(back) == 1
        assert back[0] == dsl.canonical(sk), name
        assert dsl.serialize(back[0]) == text, name


def test_canonical_is_idempotent():
    for sk in builtin_sketches().values():
        assert dsl.canonical(dsl.canonical(sk)) == dsl.canonical(sk)


def test_empty_sketch_form():
    empty = dsl.parse("sketch X { }")[0]
    assert dsl.serialize(empty) == "sketch X {\n}\n"


def test_broken_sketch_and_localiser_round_trip():
    text = dsl.serialize(SP_NAMED)
    assert dsl.parse(text)[0] == dsl.canonical(SP_NAMED)
    m = dsl.NamedMorphism("mp_sigma", SIGMA)
    assert dsl.parse(dsl.serialize(m), env=ENV)[0] == m


def test_spec_round_trip_keeps_element_order():
    decl = dsl.parse(PAIR_SPEC)[0]
    assert isinstance(decl, dsl.NamedSpec)
    assert decl.realization.carrier["V"].elements == ("v0", "v1")
    assert decl.realization.action["s"]("e0") == "v0"
    text = dsl.serialize(decl)
    assert dsl.parse(text)[0] == decl
    assert dsl.serialize(dsl.parse(text)[0]) == text


def test_spec_resolves_sketch_from_same_text():
    text = """sketch loop {
  object N
  arrow next : N -> N
}
spec two over loop {
  elem a : N
  elem b : N
  act next(a) = b
  act next(b) = a
}
"""
    decls = dsl.parse(text)
    assert len(decls) == 2
    assert decls[1].realization.over is decls[0]


def test_config_round_trip():
    text = "config quick {\n  max_rounds = 3\n  rules = c_IM, c_MP\n}\n"
    decl = dsl.parse(text)[0]
    assert decl == dsl.NamedConfig(
        "quick", ChaseConfig(max_rounds=3, rule_subset=("c_IM", "c_MP")))
    assert dsl.serialize(decl) == text
    bare = dsl.parse("config slow { max_rounds = 99 }")[0]
    assert bare.config.rule_subset is None
    assert "rules" not in dsl.serialize(bare)


def test_comments_and_whitespace_are_ignored():
    noisy = """// a graph
sketch   graph2 {   object V // nodes
  object E
  arrow s : E -> V arrow t : E -> V }
"""
    sk = dsl.parse(noisy)[0]
    assert sk.objects == ("V", "E")
    assert set(sk.arrows) == {"s", "t"}


@pytest.mark.parametrize("text", [
    "sketch a { object A } ",
    "sketch a { object A }\t",
    "sketch a { object A }\n  ",
    "sketch a { object A } // no newline after this comment",
])
def test_blanks_and_a_comment_may_end_the_file(text):
    assert dsl.parse(text) == [dsl.parse("sketch a { object A }")[0]]


# Pieces of random texts for the scanner check: identifier characters,
# digits, the grammar's marks and its four blanks, then rarer ones: a
# comment, the blanks only ``str.split`` knows, and strays, some not ASCII.
SCAN_PIECES = [*"aZ_#'", *"09", *"{}()[]:;=,.", "=>", "->", *" \t\r\n"]
RARE_SCAN_PIECES = ["//", "\v", "\f", "\x1c", "\x85", "\xa0", "é", "$", "/"]
TOKEN = dsl._TOKEN


def regex_scan(text: str) -> tuple[list[str], list[str]]:
    """The tokens ``_TOKEN`` finds, up to the end-of-input token, and the
    kind of each."""
    texts = TOKEN.findall(text)
    texts = texts[:texts.index("") + 1]
    return texts, [dsl._KIND.get(t) or dsl._KIND.get(t[:1], "stray")
                   for t in texts]


class CountedToken:
    """``_TOKEN``, counting the texts that fall back to it."""

    def __init__(self):
        self.calls = 0

    def findall(self, text):
        self.calls += 1
        return TOKEN.findall(text)


@pytest.fixture
def counted(monkeypatch):
    counted = CountedToken()
    monkeypatch.setattr(dsl, "_TOKEN", counted)
    return counted


def scan(text: str) -> tuple[list[str], list[str]]:
    texts, kinds = dsl._scan(text)
    end = texts.index("") + 1
    return texts[:end], kinds[:end]


def test_split_scan_agrees_with_the_regex_scan(counted):
    rng = random.Random(15)
    for case in range(100_000):
        text = "".join(
            rng.choice(RARE_SCAN_PIECES if rng.random() < 0.04
                       else SCAN_PIECES)
            for _ in range(rng.randrange(9)))
        assert scan(text) == regex_scan(text), f"case {case}: {text!r}"
    # both scans ran often
    assert 20_000 < counted.calls < 80_000


@pytest.mark.parametrize("text, falls_back", [
    *((text, True) for text in (
        "a // note\nb", "a//b", "a\xa0b", "a\x85b", "é", "a\vb", "a\fb",
        "a\x1cb", "a\x1fb", "12ab", "a->b", "x==y", "#a", "a$b", "-->")),
    *((text, False) for text in (
        "spec s over t {\r\n\tact p(x) = y elem x:A }",
        "a#0 b' 12 = => -> $ /", "", " \t\r\n")),
])
def test_split_scan_falls_back_exactly_when_it_must(counted, text,
                                                    falls_back):
    assert scan(text) == regex_scan(text)
    assert counted.calls == falls_back


def test_mono_by_suffix_and_by_keyword():
    suffix = dsl.parse(
        "sketch a { object X arrow i : X -> X [mono] }")[0]
    keyword = dsl.parse(
        "sketch a { object X arrow i : X -> X mono i }")[0]
    assert suffix.monos == keyword.monos == frozenset({"i"})
    assert "[mono]" in dsl.serialize(suffix)


def test_identity_equations():
    sk = dsl.parse(
        "sketch r { object A arrow e : A -> A eq e.e = id(A) }")[0]
    assert sk.equations[0].lhs == ("e", "e")
    assert sk.equations[0].rhs == ()
    assert "eq e.e = id(A)" in dsl.serialize(sk)
    # an identity on the left is normalised to the right
    flipped = dsl.parse(
        "sketch r { object A arrow e : A -> A eq id(A) = e.e }")[0]
    assert flipped.equations == sk.equations


def test_parse_errors_carry_line_and_column():
    try:
        dsl.parse("sketch a {\n  object\n}\n")
        assert False, "expected ParseError"
    except dsl.ParseError as e:
        assert [(i.line, i.col) for i in e.issues] == [(3, 1)]
        assert "object name" in e.issues[0].message


def test_independent_errors_all_reported_in_one_pass():
    bad = """sketch one {
  object A
  arrow f : A -> B
  arrow f : A -> A
}
sketch two {
  object C
  eq g = id(C)
}
spec s over nowhere {
  elem x : Q
}
"""
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse(bad)
    messages = [i.message for i in exc.value.issues]
    assert any("duplicate arrow 'f'" in m for m in messages)
    assert any("undeclared object 'B'" in m for m in messages)
    assert any("undeclared arrow 'g'" in m for m in messages)
    assert any("unknown sketch 'nowhere'" in m for m in messages)
    lines = [i.line for i in exc.value.issues]
    assert min(lines) >= 3 and max(lines) >= 10


def test_recovery_continues_after_broken_cone():
    bad = """sketch k {
  object A
  cone c : A {
    base
      n :
    ;
    proj
  }
  arrow f : A -> A
  eq f = oops
}
"""
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse(bad)
    messages = [i.message for i in exc.value.issues]
    # both the cone error and the later dangling arrow are seen
    assert any("object name" in m for m in messages)
    assert any("undeclared arrow 'oops'" in m for m in messages)


def test_dangling_references_rejected():
    cases = [
        ("sketch a { object A cone c : B { base ; proj } }", "apex 'B'"),
        ("sketch a { object A arrow f : A -> A cone c : A {"
         " base x : A ; proj y -> f } }", "undeclared node 'y'"),
        ("spec s over graph { elem e : W }", "undeclared object 'W'"),
        ("spec s over graph { elem e : E act s(e) = e }",
         "not an element of V"),
        ("morphism m : graph -> graph { obj V => Q }",
         "unknown target object 'Q'"),
        ("morphism m : graph -> graph { arr s => zip }",
         "unknown target arrow 'zip'"),
    ]
    for text, needle in cases:
        with pytest.raises(dsl.ParseError) as exc:
            dsl.parse(text)
        assert any(needle in i.message for i in exc.value.issues), (
            text, str(exc.value))


def test_duplicate_declaration_names():
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse("sketch a { }\nsketch a { }")
    assert "duplicate declaration name 'a'" in str(exc.value)


def test_spec_missing_action_is_an_error():
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse("spec s over graph { elem e : E elem v : V "
                  "act s(e) = v }")
    assert "missing the action t(e)" in str(exc.value)


def test_cone_projection_equations_are_synthesised():
    text = """sketch trig {
  object A
  object B
  object X
  arrow f : A -> B
  arrow pa : X -> A
  arrow pb : X -> B
  cone c : X {
    base
      na : A
      nb : B
      edge na -> nb : f
    ;
    proj
      na -> pa
      nb -> pb
  }
}
"""
    sk = dsl.parse(text)[0]
    assert len(sk.equations) == 1
    assert (sk.equations[0].lhs, sk.equations[0].rhs) == (("pa", "f"),
                                                          ("pb",))
    for explicit in ("  eq pa.f = pb\n}\n", "  eq pb = pa.f\n}\n"):
        again = dsl.parse(text[:-2] + explicit)[0]
        assert len(again.equations) == 1
    assert dsl.parse(dsl.serialize(sk))[0] == dsl.canonical(sk)


def test_json_round_trip_for_all_declaration_kinds():
    for sk in builtin_sketches().values():
        assert dsl.parse_json(dsl.serialize_json(sk))[0] == dsl.canonical(sk)
    spec = dsl.parse(PAIR_SPEC)[0]
    assert dsl.parse_json(dsl.serialize_json(spec))[0] == spec
    m = dsl.NamedMorphism("mp_sigma", SIGMA)
    assert dsl.parse_json(dsl.serialize_json(m), env=ENV)[0] == m
    cfg = dsl.NamedConfig("c", ChaseConfig(max_rounds=5,
                                           rule_subset=("c_MP",)))
    assert dsl.parse_json(dsl.serialize_json(cfg))[0] == cfg


def test_json_and_text_forms_agree():
    """A sketch shipped as JSON parses to the same thing as its text."""
    for sk in builtin_sketches().values():
        from_text = dsl.parse(dsl.serialize(sk))[0]
        from_json = dsl.parse_json(dsl.serialize_json(sk))[0]
        assert from_text == from_json


def test_json_list_resolves_earlier_sketches():
    docs = json.loads("[" + dsl.serialize_json(SP_NAMED) + "]")
    spec_doc = json.loads(dsl.serialize_json(
        dsl.NamedSpec("base", mp_basic())))
    spec_doc["over"] = "mp_sp"
    docs.append(spec_doc)
    decls = dsl.parse_json(docs)
    assert decls[1].realization.over is decls[0]


def sk_doc(**parts):
    """A JSON sketch named 'a' with one object A, overridden by ``parts``."""
    return {"kind": "sketch", "name": "a", "objects": ["A"], "arrows": [],
            "monos": [], "cones": [], "equations": [], **parts}


def spec_doc(**parts):
    return {"kind": "spec", "name": "s", "over": "graph", "carriers": {},
            "actions": {}, **parts}


def graph_morphism_doc(**parts):
    return {"kind": "morphism", "name": "m", "src": "graph", "tgt": "graph",
            "objects": {}, "arrows": {}, **parts}


F = {"id": "f", "src": "A", "tgt": "A"}

# The same bad declaration in both formats, and a needle of the message.
REJECTED_BY_BOTH = [
    ("sketch a { object A arrow f : A -> ZZ }",
     sk_doc(arrows=[{"id": "f", "src": "A", "tgt": "ZZ"}]),
     "arrow 'f' references undeclared object 'ZZ'"),
    ("sketch a { object A mono g }", sk_doc(monos=["g"]),
     "mono flag on undeclared arrow 'g'"),
    ("sketch a { object A object A }", sk_doc(objects=["A", "A"]),
     "duplicate object 'A'"),
    ("sketch a { object A arrow f : A -> A eq f = g }",
     sk_doc(arrows=[F], equations=[{"lhs": ["f"], "rhs": ["g"]}]),
     "equation references undeclared arrow 'g'"),
    ("sketch a { object A eq id(A) = id(A) }",
     sk_doc(equations=[{"lhs": [], "rhs": []}]),
     "an equation needs at least one non-identity side"),
    ("sketch a { object A arrow f : A -> A cone c : A {"
     " base x : A y : A edge x -> y : id(A) ; proj } }",
     sk_doc(arrows=[F], cones=[{
         "name": "c", "apex": "A", "nodes": {"x": "A", "y": "A"},
         "edges": [{"src": "x", "tgt": "y", "path": []}],
         "projections": {}}]),
     "identity edges are implicit"),
    ("spec s over graph { elem e : E elem v : V act s(e) = v }",
     spec_doc(carriers={"E": ["e"], "V": ["v"]}, actions={"s": {"e": "v"}}),
     "spec 's' is missing the action t(e)"),
    ("spec s over graph { elem e : W }", spec_doc(carriers={"W": ["e"]}),
     "element 'e' has undeclared object 'W'"),
    ("morphism m : graph -> graph { obj V => Q }",
     graph_morphism_doc(objects={"V": "Q"}), "unknown target object 'Q'"),
    ("morphism m : graph -> graph { arr s => zip }",
     graph_morphism_doc(arrows={"s": ["zip"]}), "unknown target arrow 'zip'"),
    ("sketch a { }\nsketch a { }",
     [sk_doc(objects=[]), sk_doc(objects=[])],
     "duplicate declaration name 'a'"),
    ("morphism m : graph -> graph { arr s => id(V) }",
     graph_morphism_doc(arrows={"s": []}),
     "identity image of arrow 's' needs its source object 'E' mapped"),
    # JSON can only repeat a cone's node or projection by repeating a key
    ("sketch a { object A object B arrow p : A -> A cone c : A {"
     " base x : A x : B ; proj x -> p } }",
     '{"kind": "sketch", "name": "a", "objects": ["A", "B"],'
     ' "arrows": [{"id": "p", "src": "A", "tgt": "A"}], "monos": [],'
     ' "equations": [], "cones": [{"name": "c", "apex": "A",'
     ' "nodes": {"x": "A", "x": "B"}, "edges": [],'
     ' "projections": {"x": "p"}}]}',
     "duplicate base node 'x'"),
    ("sketch a { object A arrow p : A -> A arrow q : A -> A cone c : A {"
     " base x : A ; proj x -> p x -> q } }",
     '{"kind": "sketch", "name": "a", "objects": ["A"],'
     ' "arrows": [{"id": "p", "src": "A", "tgt": "A"},'
     ' {"id": "q", "src": "A", "tgt": "A"}], "monos": [],'
     ' "equations": [], "cones": [{"name": "c", "apex": "A",'
     ' "nodes": {"x": "A"}, "edges": [],'
     ' "projections": {"x": "p", "x": "q"}}]}',
     "node 'x' projected twice"),
]


@pytest.mark.parametrize("text, doc, needle", REJECTED_BY_BOTH)
def test_text_and_json_reject_alike(text, doc, needle):
    with pytest.raises(dsl.ParseError) as from_text:
        dsl.parse(text)
    with pytest.raises(dsl.ParseError) as from_json:
        dsl.parse_json(doc)
    text_messages = [i.message for i in from_text.value.issues]
    json_messages = [re.sub(r"^declaration \d+: ", "", i.message)
                     for i in from_json.value.issues]
    assert any(needle in m for m in text_messages), text_messages
    assert json_messages == text_messages


def corpus_specs():
    """Each spec of the corpus and of ``chain(5)``, with the sketches it
    may name."""
    out = []
    for name in ("bank.sk", "graph.sk", "magma.sk", "mp.sk"):
        decls = dsl.parse_path(resources.files("limsketch") / "corpus" / name)
        env = {d.name: d for d in decls if isinstance(d, Sketch)}
        out += [(d, env) for d in decls if isinstance(d, dsl.NamedSpec)]
    env = workloads.Env(limsketch, {}, SP_NAMED, RULES, MP_RULE, Path("."))
    out.append((dsl.NamedSpec("chain5", workloads.chain(env, 5, 5)),
                {"mp_sp": SP_NAMED}))
    return out


def mutated_forms(decl: dsl.NamedSpec, kind: str, rng: random.Random):
    """The same mutation of ``decl``'s text and of its JSON form."""
    r = decl.realization
    lines = dsl.serialize(decl).splitlines(keepends=True)
    doc = json.loads(dsl.serialize_json(decl))
    acts = [(aid, x) for aid in sorted(r.action) for x in r.action[aid].dom
            if len(r.carrier[r.over.arrows[aid].tgt]) > 1]
    aid, x = rng.choice(acts)
    y = r.action[aid](x)
    act_line = lines.index(f"  act {aid}({x}) = {y}\n")
    elems = [(el, ob) for ob in r.over.objects for el in r.carrier[ob]]
    el, ob = rng.choice(elems)
    elem_line = lines.index(f"  elem {el} : {ob}\n")
    if kind == "drop act":
        del lines[act_line]
        del doc["actions"][aid][x]
    elif kind == "duplicate elem":
        lines.insert(elem_line, lines[elem_line])
        doc["carriers"][ob].insert(doc["carriers"][ob].index(el), el)
    elif kind == "undeclared object":
        lines[elem_line] = f"  elem {el} : Nowhere\n"
        doc["carriers"][ob].remove(el)
        doc["carriers"]["Nowhere"] = [el]
    elif kind == "undeclared arrow":
        lines.insert(len(lines) - 1, f"  act nowhere({x}) = {y}\n")
        doc["actions"]["nowhere"] = {x: y}
    else:  # a conflicting action; JSON can only say it by repeating a key
        other = next(z for z in r.carrier[r.over.arrows[aid].tgt]
                     if z != y)
        lines.insert(act_line + 1, f"  act {aid}({x}) = {other}\n")
        doc["actions"][aid] = "@table@"
        table = ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in
                          [*r.action[aid].mapping.items(), (x, other)])
        return "".join(lines), json.dumps(doc).replace('"@table@"',
                                                       f"{{{table}}}")
    return "".join(lines), doc


@pytest.mark.parametrize("kind", ["drop act", "duplicate elem",
                                  "undeclared object", "undeclared arrow",
                                  "conflicting action"])
def test_text_and_json_reject_mutated_specs_alike(kind):
    rng = random.Random(kind)
    for decl, env in corpus_specs():
        for _ in range(3):
            text, doc = mutated_forms(decl, kind, rng)
            with pytest.raises(dsl.ParseError) as from_text:
                dsl.parse(text, env)
            with pytest.raises(dsl.ParseError) as from_json:
                dsl.parse_json(doc, env)
            assert [re.sub(r"^declaration \d+: ", "", i.message)
                    for i in from_json.value.issues] == \
                [i.message for i in from_text.value.issues]


def corpus_decls(kind):
    """Each declaration of ``kind`` in the corpus, with the sketches of its
    file."""
    out = []
    for name in ("bank.sk", "graph.sk", "magma.sk", "mp.sk"):
        decls = dsl.parse_path(resources.files("limsketch") / "corpus" / name)
        env = {d.name: d for d in decls if isinstance(d, Sketch)}
        out += [(d, env) for d in decls if isinstance(d, kind)]
    return out


def with_repeated_key(doc, key, items):
    """``doc`` as JSON text with the dict ``doc[key]`` written as
    ``items``, which may repeat a key."""
    doc[key] = "@items@"
    table = ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in items)
    return json.dumps(doc).replace('"@items@"', f"{{{table}}}")


def mutated_decl_forms(decl, kind: str, rng: random.Random):
    """The same mutation of a sketch's or a morphism's text and JSON form."""
    lines = dsl.serialize(decl).splitlines(keepends=True)
    doc = json.loads(dsl.serialize_json(decl))
    if kind == "drop equation arrow":
        eq = rng.choice(decl.equations)
        aid = rng.choice(eq.lhs + eq.rhs)
        lines = [ln for ln in lines if not ln.startswith(f"  arrow {aid} :")]
        doc["arrows"] = [a for a in doc["arrows"] if a["id"] != aid]
        doc["monos"] = [m for m in doc["monos"] if m != aid]
    elif kind == "undeclared projection node":
        cone = rng.choice(sorted(decl.cones))
        aid = rng.choice(sorted(decl.arrows))
        start = lines.index(f"  cone {cone} : {decl.cones[cone].apex} {{\n")
        lines.insert(lines.index("  }\n", start), f"      zz -> {aid}\n")
        next(c for c in doc["cones"]
             if c["name"] == cone)["projections"]["zz"] = aid
    elif kind == "object mapped twice":
        sigma = decl.morphism
        ob = rng.choice(sorted(sigma.object_map))
        again = rng.choice(sigma.tgt.objects)
        line = lines.index(f"  obj {ob} => {sigma.object_map[ob]}\n")
        lines.insert(line + 1, f"  obj {ob} => {again}\n")
        items = []
        for a, b in doc["objects"].items():
            items += [(a, b), (a, again)] if a == ob else [(a, b)]
        return "".join(lines), with_repeated_key(doc, "objects", items)
    else:  # an arrow image of another type
        sigma = decl.morphism
        aid = rng.choice(sorted(sigma.arrow_map))
        image = rng.choice(sorted(sigma.tgt.arrows))
        lines = [f"  arr {aid} => {image}\n"
                 if ln.startswith(f"  arr {aid} => ") else ln for ln in lines]
        doc["arrows"][aid] = [image]
    return "".join(lines), doc


def outcome(load, source, env):
    """The declarations ``load`` reads, or its issue messages."""
    try:
        return load(source, env)
    except dsl.ParseError as exc:
        return [re.sub(r"^declaration \d+: ", "", i.message)
                for i in exc.issues]


@pytest.mark.parametrize("kind, decl_kind, needs, rejected", [
    ("drop equation arrow", Sketch, "equations", True),
    ("undeclared projection node", Sketch, "cones", True),
    ("object mapped twice", dsl.NamedMorphism, "morphism", True),
    ("wrongly typed arrow image", dsl.NamedMorphism, "morphism", False),
])
def test_text_and_json_read_mutated_sketches_and_morphisms_alike(
        kind, decl_kind, needs, rejected):
    """Both formats read the same declarations or report the same issues;
    ``needs`` names what a declaration must have for the mutation."""
    rng = random.Random(kind)
    decls = [(d, env) for d, env in corpus_decls(decl_kind)
             if getattr(d, needs)]
    assert decls
    for decl, env in decls:
        for _ in range(3):
            text, doc = mutated_decl_forms(decl, kind, rng)
            from_text = outcome(dsl.parse, text, env)
            assert outcome(dsl.parse_json, doc, env) == from_text
            if rejected:
                assert all(isinstance(m, str) for m in from_text)


@pytest.mark.parametrize("text, doc", [
    ("morphism m : graph -> graph { obj V => V obj V => E }",
     '{"kind": "morphism", "name": "m", "src": "graph", "tgt": "graph",'
     ' "objects": {"V": "V", "V": "E"}, "arrows": {}}'),
    ("morphism m : graph -> graph { arr s => s arr s => t }",
     '{"kind": "morphism", "name": "m", "src": "graph", "tgt": "graph",'
     ' "objects": {}, "arrows": {"s": ["s"], "s": ["t"]}}'),
])
def test_json_repeated_key_is_checked_like_a_repeated_line(text, doc):
    with pytest.raises(dsl.ParseError) as from_text:
        dsl.parse(text)
    with pytest.raises(dsl.ParseError) as from_json:
        dsl.parse_json(doc)
    assert [f"declaration 0: {i.message}" for i in from_text.value.issues] \
        == [i.message for i in from_json.value.issues]


@pytest.mark.parametrize("doc, needle", [
    (spec_doc(carriers={"V": ["a b"]}), "name 'a b' is not an identifier"),
    (sk_doc(objects=["A-1"]), "name 'A-1' is not an identifier"),
    ({"kind": "config", "name": "c", "rules": []}, "lists no rules"),
    ({"kind": "config", "name": "c", "max_rounds": -1}, "malformed"),
    # a string where a list belongs must not read as a list of letters
    (sk_doc(objects="AB"), "malformed document (expected a list, got 'AB')"),
    (spec_doc(carriers={"V": "ab"}), "malformed document (expected a list"),
    ({"kind": "config", "name": "c", "rules": "c_MP"},
     "malformed document (expected a list"),
])
def test_json_rejects_what_text_cannot_write(doc, needle):
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse_json(doc)
    assert needle in str(exc.value)


def test_json_sketches_get_projection_equations():
    sk = dsl.parse("sketch trig { object A object B object X"
                   " arrow f : A -> B arrow pa : X -> A arrow pb : X -> B"
                   " cone c : X { base na : A nb : B edge na -> nb : f ;"
                   " proj na -> pa nb -> pb } }")[0]
    assert [(q.lhs, q.rhs) for q in sk.equations] == [(("pa", "f"),
                                                       ("pb",))]
    doc = json.loads(dsl.serialize_json(sk))
    doc["equations"] = []
    assert dsl.parse_json(doc)[0] == sk


def test_report_serialization():
    assert dsl.serialize_json(ValidationReport(())) == "[]"
    rep = ValidationReport((
        Violation("code-a", "spot", "text", "error"),
        Violation("code-b", "spot2", "text2", "warning"),
    ))
    doc = json.loads(dsl.serialize_json(rep))
    assert doc == [
        {"severity": "error", "code": "code-a", "where": "spot",
         "message": "text"},
        {"severity": "warning", "code": "code-b", "where": "spot2",
         "message": "text2"},
    ]


def test_chase_result_serialization():
    rules = [r for r in rules_of(LOC) if r.id == "c_MP"]
    res = saturate(mp_basic(), rules)
    doc = json.loads(dsl.serialize_json(res))
    assert doc["status"] == "fixpoint"
    assert doc["rounds"] == 1
    assert [r["round"] for r in doc["trace"]] == [0, 1]
    assert doc["trace"][1]["fired"] == [{"rule": "c_MP", "match": "m0"}]


def test_serialize_rejects_unknown_values():
    with pytest.raises(TypeError):
        dsl.serialize(42)
    with pytest.raises(TypeError):
        dsl.serialize_json(object())


def test_parse_path_by_extension(tmp_path):
    sk_file = tmp_path / "g.sk"
    sk_file.write_text(dsl.serialize(builtin_sketches()["graph"]))
    json_file = tmp_path / "g.sk.json"
    json_file.write_text(dsl.serialize_json(builtin_sketches()["graph"]))
    a = dsl.parse_path(sk_file)[0]
    b = dsl.parse_path(json_file)[0]
    assert a == b == dsl.canonical(builtin_sketches()["graph"])


def test_malformed_json_reports_position():
    with pytest.raises(dsl.ParseError):
        dsl.parse_json("{not json")
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse_json({"kind": "sketch", "name": "x"})
    assert "malformed" in str(exc.value)


def test_serialize_file_joins_with_blank_lines():
    text = dsl.serialize_file([SP_NAMED, dsl.NamedMorphism("m", SIGMA)])
    assert dsl.parse(text, env={"mp_theory": MP})[0] == dsl.canonical(
        SP_NAMED)
    assert "\n\nmorphism" in text
