"""Load errors a user can act on: each issue is located, an ``id(OBJ)``
anchor is checked against where its path sits, the command line names the
file an issue is in, and neither writer writes what the loaders refuse."""

import dataclasses
import json

import pytest

from limsketch import dsl
from limsketch.cli import corpus_dir, main
from limsketch.engine import ChaseConfig
from limsketch.finset import FinFunction, FinSet
from limsketch.localizer import SketchMorphism
from limsketch.realization import Realization
from limsketch.sketch import ArrowDecl, Sketch, builtin_sketches

MP_TEXT = (corpus_dir() / "mp.sk").read_text()
GRAPH = builtin_sketches()["graph"]
MAGMA = builtin_sketches()["magma"]
PAIRS = next(iter(MAGMA.cones.values()))
EMPTY = FinFunction(FinSet(()), FinSet(()), {})


def issues(text):
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse(text)
    return [(i.line, i.col, i.message) for i in exc.value.issues]


def test_equation_anchor_is_where_the_other_side_starts():
    assert issues("sketch r { object A arrow f : A -> A eq f = id(Nope) }") \
        == [(1, 38, "identity side id(Nope) is not at 'A', where the other "
                    "side starts")]
    # f.g runs from A back to A, so id(B) is at the wrong end
    assert issues("sketch r { object A object B arrow f : A -> B\n"
                  "  arrow g : B -> A\n  eq id(B) = f.g }") == [
        (3, 3, "identity side id(B) is not at 'A', where the other side "
               "starts")]


def test_equation_with_the_right_anchor_loads_and_round_trips():
    text = "sketch r { object A object B arrow f : A -> B arrow g : B -> A " \
        "eq f.g = id(A) }"
    sk = dsl.parse(text)[0]
    assert sk.equations[0].rhs == ()
    assert "eq f.g = id(A)" in dsl.serialize(sk)
    assert dsl.parse(dsl.serialize(sk)) == [sk]


def test_identity_image_anchor_is_the_image_of_the_source_object():
    right = "arr h_c_IM => id(H_IM)"
    assert right in MP_TEXT
    line = MP_TEXT[:MP_TEXT.index(right)].count("\n") + 1
    assert issues(MP_TEXT.replace(right, "arr h_c_IM => id(C_IM)")) == [
        (line, 3, "identity image id(C_IM) of arrow 'h_c_IM' is not at "
                  "'H_IM', the image of its source object")]
    assert dsl.parse(MP_TEXT)


@pytest.mark.parametrize("text, issue", [
    ("sketch a { object X arrow i : X -> X [mono] mono i }",
     (1, 50, "arrow 'i' marked mono twice")),
    ("sketch a { object A cone c : A { base ; proj }"
     " cone c : A { base ; proj } }", (1, 48, "duplicate cone 'c'")),
    # column 62 is the anchor of the identity image, not an object line
    ("morphism m : graph -> graph { obj V => V obj E => E arr s => id(Q) }",
     (1, 62, "unknown target object 'Q'")),
])
def test_declaration_errors_are_located(text, issue):
    assert issue in issues(text)


def test_json_document_of_unknown_kind():
    with pytest.raises(dsl.ParseError) as exc:
        dsl.parse_json({"kind": "theory", "name": "x"})
    assert [i.message for i in exc.value.issues] == [
        "declaration 0: unknown kind 'theory'"]


def test_neither_writer_writes_a_config_with_no_rules():
    """An empty rule list parses back in neither format."""
    cfg = dsl.NamedConfig("q", ChaseConfig(max_rounds=2, rule_subset=()))
    for write in (dsl.serialize, dsl.serialize_json):
        with pytest.raises(ValueError, match="config 'q' lists no rules"):
            write(cfg)


@pytest.mark.parametrize("config, refusal", [
    (ChaseConfig(max_rounds=-1),
     "config 'q' has max_rounds -1, not a natural number"),
    (ChaseConfig(rule_subset=("a b",)),
     "config 'q' lists rule 'a b', not an identifier"),
])
@pytest.mark.parametrize("write", [dsl.serialize, dsl.serialize_json])
def test_neither_writer_writes_a_config_neither_loader_reads(config, refusal,
                                                            write):
    """A negative round budget and a rule name with a blank in it parse
    back in neither format."""
    with pytest.raises(ValueError, match=refusal):
        write(dsl.NamedConfig("q", config))


def renamed_sketch(**parts) -> Sketch:
    """The builtin magma sketch with some of its parts replaced."""
    return dataclasses.replace(MAGMA, **parts)


@pytest.mark.parametrize("decl, kind, name, bad", [
    (dsl.NamedConfig("a b", ChaseConfig()), "config", "a b", "a b"),
    (renamed_sketch(name="my magma"), "sketch", "my magma", "my magma"),
    (renamed_sketch(objects=(*MAGMA.objects, "M 3")), "sketch", "magma",
     "M 3"),
    (renamed_sketch(arrows={**MAGMA.arrows,
                            "m\n2": ArrowDecl("m\n2", "M", "M")}),
     "sketch", "magma", "m\n2"),
    (renamed_sketch(cones={"pair s": dataclasses.replace(
        PAIRS, name="pair s")}), "sketch", "magma", "pair s"),
    (renamed_sketch(cones={PAIRS.name: dataclasses.replace(
        PAIRS, nodes={**PAIRS.nodes, "": "M"})}), "sketch", "magma", ""),
    (dsl.NamedSpec("s", Realization(
        GRAPH, {"E": FinSet(()), "V": FinSet(("v0", "v-1"))},
        {"s": EMPTY, "t": EMPTY})), "spec", "s", "v-1"),
    (dsl.NamedSpec("s t", Realization(
        GRAPH, {"E": FinSet(()), "V": FinSet(())}, {"s": EMPTY, "t": EMPTY})),
     "spec", "s t", "s t"),
    (dsl.NamedMorphism("m 1", SketchMorphism(
        GRAPH, GRAPH, {"E": "E", "V": "V"}, {"s": ("s",), "t": ("t",)})),
     "morphism", "m 1", "m 1"),
], ids=["config", "sketch", "object", "arrow", "cone", "node", "element",
        "spec", "morphism"])
@pytest.mark.parametrize("write", [dsl.serialize, dsl.serialize_json])
def test_neither_writer_writes_a_name_neither_loader_reads(decl, kind, name,
                                                          bad, write):
    """A declaration, object, arrow, cone, cone node or element name that is
    not an identifier parses back in neither format."""
    with pytest.raises(ValueError) as exc:
        write(decl)
    assert str(exc.value) == f"{kind} {name!r} has the name {bad!r}, not " \
        "an identifier, so neither format can write it"


def run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().err


def test_parse_error_names_the_file(tmp_path, capsys):
    mp = tmp_path / "mp.sk"
    mp.write_text(MP_TEXT)
    bad = tmp_path / "bad.sk"
    bad.write_text("sketch bad {\n  object A\n  arrow f : A -> B\n}\n")
    code, err = run(["validate", str(mp), str(bad)], capsys)
    assert code == 2
    assert err == f"error: {bad}:3:9: arrow 'f' references undeclared " \
        f"object 'B'\n"
    assert "mp.sk" not in err


def test_json_parse_error_names_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.sk.json"
    bad.write_text(json.dumps({
        "kind": "sketch", "name": "x", "objects": ["A"],
        "arrows": [{"id": "f", "src": "A", "tgt": "B"}], "monos": [],
        "equations": [], "cones": []}))
    code, err = run(["validate", str(bad)], capsys)
    assert code == 2
    assert err.startswith(f"error: {bad}:0:0: declaration 0: ")


def test_parse_error_in_a_used_file_names_it(tmp_path, capsys):
    bad = tmp_path / "bad.sk"
    bad.write_text("sketch bad {\n  object\n}\n")
    script = tmp_path / "proof.txt"
    script.write_text(f"use {bad}\n")
    code, err = run(["prove", str(script)], capsys)
    assert code == 2
    assert err.startswith(f"error: {bad}:3:1: ")
