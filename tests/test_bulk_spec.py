"""The bulk spec build against the entry walk.

``dsl._Builder.spec`` builds a spec from its columns at once
(``dsl._bulk_spec``) and walks the entries one by one only when that build
declines; the walk is the only code that words an issue.  With the bulk
build switched off, every spec here must load to the same declarations, or
fail with the same issues, in the text format and in the JSON format.

The JSON form of a body writes each run of one object's elements, and each
run of one arrow's actions, as one member, so a second run repeats a key,
as the text form repeats a keyword.
"""
import json
import random
import re
from itertools import groupby
from operator import itemgetter

import pytest

from limsketch import dsl
from limsketch.sketch import builtin_sketches

ENTRY = re.compile(r"elem (\w+) : (\w+)|act (\w+)\((\w+)\) = (\w+)")
LOADERS = {"text": dsl.parse, "json": dsl.parse_json}
# A path of two edges over the builtin graph sketch (objects E and V, arrows
# s and t from E to V), in the layout both writers use.
CANONICAL = ("elem e01 : E elem e12 : E elem v0 : V elem v1 : V elem v2 : V "
             "act s(e01) = v0 act s(e12) = v1 act t(e01) = v1 act t(e12) = v2")


def rows(body: str) -> tuple[list, list]:
    """The elements ``(el, ob)`` and actions ``(arrow, x, y)`` of a body."""
    elems, acts = [], []
    for m in ENTRY.finditer(body):
        if m[1]:
            elems.append((m[1], m[2]))
        else:
            acts.append((m[3], m[4], m[5]))
    return elems, acts


def members(pairs) -> str:
    """A JSON object of ``(key, JSON text)`` pairs, a repeated key kept."""
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs) + "}"


def sources(body: str) -> dict[str, str]:
    """The spec ``s`` over ``graph`` with this body, in each format."""
    elems, acts = rows(body)
    carriers = members((ob, json.dumps([el for el, _ in run]))
                       for ob, run in groupby(elems, itemgetter(1)))
    actions = members((aid, members((x, json.dumps(y)) for _, x, y in run))
                      for aid, run in groupby(acts, itemgetter(0)))
    return {"text": f"spec s over graph {{ {body} }}",
            "json": '{"kind": "spec", "name": "s", "over": "graph", '
                    f'"carriers": {carriers}, "actions": {actions}}}'}


def load(form: str, source: str):
    """Declarations and no issues, or no declarations and the messages."""
    try:
        return LOADERS[form](source), []
    except dsl.ParseError as e:
        return None, [i.message.removeprefix("declaration 0: ")
                      for i in e.issues]


def walked(form: str, source: str, monkeypatch):
    """``load`` with the bulk build off, so that every spec is walked."""
    with monkeypatch.context() as m:
        m.setattr(dsl, "_bulk_spec", lambda sk, elems, acts: None)
        return load(form, source)


@pytest.fixture
def built(monkeypatch) -> list:
    """What each ``_bulk_spec`` call returned: None where it declined."""
    builtin_sketches()  # the first call loads the corpus, specs and all
    results = []
    bulk = dsl._bulk_spec

    def spy(*args):
        results.append(bulk(*args))
        return results[-1]

    monkeypatch.setattr(dsl, "_bulk_spec", spy)
    return results


@pytest.mark.parametrize("form", LOADERS)
def test_the_bulk_build_takes_the_written_layout(form, built, monkeypatch):
    decls, issues = load(form, sources(CANONICAL)[form])
    assert issues == [] and built == [decls[0].realization]
    assert walked(form, sources(CANONICAL)[form], monkeypatch) == (decls, [])


# Layouts the bulk build declines, or the text slicer does, that load to
# the written layout's spec all the same.
ACCEPTED = {
    "interleaved entries": (
        "elem e01 : E elem e12 : E act s(e01) = v0 elem v0 : V "
        "act s(e12) = v1 elem v1 : V elem v2 : V act t(e01) = v1 "
        "act t(e12) = v2", False),
    "one arrow's actions in two runs": (
        "elem e01 : E elem e12 : E elem v0 : V elem v1 : V elem v2 : V "
        "act s(e01) = v0 act t(e01) = v1 act s(e12) = v1 act t(e12) = v2",
        True),
    "a repeated identical action": (
        CANONICAL.replace("act s(e12)", "act s(e01) = v0 act s(e12)"), True),
    "one object's elements in two runs": (
        "elem e01 : E elem v0 : V elem e12 : E elem v1 : V elem v2 : V "
        "act s(e01) = v0 act s(e12) = v1 act t(e01) = v1 act t(e12) = v2",
        True),
}


@pytest.mark.parametrize("form", LOADERS)
@pytest.mark.parametrize("layout", ACCEPTED)
def test_declined_layouts_still_load(layout, form, built, monkeypatch):
    body, declined = ACCEPTED[layout]
    expected = load(form, sources(CANONICAL)[form])
    built.clear()
    got = load(form, sources(body)[form])
    assert got == expected and got[0] is not None
    assert (built == [None]) == declined
    assert walked(form, sources(body)[form], monkeypatch) == expected


# Specs that must fail, each with its first issue.
REJECTED = {
    "an element under two objects": (
        "elem x : E elem x : V act s(x) = x act t(x) = x",
        "duplicate element 'x'"),
    "conflicting actions": (
        CANONICAL.replace("act s(e12)", "act s(e01) = v2 act s(e12)"),
        "conflicting actions for s(e01)"),
    "an action on an arrow the sketch lacks": (
        CANONICAL + " act u(e01) = v0", "action on undeclared arrow 'u'"),
    "a missing action": (
        CANONICAL.replace(" act t(e12) = v2", ""),
        "spec 's' is missing the action t(e12)"),
    "a value outside the target": (
        CANONICAL.replace("t(e12) = v2", "t(e12) = e01"),
        "action value 'e01' is not an element of V"),
    "an element of an undeclared object": (
        CANONICAL + " elem w : W", "element 'w' has undeclared object 'W'"),
}


@pytest.mark.parametrize("form", LOADERS)
@pytest.mark.parametrize("case", REJECTED)
def test_rejected_specs_get_the_walks_issues(case, form, monkeypatch):
    body, first = REJECTED[case]
    got = load(form, sources(body)[form])
    assert got[0] is None and got[1][0] == first
    assert got == walked(form, sources(body)[form], monkeypatch)
    other = "json" if form == "text" else "text"
    assert got == load(other, sources(body)[other])


def mutated(rng: random.Random) -> str:
    """The written layout's body after a few seeded edits of its entries."""
    elems, acts = rows(CANONICAL)
    names = [el for el, _ in elems]
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(10)
        table = elems if kind % 2 == 0 else acts
        i = rng.randrange(len(table))
        if kind < 2:
            j = rng.randrange(len(table))
            table[i], table[j] = table[j], table[i]
        elif kind < 4:
            table.insert(rng.randrange(len(table) + 1), table[i])
        elif kind < 6:
            if len(table) > 1:
                del table[i]
        elif kind == 6:
            elems[i] = (elems[i][0], rng.choice("EVW"))
        elif kind == 7:
            acts[i] = (*acts[i][:2], rng.choice(names))
        elif kind == 8:
            elems[i] = (rng.choice(names), elems[i][1])
        else:
            acts[i] = (rng.choice("stu"), *acts[i][1:])
    return " ".join([*(f"elem {el} : {ob}" for el, ob in elems),
                     *(f"act {a}({x}) = {y}" for a, x, y in acts)])


@pytest.mark.parametrize("form", LOADERS)
def test_mutated_specs_load_as_walked(form, monkeypatch):
    rng = random.Random(23)
    outcomes = set()
    for case in range(300):
        source = sources(mutated(rng))[form]
        got = load(form, source)
        assert got == walked(form, source, monkeypatch), (case, source)
        outcomes.add(got[0] is None)
    assert outcomes == {True, False}
