"""The spec column reader against the token scan.

``dsl.parse`` reads each spec body of entries, blanks and comments straight
into the columns ``_Builder.spec`` takes (``dsl._scan_specs``), and scans
only the rest of the text into tokens; at the first issue it parses the
whole text again from its tokens, so that issues are worded and placed as
before.  With the reader off, every case here must load to the same
declarations, or fail with the same issues.
"""
import random
import time
import tracemalloc

import pytest

from limsketch import dsl
from limsketch.sketch import builtin_sketches

from test_dsl_oracle import SCOPE, chain_text, mutate

GRAPH_SPEC = """spec {name} over graph {{
  elem e01 : E
  elem v0 : V
  elem v1 : V
  act s(e01) = v0
  act t(e01) = v1
}}
"""
# A sketch and two specs, one over the sketch of the same text.
FILE = """// two edges
sketch g2 {
  object E
  object V
  arrow s : E -> V
  arrow t : E -> V
}
""" + GRAPH_SPEC.format(name="first") + """
spec second over g2 {
  elem e : E  // a comment holding } and spec x over y {
  elem v : V
  // act s(e) = e
  act s(e) = v act t(e)
    = v
}
"""


def load(text: str):
    """Declarations and no issues, or no declarations and the issues."""
    try:
        return dsl.parse(text, SCOPE), []
    except dsl.ParseError as e:
        return None, [(i.line, i.col, i.message) for i in e.issues]


def unread(text: str, monkeypatch):
    """``load`` with the reader off: every body is scanned into tokens."""
    with monkeypatch.context() as m:
        m.setattr(dsl, "_scan_specs", dsl._scan)
        return load(text)


@pytest.fixture
def bodies(monkeypatch) -> list:
    """How many bodies each ``_scan_specs`` call read into columns."""
    builtin_sketches()  # the first call loads the corpus, specs and all
    counts = []
    scan_specs = dsl._scan_specs

    def spy(text):
        texts, kinds = scan_specs(text)
        counts.append(kinds.count("body"))
        return texts, kinds

    monkeypatch.setattr(dsl, "_scan_specs", spy)
    return counts


def assert_loads_as_unread(text: str, monkeypatch):
    got = load(text)
    assert got == unread(text, monkeypatch)
    return got


def test_chain60_is_read_into_columns(bodies, monkeypatch):
    text = chain_text(60)
    decls, issues = assert_loads_as_unread(text, monkeypatch)
    assert issues == [] and bodies == [1]
    r = decls[0].realization
    # each name is one object, in the carriers and in every action
    ids = {id(x) for ob in r.carrier.values() for x in ob.elements}
    assert len(ids) == sum(len(ob.elements) for ob in r.carrier.values())
    assert all({id(x), id(y)} <= ids
               for f in r.action.values() for x, y in f.mapping.items())


def test_a_sketch_and_two_specs(bodies, monkeypatch):
    decls, issues = assert_loads_as_unread(FILE, monkeypatch)
    assert issues == [] and [d.name for d in decls] == \
        ["g2", "first", "second"]
    assert bodies == [2]


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13, 40, 80])
def test_chunks_cut_at_newlines(chunk, bodies, monkeypatch):
    """An entry that spans a newline may be split by a chunk cut; its body
    then goes to the token scan.  Other entries are never split."""
    monkeypatch.setattr(dsl, "_CHUNK", chunk)
    assert assert_loads_as_unread(chain_text(3), monkeypatch)[1] == []
    assert assert_loads_as_unread(FILE, monkeypatch)[1] == []
    # the second spec of FILE has an action over two lines
    assert bodies == [1, 1 if chunk < 80 else 2]


@pytest.mark.parametrize("blank", ["\v", "\f", "\x1c", "\x85", "\xa0"])
@pytest.mark.parametrize("text", [FILE, chain_text(2)],
                         ids=["file", "chain2"])
def test_blanks_the_grammar_lacks(text, blank, monkeypatch):
    at = text.index("  act")
    bad = text[:at] + blank + text[at:]
    _, issues = assert_loads_as_unread(bad, monkeypatch)
    assert issues and issues[0][2] == f"stray character {blank!r}"


@pytest.mark.parametrize("text, read", [
    # a header in a comment does not cut a body out of a sketch
    ("sketch a { // spec s over graph {\n}\n", 0),
    ("sketch a { object A // spec s over graph {\n}\n", 0),
    ("sketch a { // spec s over graph {\n object A }\n", 0),
    ("// spec s over graph {\n" + GRAPH_SPEC.format(name="t"), 1),
    ("spec t // spec s over graph {\n over graph { elem v : V }", 0),
    ("spec t over graph { // spec s over graph { elem x : V\n}", 1),
    # a '}' in a comment inside a body
    ("spec t over graph { elem v : V // }\n elem w : V }", 1),
    ("spec t over graph { elem v : V // }", 0),
    ("spec t over graph { elem v : V //", 0),
    ("spec t over graph { elem v : V\n// }\n", 0),
    ("spec t over graph {}", 1),
    ("spec t over graph {}}", 1),
    ("spec t over graph { elem v : V } } spec u over graph {}", 2),
    ("spec t over graph { elem v : V { }", 0),
])
def test_comments_and_braces(text, read, bodies, monkeypatch):
    assert_loads_as_unread(text, monkeypatch)
    assert bodies[0] == read


def test_keywords_and_marks_as_names(bodies, monkeypatch):
    text = """spec over over graph {
  elem elem : E
  elem act : E
  elem spec : V  elem over : V
  elem x#1' : V
  act s(elem) = spec
  act t(elem) = over act s (act)=x#1'
  act t( act )
  = spec
}
"""
    decls, issues = assert_loads_as_unread(text, monkeypatch)
    assert issues == [] and bodies == [1]
    r = decls[0].realization
    assert r.carrier["E"].elements == ("elem", "act")
    assert r.action["s"].mapping == {"elem": "spec", "act": "x#1'"}


def test_an_issue_is_placed_in_the_whole_text(bodies, monkeypatch):
    text = FILE.replace("act t(e01) = v1", "act t(e01) = e01")
    _, issues = assert_loads_as_unread(text, monkeypatch)
    assert issues == [(13, 3, "action value 'e01' is not an element of V"),
                      (8, 6, "spec 'first' is missing the action t(e01)")]
    assert bodies == [2]


def test_mutations_load_as_unread(monkeypatch):
    """Seeded edits of a file of three declarations and of a chain, read
    with chunks of one to a few lines."""
    texts = [FILE, chain_text(2)]
    rng = random.Random(11)
    outcomes = set()
    for case in range(300):
        text = rng.choice(texts)
        for _ in range(rng.choice([1, 1, 2])):
            text = mutate(text, rng)
        monkeypatch.setattr(dsl, "_CHUNK", rng.choice([1, 20, 80, 1 << 16]))
        try:
            outcomes.add(assert_loads_as_unread(text, monkeypatch)[0] is None)
        except AssertionError:
            print(f"mutation case {case}: {text!r}")
            raise
    assert outcomes == {True, False}


@pytest.mark.parametrize("tail", [" ", "c"], ids=["blanks", "comment"])
def test_read_is_linear_in_a_long_tail(tail, bodies):
    """``findall`` retries at every offset, so a read that backtracks over
    a long tail takes quadratic time; the short run fails such a read."""
    for n in (20_000, 200_000):
        text = "spec s over graph { elem v : V" + \
            ("\n// " if tail == "c" else "") + tail * n + "\n}"
        start = time.perf_counter()
        decls = dsl.parse(text)
        assert time.perf_counter() - start < n / 200_000
        assert decls[0].realization.carrier["V"].elements == ("v",)
    assert bodies == [1, 1]


def test_chain60_parses_in_bounded_memory():
    """The token lists of chain(60)'s text peaked 18 MB above the start."""
    text = chain_text(60)
    dsl.parse(text, SCOPE)  # the builtin sketches load once
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        decls = dsl.parse(text, SCOPE)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert decls[0].name == "chain60"
    assert peak < 10 * 2**20, peak
