"""Differential tests: the text loader against a frozen per-token copy.

``oracle_dsl`` builds one token object with a line and column per token;
``dsl.parse`` scans into two token lists and works out a position only for
a reported issue.  On the corpus, on serialized chains and on seeded
mutations of both, the two must load equal declarations or report equal
issue lists (line, column and message, in order).  The one pinned
difference: the oracle reports blanks at the very end of a text as a stray
character, and ``dsl.parse`` accepts them.
"""

import dataclasses
import random
import re
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import limsketch
import oracle_dsl
from limsketch import dsl

from test_engine import MP_RULE, RULES, SP

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

CORPUS = resources.files("limsketch") / "corpus"
CORPUS_TEXTS = {name: (CORPUS / name).read_text()
                for name in ("bank.sk", "graph.sk", "magma.sk", "mp.sk")}
# The chains are over the broken MP sketch, named as in the corpus.
MP_SP = dataclasses.replace(SP, name="mp_sp")
SCOPE = {"mp_sp": MP_SP}

# The oracle's report of the blank its scan gives back at the end of a text.
TRAILING_BLANK = {f"stray character {c!r}" for c in " \t\r"}
STRAYS = ("\f", "\v", "\xa0", "é", "/", "$")
# Roughly the tokens of the grammar, for mutations that move whole tokens.
WORD = re.compile(r"[A-Za-z0-9_#']+|=>|->|\S")


def chain_text(n: int) -> str:
    env = workloads.Env(limsketch, {}, MP_SP, RULES, MP_RULE, Path("."))
    return dsl.serialize(dsl.NamedSpec(f"chain{n}", workloads.chain(env, n,
                                                                    n)))


def load(parse, text: str):
    """Declarations and no issues, or no declarations and the issues."""
    try:
        return parse(text, SCOPE), []
    except dsl.ParseError as e:
        return None, [(i.line, i.col, i.message) for i in e.issues]


def walked(parse, text: str, monkeypatch):
    """``load`` with the bulk spec build off, so that every spec is walked
    entry by entry."""
    with monkeypatch.context() as m:
        m.setattr(dsl, "_bulk_spec", lambda sk, elems, acts: None)
        return load(parse, text)


def assert_same_load(text: str) -> None:
    got = load(dsl.parse, text)
    decls, issues = load(oracle_dsl.parse, text)
    pinned = [i for i in issues if i[2] in TRAILING_BLANK]
    if pinned:
        assert len(pinned) == 1 and text[-1] in " \t\r", pinned
        issues = [i for i in issues if i not in pinned]
        if not issues:
            decls = oracle_dsl.parse(text.rstrip(" \t\r"), SCOPE)
    assert got == (decls, issues)


@pytest.mark.parametrize("name", sorted(CORPUS_TEXTS))
def test_corpus_loads_like_the_oracle(name):
    assert_same_load(CORPUS_TEXTS[name])


@pytest.mark.parametrize("n", [1, 5, 20])
def test_chains_load_like_the_oracle(n):
    text = chain_text(n)
    assert load(dsl.parse, text)[1] == []
    assert_same_load(text)


def mutate(text: str, rng: random.Random) -> str:
    """One seeded edit of ``text``."""
    words = [m.span() for m in WORD.finditer(text)]
    if len(words) < 2:
        return text + rng.choice(STRAYS)
    (a, b), (c, d) = sorted(rng.sample(words, 2))
    at = rng.randrange(len(text) + 1)
    kind = rng.randrange(10)
    if kind == 0:
        return text[:a] + text[b:]
    if kind == 1:
        return text[:b] + " " + text[a:b] + text[b:]
    if kind == 2:
        return text[:a] + text[c:d] + text[b:c] + text[a:b] + text[d:]
    if kind == 3:
        return text[:at] + rng.choice(STRAYS) + text[at:]
    if kind == 4:
        return re.sub("  ", "\t", text, count=rng.randrange(1, 20))
    if kind == 5:
        return text.replace("\n", rng.choice(["\r", "\r\n"]))
    if kind == 6:
        return text + rng.choice(["// the end", "// the end\n", " //", "\t"])
    if kind == 7:
        return text[:at] + rng.choice(["", " ", "\t ", "\n  "])
    if kind == 8:
        return text[:a] + text[a:b].upper() + "1" + text[b:]
    return text[:at] + rng.choice(["\n", "//", "{", "}", ";", " 7 "]) + \
        text[at:]


def test_mutations_load_like_the_oracle(monkeypatch):
    """Each mutation also loads alike with the bulk spec build off, in the
    text form and, where it loads, in the JSON form of what it loads."""
    texts = [*CORPUS_TEXTS.values(), chain_text(2), chain_text(4)]
    rng = random.Random(7)
    for case in range(500):
        text = rng.choice(texts)
        for _ in range(rng.choice([1, 1, 2, 3])):
            text = mutate(text, rng)
        try:
            assert_same_load(text)
            decls, _ = got = load(dsl.parse, text)
            assert got == walked(dsl.parse, text, monkeypatch)
            if decls is not None:
                doc = dsl.serialize_json(decls)
                assert load(dsl.parse_json, doc) == \
                    walked(dsl.parse_json, doc, monkeypatch) == (decls, [])
        except AssertionError:
            print(f"mutation case {case}: {text!r}")
            raise


@pytest.mark.parametrize("tail", [" ", "c"], ids=["blanks", "comment"])
def test_scan_is_linear_in_a_long_tail(tail):
    """``findall`` retries at every offset, so a scan that backtracks over a
    long tail takes quadratic time; the short run fails such a scan fast."""
    for n in (20_000, 200_000):
        text = "sketch a { object A }" + ("\n// " if tail == "c" else "") + \
            tail * n
        start = time.perf_counter()
        decls = dsl.parse(text)
        assert time.perf_counter() - start < n / 200_000
        assert [d.name for d in decls] == ["a"]


def compact(text: str) -> str:
    """``text`` with each action written ``act p1(x)=y``."""
    return text.replace(") = ", ")=")


def with_crlf_and_tabs(text: str) -> str:
    return text.replace("\n", "\r\n").replace("  ", "\t")


def with_comment(text: str) -> str:
    """``text`` with a comment line inside its spec block."""
    head, rest = text.split("\n", 1)
    return f"{head}\n  // a note inside the block\n{rest}"


@pytest.mark.parametrize("n, form", [(60, str), (20, compact)],
                         ids=["chain60", "compact-chain20"])
def test_large_chains_load_like_the_oracle(n, form):
    text = form(chain_text(n))
    assert load(dsl.parse, text)[1] == []
    assert_same_load(text)


@pytest.mark.parametrize("layout", [with_crlf_and_tabs, with_comment],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("form", [str, compact], ids=["spaced", "compact"])
def test_relaid_chains_load_like_the_oracle(form, layout):
    text = layout(form(chain_text(20)))
    assert load(dsl.parse, text)[1] == []
    assert_same_load(text)


@pytest.mark.parametrize("broken", [
    "  act p1(x) y",
    "  elem x H_IM",
    "  act p1 x) = y",
    "  act p1(x) = y = z",
    "  elem x : : H_IM",
    "  bogus x",
    "  elem 7 : H_IM",
    "  act p1(x) = y }",
])
@pytest.mark.parametrize("at", [700, -700], ids=["elems", "acts"])
@pytest.mark.parametrize("form", [str, compact], ids=["spaced", "compact"])
def test_malformed_entry_deep_in_a_spec_loads_like_the_oracle(form, at,
                                                              broken):
    """One bad entry after hundreds of good ones: the bulk entry loop hands
    over to the general one mid-block, and the issues must still agree."""
    lines = form(chain_text(12)).split("\n")
    assert lines[at].startswith("  elem" if at > 0 else "  act")
    text = "\n".join([*lines[:at], broken, *lines[at:]])
    assert load(dsl.parse, text)[1] != []
    assert_same_load(text)
