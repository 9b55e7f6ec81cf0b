"""A frozen copy of the text loader's tokenizer and parser as they were
before the token lists.

Test-only reference: one ``_Tok`` per token, each with its line and column,
in front of the loader's own ``dsl._Builder``.  The differential tests
require ``limsketch.dsl.parse`` to load what this module loads and to report
the issues it reports, in order, at the same positions.  Do not optimise it.
One difference is pinned, not copied: blanks at the very end of a text are
reported here as a stray character, and ``dsl.parse`` accepts them.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from limsketch.dsl import _TOP_KEYWORDS, ParseIssue, _Builder
from limsketch.sketch import Cone, ConeEdge, Sketch

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_#']*")
# Blanks before a token are part of its match; a search past trailing
# blanks finds nothing and ends the scan.
_TOKEN = re.compile(
    r"[ \t\r]*(?:(?P<newline>\n)|(?P<comment>//[^\n]*)"
    rf"|(?P<ident>{_IDENT.pattern})|(?P<num>[0-9]+)"
    r"|(?P<punct>=>|->|[{}()\[\]:;=,.])|(?P<stray>.))")


class _Tok(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str, issues: list[ParseIssue]) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind != "comment":
            tok = m[kind]
            col = m.start(kind) - line_start + 1
            if kind == "stray":
                issues.append(ParseIssue(line, col,
                                         f"stray character {tok!r}"))
            else:
                toks.append(_Tok(tok if kind == "punct" else kind, tok, line,
                                 col))
    toks.append(_Tok("eof", "", line, len(text) - line_start + 1))
    return toks


class _Recover(Exception):
    """Internal unwind signal after a recorded syntax error."""


class _Parser:
    """The text syntax: tokens, error recovery and line:col positions.

    Every declaration's parts go to a :class:`_Builder`, which checks them.
    """

    def __init__(self, text: str, env: dict[str, Sketch] | None):
        self.build = _Builder(
            env, lambda tok, message: ParseIssue(tok.line, tok.col, message))
        self.toks = _tokenize(text, self.build.issues)
        self.pos = 0

    # -- token plumbing

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def advance(self) -> _Tok:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: _Tok, message: str):
        self.build.error(tok, message)
        raise _Recover

    def expect(self, kind: str, what: str | None = None) -> _Tok:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(tok, f"expected {what or kind!r}, found {tok.text!r}"
                      if tok.kind != "eof"
                      else f"expected {what or kind!r}, found end of input")
        return self.advance()

    def ident(self, what: str) -> str:
        return self.expect("ident", what).text

    def skip_to(self, stops: tuple[str, ...]) -> None:
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if depth == 0 and tok.text in stops:
                return
            if tok.kind == "{":
                depth += 1
            elif tok.kind == "}":
                if depth == 0:
                    return
                depth -= 1
            self.advance()

    def close_block(self) -> None:
        """Consume tokens up to and including the current block's '}'."""
        depth = 1
        while depth:
            tok = self.advance()
            if tok.kind == "eof":
                return
            if tok.kind == "{":
                depth += 1
            elif tok.kind == "}":
                depth -= 1

    # -- top level

    def parse(self) -> None:
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind != "ident" or tok.text not in _TOP_KEYWORDS:
                self.build.error(tok, "expected one of "
                                 f"{', '.join(_TOP_KEYWORDS)}, found "
                                 f"{tok.text!r}")
                self.advance()
                self.skip_to(_TOP_KEYWORDS)
                continue
            self.advance()
            try:
                if tok.text == "sketch":
                    self.sketch_block()
                elif tok.text == "spec":
                    self.spec_block()
                elif tok.text == "morphism":
                    self.morphism_block()
                else:
                    self.config_block()
            except _Recover:
                self.skip_to(_TOP_KEYWORDS)

    def named(self, what: str) -> tuple[str, _Tok]:
        """An identifier and the token it came from."""
        tok = self.peek()
        return self.ident(what), tok

    def entries(self, what: str, handlers: dict) -> None:
        """Parse ``{ entry* }``.  ``handlers`` maps each entry keyword to a
        function of the keyword's token that parses the rest of the entry;
        after a syntax error, parsing resumes at the next keyword."""
        self.expect("{")
        stops = (*handlers, "}")
        while True:
            tok = self.peek()
            if tok.kind == "}":
                self.advance()
                return
            if tok.kind == "eof":
                self.fail(tok, f"unterminated {what} block")
            try:
                kw = self.ident(f"{what} entry")
                if kw not in handlers:
                    self.fail(tok, f"unknown {what} entry {kw!r}")
                handlers[kw](tok)
            except _Recover:
                self.skip_to(stops)

    # -- sketch

    def sketch_block(self) -> None:
        name, name_tok = self.named("sketch name")
        objects: list = []
        arrows: list = []
        monos: list = []
        equations: list = []
        cones: list = []

        def arrow(tok: _Tok) -> None:
            aid, a_tok = self.named("arrow name")
            self.expect(":")
            src = self.ident("source object")
            self.expect("->")
            tgt = self.ident("target object")
            if self.peek().kind == "[":
                self.advance()
                flag = self.ident("arrow flag")
                if flag != "mono":
                    self.build.error(tok, f"unknown arrow flag {flag!r}")
                self.expect("]")
                monos.append((aid, a_tok))
            arrows.append((aid, src, tgt, a_tok))

        def equation(tok: _Tok) -> None:
            lhs, left = self.dotted()
            self.expect("=")
            rhs, right = self.dotted()
            equations.append((lhs, rhs, left or right, tok))

        self.entries("sketch", {
            "object": lambda tok: objects.append(self.named("object name")),
            "arrow": arrow,
            "mono": lambda tok: monos.append(self.named("arrow name")),
            "eq": equation,
            "cone": lambda tok: cones.append((self.cone(), tok)),
        })
        self.build.sketch(name, name_tok, objects, arrows, monos, equations, [
            (c.name, c.apex, [(n, ob, tok) for n, ob in c.nodes.items()],
             c.edges, [(n, a, tok) for n, a in c.projections.items()], tok)
            for c, tok in cones])

    def dotted(self) -> tuple[tuple[str, ...], str | None]:
        """Parse ID(.ID)* or id(OBJ); returns (arrows, anchor)."""
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "id" and \
                self.toks[self.pos + 1].kind == "(":
            self.advance()
            self.expect("(")
            anchor = self.ident("object name")
            self.expect(")")
            return (), anchor
        parts = [self.ident("arrow path")]
        while self.peek().kind == ".":
            self.advance()
            parts.append(self.ident("arrow name"))
        return tuple(parts), None

    def cone(self) -> Cone:
        cname = self.ident("cone name")
        self.expect(":")
        apex = self.ident("apex object")
        self.expect("{")
        try:
            return self.cone_body(cname, apex)
        except _Recover:
            # leave the cursor just past this cone's closing brace so the
            # enclosing sketch keeps its own braces balanced
            self.close_block()
            raise

    def cone_body(self, cname: str, apex: str) -> Cone:
        self.expect_keyword("base")
        nodes: dict[str, str] = {}
        edges: list[ConeEdge] = []
        while self.peek().kind != ";":
            tok = self.peek()
            if tok.kind in ("}", "eof"):
                self.fail(tok, "cone base section is missing ';'")
            if tok.kind == "ident" and tok.text == "edge":
                self.advance()
                src = self.ident("base node")
                self.expect("->")
                tgt = self.ident("base node")
                self.expect(":")
                path, _ = self.dotted()
                edges.append(ConeEdge(src, tgt, path))
            else:
                node, n_tok = self.named("base node")
                self.expect(":")
                ob = self.ident("object name")
                if node in nodes:
                    self.build.error(n_tok, f"duplicate base node {node!r}")
                else:
                    nodes[node] = ob
        self.expect(";")
        self.expect_keyword("proj")
        projections: dict[str, str] = {}
        while self.peek().kind != "}":
            tok = self.peek()
            if tok.kind == "eof":
                self.fail(tok, "unterminated cone block")
            node = self.ident("base node")
            self.expect("->")
            arrow, p_tok = self.named("projection arrow")
            if node in projections:
                self.build.error(p_tok, f"node {node!r} projected twice")
            projections[node] = arrow
        self.expect("}")
        return Cone(cname, apex, nodes, tuple(edges), projections)

    def expect_keyword(self, word: str) -> None:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != word:
            self.fail(tok, f"expected {word!r}, found {tok.text!r}")
        self.advance()

    # -- spec

    def spec_block(self) -> None:
        name, name_tok = self.named("spec name")
        self.expect_keyword("over")
        over, over_tok = self.named("sketch name")
        elems: list = []
        acts: list = []

        def elem(tok: _Tok) -> None:
            el = self.ident("element name")
            self.expect(":")
            elems.append((el, self.ident("object name"), tok))

        def act(tok: _Tok) -> None:
            aid = self.ident("arrow name")
            self.expect("(")
            x = self.ident("element name")
            self.expect(")")
            self.expect("=")
            acts.append((aid, x, self.ident("element name"), tok))

        self.entries("spec", {"elem": elem, "act": act})
        self.build.spec(name, name_tok, over, over_tok,
                        [*zip(*elems)] or [()] * 3, [*zip(*acts)] or [()] * 4)

    # -- morphism

    def morphism_block(self) -> None:
        name, name_tok = self.named("morphism name")
        self.expect(":")
        src, src_tok = self.named("source sketch")
        self.expect("->")
        tgt, tgt_tok = self.named("target sketch")
        objs: list = []
        arrs: list = []

        def obj(tok: _Tok) -> None:
            a = self.ident("object name")
            self.expect("=>")
            objs.append((a, self.ident("object name"), tok))

        def arr(tok: _Tok) -> None:
            a = self.ident("arrow name")
            self.expect("=>")
            path_tok = self.peek()
            path, anchor = self.dotted()
            arrs.append((a, path, anchor, tok, path_tok))

        self.entries("morphism", {"obj": obj, "arr": arr})
        self.build.morphism(name, name_tok, src, src_tok, tgt, tgt_tok,
                            objs, arrs)

    # -- config

    def config_block(self) -> None:
        name, name_tok = self.named("config name")
        settings: dict = {}

        def max_rounds(tok: _Tok) -> None:
            self.expect("=")
            settings["max_rounds"] = int(self.expect("num", "a number").text)

        def rules(tok: _Tok) -> None:
            self.expect("=")
            ids = [self.ident("rule name")]
            while self.peek().kind == ",":
                self.advance()
                ids.append(self.ident("rule name"))
            settings["rules"] = tuple(ids)

        self.entries("config", {"max_rounds": max_rounds, "rules": rules})
        self.build.config(name, name_tok, settings.get("max_rounds"),
                          settings.get("rules"))


def parse(text: str, env: dict[str, Sketch] | None = None) -> list:
    """Parse a source text into declarations; raise ParseError on issues.

    Sketch names referenced by specs and morphisms resolve against the
    same text first, then ``env``, then the builtin sketches.
    """
    p = _Parser(text, env)
    p.parse()
    return p.build.finish()
