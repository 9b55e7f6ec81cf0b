"""Text and JSON formats for sketches, specifications, and morphisms.

The text grammar is line-oriented only by convention; tokens may be
arranged freely and ``//`` starts a comment.  The parser collects every
independent error with line and column before giving up, and the
serializer emits a canonical form that parses back to a structurally
identical declaration.
"""
from __future__ import annotations

import json
import re
import string
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from pathlib import Path

from .engine import ChaseConfig, ChaseResult, trace_doc
from .finset import FinFunction, FinSet
from .localizer import SketchMorphism
from .realization import Realization
from .sketch import (
    ArrowDecl,
    Cone,
    ConeEdge,
    PathEquation,
    Sketch,
    ValidationReport,
    builtin_sketches,
    missing_projection_triangle,
)


@dataclass(frozen=True)
class NamedSpec:
    name: str
    realization: Realization


@dataclass(frozen=True)
class NamedMorphism:
    name: str
    morphism: SketchMorphism


@dataclass(frozen=True)
class NamedConfig:
    name: str
    config: ChaseConfig


@dataclass(frozen=True)
class ParseIssue:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(Exception):
    """The issues of one load; ``path`` names the file, if it was one."""

    path: str | None = None

    def __init__(self, issues: list[ParseIssue]):
        self.issues = tuple(issues)
        super().__init__("\n".join(str(i) for i in issues))


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_#']*")
_IDENTS = re.compile(rf"{_IDENT.pattern}(?:\n{_IDENT.pattern})*")
# Each match skips blanks (space, tab, CR, LF) and comments, then captures
# one token: an identifier, a number, a punctuation mark, one stray
# character, or the empty text at the end of input.  After the greedy skip
# the capture always matches, so the scan never backtracks and stays linear.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*"
    rf"({_IDENT.pattern}|[0-9]+|=>|->|[{{}}()\[\]:;=,.]|.|\Z)")
# A token's kind: looked up by its text for punctuation, else by its first
# character; a first character not listed is a stray.
_KIND = {"": "eof", **dict.fromkeys(string.ascii_letters + "_", "ident"),
         **dict.fromkeys(string.digits, "num"),
         **{p: p for p in ("=>", "->", *"{}()[]:;=,.")}}


def _identifiers(names) -> bool:
    """Whether each of the sized ``names`` is an identifier, by one regex
    pass over them joined by newlines, counted so that no name holds one."""
    joined = "\n".join(names)
    return not names or joined.count("\n") == len(names) - 1 and \
        _IDENTS.fullmatch(joined) is not None


def _scan(text: str) -> tuple[list[str], list[str]]:
    """The token texts and kinds ``_TOKEN`` finds in ``text``."""
    texts = _TOKEN.findall(text)
    return texts, [_KIND.get(t) or _KIND.get(t[:1], "stray") for t in texts]


# A spec body is read into columns by ``_ENTRY`` (``_B``: a run of blanks), a
# chunk of about ``_CHUNK`` characters cut at a newline at a time.  Past its
# skip, a match always takes an entry, a stray or the end: no backtracking.
_SPEC_HEAD = re.compile(rf"spec[ \t\r\n]+{_IDENT.pattern}[ \t\r\n]+over"
                        rf"[ \t\r\n]+{_IDENT.pattern}[ \t\r\n]*{{")
_B, _ID = "[ \t\r\n]*", f"({_IDENT.pattern})"
_ENTRY = re.compile(
    rf"{_B}(?://[^\n]*{_B})*(?:elem[ \t\r\n]{_B}{_ID}{_B}:{_B}{_ID}|"
    rf"act[ \t\r\n]{_B}{_ID}{_B}\({_B}{_ID}{_B}\){_B}={_B}{_ID}|"
    r"([^ \t\r\n]|\Z))")
_CHUNK = 1 << 16


def _scan_specs(text: str) -> tuple[list, list]:
    """``_scan(text)``, but each spec body of entries, blanks and comments
    that no chunk cut splits is one "body" token, whose text is its element
    names, objects, arrows, arguments and values, one object per name.  A
    brace outside a comment (no ``//`` before it on its line) opens or
    closes a body.  The work is linear in the length of the text."""
    texts, kinds, names, start, pos = [], [], {}, 0, 0
    while head := _SPEC_HEAD.search(text, pos):
        brace = end = head.end()
        if "//" in text[text.rfind("\n", pos, brace) + 1 or pos:brace]:
            pos = text.find("\n", brace) + 1 or len(text)  # a comment
            continue
        while (end := text.find("}", end)) >= 0 and \
                "//" in text[text.rfind("\n", brace, end) + 1 or brace:end]:
            end = text.find("\n", end) + 1 or len(text)  # a commented '}'
        if end < 0:
            break  # no later body is closed either
        columns, at, pos = [[], [], [], [], []], brace, end
        while at < end:
            cut = text.find("\n", at + _CHUNK, end) + 1 or end
            *parts, strays = zip(*_ENTRY.findall(text, at, cut))
            if any(strays):
                break  # left to the token scan
            for column, part in zip(columns, parts):
                column += filter(None, map(names.setdefault, part, part))
            at = cut
        else:  # read whole; the text before it ends in '{' and one end token
            more, more_kinds = _scan(text[start:brace])
            texts += [*more[:-1], columns]
            kinds += [*more_kinds[:-1], "body"]
            start = end
    more, more_kinds = _scan(text[start:])
    return (texts + more, kinds + more_kinds) if start else (more, more_kinds)


# ---------------------------------------------------------------------------
# builder: the load-time checks both formats share
# ---------------------------------------------------------------------------

_TOP_KEYWORDS = ("sketch", "spec", "morphism", "config")


def _runs(keys, allowed) -> dict[str, slice]:
    """Each key's slice of ``keys``; a ValueError unless every key is in
    ``allowed`` and its entries make one run."""
    spans, end = {}, 0
    for key, run in groupby(keys):
        if key in spans or key not in allowed:
            raise ValueError(key)
        start, end = end, end + len(list(run))
        spans[key] = slice(start, end)
    return spans


def _bulk_spec(sk: Sketch, elems, acts) -> Realization | None:
    """The spec the columns describe, checked at once; None when a check
    fails or an object's elements or an arrow's actions are not one run."""
    (names, obs, _), (arrows, xs, ys, _) = elems, acts
    try:
        runs, act_runs = _runs(obs, sk.objects), _runs(arrows, sk.arrows)
        if len(set(names)) != len(names) or not _identifiers(names):
            return None
        cs = {ob: FinSet(tuple(names[runs.get(ob, slice(0))]))
              for ob in sk.objects}
        fns = {}
        for aid, decl in sk.arrows.items():
            run = act_runs.get(aid, slice(0))
            table = dict(zip(xs[run], ys[run]))
            if len(table) != len(xs[run]):  # an argument given twice
                return None
            # refused unless total on the source and inside the target
            fns[aid] = FinFunction(cs[decl.src], cs[decl.tgt], table)
    except (TypeError, ValueError):
        return None
    return Realization(sk, cs, fns)


class _Builder:
    """Check loaded declaration parts and build the declarations.

    The text parser and the JSON reader hand over the same raw parts, each
    tagged with an opaque location ``at`` that ``locate`` turns into a
    ParseIssue, so both formats accept the same declarations and word
    every rejection alike.  Names resolve against the declarations built
    so far, then ``env``, then the builtin sketches.  A declaration whose
    checks report anything is not built, so later ones never see it.
    """

    def __init__(self, env: dict[str, Sketch] | None, locate):
        self.env = dict(env or {})
        self.locate = locate
        self.issues: list[ParseIssue] = []
        self.names: set[str] = set()
        self.sketches: dict[str, Sketch] = {}
        self.decls: list = []

    def error(self, at, message: str) -> None:
        self.issues.append(self.locate(at, message))

    def spelled(self, name: str, at) -> None:
        """Names must be identifiers so the text form can write them."""
        if not _IDENT.fullmatch(name):
            self.error(at, f"name {name!r} is not an identifier")

    def declare(self, name: str, at) -> int:
        """Claim a declaration name; returns the issue count before the
        declaration's own checks."""
        self.spelled(name, at)
        if name in self.names:
            self.error(at, f"duplicate declaration name {name!r}")
        self.names.add(name)
        return len(self.issues)

    def lookup(self, name: str, at) -> Sketch | None:
        found = self.sketches.get(name) or self.env.get(name) or \
            builtin_sketches().get(name)
        if found is None:
            self.error(at, f"unknown sketch {name!r}")
        return found

    def finish(self) -> list:
        if self.issues:
            raise ParseError(self.issues)
        return self.decls

    def sketch(self, name: str, name_at, objects, arrows, monos, equations,
               cones) -> None:
        """Parts: objects ``(ob, at)``, arrows ``(id, src, tgt, at)``,
        monos ``(id, at)``, equations ``(lhs, rhs, anchor, at)`` where
        ``anchor`` is the object an ``id(...)`` side names, else None, cones
        ``(name, apex, nodes, edges, projections, at)`` with nodes
        ``(node, ob, at)`` and projections ``(node, arrow, at)``."""
        mark = self.declare(name, name_at)
        obj_set: dict[str, None] = {}
        for ob, at in objects:
            self.spelled(ob, at)
            if ob in obj_set:
                self.error(at, f"duplicate object {ob!r}")
            obj_set[ob] = None
        arrow_map: dict[str, ArrowDecl] = {}
        for aid, src, tgt, at in arrows:
            self.spelled(aid, at)
            if aid in arrow_map:
                self.error(at, f"duplicate arrow {aid!r}")
                continue
            for ob in (src, tgt):
                if ob not in obj_set:
                    self.error(at, f"arrow {aid!r} references undeclared "
                               f"object {ob!r}")
            arrow_map[aid] = ArrowDecl(aid, src, tgt)
        mono_ids: set[str] = set()
        for mid, at in monos:
            if mid not in arrow_map:
                self.error(at, f"mono flag on undeclared arrow {mid!r}")
            elif mid in mono_ids:
                self.error(at, f"arrow {mid!r} marked mono twice")
            else:
                mono_ids.add(mid)
        eq_list: list[PathEquation] = []
        for lhs, rhs, anchor, at in equations:
            if not lhs and not rhs:
                self.error(at, "an equation needs at least one non-identity "
                           "side")
                continue
            if not lhs:
                lhs, rhs = rhs, lhs
            for aid in lhs + rhs:
                if aid not in arrow_map:
                    self.error(at, f"equation references undeclared arrow "
                               f"{aid!r}")
            first = arrow_map.get(lhs[0])
            if anchor is not None and first and anchor != first.src:
                self.error(at, f"identity side id({anchor}) is not at "
                           f"{first.src!r}, where the other side starts")
            eq_list.append(PathEquation(lhs, rhs))
        cone_map: dict[str, Cone] = {}
        for cname, apex, nodes, edges, projections, at in cones:
            cone = Cone(
                cname, apex,
                self.node_table(nodes, "duplicate base node {!r}"),
                tuple(edges),
                self.node_table(projections, "node {!r} projected twice"))
            self.spelled(cone.name, at)
            if cone.name in cone_map:
                self.error(at, f"duplicate cone {cone.name!r}")
                continue
            if cone.apex not in obj_set:
                self.error(at, f"cone {cone.name!r} has undeclared apex "
                           f"{cone.apex!r}")
            for node, ob in cone.nodes.items():
                self.spelled(node, at)
                if ob not in obj_set:
                    self.error(at, f"cone node {node!r} references "
                               f"undeclared object {ob!r}")
            for e in cone.edges:
                for node in (e.src, e.tgt):
                    if node not in cone.nodes:
                        self.error(at, f"cone edge references undeclared "
                                   f"node {node!r}")
                if not e.path:
                    self.error(at, "identity edges are implicit; use a "
                               "named path")
                for aid in e.path:
                    if aid not in arrow_map:
                        self.error(at, f"cone edge references undeclared "
                                   f"arrow {aid!r}")
            for node, aid in cone.projections.items():
                if node not in cone.nodes:
                    self.error(at, f"projection of undeclared node "
                               f"{node!r}")
                if aid not in arrow_map:
                    self.error(at, f"projection references undeclared "
                               f"arrow {aid!r}")
            cone_map[cone.name] = cone
        if len(self.issues) > mark:
            return
        # Projection triangles are implicit in the text format; synthesize
        # the equations the core invariant asks for.
        for cone in cone_map.values():
            for e in cone.edges:
                tri = missing_projection_triangle(cone, e, eq_list)
                if tri is not None:
                    eq_list.append(tri)
        sk = Sketch(name=name, objects=tuple(obj_set), arrows=arrow_map,
                    equations=tuple(eq_list), cones=cone_map,
                    monos=frozenset(mono_ids))
        self.sketches[name] = sk
        self.decls.append(sk)

    def node_table(self, pairs, repeated: str) -> dict[str, str]:
        """A cone's node-keyed table from ``(node, value, at)`` pairs; a
        repeated node is reported with ``repeated`` and keeps its first
        value."""
        out: dict[str, str] = {}
        for node, value, at in pairs:
            if node in out:
                self.error(at, repeated.format(node))
            else:
                out[node] = value
        return out

    def spec(self, name: str, at, over: str, over_at, elems, acts) -> None:
        """Parts, as columns of one length: elements ``(names, obs, ats)``,
        actions ``(arrows, xs, ys, ats)``, entry ``i`` located at ``ats[i]``.
        ``_bulk_spec`` builds the spec if it can; else a walk over the
        entries, the only code that words issues, checks them one by one."""
        mark = self.declare(name, at)
        sk = self.lookup(over, over_at)
        if sk is None:
            return
        built = _bulk_spec(sk, elems, acts)
        if built is not None:
            if len(self.issues) == mark:
                self.decls.append(NamedSpec(name, built))
            return
        carriers: dict[str, list[str]] = {ob: [] for ob in sk.objects}
        where: dict[str, str] = {}
        for el, ob, el_at in zip(*elems):
            self.spelled(el, el_at)
            if ob not in carriers:
                self.error(el_at, f"element {el!r} has undeclared object "
                           f"{ob!r}")
                continue
            if el in where:
                self.error(el_at, f"duplicate element {el!r}")
                continue
            where[el] = ob
            carriers[ob].append(el)
        actions: dict[str, dict[str, str]] = {a: {} for a in sk.arrows}
        for aid, x, y, act_at in zip(*acts):
            decl = sk.arrows.get(aid)
            if decl is None:
                self.error(act_at, f"action on undeclared arrow {aid!r}")
                continue
            if where.get(x) != decl.src:
                self.error(act_at, f"action argument {x!r} is not an "
                           f"element of {decl.src}")
                continue
            if where.get(y) != decl.tgt:
                self.error(act_at, f"action value {y!r} is not an element "
                           f"of {decl.tgt}")
                continue
            if x in actions[aid] and actions[aid][x] != y:
                self.error(act_at, f"conflicting actions for {aid}({x})")
                continue
            actions[aid][x] = y
        for aid, decl in sk.arrows.items():
            for x in carriers[decl.src]:
                if x not in actions[aid]:
                    self.error(at, f"spec {name!r} is missing the action "
                               f"{aid}({x})")
        if len(self.issues) > mark:
            return
        cs = {ob: FinSet(tuple(xs)) for ob, xs in carriers.items()}
        action_fns = {
            aid: FinFunction(cs[decl.src], cs[decl.tgt], actions[aid])
            for aid, decl in sk.arrows.items()
        }
        self.decls.append(NamedSpec(name, Realization(sk, cs, action_fns)))

    def morphism(self, name: str, at, src_name: str, src_at,
                 tgt_name: str, tgt_at, objs, arrs) -> None:
        """Parts: object images ``(a, b, at)``, arrow images
        ``(a, path, anchor, at, path_at)`` where ``anchor`` is the object
        an ``id(...)`` image names, else None."""
        mark = self.declare(name, at)
        src = self.lookup(src_name, src_at)
        tgt = self.lookup(tgt_name, tgt_at)
        object_map: dict[str, str] = {}
        for a, b, ob_at in objs:
            if src is not None and a not in src.objects:
                self.error(ob_at, f"unknown source object {a!r}")
            if tgt is not None and b not in tgt.objects:
                self.error(ob_at, f"unknown target object {b!r}")
            if a in object_map:
                self.error(ob_at, f"object {a!r} mapped twice")
            object_map[a] = b
        arrow_map: dict[str, tuple[str, ...]] = {}
        for a, path, anchor, arr_at, path_at in arrs:
            if src is not None and a not in src.arrows:
                self.error(arr_at, f"unknown source arrow {a!r}")
            if anchor is not None and tgt is not None and \
                    anchor not in tgt.objects:
                self.error(path_at, f"unknown target object {anchor!r}")
            for step in path:
                if tgt is not None and step not in tgt.arrows:
                    self.error(path_at, f"unknown target arrow {step!r}")
            if a in arrow_map:
                self.error(arr_at, f"arrow {a!r} mapped twice")
            elif not path and src is not None and a in src.arrows:
                image = object_map.get(src.arrows[a].src)
                if image is None:
                    self.error(arr_at, f"identity image of arrow {a!r} needs "
                               f"its source object {src.arrows[a].src!r} "
                               f"mapped")
                elif anchor not in (None, image):
                    self.error(arr_at, f"identity image id({anchor}) of arrow "
                               f"{a!r} is not at {image!r}, the image of its "
                               f"source object")
            arrow_map[a] = path
        if src is None or tgt is None or len(self.issues) > mark:
            return
        self.decls.append(NamedMorphism(
            name, SketchMorphism(src, tgt, object_map, arrow_map)))

    def config(self, name: str, at, max_rounds: int | None,
               rules: tuple[str, ...] | None) -> None:
        mark = self.declare(name, at)
        if rules is not None:
            if not rules:
                self.error(at, f"config {name!r} lists no rules")
            for rule in rules:
                self.spelled(rule, at)
        if len(self.issues) > mark:
            return
        if max_rounds is None:
            max_rounds = ChaseConfig.max_rounds
        self.decls.append(NamedConfig(name, ChaseConfig(
            max_rounds=max_rounds, rule_subset=rules)))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Recover(Exception):
    """Internal unwind signal after a recorded syntax error."""


class _Reread(Exception):
    """An issue in a text whose spec bodies were read as columns."""


class _Parser:
    """The text syntax: tokens, error recovery and line:col positions.

    A token is an index into two parallel lists, its text and its kind.  That
    index is the location every declaration part carries to the
    :class:`_Builder`, which checks the parts; ``locate`` works out a line
    and column only for the tokens an issue names.  ``scan`` makes the
    lists; a "body" token of ``_scan_specs`` has no place in the text, so
    its first issue sends ``parse`` back to the tokens of ``_scan``.
    """

    def __init__(self, text: str, env: dict[str, Sketch] | None, scan):
        self.text = text
        self.texts, self.kinds = scan(text)
        self.offsets: list[int] | None = None
        self.line_starts: list[int] = []
        self.build = _Builder(env, self.locate)
        self.pos = 0
        if "stray" in self.kinds:
            self.drop_strays()

    # -- token plumbing

    def locate(self, at: int, message: str) -> ParseIssue:
        if self.offsets is None:
            if "body" in self.kinds:  # positions are the whole text's only
                self.build = None  # leave no cycle behind
                raise _Reread
            self.offsets = [m.start(1) for m in _TOKEN.finditer(self.text)]
            self.line_starts = [0, *(m.end() for m in
                                     re.finditer("\n", self.text))]
        offset = self.offsets[at]
        line = bisect_right(self.line_starts, offset)
        return ParseIssue(line, offset - self.line_starts[line - 1] + 1,
                          message)

    def drop_strays(self) -> None:
        """Report every stray character and take it out of the token lists
        (the first report builds the offsets, which are filtered alike)."""
        keep = []
        for at, kind in enumerate(self.kinds):
            if kind == "stray":
                self.build.error(at, f"stray character {self.texts[at]!r}")
            else:
                keep.append(at)
        self.texts = [self.texts[at] for at in keep]
        self.kinds = [self.kinds[at] for at in keep]
        self.offsets = [self.offsets[at] for at in keep]

    def fail(self, at: int, message: str):
        self.build.error(at, message)
        raise _Recover

    def expect(self, kind: str, what: str | None = None) -> int:
        at = self.pos
        if self.kinds[at] != kind:
            found = "end of input" if self.kinds[at] == "eof" else \
                repr(self.texts[at])
            self.fail(at, f"expected {what or kind!r}, found {found}")
        self.pos = at + 1
        return at

    def ident(self, what: str) -> str:
        return self.texts[self.expect("ident", what)]

    def named(self, what: str) -> tuple[str, int]:
        """An identifier and its token."""
        at = self.expect("ident", what)
        return self.texts[at], at

    def skip_to(self, stops: tuple[str, ...]) -> None:
        depth = 0
        while True:
            kind = self.kinds[self.pos]
            if kind == "eof":
                return
            if depth == 0 and self.texts[self.pos] in stops:
                return
            if kind == "{":
                depth += 1
            elif kind == "}":
                if depth == 0:
                    return
                depth -= 1
            self.pos += 1

    # -- top level

    def parse(self) -> None:
        while True:
            at = self.pos
            kind, word = self.kinds[at], self.texts[at]
            if kind == "eof":
                break
            if kind != "ident" or word not in _TOP_KEYWORDS:
                self.build.error(at, "expected one of "
                                 f"{', '.join(_TOP_KEYWORDS)}, found "
                                 f"{word!r}")
                self.pos += 1
                self.skip_to(_TOP_KEYWORDS)
                continue
            self.pos = at + 1
            try:
                getattr(self, f"{word}_block")()
            except _Recover:
                self.skip_to(_TOP_KEYWORDS)

    def entries(self, what: str, handlers: dict) -> None:
        """Parse ``{ entry* }``.  ``handlers`` maps each entry keyword to a
        function of the keyword's token that parses the rest of the entry;
        after a syntax error, parsing resumes at the next keyword."""
        self.expect("{")
        stops = (*handlers, "}")
        while True:
            at = self.pos
            kind = self.kinds[at]
            if kind == "}":
                self.pos = at + 1
                return
            if kind == "eof":
                self.fail(at, f"unterminated {what} block")
            try:
                kw = self.ident(f"{what} entry")
                if kw not in handlers:
                    self.fail(at, f"unknown {what} entry {kw!r}")
                handlers[kw](at)
            except _Recover:
                self.skip_to(stops)

    # -- sketch

    def sketch_block(self) -> None:
        name, name_at = self.named("sketch name")
        objects: list = []
        arrows: list = []
        monos: list = []
        equations: list = []
        cones: list = []

        def arrow(at: int) -> None:
            aid, a_at = self.named("arrow name")
            self.expect(":")
            src = self.ident("source object")
            self.expect("->")
            tgt = self.ident("target object")
            if self.kinds[self.pos] == "[":
                self.pos += 1
                flag = self.ident("arrow flag")
                if flag != "mono":
                    self.build.error(at, f"unknown arrow flag {flag!r}")
                self.expect("]")
                monos.append((aid, a_at))
            arrows.append((aid, src, tgt, a_at))

        def equation(at: int) -> None:
            lhs, left = self.dotted()
            self.expect("=")
            rhs, right = self.dotted()
            equations.append((lhs, rhs, left or right, at))

        self.entries("sketch", {
            "object": lambda at: objects.append(self.named("object name")),
            "arrow": arrow,
            "mono": lambda at: monos.append(self.named("arrow name")),
            "eq": equation,
            "cone": lambda at: cones.append((*self.cone(), at)),
        })
        self.build.sketch(name, name_at, objects, arrows, monos,
                          equations, cones)

    def dotted(self) -> tuple[tuple[str, ...], str | None]:
        """Parse ID(.ID)* or id(OBJ); returns (arrows, anchor)."""
        at = self.pos
        if self.texts[at] == "id" and self.kinds[at + 1] == "(":
            self.pos += 1
            self.expect("(")
            anchor = self.ident("object name")
            self.expect(")")
            return (), anchor
        parts = [self.ident("arrow path")]
        while self.kinds[self.pos] == ".":
            self.pos += 1
            parts.append(self.ident("arrow name"))
        return tuple(parts), None

    def cone(self) -> tuple:
        cname = self.ident("cone name")
        self.expect(":")
        apex = self.ident("apex object")
        self.expect("{")
        try:
            return self.cone_body(cname, apex)
        except _Recover:
            # leave the cursor just past this cone's closing brace so the
            # enclosing sketch keeps its own braces balanced
            self.skip_to(())
            if self.kinds[self.pos] == "}":
                self.pos += 1
            raise

    def cone_body(self, cname: str, apex: str) -> tuple:
        """The cone's parts, as ``_Builder.sketch`` takes them but for the
        location, which the caller adds."""
        self.expect_keyword("base")
        nodes: list = []
        edges: list[ConeEdge] = []
        while self.kinds[self.pos] != ";":
            at = self.pos
            if self.kinds[at] in ("}", "eof"):
                self.fail(at, "cone base section is missing ';'")
            if self.texts[at] == "edge":
                self.pos += 1
                src = self.ident("base node")
                self.expect("->")
                tgt = self.ident("base node")
                self.expect(":")
                path, _ = self.dotted()
                edges.append(ConeEdge(src, tgt, path))
            else:
                node, n_at = self.named("base node")
                self.expect(":")
                nodes.append((node, self.ident("object name"), n_at))
        self.expect(";")
        self.expect_keyword("proj")
        projections: list = []
        while self.kinds[self.pos] != "}":
            if self.kinds[self.pos] == "eof":
                self.fail(self.pos, "unterminated cone block")
            node = self.ident("base node")
            self.expect("->")
            arrow, p_at = self.named("projection arrow")
            projections.append((node, arrow, p_at))
        self.expect("}")
        return cname, apex, nodes, edges, projections

    def expect_keyword(self, word: str) -> None:
        at = self.pos
        if self.texts[at] != word:
            self.fail(at, f"expected {word!r}, found {self.texts[at]!r}")
        self.pos = at + 1

    # -- spec

    def spec_block(self) -> None:
        name, name_at = self.named("spec name")
        self.expect_keyword("over")
        over, over_at = self.named("sketch name")

        def elem(at: int) -> None:
            el = self.ident("element name")
            self.expect(":")
            ob = self.ident("object name")
            for column, part in zip(elems, (el, ob, at)):
                column.append(part)

        def act(at: int) -> None:
            aid = self.ident("arrow name")
            self.expect("(")
            x = self.ident("element name")
            self.expect(")")
            self.expect("=")
            y = self.ident("element name")
            for column, part in zip(acts, (aid, x, y, at)):
                column.append(part)

        at = self.pos + 1
        if self.kinds[self.pos] == "{" and self.kinds[at] == "body":
            names, obs, *acts = self.texts[at]  # locations are never read:
            elems = names, obs, [at] * len(names)  # an issue re-parses
            acts.append([at] * len(acts[0]))
            self.pos = at + 2  # past the body and its '}'
        else:
            elems, acts = [[], [], []], [[], [], [], []]
            self.entries("spec", {"elem": elem, "act": act})
        self.build.spec(name, name_at, over, over_at, elems, acts)

    # -- morphism

    def morphism_block(self) -> None:
        name, name_at = self.named("morphism name")
        self.expect(":")
        src, src_at = self.named("source sketch")
        self.expect("->")
        tgt, tgt_at = self.named("target sketch")
        objs: list = []
        arrs: list = []

        def obj(at: int) -> None:
            a = self.ident("object name")
            self.expect("=>")
            objs.append((a, self.ident("object name"), at))

        def arr(at: int) -> None:
            a = self.ident("arrow name")
            self.expect("=>")
            path_at = self.pos
            path, anchor = self.dotted()
            arrs.append((a, path, anchor, at, path_at))

        self.entries("morphism", {"obj": obj, "arr": arr})
        self.build.morphism(name, name_at, src, src_at, tgt, tgt_at,
                            objs, arrs)

    # -- config

    def config_block(self) -> None:
        name, name_at = self.named("config name")
        settings: dict = {}

        def max_rounds(at: int) -> None:
            self.expect("=")
            settings["max_rounds"] = int(
                self.texts[self.expect("num", "a number")])

        def rules(at: int) -> None:
            self.expect("=")
            ids = [self.ident("rule name")]
            while self.kinds[self.pos] == ",":
                self.pos += 1
                ids.append(self.ident("rule name"))
            settings["rules"] = tuple(ids)

        self.entries("config", {"max_rounds": max_rounds, "rules": rules})
        self.build.config(name, name_at, settings.get("max_rounds"),
                          settings.get("rules"))


def parse(text: str, env: dict[str, Sketch] | None = None) -> list:
    """Parse a source text into declarations; raise ParseError on issues.

    Sketch names referenced by specs and morphisms resolve against the
    same text first, then ``env``, then the builtin sketches.
    """
    try:
        p = _Parser(text, env, _scan_specs)
        p.parse()
    except _Reread:  # word each issue at its place in the whole text
        p = _Parser(text, env, _scan)
        p.parse()
    build, p.build = p.build, None  # build.locate is bound to p: no cycle
    return build.finish()


# ---------------------------------------------------------------------------
# documents: one per declaration, dumped as JSON or rendered as text
# ---------------------------------------------------------------------------


def serialize(decl) -> str:
    """Render one declaration in canonical text form.

    The text renders the declaration's JSON document.  The canonical form
    orders sketch sections as objects, arrows, cones, equations, each
    alphabetically; parsing it back yields a declaration equal to the
    alphabetised original, and serializing a parsed canonical file
    reproduces it byte for byte.  Specification carriers keep their
    declaration order because element order is meaningful.
    """
    if type(decl) not in _DECLARATIONS:
        raise TypeError(f"cannot serialize {type(decl).__name__}")
    return _DECLARATIONS[type(decl)][0](decl)


def serialize_file(decls) -> str:
    """Render several declarations separated by blank lines."""
    return "\n".join(serialize(d) for d in decls)


def canonical(sk: Sketch) -> Sketch:
    """The same sketch with every order-insensitive part alphabetised.

    Parsing a serialized sketch yields exactly ``canonical(sk)``; use it
    when comparing sketches that were built in different orders.
    """
    return Sketch(
        name=sk.name,
        objects=tuple(sorted(sk.objects)),
        arrows={aid: sk.arrows[aid] for aid in sorted(sk.arrows)},
        equations=tuple(sorted(sk.equations, key=lambda q: (q.lhs, q.rhs))),
        cones={
            cname: Cone(
                cname,
                sk.cones[cname].apex,
                {n: sk.cones[cname].nodes[n]
                 for n in sorted(sk.cones[cname].nodes)},
                tuple(sorted(sk.cones[cname].edges,
                             key=lambda e: (e.src, e.tgt, e.path))),
                {n: sk.cones[cname].projections[n]
                 for n in sorted(sk.cones[cname].projections)},
            )
            for cname in sorted(sk.cones)
        },
        monos=sk.monos,
    )


def _writable(kind: str, name, names=()) -> None:
    """Refuse a declaration whose name, or one of ``names``, is not an
    identifier: no loader would read it back."""
    names = (name, *names)
    if not _identifiers(names):
        bad = next(n for n in names if not _identifiers((n,)))
        raise ValueError(f"{kind} {name!r} has the name {bad!r}, not an "
                         "identifier, so neither format can write it")


def _sketch_doc(sk: Sketch) -> dict:
    _writable("sketch", sk.name, (*sk.objects, *sk.arrows, *sk.cones, *(
        node for cone in sk.cones.values() for node in cone.nodes)))
    sk = canonical(sk)
    return {
        "kind": "sketch",
        "name": sk.name,
        "objects": list(sk.objects),
        "arrows": [
            {"id": aid, "src": a.src, "tgt": a.tgt}
            for aid, a in sk.arrows.items()
        ],
        "monos": sorted(sk.monos),
        "cones": [
            {
                "name": cname,
                "apex": cone.apex,
                "nodes": cone.nodes,
                "edges": [
                    {"src": e.src, "tgt": e.tgt, "path": list(e.path)}
                    for e in cone.edges
                ],
                "projections": cone.projections,
            }
            for cname, cone in sk.cones.items()
        ],
        "equations": [
            {"lhs": list(eq.lhs), "rhs": list(eq.rhs)}
            for eq in sk.equations
        ],
    }


def _sketch_text(sk: Sketch) -> str:
    doc = _sketch_doc(sk)
    source = {a["id"]: a["src"] for a in doc["arrows"]}
    lines = [f"sketch {doc['name']} {{",
             *(f"  object {ob}" for ob in doc["objects"])]
    for a in doc["arrows"]:
        flag = " [mono]" if a["id"] in doc["monos"] else ""
        lines.append(f"  arrow {a['id']} : {a['src']} -> {a['tgt']}{flag}")
    for c in doc["cones"]:
        lines += [f"  cone {c['name']} : {c['apex']} {{", "    base",
                  *(f"      {n} : {ob}" for n, ob in c["nodes"].items()),
                  *(f"      edge {e['src']} -> {e['tgt']} : "
                    f"{'.'.join(e['path'])}" for e in c["edges"]),
                  "    ;", "    proj",
                  *(f"      {n} -> {a}" for n, a in c["projections"].items()),
                  "  }"]
    for q in doc["equations"]:
        rhs = ".".join(q["rhs"]) or f"id({source[q['lhs'][0]]})"
        lines.append(f"  eq {'.'.join(q['lhs'])} = {rhs}")
    return "\n".join(lines) + "\n}\n"


def _spec_doc(decl: NamedSpec) -> dict:
    r = decl.realization
    arrows = r.over.arrows
    _writable("spec", decl.name, chain.from_iterable(
        r.carrier[ob].elements for ob in r.over.objects))
    return {
        "kind": "spec",
        "name": decl.name,
        "over": r.over.name,
        "carriers": {ob: list(r.carrier[ob].elements)
                     for ob in r.over.objects},
        "actions": {aid: dict(zip(xs, map(r.action[aid].mapping.__getitem__,
                                          xs)))
                    for aid in sorted(arrows)
                    for xs in [r.carrier[arrows[aid].src].elements]},
    }


def _spec_text(decl: NamedSpec) -> str:
    doc = _spec_doc(decl)
    lines = [f"spec {doc['name']} over {doc['over']} {{"]
    for ob, xs in doc["carriers"].items():
        lines += [f"  elem {x} : {ob}" for x in xs]
    for aid, table in doc["actions"].items():
        lines += [f"  act {aid}({x}) = {y}" for x, y in table.items()]
    return "\n".join(lines) + "\n}\n"


def _morphism_doc(decl: NamedMorphism) -> dict:
    _writable("morphism", decl.name)
    m = decl.morphism
    return {
        "kind": "morphism",
        "name": decl.name,
        "src": m.src.name,
        "tgt": m.tgt.name,
        "objects": {ob: m.object_map[ob] for ob in sorted(m.object_map)},
        "arrows": {aid: list(m.arrow_map[aid])
                   for aid in sorted(m.arrow_map)},
    }


def _morphism_text(decl: NamedMorphism) -> str:
    """The document writes an identity image as ``[]``; its ``id(OBJ)``
    text names the image of the arrow's source, read off the morphism."""
    doc, m = _morphism_doc(decl), decl.morphism
    lines = [f"morphism {doc['name']} : {doc['src']} -> {doc['tgt']} {{",
             *(f"  obj {a} => {b}" for a, b in doc["objects"].items())]
    for aid, path in doc["arrows"].items():
        image = ".".join(path) or f"id({m.object_map[m.src.arrows[aid].src]})"
        lines.append(f"  arr {aid} => {image}")
    return "\n".join(lines) + "\n}\n"


def _config_doc(decl: NamedConfig) -> dict:
    """Both writers read a config here, so it refuses what parses back in
    neither format: a name or a rule name that is not an identifier, a
    round budget that is not a natural number, or an empty rule list."""
    _writable("config", decl.name)
    rounds, rules = decl.config.max_rounds, decl.config.rule_subset
    bad = next((f"lists rule {r!r}, not an identifier" for r in rules or ()
                if not _IDENT.fullmatch(r)),
               "lists no rules" if rules == () else None)
    if type(rounds) is not int or rounds < 0:
        bad = f"has max_rounds {rounds!r}, not a natural number"
    if bad:
        raise ValueError(f"config {decl.name!r} {bad}, so neither format can "
                         "write it")
    return {
        "kind": "config",
        "name": decl.name,
        "max_rounds": rounds,
        "rules": None if rules is None else list(rules),
    }


def _config_text(decl: NamedConfig) -> str:
    doc = _config_doc(decl)
    lines = [f"config {doc['name']} {{", f"  max_rounds = {doc['max_rounds']}"]
    if doc["rules"] is not None:
        lines.append(f"  rules = {', '.join(doc['rules'])}")
    return "\n".join(lines) + "\n}\n"


# the four declaration types, each with its text writer and its document
_DECLARATIONS = {
    Sketch: (_sketch_text, _sketch_doc),
    NamedSpec: (_spec_text, _spec_doc),
    NamedMorphism: (_morphism_text, _morphism_doc),
    NamedConfig: (_config_text, _config_doc),
}


def to_jsonable(x):
    """Translate a declaration, report, or chase result to plain data."""
    if type(x) in _DECLARATIONS:
        return _DECLARATIONS[type(x)][1](x)
    if isinstance(x, ValidationReport):
        return [
            {"severity": v.severity, "code": v.code, "where": v.where,
             "message": v.message}
            for v in x.violations
        ]
    if isinstance(x, ChaseResult):
        return {"status": x.status, "rounds": x.rounds,
                "trace": trace_doc(x)["rounds"]}
    if isinstance(x, (list, tuple)):
        return [to_jsonable(d) for d in x]
    raise TypeError(f"cannot serialize {type(x).__name__} to JSON")


def serialize_json(x) -> str:
    return dump_json(to_jsonable(x))


def dump_json(x, pad: str = "\n") -> str:
    """``json.dumps(x, indent=2)`` byte for byte, for str-keyed ``x``.  A
    container of strings alone goes through the C encoder in one call."""
    if not isinstance(x, (dict, list, tuple)) or not x:
        return json.dumps(x)
    inner = pad + "  "
    if all(isinstance(v, str) for v in (x.values() if isinstance(x, dict) else x)):
        s = json.dumps(x, separators=("," + inner, ": "))
        return s[0] + inner + s[1:-1] + pad + s[-1]
    if isinstance(x, dict):
        items = (f"{json.dumps(k)}: {dump_json(v, inner)}" for k, v in x.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return "[" + inner + ("," + inner).join(dump_json(v, inner) for v in x) + pad + "]"


def parse_json(source, env: dict[str, Sketch] | None = None) -> list:
    """Read declarations back from their JSON form.

    ``source`` may be JSON text or already-loaded data; a single
    declaration object or a list of them.  References resolve the same
    way as in :func:`parse`, and the same checks apply.
    """
    if isinstance(source, str):
        try:
            # one colon per member outside strings: more colons than members
            # kept means a repeated key (or a colon in a string), so keep pairs
            data = json.loads(source)
            if source.count(":") != _members(data):
                data = json.loads(source, object_pairs_hook=_Object)
        except json.JSONDecodeError as e:
            raise ParseError([ParseIssue(e.lineno, e.colno, e.msg)]) from e
    else:
        data = source
    docs = data if isinstance(data, list) else [data]
    build = _Builder(env, lambda idx, message: ParseIssue(
        0, 0, f"declaration {idx}: {message}"))
    for idx, doc in enumerate(docs):
        try:
            _read_doc(build, idx, doc)
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            build.error(idx, f"malformed document ({e})")
    return build.finish()


class _Object(dict):
    """A JSON object.  Its ``items`` keep every pair of a repeated key, so a
    repeated action or image meets the check its text form meets."""

    def __init__(self, pairs: list):
        super().__init__(pairs)
        self.pairs = pairs if len(self) < len(pairs) else None

    def items(self):
        return self.pairs or super().items()


def _members(x) -> int:
    """The members of every JSON object within ``x``."""
    if isinstance(x, dict):
        return len(x) + _members(list(x.values()))
    if isinstance(x, list):
        return sum(map(_members, [v for v in x if not isinstance(v, str)]))
    return 0


def _list(x) -> list:
    """A JSON array; a string there would otherwise read as its letters."""
    if not isinstance(x, (list, tuple)):
        raise TypeError(f"expected a list, got {x!r}")
    return x


def _read_doc(build: _Builder, at: int, doc) -> None:
    """Hand the parts of one JSON document to ``build``, located at ``at``."""
    kind = doc["kind"]
    if kind not in _TOP_KEYWORDS:
        build.error(at, f"unknown kind {kind!r}")
        return
    if kind == "sketch":
        build.sketch(
            doc["name"], at,
            [(ob, at) for ob in _list(doc["objects"])],
            [(a["id"], a["src"], a["tgt"], at) for a in _list(doc["arrows"])],
            [(m, at) for m in _list(doc["monos"])],
            [(tuple(_list(q["lhs"])), tuple(_list(q["rhs"])), None, at)
             for q in _list(doc["equations"])],
            [(c["name"], c["apex"],
              [(n, ob, at) for n, ob in c["nodes"].items()],
              [ConeEdge(e["src"], e["tgt"], tuple(_list(e["path"])))
               for e in _list(c["edges"])],
              [(n, a, at) for n, a in c["projections"].items()], at)
             for c in _list(doc["cones"])])
    elif kind == "spec":
        name, over = doc["name"], doc["over"]
        names, obs, arrows, xs, ys = [], [], [], [], []
        for ob, elements in doc["carriers"].items():
            names += _list(elements)
            obs += [ob] * len(elements)
        for aid, table in doc["actions"].items():
            pairs = table.items()
            arrows += [aid] * len(pairs)
            xs += map(itemgetter(0), pairs)
            ys += map(itemgetter(1), pairs)
        build.spec(name, at, over, at, (names, obs, [at] * len(names)),
                   (arrows, xs, ys, [at] * len(xs)))
    elif kind == "morphism":
        build.morphism(
            doc["name"], at, doc["src"], at, doc["tgt"], at,
            [(a, b, at) for a, b in doc["objects"].items()],
            [(a, tuple(_list(p)), None, at, at)
             for a, p in doc["arrows"].items()])
    else:
        rounds = doc.get("max_rounds")
        if rounds is not None and (type(rounds) is not int or rounds < 0):
            raise ValueError(f"max_rounds {rounds!r} is not a natural number")
        rules = doc.get("rules")
        build.config(doc["name"], at, rounds,
                     None if rules is None else tuple(_list(rules)))


def read_text(path) -> str:
    """A file's text as UTF-8; a byte that does not decode names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        e.reason += f" in {path}"
        raise


def parse_path(path, env: dict[str, Sketch] | None = None) -> list:
    """Load declarations from a ``.sk`` or ``.sk.json`` file; a ParseError
    names the file."""
    text = read_text(path)
    try:
        if str(path).endswith(".json"):
            return parse_json(text, env)
        return parse(text, env)
    except ParseError as e:
        e.path = str(path)
        raise
