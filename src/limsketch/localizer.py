"""Sketch morphisms, cycle detection, and mechanical cycle breaking.

The cycle rule orients every projection arrow in both directions and every
other arrow forward only.  An arrow that is neither a projection nor a mono
and lies on an elementary closed walk is considered cyclic; breaking such an
arrow c: H -> C replaces it by a span H <- H' -> C whose left leg is a fresh
mono, together with the sketch morphism that collapses the span again.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .sketch import (
    ArrowDecl,
    Cone,
    ConeEdge,
    PathEquation,
    Sketch,
    ValidationReport,
    Violation,
    path_endpoints,
)


@dataclass(frozen=True)
class SketchMorphism:
    """Maps objects to objects and arrows to composable target paths."""

    src: Sketch
    tgt: Sketch
    object_map: dict[str, str]
    arrow_map: dict[str, tuple[str, ...]]

    def map_path(self, path: tuple[str, ...]) -> tuple[str, ...]:
        out: list[str] = []
        for a in path:
            out.extend(self.arrow_map[a])
        return tuple(out)


@dataclass(frozen=True)
class BrokenRecord:
    h: str
    c: str
    fresh: str


@dataclass(frozen=True)
class Localiser:
    underlying: SketchMorphism
    broken: tuple[BrokenRecord, ...]


@dataclass(frozen=True)
class CycleReport:
    """Closed walks as ((arrow, 'fwd'|'rev'), ...), canonically rotated."""

    cycles: tuple[tuple[tuple[str, str], ...], ...]

    def arrows_on_cycles(self) -> frozenset[str]:
        return frozenset(a for walk in self.cycles for a, _ in walk)


def as_localiser(m: SketchMorphism) -> Localiser:
    """Recover the broken-arrow records from a cycle-breaking morphism.

    A mono whose image is the identity path marks a broken span: its
    source is the fresh partial-domain object, and the other arrow out
    of that object is the replacement leg.  Localisers loaded from a file
    and those built by ``break_cycles`` are both read this way.
    """
    records = []
    for h in sorted(m.src.monos):
        if m.arrow_map.get(h) != ():
            continue
        fresh = m.src.arrows[h].src
        legs = [a for a, d in m.src.arrows.items()
                if d.src == fresh and a != h]
        if len(legs) != 1:
            raise ValueError(
                f"mono {h!r} collapses to an identity but {fresh!r} has "
                f"{len(legs)} other outgoing arrows, expected exactly 1")
        records.append(BrokenRecord(h=h, c=legs[0], fresh=fresh))
    return Localiser(underlying=m, broken=tuple(records))


def projection_arrows(sk: Sketch) -> frozenset[str]:
    return frozenset(a for cone in sk.cones.values() for a in cone.projections.values())


# ---------------------------------------------------------------------------
# path rewriting
# ---------------------------------------------------------------------------


# Bounds of the rewrite search: at most this many rewriting steps, and at
# most this many distinct paths kept.
_REWRITE_DEPTH = 8
_MAX_REWRITTEN = 20_000


def paths_equivalent(sk: Sketch, a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    """Breadth-first search for a rewrite chain a ->* b using sk's equations.

    Each declared equation may be applied left-to-right or right-to-left at
    any position.  The search is sound but incomplete: a False answer only
    means no chain was found within ``_REWRITE_DEPTH`` steps.
    """
    if a == b:
        return True
    rules = []
    for eq in sk.equations:
        rules.append((eq.lhs, eq.rhs))
        rules.append((eq.rhs, eq.lhs))
    seen = {a}
    frontier = deque([a])
    for _ in range(_REWRITE_DEPTH):
        if not frontier:
            break
        next_frontier: deque[tuple[str, ...]] = deque()
        while frontier:
            cur = frontier.popleft()
            for old, new in rules:
                limit = len(cur) - len(old)
                for i in range(limit + 1):
                    if cur[i : i + len(old)] != old:
                        continue
                    cand = cur[:i] + new + cur[i + len(old) :]
                    if cand == b:
                        return True
                    if cand not in seen and len(seen) < _MAX_REWRITTEN:
                        seen.add(cand)
                        next_frontier.append(cand)
        frontier = next_frontier
    return False


# ---------------------------------------------------------------------------
# morphism checking
# ---------------------------------------------------------------------------


def check_sketch_morphism(m: SketchMorphism) -> ValidationReport:
    """Validate totality, typing, mono/equation/cone transport.

    Equation images that cannot be confirmed within the rewriting depth are
    reported as warnings, not errors.
    """
    out: list[Violation] = []
    for ob in m.src.objects:
        if ob not in m.object_map:
            out.append(Violation("object-map-total", ob, f"object {ob!r} has no image"))
        elif m.object_map[ob] not in m.tgt.objects:
            out.append(
                Violation("object-map-total", ob, f"image {m.object_map[ob]!r} not in target")
            )
    if out:
        return ValidationReport(tuple(out))
    for aid, decl in m.src.arrows.items():
        if aid not in m.arrow_map:
            out.append(Violation("arrow-map-total", aid, f"arrow {aid!r} has no image"))
            continue
        image = m.arrow_map[aid]
        want = (m.object_map[decl.src], m.object_map[decl.tgt])
        try:
            got = path_endpoints(m.tgt, image, at=want[0])
        except ValueError as exc:
            out.append(Violation("arrow-endpoints", aid, str(exc)))
            continue
        if got != want:
            out.append(
                Violation("arrow-endpoints", aid, f"image has endpoints {got}, expected {want}")
            )
    if out:
        return ValidationReport(tuple(out))
    for mono in sorted(m.src.monos):
        image = m.arrow_map[mono]
        if len(image) == 0:
            continue
        if len(image) == 1 and image[0] in m.tgt.monos:
            continue
        out.append(
            Violation(
                "mono-transport",
                mono,
                f"image {list(image)} is neither an identity path nor a mono arrow",
            )
        )
    for i, eq in enumerate(m.src.equations):
        lhs, rhs = m.map_path(eq.lhs), m.map_path(eq.rhs)
        if not paths_equivalent(m.tgt, lhs, rhs):
            out.append(
                Violation(
                    "equation-not-confirmed",
                    f"equation#{i}",
                    f"image {list(lhs)} = {list(rhs)} not derivable within depth {_REWRITE_DEPTH}",
                    severity="warning",
                )
            )
    for cone in m.src.cones.values():
        err = _check_cone_transport(m, cone)
        if err is not None:
            out.append(Violation("cone-transport", f"cone {cone.name}", err))
    return ValidationReport(tuple(out))


def _check_cone_transport(m: SketchMorphism, cone: Cone) -> str | None:
    apex = m.object_map[cone.apex]
    nodes = {n: m.object_map[ob] for n, ob in cone.nodes.items()}
    projs: dict[str, str] = {}
    for n, a in cone.projections.items():
        image = m.arrow_map[a]
        if len(image) != 1:
            return f"projection {a} maps to {list(image)}, not a single arrow"
        projs[n] = image[0]
    edges = [(e.src, e.tgt, m.map_path(e.path)) for e in cone.edges]
    for tgt_cone in sorted(m.tgt.cones.values(), key=lambda c: c.name):
        if tgt_cone.apex != apex or len(tgt_cone.nodes) != len(nodes):
            continue
        if _match_cone(nodes, edges, projs, tgt_cone):
            return None
    return f"no target cone matches the transported base (apex {apex})"


def _match_cone(
    nodes: dict[str, str],
    edges: list[tuple[str, str, tuple[str, ...]]],
    projs: dict[str, str],
    tgt: Cone,
) -> bool:
    order = sorted(nodes)
    candidates: list[list[str]] = []
    for n in order:
        opts = []
        for n2, ob2 in tgt.nodes.items():
            if ob2 != nodes[n]:
                continue
            if (n in projs) != (n2 in tgt.projections):
                continue
            if n in projs and tgt.projections[n2] != projs[n]:
                continue
            opts.append(n2)
        if not opts:
            return False
        candidates.append(sorted(opts))

    tgt_edges = sorted((e.src, e.tgt, e.path) for e in tgt.edges)

    def ok(beta: dict[str, str]) -> bool:
        must = []
        for s, t, p in edges:
            if not p and beta[s] == beta[t]:
                continue  # contracted identity edge may be dropped
            must.append((beta[s], beta[t], p))
        return sorted(must) == tgt_edges

    return any(ok(dict(zip(order, pick))) for pick in itertools.product(*candidates)
               if len(set(pick)) == len(pick))


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def find_cycles(sk: Sketch) -> CycleReport:
    """All elementary closed walks using at least one plain arrow.

    Projection arrows may be walked in either direction; every other arrow
    only forward.  Walks consisting purely of projections and monos are not
    reported (a mono leg alone never forms a deduction loop).
    """
    projs = projection_arrows(sk)
    out_edges: dict[str, list[tuple[str, str, str]]] = {ob: [] for ob in sk.objects}
    for a in sorted(sk.arrows):
        decl = sk.arrows[a]
        out_edges[decl.src].append((decl.tgt, a, "fwd"))
        if a in projs:
            out_edges[decl.tgt].append((decl.src, a, "rev"))
    for lst in out_edges.values():
        lst.sort()

    found: set[tuple[tuple[str, str], ...]] = set()

    def walk(start: str, here: str, steps: list[tuple[str, str]], visited: set[str]) -> None:
        for nxt, arrow, direction in out_edges[here]:
            if nxt == start:
                cand = tuple(steps + [(arrow, direction)])
                if any(a not in projs and a not in sk.monos for a, _ in cand):
                    found.add(_rotate_least(cand))
                continue
            if nxt in visited or nxt < start:
                continue
            visited.add(nxt)
            steps.append((arrow, direction))
            walk(start, nxt, steps, visited)
            steps.pop()
            visited.discard(nxt)

    for start in sorted(sk.objects):
        walk(start, start, [], {start})
    return CycleReport(tuple(sorted(found)))


def _rotate_least(walk: tuple[tuple[str, str], ...]) -> tuple[tuple[str, str], ...]:
    rotations = [walk[i:] + walk[:i] for i in range(len(walk))]
    return min(rotations)


# ---------------------------------------------------------------------------
# breaking
# ---------------------------------------------------------------------------


def default_plan(sk: Sketch) -> list[str]:
    projs = projection_arrows(sk)
    on_cycles = find_cycles(sk).arrows_on_cycles()
    return sorted(a for a in on_cycles if a not in projs and a not in sk.monos)


def break_cycles(sk: Sketch, plan: list[str] | None = None) -> tuple[Sketch, Localiser]:
    """Replace each planned arrow c: H -> C by a fresh mono span.

    The result keeps c's name, re-sourced at the fresh partial-domain object
    H_part_c, and adds the mono h_c: H_part_c -> H.  Equations and cone bases
    mentioning c are rewritten through the new leg; plans whose literal
    rewriting does not type-check are rejected.
    """
    if plan is None:
        plan = default_plan(sk)
    projs = projection_arrows(sk)
    cur = sk
    for c in sorted(set(plan)):
        if c not in sk.arrows:
            raise ValueError(f"cannot break {c!r}: not a declared arrow")
        if c in projs:
            raise ValueError(f"cannot break projection {c!r}: it belongs to a cone")
        cur = _break_one(cur, c)
    object_map = {ob: ob for ob in cur.objects}
    arrow_map = {a: (a,) for a in cur.arrows}
    for h in cur.monos - sk.monos:
        arrow_map[h] = ()
        object_map[cur.arrows[h].src] = cur.arrows[h].tgt
    sigma = SketchMorphism(src=cur, tgt=sk, object_map=object_map, arrow_map=arrow_map)
    return cur, as_localiser(sigma)


def _break_one(sk: Sketch, c: str) -> Sketch:
    decl = sk.arrows[c]
    fresh = f"{decl.src}_part_{c}"
    mono = f"h_{c}"
    if fresh in sk.objects:
        raise ValueError(f"fresh object name {fresh!r} already declared")
    if mono in sk.arrows:
        raise ValueError(f"fresh mono name {mono!r} already declared")

    arrows = {}
    for aid, a in sk.arrows.items():
        arrows[aid] = ArrowDecl(c, fresh, a.tgt) if aid == c else a
    arrows[mono] = ArrowDecl(mono, fresh, decl.src)

    equations = tuple(_rewrite_equation(eq, c, mono, i) for i, eq in enumerate(sk.equations))
    cones = {name: _rewrite_cone(cone, c, mono, fresh) for name, cone in sk.cones.items()}
    return Sketch(
        name=sk.name,
        objects=sk.objects + (fresh,),
        arrows=arrows,
        equations=equations,
        cones=cones,
        monos=sk.monos | {mono},
    )


def _rewrite_equation(eq: PathEquation, c: str, mono: str, idx: int) -> PathEquation:
    if c not in eq.lhs and c not in eq.rhs:
        return eq
    for side in (eq.lhs, eq.rhs):
        if c in side[1:]:
            raise ValueError(
                f"cannot break {c!r}: equation#{idx} mentions it mid-path ({list(side)})"
            )
    lhs = eq.lhs if eq.lhs[:1] == (c,) else (mono,) + eq.lhs
    rhs = eq.rhs if eq.rhs[:1] == (c,) else (mono,) + eq.rhs
    return PathEquation(lhs, rhs)


def _rewrite_cone(cone: Cone, c: str, mono: str, fresh: str) -> Cone:
    for e in cone.edges:
        if c in e.path[1:]:
            raise ValueError(f"cannot break {c!r}: cone {cone.name} mentions it mid-path")
    hit = {e.src for e in cone.edges if e.path[:1] == (c,)}
    if not hit:
        return cone
    for n in sorted(hit):
        if n in cone.projections:
            raise ValueError(
                f"cannot break {c!r}: cone {cone.name} projects onto node {n!r}"
            )
        if any(e.tgt == n for e in cone.edges):
            raise ValueError(
                f"cannot break {c!r}: cone {cone.name} node {n!r} has incoming edges"
            )
    nodes = {n: (fresh if n in hit else ob) for n, ob in cone.nodes.items()}
    edges = []
    for e in cone.edges:
        if e.src in hit and e.path[:1] != (c,):
            edges.append(ConeEdge(e.src, e.tgt, (mono,) + e.path))
        else:
            edges.append(e)
    return Cone(
        name=cone.name,
        apex=cone.apex,
        nodes=nodes,
        edges=tuple(edges),
        projections=cone.projections,
    )
