"""Finite limit sketches.

A sketch is a presentation: named objects, typed arrows, path equations,
mono markers, and cones whose bases are finite diagrams drawn inside the
sketch.  Nothing here builds the generated category; downstream modules
interpret sketches in finite sets or rewrite them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache


def cached_on(owner, make):
    """``make(owner)``, made once and kept on ``owner`` outside its fields,
    which equality, ``repr``, ``replace`` and pickling read alone."""
    store = owner.__dict__.setdefault("_cached", {})
    return store[make] if make in store else store.setdefault(make, make(owner))


def _fields_only(self) -> dict:
    return {k: v for k, v in self.__dict__.items() if k != "_cached"}


@dataclass(frozen=True)
class ArrowDecl:
    id: str
    src: str
    tgt: str


@dataclass(frozen=True)
class PathEquation:
    """Two composable arrow paths asserted equal.

    ``lhs`` is never empty; ``rhs`` may be empty, meaning the identity
    path at the shared endpoint.
    """

    lhs: tuple[str, ...]
    rhs: tuple[str, ...]


@dataclass(frozen=True)
class ConeEdge:
    """A path between two base nodes of a cone."""

    src: str
    tgt: str
    path: tuple[str, ...]


@dataclass(frozen=True)
class Cone:
    """A limit cone declaration.

    ``nodes`` labels each base node with a sketch object; ``edges`` are
    paths between base nodes; ``projections`` assigns arrows apex->node
    object to some (not necessarily all) base nodes.  Nodes without a
    projection constrain the limit through unique extension instead.
    """

    name: str
    apex: str
    nodes: dict[str, str]
    edges: tuple[ConeEdge, ...] = ()
    projections: dict[str, str] = field(default_factory=dict)

    __getstate__ = _fields_only


@dataclass(frozen=True)
class Sketch:
    name: str
    objects: tuple[str, ...]
    arrows: dict[str, ArrowDecl] = field(default_factory=dict)
    equations: tuple[PathEquation, ...] = ()
    cones: dict[str, Cone] = field(default_factory=dict)
    monos: frozenset[str] = frozenset()

    __getstate__ = _fields_only


@dataclass(frozen=True)
class Violation:
    code: str
    where: str
    message: str
    severity: str = "error"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        """True when no error-severity violation is present (warnings allowed)."""
        return not any(v.severity == "error" for v in self.violations)

    def __str__(self) -> str:
        if not self.violations:
            return "ok"
        return "\n".join(
            f"{v.severity}: {v.code} at {v.where}: {v.message}" for v in self.violations
        )


def path_endpoints(sk: Sketch, path: tuple[str, ...], at: str | None = None) -> tuple[str, str]:
    """Source and target of a composable path; empty paths need ``at``."""
    if not path:
        if at is None:
            raise ValueError("empty path needs an anchor object")
        if at not in sk.objects:
            raise ValueError(f"unknown object {at!r}")
        return at, at
    for a in path:
        if a not in sk.arrows:
            raise ValueError(f"unknown arrow {a!r}")
    src = sk.arrows[path[0]].src
    here = src
    for i, a in enumerate(path):
        decl = sk.arrows[a]
        if decl.src != here:
            raise ValueError(
                f"path not composable at position {i}: {a} starts at {decl.src}, expected {here}"
            )
        here = decl.tgt
    return src, here


def _check_path(sk: Sketch, path: tuple[str, ...], where: str, out: list[Violation], at: str | None = None) -> tuple[str, str] | None:
    try:
        return path_endpoints(sk, path, at)
    except ValueError as exc:
        out.append(Violation("bad-path", where, str(exc)))
        return None


def validate_sketch(sk: Sketch) -> ValidationReport:
    """Check every structural invariant; an empty report means valid."""
    out: list[Violation] = []
    seen: set[str] = set()
    for ob in sk.objects:
        if ob in seen:
            out.append(Violation("duplicate-object", ob, f"object {ob!r} declared twice"))
        seen.add(ob)
    for a in sk.arrows.values():
        if a.src not in seen:
            out.append(Violation("unknown-source", a.id, f"arrow {a.id}: unknown source {a.src!r}"))
        if a.tgt not in seen:
            out.append(Violation("unknown-target", a.id, f"arrow {a.id}: unknown target {a.tgt!r}"))
    for m in sorted(sk.monos):
        if m not in sk.arrows:
            out.append(Violation("unknown-mono", m, f"mono marker on undeclared arrow {m!r}"))
    for i, eq in enumerate(sk.equations):
        where = f"equation#{i}"
        if not eq.lhs:
            out.append(Violation("empty-lhs", where, "left side of an equation may not be empty"))
            continue
        ends = _check_path(sk, eq.lhs, where, out)
        if ends is None:
            continue
        other = _check_path(sk, eq.rhs, where, out, at=ends[0])
        if other is None:
            continue
        if ends != other:
            out.append(
                Violation(
                    "endpoint-mismatch",
                    where,
                    f"sides have endpoints {ends} and {other}",
                )
            )
    for cone in sk.cones.values():
        _validate_cone(sk, cone, out)
    return ValidationReport(tuple(out))


def _validate_cone(sk: Sketch, cone: Cone, out: list[Violation]) -> None:
    where = f"cone {cone.name}"
    if cone.apex not in sk.objects:
        out.append(Violation("unknown-apex", where, f"unknown apex {cone.apex!r}"))
    for node, ob in cone.nodes.items():
        if ob not in sk.objects:
            out.append(Violation("unknown-node-object", where, f"node {node}: unknown object {ob!r}"))
    for node, arrow in cone.projections.items():
        if node not in cone.nodes:
            out.append(Violation("unknown-proj-node", where, f"projection for undeclared node {node!r}"))
            continue
        decl = sk.arrows.get(arrow)
        if decl is None:
            out.append(Violation("unknown-proj-arrow", where, f"projection {arrow!r} is not a declared arrow"))
        elif decl.src != cone.apex or decl.tgt != cone.nodes[node]:
            out.append(
                Violation(
                    "proj-type-mismatch",
                    where,
                    f"projection {arrow}: {decl.src}->{decl.tgt}, expected {cone.apex}->{cone.nodes[node]}",
                )
            )
    for edge in cone.edges:
        if edge.src not in cone.nodes or edge.tgt not in cone.nodes:
            out.append(Violation("unknown-edge-node", where, f"edge {edge.src}->{edge.tgt} uses undeclared nodes"))
            continue
        ends = _check_path(sk, edge.path, where, out, at=cone.nodes[edge.src])
        if ends is None:
            continue
        want = (cone.nodes[edge.src], cone.nodes[edge.tgt])
        if ends != want:
            out.append(
                Violation(
                    "edge-type-mismatch",
                    where,
                    f"edge {edge.src}->{edge.tgt} path has endpoints {ends}, expected {want}",
                )
            )
            continue
        tri = missing_projection_triangle(cone, edge, sk.equations)
        if tri is not None:
            out.append(
                Violation(
                    "missing-proj-equation",
                    where,
                    f"edge {edge.src}->{edge.tgt} needs equation {list(tri.lhs)} = {list(tri.rhs)}",
                )
            )


def missing_projection_triangle(cone: Cone, edge: ConeEdge, equations) -> PathEquation | None:
    """The projection triangle ``(p_src,) + path = (p_tgt,)`` that an edge
    between two projected nodes needs, when no equation in ``equations``
    states it either way round; None otherwise."""
    ps, pt = cone.projections.get(edge.src), cone.projections.get(edge.tgt)
    if ps is None or pt is None:
        return None
    lhs, rhs = (ps,) + edge.path, (pt,)
    if any({q.lhs, q.rhs} == {lhs, rhs} for q in equations):
        return None
    return PathEquation(lhs, rhs)


@cache
def builtin_sketches() -> dict[str, Sketch]:
    """The bundled examples: graph, magma, and the modus ponens theory, as
    the shipped corpus declares them.  The files are read once; every call
    returns the same dict, which callers must not change."""
    from importlib import resources

    from . import dsl  # dsl imports this module

    corpus = resources.files(__package__) / "corpus"
    return {name: next(d for d in dsl.parse_path(corpus / file)
                       if isinstance(d, Sketch) and d.name == name)
            for name, file in (("graph", "graph.sk"), ("magma", "magma.sk"),
                               ("mp_theory", "mp.sk"))}
