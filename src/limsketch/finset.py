"""Finite sets, functions between them, the cone-family join and the union-find.

Everything is named: elements are strings, and all operations produce
deterministic element orders so downstream serializations are byte-stable.
Nothing in the package calls the set ``limit`` and ``pushout``; the
benchmark's tracer wraps them by name.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


@dataclass(frozen=True)
class FinSet:
    """An ordered finite set of distinct element names.

    ``members`` is a hashed index of ``elements`` behind every membership
    test; it is not a dataclass field, so equality, hashing, ``repr`` and
    ``dataclasses.replace`` see ``elements`` alone.
    """

    elements: tuple[str, ...]

    def __post_init__(self) -> None:
        members = frozenset(self.elements)
        if len(members) != len(self.elements):
            raise ValueError(f"duplicate elements in FinSet: {self.elements}")
        object.__setattr__(self, "members", members)

    def __contains__(self, x: str) -> bool:
        return x in self.members

    def __reduce__(self):
        # Rebuilt from the elements: the index and weak caches are not copied.
        return FinSet, (self.elements,)

    def __iter__(self) -> Iterator[str]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class FinFunction:
    """A total function between finite sets, stored pointwise."""

    dom: FinSet
    cod: FinSet
    mapping: dict[str, str]

    def __post_init__(self) -> None:
        keys, dom = self.mapping.keys(), self.dom.members
        if keys != dom:
            raise ValueError(f"function not total on dom "
                             f"(missing {sorted(dom - keys)}, extra {sorted(keys - dom)})")
        cod = self.cod.members
        if not cod.issuperset(self.mapping.values()):
            bad = {v for v in self.mapping.values() if v not in cod}
            raise ValueError(f"function values outside cod: {sorted(bad)}")

    def __call__(self, x: str) -> str:
        return self.mapping[x]


def identity(s: FinSet) -> FinFunction:
    """The identity on ``s``, one per set while it lives: the set keeps a
    weak reference to it outside its fields, as it keeps ``members``."""
    ref = s.__dict__.get("_identity")
    f = None if ref is None else ref()
    if f is None:
        f = FinFunction(s, s, dict(zip(s.elements, s.elements)))
        object.__setattr__(s, "_identity", weakref.ref(f))
    return f


def is_bijection(f: FinFunction) -> bool:
    return len(set(f.mapping.values())) == len(f.dom) == len(f.cod)


@dataclass(frozen=True)
class FinDiagram:
    """A finite diagram: named nodes carrying sets, named edges carrying functions."""

    nodes: dict[str, FinSet]
    edges: dict[str, tuple[str, str, FinFunction]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for e, (s, t, f) in self.edges.items():
            if s not in self.nodes or t not in self.nodes:
                raise ValueError(f"edge {e} references unknown node")
            if f.dom != self.nodes[s] or f.cod != self.nodes[t]:
                raise ValueError(f"edge {e} function does not match its endpoints")


def family_name(nodes: Iterable[str], family: dict[str, str]) -> str:
    return "(" + ",".join(f"{n}={family[n]}" for n in sorted(nodes)) + ")"


_Op = tuple[int, int, int, bool]


class JoinPlan(NamedTuple):
    """The static shape of a family join, worked out from nodes and edges alone.

    ``nodes`` fixes the order of the values in each family the kernel yields.
    ``seeded`` are the nodes the caller assigns before the first pick and
    ``start`` the ops they trigger.  Each step ``(pick, via, ops)`` assigns
    one more node: from all of its candidates when ``via`` is None, else
    from the preimage bucket of edge ``via[0]``, which leads to the assigned
    node ``via[1]``.  Its ops are the edges whose source that assignment
    completes, each ``(edge, src, tgt, fills)``: an op that fills sets the
    unassigned target to the edge's value; any other checks the target.
    Every edge is an op of ``start`` or of one step, or one step's ``via``.
    """

    nodes: tuple[str, ...]
    seeded: tuple[int, ...]
    start: tuple[_Op, ...]
    steps: tuple[tuple[int, tuple[int, int] | None, tuple[_Op, ...]], ...]


def plan_join(nodes: Sequence[str], edges: Sequence[tuple[str, str]],
              seeded: Sequence[str] = ()) -> JoinPlan:
    """Plan the join of the diagram with these nodes and ``(src, tgt)`` edges.

    Picks go highest out-degree first, ties by name, so that each pick's
    edges fill or rule out as much as they can early.  A pick takes its
    candidates from the bucket of its first edge (in edge order) into an
    assigned node, if it has one.  A seeded plan takes such a pick before
    any other, so that a join from a few values stays near them.
    """
    index = {n: i for i, n in enumerate(nodes)}
    ends = [(index[s], index[t]) for s, t in edges]
    out_deg = [0] * len(nodes)
    for s, _ in ends:
        out_deg[s] += 1
    assigned = {index[n] for n in seeded}
    pending = list(range(len(ends)))

    def new_ops() -> tuple[_Op, ...]:
        """Evaluate each pending edge whose source is assigned, filling
        its target or checking it, until no pending edge has one."""
        ops: list[_Op] = []
        while True:
            e = next((e for e in pending if ends[e][0] in assigned), None)
            if e is None:
                return tuple(ops)
            pending.remove(e)
            s, t = ends[e]
            ops.append((e, s, t, t not in assigned))
            assigned.add(t)

    def via_of(pick: int) -> int | None:
        return next((e for e in pending
                     if ends[e][0] == pick and ends[e][1] in assigned), None)

    start = new_ops()
    steps = []
    order = sorted(range(len(nodes)), key=lambda i: (-out_deg[i], nodes[i]))
    while len(assigned) < len(nodes):
        free = [i for i in order if i not in assigned]
        pick = next((i for i in free if via_of(i) is not None),
                    free[0]) if seeded else free[0]
        via = via_of(pick)
        if via is not None:
            pending.remove(via)
        assigned.add(pick)
        steps.append((pick, None if via is None else (via, ends[via][1]), new_ops()))
    return JoinPlan(tuple(nodes), tuple(index[n] for n in seeded), start, tuple(steps))


def join(
    plan: JoinPlan,
    candidates: Sequence[Sequence[str]],
    lookups: Sequence[Callable[[str], str | None]],
    seed: Sequence[str] = (),
    buckets: dict[int, tuple[dict[str, list[str]], int]] | None = None,
) -> Iterator[tuple[str, ...]]:
    """Run ``plan``: yield every compatible family as a tuple over ``plan.nodes``.

    ``candidates`` and ``lookups`` are indexed like the plan's nodes and
    edges; a lookup returning None (undefined) rules the family out.
    ``seed`` gives the seeded nodes their values, which are not checked
    against their candidates.  ``buckets`` caches each via edge's preimage
    buckets with the number of candidates they cover; a caller may pass the
    same dict to every run of plans over these nodes and edges while the
    candidates only grow at their ends and the lookups at the old ones stay.

    The steps walk one assignment list, depth first: a value assigned at
    one depth stays until that depth assigns again.
    """
    val: list = [None] * len(plan.nodes)
    for i, v in zip(plan.seeded, seed):
        val[i] = v
    for e, s, t, fills in plan.start:
        w = lookups[e](val[s])
        if w is None or not fills and w != val[t]:
            return
        val[t] = w
    if not plan.steps:
        yield tuple(val)
        return
    if buckets is None:
        buckets = {}

    def source(k: int) -> Sequence[str]:
        """The candidates of step ``k``'s pick, given the values so far."""
        pick, via, _ = plan.steps[k]
        if via is None:
            return candidates[pick]
        e, t = via
        bucket, done = buckets.get(e) or ({}, 0)
        vs = candidates[pick]
        if done < len(vs):
            f = lookups[e]
            for v in vs[done:]:
                w = f(v)
                if w is not None:
                    bucket.setdefault(w, []).append(v)
            buckets[e] = bucket, len(vs)
        return bucket.get(val[t], ())

    steps = [(pick, [(lookups[e], s, t, fills) for e, s, t, fills in ops])
             for pick, _, ops in plan.steps]
    last = len(steps) - 1
    its: list = [iter(source(0))] + [None] * last
    depth = 0
    while depth >= 0:
        pick, ops = steps[depth]
        for v in its[depth]:
            val[pick] = v
            for f, s, t, fills in ops:
                w = f(val[s])
                if w is None or not fills and w != val[t]:
                    break
                val[t] = w
            else:
                # The values so far pass: a family at the last step, else
                # go one step deeper.
                if depth == last:
                    yield tuple(val)
                    continue
                break
        else:
            depth -= 1  # this step's candidates are used up
            continue
        depth += 1
        its[depth] = iter(source(depth))


def join_new(
    seeded: Callable[[int], JoinPlan],
    candidates: Sequence[Sequence[str]],
    new: Sequence[Sequence[str]],
    lookups: Sequence[Callable[[str], str | None]],
    buckets: dict[int, tuple[dict[str, list[str]], int]] | None = None,
) -> Iterator[tuple[str, ...]]:
    """Yield, once each, the families with a value in ``new``.

    ``new[i]`` are the last values of ``candidates[i]``, the ones a caller
    has not joined yet.  Node i takes a new value, the nodes before it old
    ones and the nodes after it any, by ``seeded(i)``, a plan over these
    nodes and edges seeded at node i.  Families come by their first node
    with a new value, then in the order of that plan.
    """
    for i, vs in enumerate(new):
        if not vs:
            continue
        plan = seeded(i)
        earlier = [(j, set(new[j])) for j in range(i) if new[j]]
        for v in vs:
            for fam in join(plan, candidates, lookups, (v,), buckets):
                if not any(fam[j] in d for j, d in earlier):
                    yield fam


def compose_partial(
    steps: Sequence[Callable[[str], str | None]],
) -> Callable[[str], str | None]:
    """The partial function that applies ``steps`` in turn, undefined where
    one of them is; the identity when there are none."""
    if len(steps) == 1:
        return steps[0]

    def composite(x: str | None) -> str | None:
        for f in steps:
            x = f(x)
            if x is None:
                return None
        return x
    return composite


def limit(diagram: FinDiagram) -> tuple[FinSet, dict[str, FinFunction]]:
    """Limit of a finite diagram of finite sets.

    Elements are the edge-compatible families, canonically named
    "(node=value,...)" over the sorted node ids; the empty diagram yields
    the one-point set. Returns the limit set and one projection per node.
    """
    order = sorted(diagram.nodes)
    edges = diagram.edges.values()
    plan = plan_join(order, [(s, t) for s, t, _ in edges])
    fams = [dict(zip(order, fam)) for fam in sorted(
        join(plan, [diagram.nodes[n].elements for n in order],
             [f.mapping.get for _, _, f in edges]))]
    names = [family_name(order, fam) for fam in fams]
    lim = FinSet(tuple(names))
    projections = {
        n: FinFunction(lim, diagram.nodes[n], {name: fam[n] for name, fam in zip(names, fams)})
        for n in diagram.nodes
    }
    return lim, projections


class UnionFind:
    """Union-find with path halving; a union keeps the first-added root."""

    def __init__(self, items: Iterable[object] = ()) -> None:
        items = tuple(items)
        self.parent: dict[object, object] = dict(zip(items, items))
        self.birth: dict[object, int] = dict(zip(self.parent, range(len(self.parent))))

    def add_many(self, xs: list[object]) -> None:
        """Add new elements, none of them present yet, in order."""
        birth, parent = self.birth, self.parent
        for x in xs:
            birth[x] = len(birth)
            parent[x] = x

    def find(self, x: object) -> object:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]  # path halving
            x = p[x]
        return x

    def union(self, a: object, b: object) -> tuple[object, object] | None:
        """Merge the classes of a and b; returns (kept, dropped) roots, or
        None when they were already one class."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return None
        if self.birth[rb] < self.birth[ra]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return ra, rb

    def roots(self) -> list[object]:
        """One member per class, in the order the roots were added."""
        return [x for x, p in self.parent.items() if x == p]

    def since(self, n: int) -> list[object]:
        """The elements added after the first ``n``, in order."""
        p = self.parent
        return list(islice(p, n, None)) if len(p) > n else []


def pushout(f: FinFunction, g: FinFunction) -> tuple[FinSet, FinFunction, FinFunction]:
    """Pushout of B <-f- A -g-> C.

    The carrier is (B + C) quotiented by f(a) ~ g(a). Classes are named by
    their lexicographically least pre-image; when the same bare name would be
    claimed by two distinct classes it is disambiguated with a side tag
    ("b." or "c."). Returns (P, inj_B, inj_C).
    """
    if f.dom != g.dom:
        raise ValueError("pushout legs must share their domain")
    B, C = f.cod, g.cod
    members = [("b", x) for x in B] + [("c", y) for y in C]
    uf = UnionFind(members)
    for a in f.dom:
        uf.union(("b", f(a)), ("c", g(a)))

    # the members of each class, the classes in order of their first member
    classes: dict[object, list[tuple[str, str]]] = {}
    for m in members:
        classes.setdefault(uf.find(m), []).append(m)
    bare = [min(n for _, n in ms) for ms in classes.values()]
    claimed = Counter(bare)
    labels = [n if claimed[n] == 1 else
              "{}.{}".format(*min(ms, key=lambda m: (m[1], m[0])))
              for n, ms in zip(bare, classes.values())]
    name = {m: n for n, ms in zip(labels, classes.values()) for m in ms}

    P = FinSet(tuple(labels))
    inj_b = FinFunction(B, P, {x: name["b", x] for x in B})
    inj_c = FinFunction(C, P, {y: name["c", y] for y in C})
    return P, inj_b, inj_c
