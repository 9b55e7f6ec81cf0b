"""A frozen copy of the chase as it was before repair became incremental.

Test-only reference: every repair unit re-checks every element on every
pass, and the cone-family join scans every candidate.  The differential
tests require the engine's traces, results and embeddings to equal this
module's byte for byte.  Do not optimise it.
"""
from __future__ import annotations

from typing import Callable, Iterator, Sequence

from limsketch.engine import (
    ChaseConfig,
    ChaseDiverged,
    ChaseResult,
    ChaseTrace,
    Rule,
    TraceRound,
)
from limsketch.finset import FinFunction, FinSet, UnionFind
from limsketch.realization import RealMorphism, Realization
from limsketch.sketch import Cone, Sketch

_MAX_PASSES = 64
_MAX_ELEMENTS = 500_000


def families(
    nodes: dict[str, Sequence[str]],
    edges: Sequence[tuple[str, str, Callable[[str], str | None]]],
) -> Iterator[dict[str, str]]:
    """Every edge-compatible family of a finite diagram, as node -> value dicts.

    ``nodes`` gives each node its candidate values; an edge ``(src, tgt, f)``
    asks ``f(family[src]) == family[tgt]``, and ``f`` returning None (undefined)
    rules the family out.  Nodes reached along an edge from an assigned node
    are filled by evaluation; the rest are enumerated, highest out-degree
    first so that propagation prunes early.  The order of the families is a
    function of the candidate orders alone.
    """
    out_deg = {n: 0 for n in nodes}
    for s, _, _ in edges:
        out_deg[s] += 1
    order = sorted(nodes, key=lambda n: (-out_deg[n], n))

    def propagate(assign: dict[str, str]) -> bool:
        work = True
        while work:
            work = False
            for s, t, f in edges:
                if s not in assign:
                    continue
                v = f(assign[s])
                if v is None:
                    return False
                if t in assign:
                    if assign[t] != v:
                        return False
                else:
                    assign[t] = v
                    work = True
        return True

    def search(assign: dict[str, str]) -> Iterator[dict[str, str]]:
        if not propagate(assign):
            return
        pick = next((n for n in order if n not in assign), None)
        if pick is None:
            yield assign
            return
        for v in nodes[pick]:
            yield from search({**assign, pick: v})

    return search({})


class _Chase:
    """Mutable chase state: named elements, partial actions, a union-find.

    Each object's elements live in one union-find, in creation order;
    representatives are always the oldest element of their class, so input
    names survive identification with freshly created ones.  Action tables
    are keyed by representatives; values are resolved lazily on read.
    """

    def __init__(self, sk: Sketch, carriers: dict[str, tuple[str, ...]],
                 actions: dict[str, dict[str, str]]):
        self.sk = sk
        self.uf: dict[str, UnionFind] = {ob: UnionFind() for ob in sk.objects}
        self.created = 0
        self.fresh_counter = 0
        for ob in sk.objects:
            for x in carriers.get(ob, ()):
                self._register(ob, x)
        self.act: dict[str, dict[str, str]] = {
            a: dict(actions.get(a, {})) for a in sk.arrows
        }
        self.pending: list[tuple[str, str, str]] = []
        self.round_added: dict[str, list[str]] = {ob: [] for ob in sk.objects}
        self.round_identified: list[tuple[str, str, str]] = []

    # -- elements ---------------------------------------------------------

    def _register(self, ob: str, name: str) -> None:
        if self.created >= _MAX_ELEMENTS:
            raise ChaseDiverged(
                "chase element budget exceeded; the sketch likely has an "
                "unbroken productive cycle")
        self.uf[ob].add_many([name])
        self.created += 1

    def fresh(self, ob: str) -> str:
        while True:
            name = f"{ob}#{self.fresh_counter}"
            self.fresh_counter += 1
            if name not in self.uf[ob].parent:
                break
        self._register(ob, name)
        self.round_added[ob].append(name)
        return name

    def reps(self, ob: str) -> list[str]:
        return self.uf[ob].roots()

    # -- actions ----------------------------------------------------------

    def get(self, aid: str, x: str) -> str | None:
        v = self.act[aid].get(x)
        if v is None:
            return None
        r = self.uf[self.sk.arrows[aid].tgt].find(v)
        if r != v:
            self.act[aid][x] = r
        return r

    def put(self, aid: str, x: str, y: str) -> None:
        cur = self.get(aid, x)
        if cur is None:
            self.act[aid][x] = y
        elif cur != y:
            self.enqueue(self.sk.arrows[aid].tgt, cur, y)

    def try_eval(self, path: tuple[str, ...], x: str) -> str | None:
        for a in path:
            nxt = self.get(a, x)
            if nxt is None:
                return None
            x = nxt
        return x

    def eval_create(self, path: tuple[str, ...], x: str) -> str:
        """Evaluate a path, inventing fresh elements where actions stop."""
        for a in path:
            nxt = self.get(a, x)
            if nxt is None:
                nxt = self.fresh(self.sk.arrows[a].tgt)
                self.act[a][x] = nxt
            x = nxt
        return x

    def force_path(self, path: tuple[str, ...], x: str, value: str,
                   anchor: str) -> None:
        """Make ``path`` defined at ``x`` with final value ``value``."""
        if not path:
            self.enqueue(anchor, x, value)
            return
        for a in path[:-1]:
            nxt = self.get(a, x)
            if nxt is None:
                nxt = self.fresh(self.sk.arrows[a].tgt)
                self.act[a][x] = nxt
            x = nxt
        self.put(path[-1], x, value)

    # -- identification ---------------------------------------------------

    def enqueue(self, ob: str, a: str, b: str) -> None:
        self.pending.append((ob, a, b))

    def drain(self) -> bool:
        """Apply queued identifications, cascading through actions."""
        merged = False
        while self.pending:
            ob, a, b = self.pending.pop(0)
            roots = self.uf[ob].union(a, b)
            if roots is None:
                continue
            keep, drop = roots
            self.round_identified.append((ob, keep, drop))
            merged = True
            for aid in sorted(self.sk.arrows):
                decl = self.sk.arrows[aid]
                if decl.src != ob:
                    continue
                table = self.act[aid]
                moved = table.pop(drop, None)
                if moved is None:
                    continue
                if keep in table:
                    self.enqueue(decl.tgt, table[keep], moved)
                else:
                    table[keep] = moved
        return merged

    # -- repair passes ----------------------------------------------------

    def pass_equations(self) -> bool:
        changed = False
        for eq in self.sk.equations:
            anchor = self.sk.arrows[eq.lhs[0]].src
            end_ob = self.sk.arrows[eq.lhs[-1]].tgt
            for x in self.reps(anchor):
                lv = self.try_eval(eq.lhs, x)
                rv = self.try_eval(eq.rhs, x)
                if lv is None and rv is None:
                    continue
                if lv is not None and rv is not None:
                    if lv != rv:
                        self.enqueue(end_ob, lv, rv)
                        changed = True
                elif rv is not None:
                    self.force_path(eq.lhs, x, rv, anchor)
                    changed = True
                else:
                    self.force_path(eq.rhs, x, lv, anchor)
                    changed = True
        if self.drain():
            changed = True
        return changed

    def pass_monos(self) -> bool:
        changed = False
        for m in sorted(self.sk.monos):
            src = self.sk.arrows[m].src
            seen: dict[str, str] = {}
            for x in self.reps(src):
                y = self.get(m, x)
                if y is None:
                    continue
                prev = seen.get(y)
                if prev is None:
                    seen[y] = x
                elif prev != x:
                    self.enqueue(src, prev, x)
                    changed = True
        if self.drain():
            changed = True
        return changed

    def pass_totality(self) -> bool:
        changed = False
        for aid in sorted(self.sk.arrows):
            decl = self.sk.arrows[aid]
            for x in self.reps(decl.src):
                if self.get(aid, x) is None:
                    self.act[aid][x] = self.fresh(decl.tgt)
                    changed = True
        return changed

    def pass_cones(self) -> bool:
        changed = False
        for name in sorted(self.sk.cones):
            if self._repair_cone(self.sk.cones[name]):
                changed = True
        return changed

    def _repair_cone(self, cone: Cone) -> bool:
        changed = False
        keys = sorted(cone.projections)
        # Projection tuples of apex elements whose projections all exist.
        tuples: dict[str, tuple[str, ...]] = {}
        for x in self.reps(cone.apex):
            vals = []
            for n in keys:
                v = self.get(cone.projections[n], x)
                if v is None:
                    break
                vals.append(v)
            else:
                tuples[x] = tuple(vals)
        families = self._families(cone)
        by_restriction: dict[tuple[str, ...], list[dict[str, str]]] = {}
        for fam in families:
            key = tuple(fam[n] for n in keys)
            by_restriction.setdefault(key, []).append(fam)
        # Ambiguous extensions: merge the competing families pointwise.
        for fams in by_restriction.values():
            base = fams[0]
            for other in fams[1:]:
                for n in sorted(cone.nodes):
                    self.enqueue(cone.nodes[n], base[n], other[n])
                changed = True
        # Comparison injectivity: equal tuples force equal apex elements.
        seen: dict[tuple[str, ...], str] = {}
        for x, t in tuples.items():
            prev = seen.get(t)
            if prev is None:
                seen[t] = x
            else:
                self.enqueue(cone.apex, prev, x)
                changed = True
        # Comparison surjectivity: every family needs an apex element.
        for t in by_restriction:
            if t not in seen:
                x = self.fresh(cone.apex)
                for n, v in zip(keys, t):
                    self.act[cone.projections[n]][x] = v
                seen[t] = x
                changed = True
        # Unrealised tuples: build the missing family from scratch.
        for x, t in tuples.items():
            if t not in by_restriction:
                self._create_family(cone, dict(zip(keys, t)))
                by_restriction[t] = []
                changed = True
        if self.drain():
            changed = True
        return changed

    def _families(self, cone: Cone) -> list[dict[str, str]]:
        """Enumerate all fully defined compatible families over the base."""
        out: list[dict[str, str]] = []
        for fam in families(
                {n: self.reps(ob) for n, ob in cone.nodes.items()},
                [(e.src, e.tgt, lambda x, p=e.path: self.try_eval(p, x))
                 for e in cone.edges]):
            if len(out) >= _MAX_ELEMENTS:
                raise ChaseDiverged(
                    "cone family enumeration exceeded the chase budget")
            out.append(fam)
        return out

    def _create_family(self, cone: Cone, values: dict[str, str]) -> None:
        """Realise a family extending ``values`` (the projected nodes)."""
        local = dict(values)
        while len(local) < len(cone.nodes):
            progressed = False
            for e in cone.edges:
                if e.src in local and e.tgt not in local:
                    local[e.tgt] = self.eval_create(e.path, local[e.src])
                    progressed = True
            if progressed:
                continue
            missing = next(n for n in sorted(cone.nodes) if n not in local)
            local[missing] = self.fresh(cone.nodes[missing])
        for e in cone.edges:
            cur = self.try_eval(e.path, local[e.src])
            if cur is None:
                self.force_path(e.path, local[e.src], local[e.tgt],
                                cone.nodes[e.src])
            elif cur != local[e.tgt]:
                self.enqueue(cone.nodes[e.tgt], cur, local[e.tgt])

    def repair(self, full: bool) -> None:
        for _ in range(_MAX_PASSES):
            changed = False
            if self.pass_equations():
                changed = True
            if self.pass_monos():
                changed = True
            if full and self.pass_cones():
                changed = True
            if self.pass_totality():
                changed = True
            if self.drain():
                changed = True
            if not changed:
                return
        raise ChaseDiverged(
            "repair did not stabilise; the sketch likely has an unbroken "
            "productive cycle")

    # -- rule machinery ---------------------------------------------------

    def unsatisfied(self, rules: list[Rule]) -> list[tuple[Rule, str]]:
        out: list[tuple[Rule, str]] = []
        for rule in rules:
            image: set[str] = set()
            for w in self.reps(rule.fresh):
                v = self.get(rule.h_arrow, w)
                if v is not None:
                    image.add(v)
            for x in self.reps(rule.apex):
                if x not in image:
                    out.append((rule, x))
        return out

    def fire(self, rule: Rule, element: str) -> None:
        witness = self.fresh(rule.fresh)
        self.act[rule.h_arrow][witness] = element

    # -- extraction -------------------------------------------------------

    def take_round(self) -> tuple[dict[str, tuple[str, ...]],
                                  tuple[tuple[str, str, str], ...]]:
        added = {ob: tuple(names) for ob, names in self.round_added.items()
                 if names}
        identified = tuple(self.round_identified)
        self.round_added = {ob: [] for ob in self.sk.objects}
        self.round_identified = []
        return added, identified

    def realization(self) -> Realization:
        carrier = {ob: FinSet(tuple(self.reps(ob))) for ob in self.sk.objects}
        action = {}
        for aid, decl in self.sk.arrows.items():
            mapping = {x: self.get(aid, x) for x in carrier[decl.src].elements}
            action[aid] = FinFunction(carrier[decl.src], carrier[decl.tgt],
                                      mapping)
        return Realization(self.sk, carrier, action)

    def leg(self, src: Realization, result: Realization,
            name=lambda ob, x: x) -> RealMorphism:
        """The morphism into ``result`` (this state's realization) sending
        ``x`` at ``ob`` to the class of ``name(ob, x)``."""
        return RealMorphism(src, result, {
            ob: FinFunction(src.carrier[ob], result.carrier[ob],
                            {x: self.uf[ob].find(name(ob, x))
                             for x in src.carrier[ob].elements})
            for ob in self.sk.objects})


def _state_of(spec: Realization) -> _Chase:
    carriers = {ob: spec.carrier[ob].elements for ob in spec.over.objects}
    actions = {a: dict(spec.action[a].mapping) for a in spec.over.arrows}
    return _Chase(spec.over, carriers, actions)


def saturate(spec: Realization, rules: list[Rule],
             cfg: ChaseConfig | None = None) -> ChaseResult:
    """Chase ``spec`` to its free theory under ``rules``.

    Each round fires every currently unsatisfied match in parallel (rules
    in the given order, matches in carrier order) and then repairs.  The
    chase stops at a fixpoint, or with status ``"capped"`` after
    ``cfg.max_rounds`` rounds (zero rounds only repairs the input); a
    capped result is a sound partial approximation that still embeds into
    the free theory.
    """
    cfg = cfg or ChaseConfig()
    active = list(rules)
    if cfg.rule_subset is not None:
        wanted = set(cfg.rule_subset)
        active = [r for r in active if r.id in wanted]
    st = _state_of(spec)
    trace: list[TraceRound] = []

    def close_round(n: int, fired: tuple[tuple[str, str], ...]) -> None:
        added, identified = st.take_round()
        trace.append(TraceRound(n, fired, added, identified))

    st.repair(full=True)
    close_round(0, ())
    rounds = 0
    while True:
        matches = st.unsatisfied(active)
        if not matches:
            status = "fixpoint"
            break
        if rounds >= cfg.max_rounds:
            status = "capped"
            break
        fired = tuple((r.id, x) for r, x in matches)
        for rule, x in matches:
            st.fire(rule, x)
        rounds += 1
        last = rounds >= cfg.max_rounds
        st.repair(full=not last)
        close_round(rounds, fired)
        if last:
            status = "capped"
            break
    result = st.realization()
    return ChaseResult(result, status, rounds, ChaseTrace(tuple(trace)),
                       st.leg(spec, result))

