"""Chase-style saturation and rule application for sketch realizations.

The free theory over a specification is computed by a chase: repair passes
make equations, mono injectivity, and limit cones hold, while rule firings
adjoin fresh witnesses for unmatched rule hypotheses.  Logical rules are
spans of representables read off a localiser, and every derivation step is
packaged as a fraction (a cospan whose left leg becomes invertible after
saturation).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import filterfalse, islice, takewhile
from typing import Callable, Iterable, Sequence

from .finset import (
    FinFunction,
    FinSet,
    UnionFind,
    compose_partial,
    identity,
    is_bijection,
    join,
    join_new,
)
from .localizer import Localiser
from .realization import (
    RealMorphism,
    Realization,
    _extensions,
    apex_tuples,
    clashes,
    cone_reader,
    extend_morphism,
    identity_morphism,
    restrict_along,
)
from .sketch import Cone, Sketch, cached_on

# Hard stops for runaway chases.  Passes loop within one repair call; the
# element budget counts every name ever created in a single chase state.
_MAX_PASSES = 64
_MAX_ELEMENTS = 500_000


class ChaseDiverged(RuntimeError):
    """Raised when repair fails to stabilise within the internal budget.

    This happens when the sketch still contains a productive cycle (for
    example a one-way rule arrow that was never broken), so the free
    closure of even a single generator is infinite.
    """


def _families(fams: Iterable, known: int = 0) -> list[tuple[str, ...]]:
    """``fams`` as a list, if they and ``known`` are within the budget."""
    out = list(islice(fams, _MAX_ELEMENTS - known + 1))
    if known + len(out) > _MAX_ELEMENTS:
        raise ChaseDiverged(
            "cone family enumeration exceeded the chase budget")
    return out


@dataclass(frozen=True)
class ChaseConfig:
    """Knobs for :func:`saturate`."""

    max_rounds: int = 32
    rule_subset: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Rule:
    """A logical rule presented as a span of representables.

    ``hypothesis`` is the representable at the match object, ``glue`` the
    representable at the witness object introduced by cycle breaking, and
    ``conclusion`` the representable at the target of the broken arrow.
    ``hyp_to_glue`` and ``concl_to_glue`` are the span's Yoneda images.
    """

    id: str
    hypothesis: Realization
    conclusion: Realization
    glue: Realization
    hyp_to_glue: RealMorphism
    concl_to_glue: RealMorphism
    apex: str
    fresh: str
    h_arrow: str
    c_arrow: str
    generator: str


@dataclass(frozen=True, eq=False)
class Match:
    """One occurrence of a rule hypothesis inside a specification: by the
    Yoneda lemma, an element of the rule's apex object.  ``morphism``, its
    classifying morphism, is built on first read and then kept; equality
    reads it, so it does not depend on whether it was read before."""

    rule_id: str
    element: str
    satisfied: bool
    rule: Rule = field(repr=False)
    spec: Realization = field(repr=False)

    @cached_property
    def morphism(self) -> RealMorphism:
        return _classify(self.rule, self.spec, [self.element])[0]

    def __eq__(self, other):
        return isinstance(other, Match) and (
            self.rule_id, self.element, self.satisfied, self.morphism) == (
            other.rule_id, other.element, other.satisfied, other.morphism)


@dataclass(frozen=True)
class Fraction:
    """A formal fraction src -> mid <- tgt.

    ``h`` embeds the source into the middle object and is the leg that
    saturation inverts; ``c`` embeds the target.  ``certificate`` is
    ``"by-construction"`` for fractions produced by the calculus itself and
    ``"checked"`` when equivalence was verified by saturating both ends.
    """

    src: Realization
    tgt: Realization
    mid: Realization
    h: RealMorphism
    c: RealMorphism
    certificate: str


@dataclass(frozen=True)
class TraceRound:
    round: int
    fired: tuple[tuple[str, str], ...]
    added: dict[str, tuple[str, ...]]
    identified: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class ChaseTrace:
    rounds: tuple[TraceRound, ...]


@dataclass(frozen=True)
class ChaseResult:
    result: Realization
    status: str
    rounds: int
    trace: ChaseTrace
    embedding: RealMorphism


_Reads = tuple[tuple[str, ...], tuple[str, ...]]


def _repair_units(sk: Sketch) -> dict[str, list[tuple[object, _Reads]]]:
    """Each pass kind's repair units in run order, with the objects and
    arrows each one reads.

    A unit's outcome is a function of the carriers of these objects and the
    actions of these arrows alone.  An arrow is read with its source and
    target, whose union-finds enumerate and resolve what it maps; only the
    totality check, which asks whether a value exists, skips the target.
    """
    def reads(arrows, objects=()) -> _Reads:
        obs = list(objects)
        for a in arrows:
            obs += (sk.arrows[a].src, sk.arrows[a].tgt)
        return tuple(dict.fromkeys(obs)), tuple(dict.fromkeys(arrows))

    cones = [sk.cones[name] for name in sorted(sk.cones)]
    return {
        "equation": [(eq, reads(eq.lhs + eq.rhs)) for eq in sk.equations],
        "mono": [(m, reads((m,))) for m in sorted(sk.monos)],
        "cone": [(c, reads([*c.projections.values(),
                            *(a for e in c.edges for a in e.path)],
                           [c.apex, *c.nodes.values()])) for c in cones],
        "totality": [(a, ((sk.arrows[a].src,), (a,)))
                     for a in sorted(sk.arrows)],
    }


def _out_arrows(sk: Sketch) -> dict[str, list[str]]:
    """Each object's arrows out, by name."""
    return {ob: [a for a in sorted(sk.arrows) if sk.arrows[a].src == ob]
            for ob in sk.objects}


class _Chase:
    """Mutable chase state: named elements, partial actions, a union-find.

    Each object's elements live in one union-find, in creation order;
    representatives are always the oldest element of their class, so input
    names survive identification with freshly created ones.  Action tables
    are keyed by representatives; reads resolve values, never write back.
    An object that has never merged has every element as its own root, so
    an arrow into it is read through its table's bare ``get`` and its
    representatives are its elements; its first merge re-binds those reads
    to resolve through ``find`` and drops the cone readers built on them.

    Repair skips whole units.  A clock ticks on every change (a batch of
    elements created, a merge, a batch of action values written, an
    identification queued), and each object and arrow keeps the tick of its
    own last change.  A repair unit (one equation, mono, cone, or arrow's
    totality) that ended its last run without changing anything is skipped
    until something it reads changes, since rerunning it would change
    nothing either.  This carries over between states: a realization
    extracted while every unit is clean is marked repaired, and a state
    built from a marked one starts with every unit clean.  A cone that runs
    again in one state is semi-naive: it joins only the families with a
    value its last run did not see (:meth:`_delta`).

    Seeding is not a change: the clock and every stamp start at 0.  A state
    seeded from a realization, its ``base``, shares with it each carrier
    and action still as seeded.  An object's union-find is built from its
    seed at the first add, merge or ``birth`` read there (:meth:`_uf`), and
    its elements are read off the seed until then.  The repair units,
    out-arrows and cone plans are made once per sketch.
    """

    def __init__(self, sk: Sketch, carriers: dict[str, tuple[str, ...]],
                 actions: dict[str, dict[str, str]]):
        self.sk = sk
        self.base: Realization | None = None
        self.seed = {ob: carriers.get(ob, ()) for ob in sk.objects}
        self.uf: dict[str, UnionFind] = {}
        self.created = 0
        self._count(sum(map(len, self.seed.values())))
        self.fresh_counter = 0
        self.clock = 0
        self.ob_stamp = dict.fromkeys(sk.objects, 0)
        self.arrow_stamp = dict.fromkeys(sk.arrows, 0)
        self.units = cached_on(sk, _repair_units)
        self.clean_at: dict[tuple[str, int], int] = {}
        self.out_arrows = cached_on(sk, _out_arrows)
        self.act: dict[str, dict[str, str]] = {
            a: dict(actions.get(a, {})) for a in sk.arrows
        }
        self.merged = dict.fromkeys(sk.objects, 0)
        self.lookups = {a: self._lookup(a) for a in sk.arrows}
        self.joins: dict[str, tuple] = {}
        self.kept: dict[str, tuple] = {}
        self.pending: deque[tuple[str, str, str]] = deque()
        self.round_added: dict[str, list[str]] = {ob: [] for ob in sk.objects}
        self.round_identified: list[tuple[str, str, str]] = []

    # -- elements ---------------------------------------------------------

    def _count(self, n: int) -> None:
        room = _MAX_ELEMENTS - self.created
        self.created += min(n, room)
        if n > room:
            raise ChaseDiverged(
                "chase element budget exceeded; the sketch likely has an "
                "unbroken productive cycle")

    def _uf(self, ob: str) -> UnionFind:
        """``ob``'s union-find, built from its seed at the first call."""
        uf = self.uf.get(ob)
        if uf is None:
            uf = self.uf[ob] = UnionFind(self.seed[ob])
        return uf

    def _elements(self, ob: str):
        """``ob``'s elements so far, in order: its seed until :meth:`_uf`."""
        uf = self.uf.get(ob)
        return self.seed[ob] if uf is None else uf.parent

    def _add(self, ob: str, names: list[str]) -> None:
        """Add new elements to ``ob``, in order; past the element budget,
        the chase diverges once the names that fit are added."""
        fits = names[:_MAX_ELEMENTS - self.created]
        if fits:
            self._uf(ob).add_many(fits)
            self._touch_object(ob)
        self._count(len(names))

    def _touch_object(self, ob: str) -> None:
        self.clock += 1
        self.ob_stamp[ob] = self.clock

    def fresh_many(self, ob: str, k: int) -> list[str]:
        """``k`` new elements of ``ob``, named ``ob#i`` for the next free
        counter values; names, counts and the budget's stop are those of
        ``k`` calls of :meth:`fresh`."""
        parent, names, c = self._uf(ob).parent, [], self.fresh_counter
        while len(names) < k:
            name = f"{ob}#{c}"
            c += 1
            if name not in parent:
                names.append(name)
        self.fresh_counter = c
        self._add(ob, names)
        self.round_added[ob] += names
        return names

    def fresh(self, ob: str) -> str:
        return self.fresh_many(ob, 1)[0]

    def reps(self, ob: str) -> list[str]:
        return self.uf[ob].roots() if self.merged[ob] else list(
            self._elements(ob))

    def since(self, ob: str, n: int) -> list[str]:
        """The elements of ``ob`` made after its first ``n``, in order."""
        uf = self.uf.get(ob)
        return list(self.seed[ob][n:]) if uf is None else uf.since(n)

    # -- actions ----------------------------------------------------------

    def _lookup(self, aid: str) -> Callable[[str], str | None]:
        """One arrow's value at an element, resolved to its class: the
        table's own ``get`` while the arrow's target has never merged."""
        tgt, table = self.sk.arrows[aid].tgt, self.act[aid].get
        if not self.merged[tgt]:
            return table
        find = self.uf[tgt].find

        def lookup(x: str) -> str | None:
            v = table(x)
            return v if v is None else find(v)
        return lookup

    def get(self, aid: str, x: str) -> str | None:
        return self.lookups[aid](x)

    def write_many(self, aid: str, pairs: dict[str, str]) -> None:
        """Write action values; every change of an action goes here."""
        if pairs:
            self.act[aid].update(pairs)
            self.clock += 1
            self.arrow_stamp[aid] = self.clock

    def put(self, aid: str, x: str, y: str) -> None:
        cur = self.lookups[aid](x)
        if cur is None:
            self.write_many(aid, {x: y})
        elif cur != y:
            self.enqueue(self.sk.arrows[aid].tgt, cur, y)

    def eval_create(self, path: tuple[str, ...], x: str) -> str:
        """Evaluate a path, inventing fresh elements where actions stop."""
        for a in path:
            nxt = self.lookups[a](x)
            if nxt is None:
                nxt = self.fresh(self.sk.arrows[a].tgt)
                self.write_many(a, {x: nxt})
            x = nxt
        return x

    def force_path(self, path: tuple[str, ...], x: str, value: str,
                   anchor: str) -> None:
        """Make ``path`` defined at ``x`` with final value ``value``."""
        if not path:
            self.enqueue(anchor, x, value)
        else:
            self.put(path[-1], self.eval_create(path[:-1], x), value)

    # -- identification ---------------------------------------------------

    def enqueue(self, ob: str, a: str, b: str) -> None:
        self.clock += 1
        self.pending.append((ob, a, b))

    def drain(self) -> None:
        """Apply queued identifications, cascading through actions."""
        while self.pending:
            ob, a, b = self.pending.popleft()
            roots = self._uf(ob).union(a, b)
            if roots is None:
                continue
            keep, drop = roots
            self.round_identified.append((ob, keep, drop))
            self._touch_object(ob)
            first, self.merged[ob] = not self.merged[ob], self.clock
            if first:
                # Every element of ``ob`` was its own root until now: reads
                # of the arrows into it, and the cone readers built on
                # them, go through ``find`` from here on.
                self.lookups.update((a, self._lookup(a)) for a, d in
                                    self.sk.arrows.items() if d.tgt == ob)
                self.joins.clear()
            for aid in self.out_arrows[ob]:
                table = self.act[aid]
                moved = table.pop(drop, None)
                if moved is None:
                    continue
                if keep in table:
                    self.enqueue(self.sk.arrows[aid].tgt, table[keep], moved)
                else:
                    self.write_many(aid, {keep: moved})

    # -- repair passes ----------------------------------------------------

    def _clean(self, kind: str, i: int, reads: _Reads) -> bool:
        """Whether unit ``i`` of ``kind`` changed nothing in its last run
        and nothing it reads has changed since."""
        since = self.clean_at.get((kind, i))
        if since is None:
            return False
        for ob in reads[0]:
            if self.ob_stamp[ob] > since:
                return False
        for a in reads[1]:
            if self.arrow_stamp[a] > since:
                return False
        return True

    def _pass(self, kind: str, repair) -> None:
        """Run ``repair`` on each unit of one pass kind, skipping a clean
        one; a unit whose run left the clock where it was is clean."""
        for i, (unit, reads) in enumerate(self.units[kind]):
            if self._clean(kind, i, reads):
                continue
            start = self.clock
            repair(unit)
            if self.clock == start:
                self.clean_at[kind, i] = start
            else:
                self.clean_at.pop((kind, i), None)

    def _repair_equation(self, eq) -> None:
        anchor = self.sk.arrows[eq.lhs[0]].src
        end_ob = self.sk.arrows[eq.lhs[-1]].tgt
        lhs, rhs = (compose_partial([self.lookups[a] for a in side])
                    for side in (eq.lhs, eq.rhs))
        for x in self.reps(anchor):
            lv, rv = lhs(x), rhs(x)
            if lv is None and rv is None:
                continue
            if lv is not None and rv is not None:
                if lv != rv:
                    self.enqueue(end_ob, lv, rv)
            elif rv is not None:
                self.force_path(eq.lhs, x, rv, anchor)
            else:
                self.force_path(eq.rhs, x, lv, anchor)

    def _repair_mono(self, m: str) -> None:
        # The one-leg cone, read bare rather than through ``clashes``, which
        # would wrap the image of every representative in a 1-tuple.
        src, get = self.sk.arrows[m].src, self.lookups[m]
        seen: dict[str, str] = {}
        for x in self.reps(src):
            y = get(x)
            if y is None:
                continue
            prev = seen.get(y)
            if prev is None:
                seen[y] = x
            elif prev != x:
                self.enqueue(src, prev, x)

    def _repair_totality(self, aid: str) -> None:
        decl, table = self.sk.arrows[aid], self.act[aid]
        missing = list(filterfalse(table.__contains__, self.reps(decl.src)))
        if missing:
            self.write_many(aid, dict(zip(
                missing, self.fresh_many(decl.tgt, len(missing)))))

    def _repair_cone(self, cone: Cone) -> None:
        if cone.name not in self.joins:
            self.joins[cone.name] = (
                *cone_reader(cone, self.lookups.__getitem__),
                *next(r for c, r in self.units["cone"] if c is cone))
        plan, objects, paths, legs, _, obs, arrows = self.joins[cone.name]
        k = len(legs)
        mark = (self.clock, {ob: len(self._elements(ob)) for ob in obs},
                {a: len(self.act[a]) for a in arrows})
        kept = self.kept.pop(cone.name, None)
        delta = kept and self._delta(cone, kept)
        others: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        if delta is None:
            # Apex elements by their projection tuples, where all exist.
            seen, clashing = clashes(apex_tuples(self.reps(cone.apex), legs))
            # Base families by restriction, their prefix over the projected
            # nodes: the first family of each, and any others.
            cands = {ob: self.reps(ob) for ob in set(objects)}
            buckets, first, count = {}, {}, 0
            for fam in _families(join(plan, [cands[ob] for ob in objects],
                                      paths, (), buckets)):
                key = fam[:k]
                if first.setdefault(key, fam) is not fam:
                    others.setdefault(key, []).append(fam)
            tuples = seen
        else:
            # Read only new apex elements and families with a new value.
            (_, _, seen, cands, buckets, count), (first, new) = kept, delta
            known = len(seen)
            seen, clashing = clashes(apex_tuples(new, legs), seen)
            tuples = list(islice(seen, known, None))
        # Ambiguous extensions: merge the competing families pointwise, node
        # by node in name order.
        if others:
            order = sorted(range(len(objects)), key=plan.nodes.__getitem__)
            for key, base in first.items():
                for other in others.get(key, ()):
                    for i in order:
                        self.enqueue(objects[i], base[i], other[i])
        # Comparison injectivity: equal tuples force equal apex elements.
        for prev, x in clashing:
            self.enqueue(cone.apex, prev, x)
        # Comparison surjectivity: every family needs an apex element.
        keys = plan.nodes[:k]
        missing = list(filterfalse(seen.__contains__, first))
        xs = missing and self.fresh_many(cone.apex, len(missing))
        for n, column in zip(keys, zip(*missing)):
            self.write_many(cone.projections[n], dict(zip(xs, column)))
        seen.update(zip(missing, xs))
        # Unrealised tuples: build the missing family from scratch.
        unrealised = [t for t in tuples if t not in first]
        for t in unrealised:
            self._create_family(cone, dict(zip(keys, t)))
        self.kept[cone.name] = (mark, len(self._elements(cone.apex)), seen,
                                cands, buckets, count + len(first))
        self.drain()

    def _delta(self, cone: Cone, kept: tuple) -> tuple | None:
        """Bring ``kept`` up to date; return the new families in full-join
        order and the apex elements made since.  None to join in full: after
        a merge in a read object or a write at an old element of a read
        arrow, with as many new base elements as old, or on a shared key."""
        (at, sizes, counts), apex, seen, cands, buckets, count = kept
        if any(self.merged[ob] > at for ob in sizes) or sum(
                len(self._elements(ob)) - sizes[ob] for ob in cands) >= sum(
                map(len, cands.values())):
            return None
        new = {ob: self.since(ob, m) for ob, m in sizes.items()}
        if any(len(self.act[a]) - m != sum(map(
                self.act[a].__contains__, new[self.sk.arrows[a].src]))
               for a, m in counts.items()):
            return None
        plan, objects, paths, _, seeded, _, _ = self.joins[cone.name]
        for ob, xs in cands.items():
            xs += new[ob]
        # The full join yields families by each pick's candidate position.
        fams = _families(join_new(
            lambda i: seeded(plan.nodes[i:i + 1]),
            [cands[ob] for ob in objects], [new[ob] for ob in objects],
            paths, buckets), count)
        if len(fams) > 1:  # read births only where there is an order to fix
            fams.sort(key=lambda fam: [self._uf(objects[p]).birth[fam[p]]
                                       for p, _, _ in plan.steps])
        fresh = {fam[:len(cone.projections)]: fam for fam in fams}
        if len(fresh) < len(fams) or any(map(seen.__contains__, fresh)):
            return None
        return fresh, self.since(cone.apex, apex)

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
            self.force_path(e.path, local[e.src], local[e.tgt],
                            cone.nodes[e.src])

    def repair(self, full: bool) -> None:
        """Sweep the pass kinds until a sweep leaves the clock unchanged."""
        if not full:
            self.kept.clear()
        for _ in range(_MAX_PASSES):
            start = self.clock
            self._pass("equation", self._repair_equation)
            self.drain()
            self._pass("mono", self._repair_mono)
            self.drain()
            if full:
                self._pass("cone", self._repair_cone)
            self._pass("totality", self._repair_totality)
            self.drain()
            if self.clock == start:
                return
        raise ChaseDiverged(
            "repair did not stabilise; the sketch likely has an unbroken "
            "productive cycle")

    # -- rule machinery ---------------------------------------------------

    def unsatisfied(self, rule: Rule) -> list[str]:
        """The apex elements no witness maps to, in carrier order."""
        image = set(map(self.lookups[rule.h_arrow], self.reps(rule.fresh)))
        return list(filterfalse(image.__contains__, self.reps(rule.apex)))

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
        """The state as a realization; an object, or an arrow with its
        source and target (a merge there changes its values), still at
        stamp 0 keeps the base's carrier or action."""
        self.kept.clear()
        base, ob_stamp = self.base, self.ob_stamp
        carrier = {ob: base.carrier[ob] if base and not ob_stamp[ob]
                   else FinSet(tuple(self.reps(ob))) for ob in self.sk.objects}
        action = {}
        for aid, decl in self.sk.arrows.items():
            if base and not (self.arrow_stamp[aid] or ob_stamp[decl.src]
                             or ob_stamp[decl.tgt]):
                action[aid] = base.action[aid]
                continue
            elements = carrier[decl.src].elements
            mapping = dict(zip(elements, map(self.lookups[aid], elements)))
            action[aid] = FinFunction(carrier[decl.src], carrier[decl.tgt],
                                      mapping)
        result = Realization(self.sk, carrier, action)
        if not self.pending and all(
                self._clean(kind, i, reads)
                for kind, units in self.units.items()
                for i, (_, reads) in enumerate(units)):
            object.__setattr__(result, "_repaired", True)
        return result

    def leg(self, src: Realization, result: Realization,
            *steps: dict[str, dict[str, str]]) -> RealMorphism:
        """The morphism into ``result`` (this state's realization) sending
        ``x`` at ``ob`` to the class of its image under ``steps[ob]`` for
        each of ``steps`` in turn.  Where ``result`` shares the carrier of
        ``src`` (so the chase left the object as it was) and every step is
        that carrier's identity, the component is that identity itself."""
        out = {}
        for ob in self.sk.objects:
            d = src.carrier[ob]
            if result.carrier[ob] is d and all(
                    s[ob] is identity(d).mapping for s in steps):
                out[ob] = identity(d)
                continue
            names = d.elements
            for s in steps:
                names = map(s[ob].__getitem__, names)
            if self.merged[ob]:
                names = map(self.uf[ob].find, names)
            out[ob] = FinFunction(d, result.carrier[ob],
                                  dict(zip(d.elements, names)))
        return RealMorphism(src, result, out)


def _state_of(spec: Realization) -> _Chase:
    carriers = {ob: spec.carrier[ob].elements for ob in spec.over.objects}
    actions = {a: spec.action[a].mapping for a in spec.over.arrows}
    st = _Chase(spec.over, carriers, actions)
    st.base = spec
    if spec._repaired:
        st.clean_at = {(kind, i): st.clock for kind, units in st.units.items()
                       for i in range(len(units))}
    return st


def _fire(st: _Chase, rule: Rule, xs: list[str]) -> None:
    """Fire ``rule`` at the apex elements ``xs``: a fresh witness for each,
    sent onto it by the rule's section arrow."""
    fresh = st.fresh_many(rule.fresh, len(xs))
    st.write_many(rule.h_arrow, dict(zip(fresh, xs)))


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
        unknown = set(cfg.rule_subset) - {r.id for r in rules}
        if unknown:
            raise ValueError(f"rule_subset names unknown rules: "
                             f"{', '.join(sorted(unknown))}")
        active = [r for r in active if r.id in cfg.rule_subset]
    st = _state_of(spec)
    st.repair(full=True)
    trace = [TraceRound(0, (), *st.take_round())]
    rounds = 0
    while True:
        matches = [(r, st.unsatisfied(r)) for r in active]
        fired = tuple((r.id, x) for r, xs in matches for x in xs)
        if not fired or rounds >= cfg.max_rounds:
            break
        for rule, xs in matches:
            _fire(st, rule, xs)
        rounds += 1
        st.repair(full=rounds < cfg.max_rounds)
        trace.append(TraceRound(rounds, fired, *st.take_round()))
        if rounds >= cfg.max_rounds:
            break
    result = st.realization()
    return ChaseResult(result, "capped" if fired else "fixpoint", rounds,
                       ChaseTrace(tuple(trace)), st.leg(spec, result))


def rules_of(loc: Localiser) -> list[Rule]:
    """Read the logical rules off a localiser, ordered by rule id.

    Each broken arrow c: H' -> C with section witness h: H' -> H yields the
    rule whose legs are the Yoneda images Y(h): Y(H) -> Y(H') and
    Y(c): Y(C) -> Y(H'): the hypothesis at H, glued along the
    representable at H' to the conclusion at C; both legs share one Y(H').
    """
    from .yoneda import generator_of, representable, yoneda_arrow

    sk = loc.underlying.src
    reps = cache(lambda ob: representable(sk, ob))
    out: list[Rule] = []
    for rec in loc.broken:
        h, c = yoneda_arrow(sk, rec.h, reps), yoneda_arrow(sk, rec.c, reps)
        apex = sk.arrows[rec.h].tgt
        out.append(Rule(rec.c, h.src, c.src, h.tgt, h, c, apex, rec.fresh,
                        rec.h, rec.c, generator_of(apex)))
    return sorted(out, key=lambda r: r.id)


def _satisfied(rule: Rule, spec: Realization) -> set[str]:
    """Where ``rule`` has fired in ``spec``: its section witness's image."""
    return set(spec.action[rule.h_arrow].mapping.values())


def _classify(rule: Rule, spec: Realization,
              xs: Sequence[str]) -> list[RealMorphism]:
    """The classifying morphisms of the matches of ``rule`` at ``xs``, by
    one extension run; raises at the first match that has none."""
    seeds = ({rule.apex: {rule.generator: x}} for x in xs)
    out = list(takewhile(lambda phi: phi is not None,
                         _extensions(rule.hypothesis, spec, seeds)))
    if len(out) < len(xs):
        raise RuntimeError(f"match {xs[len(out)]} of rule {rule.id} has no "
                           "classifying morphism; is the specification "
                           "cone-valid?")
    return out


def match_rule(rule: Rule, spec: Realization) -> list[Match]:
    """List all matches of ``rule`` in ``spec``: one per element of the
    rule's apex object, in carrier order, with no extension run.  A match
    is satisfied when the rule's section witness already maps onto it."""
    image = _satisfied(rule, spec)
    return [Match(rule.id, x, x in image, rule, spec)
            for x in spec.carrier[rule.apex].elements]


def _glue_state(left: Realization, right: Realization,
                left_leg: dict[str, FinFunction],
                right_leg: dict[str, FinFunction]) -> tuple[
                    _Chase, dict[str, dict[str, str]]]:
    """Push ``left`` out along the span of componentwise legs
    ``left_leg``, ``right_leg`` onto ``right``, and repair; returns the
    state and the names of ``left``'s elements in it.

    The chase starts from ``right`` as it is, so its names and order
    survive; each left element in the image of ``left_leg`` is identified
    with its partners, and every other joins under its own name, primed
    until free.  An object or arrow both sides share, with identity legs,
    adds and writes nothing, and keeps ``right``'s carrier and action.
    """
    st = _state_of(right)
    names: dict[str, dict[str, str]] = {}
    for ob in st.sk.objects:
        names[ob] = own = {}
        for a, x in left_leg[ob].mapping.items():
            y = right_leg[ob](a)
            if own.setdefault(x, y) != y:
                st.enqueue(ob, own[x], y)
        for x in left.carrier[ob].elements:
            if x not in own:
                name = x
                while name in st._uf(ob).parent:
                    name += "'"
                st._add(ob, [name])
                own[x] = name
    for aid, decl in st.sk.arrows.items():
        for x, y in left.action[aid].mapping.items():
            st.put(aid, names[decl.src][x], names[decl.tgt][y])
    st.drain()
    st.repair(full=True)
    return st, names


def apply_rule(spec: Realization, rule: Rule, match: Match) -> Fraction:
    """Fire one rule match as :func:`saturate` does, then repair; returns
    the step, whose middle object is the result, ``h`` the embedding of
    ``spec`` and ``c`` the identity.  A spec not marked repaired is refused
    when some match has no classifying morphism, found by one extension
    run: such a spec is not cone-valid, but not each such spec is refused."""
    if not spec._repaired:
        _classify(rule, spec, spec.carrier[rule.apex].elements)
    if match.element in _satisfied(rule, spec):
        raise ValueError(
            f"redundant step: match {match.element} of rule {rule.id} is "
            "already satisfied")
    st = _state_of(spec)
    _fire(st, rule, [match.element])
    st.repair(full=True)
    result = st.realization()
    return Fraction(spec, result, result, st.leg(spec, result),
                    identity_morphism(result), "by-construction")


def is_theory(spec: Realization, rules: list[Rule]) -> bool:
    """True when every match of every rule is already satisfied."""
    return all(spec.carrier[rule.apex].members <= _satisfied(rule, spec)
               for rule in rules)


def _induced_map(a: ChaseResult, b: ChaseResult,
                 into_b) -> tuple[RealMorphism | None, bool]:
    """Extend ``a.embedding(x) -> b.embedding(into_b[ob][x])``, for x in
    ``a``'s input (``into_b`` None: x itself), to ``a.result -> b.result``;
    returns the extension (None when it conflicts or is partial) and
    whether it is a bijection."""
    src, seed = a.embedding.src, {}
    fa, fb = _maps(a.embedding), _maps(b.embedding)
    for ob, d in src.carrier.items():
        lhs = list(map(fa[ob].__getitem__, d))
        rhs = list(map(fb[ob].__getitem__, d if into_b is None else
                       map(into_b[ob].__getitem__, d)))
        seed[ob] = own = dict(zip(lhs, rhs))
        if len(own) < len(lhs) and list(map(own.__getitem__, lhs)) != rhs:
            return None, False
    phi = extend_morphism(a.result, b.result, seed)
    return phi, phi is not None and all(
        is_bijection(phi.components[ob]) for ob in src.over.objects)


def induced_isomorphism(a: ChaseResult, b: ChaseResult) -> RealMorphism | None:
    """Map one chase result onto another over the same input, if possible.

    Seeds with the two embeddings of the shared input specification and
    extends; returns the morphism when it exists and is a componentwise
    bijection, else None.  This is how large saturations are compared,
    since brute-force isomorphism search does not scale past toy carriers.
    """
    phi, bijective = _induced_map(a, b, None)
    return phi if bijective else None


def check_fraction(frac: Fraction, rules: list[Rule],
                   cfg: ChaseConfig | None = None) -> None:
    """Verify that a fraction's legs agree after saturation.

    Saturates the source and the middle object under the same rules and
    requires the induced map between the two theories to be an
    isomorphism.  Raises ``RuntimeError`` with the reason otherwise.

    The caller passes the round budget in ``cfg``; a capped saturation
    makes the check inconclusive, so under the default 32 rounds an
    n-step modus ponens chain proof passes only up to n = 31.
    """
    sat_src = saturate(frac.src, rules, cfg)
    sat_mid = saturate(frac.mid, rules, cfg)
    if sat_src.status != "fixpoint" or sat_mid.status != "fixpoint":
        raise RuntimeError("fraction check inconclusive: saturation capped")
    induced, bijective = _induced_map(sat_src, sat_mid, _maps(frac.h))
    if induced is None:
        raise RuntimeError(
            "fraction check failed: no induced map between the saturations")
    if not bijective:
        raise RuntimeError(
            "fraction check failed: the induced map is not an isomorphism")


def _maps(phi: RealMorphism) -> dict[str, dict[str, str]]:
    return {ob: fn.mapping for ob, fn in phi.components.items()}


def _glues_nothing(f1: Fraction, f2: Fraction) -> bool:
    """Whether the pushout of ``f1.c`` and ``f2.h`` is ``f2.mid`` itself."""
    S, M = f1.mid, f2.mid
    if not (f1.tgt is S is f2.src and M._repaired
            and f1.certificate == f2.certificate == "by-construction"):
        return False
    for ob, d in S.carrier.items():
        one, fn = identity(d), f2.h.components[ob]
        if f1.c.components[ob] is not one or fn is not one and (
                fn.mapping != one.mapping
                or M.carrier[ob].elements[:len(d)] != d.elements):
            return False
    return True


def compose_fractions(f1: Fraction, f2: Fraction,
                      rules: list[Rule] | None = None,
                      cfg: ChaseConfig | None = None) -> Fraction:
    """Compose two fractions by pushing out their middle objects.

    Requires ``f1.tgt`` and ``f2.src`` to be the same specification.  When
    both inputs carry a by-construction certificate so does the result;
    otherwise ``rules`` must be supplied and the composite is certified by
    saturating (certificate ``"checked"``).

    When ``f1.c`` is an identity and ``f2.h`` keeps every name, old ones
    first, into a repaired ``f2.mid``, the composite is ``(f2.h . f1.h,
    f2.c)`` with no chase, as at each step of ``limsketch prove``.
    """
    if f1.tgt is not f2.src and f1.tgt != f2.src:
        raise ValueError("fractions do not meet end to end")
    if _glues_nothing(f1, f2):
        mid, c = f2.mid, f2.c
        h = RealMorphism(f1.src, mid, {
            ob: fn if fn.cod is mid.carrier[ob] else
            FinFunction(fn.dom, mid.carrier[ob], fn.mapping)
            for ob, fn in f1.h.components.items()})
    else:
        st, second_inj = _glue_state(f2.mid, f1.mid, f2.h.components,
                                     f1.c.components)
        mid = st.realization()
        h = st.leg(f1.src, mid, _maps(f1.h))
        c = st.leg(f2.tgt, mid, _maps(f2.c), second_inj)
    checked = not (f1.certificate == f2.certificate == "by-construction")
    if checked and rules is None:
        raise ValueError("composing checked fractions needs the rule set to "
                         "re-certify the composite")
    composite = Fraction(f1.src, f2.tgt, mid, h, c,
                         "checked" if checked else "by-construction")
    if checked:
        check_fraction(composite, rules, cfg)
    return composite


def transport_spec(sigma, theory: Realization) -> Realization:
    """Pull a theory over the broken sketch back along the localiser."""
    return restrict_along(sigma, theory)


def trace_lines(res: ChaseResult) -> list[str]:
    """Render a chase trace, as :func:`trace_doc` holds it, as stable,
    diff-friendly text lines."""
    lines = []
    for r in trace_doc(res)["rounds"]:
        lines += [f"round {r['round']}",
                  *(f"  fire {f['rule']} {f['match']}" for f in r["fired"]),
                  *(f"  add {ob} {x}" for ob, xs in r["added"].items()
                    for x in xs),
                  *(f"  ident {i['object']} {i['kept']} {i['dropped']}"
                    for i in r["identified"])]
    return lines + [f"status {res.status} rounds {res.rounds}"]


def trace_doc(res: ChaseResult) -> dict:
    """Render a chase trace as a JSON-ready document."""
    return {"status": res.status, "rounds": [{
        "round": r.round,
        "fired": [{"rule": rid, "match": elem} for rid, elem in r.fired],
        "added": {ob: list(r.added[ob]) for ob in sorted(r.added)},
        "identified": [{"object": ob, "kept": kept, "dropped": drop}
                       for ob, kept, drop in r.identified],
    } for r in res.trace.rounds]}
