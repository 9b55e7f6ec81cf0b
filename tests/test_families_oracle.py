"""Differential tests: the planned family join against the frozen recursive one.

``oracle_surface.families`` plans each diagram once and runs a flat kernel over one
assignment; ``oracle_chase.families`` is the recursive propagate-and-search
it replaced.  Fresh chase names follow the order in which families come out,
so the two must agree on the order as well as on the families.  A plan
seeded at some nodes must yield the oracle's families that agree with the
seed, and ``join_new`` the ones with a value among the candidates added
last.
"""

import random

from limsketch.finset import FinFunction, join, join_new, plan_join
from limsketch.realization import Realization, check_realization
from limsketch.sketch import ArrowDecl, Cone, ConeEdge, Sketch

import oracle_chase
from oracle_surface import families, finset


def random_diagram(rng: random.Random):
    """Nodes with shuffled candidates drawn from per-node value pools, and
    edges between random nodes, each a partial map on its source's pool.

    A pool holds one value more than a node can have as candidates, so an
    edge can fill a node with a value outside its candidates, as the join
    allows.
    """
    n_nodes = rng.choice([0, 1, 2, 2, 3, 3, 4, 5])
    pools = {f"n{i}": [f"n{i}v{j}" for j in range(5)] for i in range(n_nodes)}
    nodes = {n: rng.sample(pool, rng.randint(0, 4)) for n, pool in pools.items()}
    edges = []
    for _ in range(rng.randint(0, 6) if nodes else 0):
        s, t = rng.choice(sorted(nodes)), rng.choice(sorted(nodes))
        defined = rng.choice([1.0, 1.0, 0.8])
        edges.append((s, t, {x: rng.choice(pools[t][:2]) for x in pools[s]
                             if rng.random() < defined}))
    return nodes, edges


def features(nodes, edges) -> set[str]:
    ends = [(s, t) for s, t, _ in edges]
    seen = set()
    if not nodes:
        seen.add("zero nodes")
    if any(not c for c in nodes.values()):
        seen.add("empty node")
    if any(len(c) == 1 for c in nodes.values()):
        seen.add("single-candidate node")
    if any(s == t for s, t in ends):
        seen.add("self-loop")
    if any((t, s) in ends for s, t in ends if s != t):
        seen.add("back edge")
    if len({(s, t) for s, t in ends if s != t}) > len({t for s, t in ends if s != t}):
        seen.add("two edges into one node")
    if any(x not in m for s, _, m in edges for x in nodes[s]):
        seen.add("partial edge")
    return seen


def test_families_match_the_recursive_oracle_in_order():
    rng = random.Random(41017)
    covered: dict[str, int] = {}
    several = 0
    for _ in range(3000):
        nodes, edges = random_diagram(rng)
        calls = [(s, t, m.get) for s, t, m in edges]
        got = list(families(nodes, calls))
        want = list(oracle_chase.families(nodes, calls))
        assert got == want, (nodes, edges)
        if len(got) > 1:
            several += 1
        if got:
            for name in features(nodes, edges):
                covered[name] = covered.get(name, 0) + 1
    # the order is compared only where a diagram has two families or more
    assert several > 400
    assert set(covered) == {"zero nodes", "empty node", "single-candidate node",
                            "self-loop", "back edge", "two edges into one node",
                            "partial edge"}
    assert min(covered.values()) >= 20, covered


def test_seeded_plans_keep_the_families_that_agree_with_the_seed():
    # Edges map candidates to candidates here, as in a realization, so the
    # families are the edge-compatible tuples whichever nodes a plan fills.
    rng = random.Random(52361)
    found = 0
    for _ in range(3000):
        nodes, edges = random_diagram(rng)
        if not nodes:
            continue
        edges = [(s, t, {x: y for x, y in m.items() if y in nodes[t]})
                 for s, t, m in edges]
        calls = [(s, t, m.get) for s, t, m in edges]
        want = list(oracle_chase.families(nodes, calls))
        names = sorted(nodes)
        seeded = sorted(rng.sample(names, rng.randint(1, len(names))))
        if any(not nodes[n] for n in seeded):
            continue
        if want and rng.random() < 0.7:
            seed = [rng.choice(want)[n] for n in seeded]
        else:
            seed = [rng.choice(nodes[n]) for n in seeded]
        plan = plan_join(names, [(s, t) for s, t, _ in edges], seeded)
        got = list(join(plan, [nodes[n] for n in names], [f for _, _, f in calls], seed))
        assert sorted(got) == sorted(tuple(fam[n] for n in names) for fam in want
                                     if [fam[n] for n in seeded] == seed)
        found += bool(got and edges)
    assert found > 120


def test_join_new_yields_each_family_with_a_new_value_once():
    # Each node's candidates come in three parts, and an edge maps no value
    # to one of a later part, as in a chase state that grew twice.  Each
    # join_new must grow the buckets the joins before it built.
    rng = random.Random(8123)
    found = 0
    for _ in range(3000):
        nodes, edges = random_diagram(rng)
        names = sorted(nodes)
        cuts = {n: sorted(rng.randint(0, len(nodes[n])) for _ in range(2))
                for n in names}

        def part(n, x):
            return sum(nodes[n].index(x) >= c for c in cuts[n])
        edges = [(s, t, {x: y for x, y in m.items()
                         if x in nodes[s] and y in nodes[t]
                         and part(t, y) <= part(s, x)}) for s, t, m in edges]
        ends = [(s, t) for s, t, _ in edges]
        lookups = [m.get for _, _, m in edges]
        buckets: dict = {}
        got = list(join(plan_join(names, ends),
                        [nodes[n][:cuts[n][0]] for n in names], lookups, (),
                        buckets))
        ends_of = {n: [*cuts[n], None] for n in names}
        for stage in (0, 1):
            grown = bool(buckets)
            new = list(join_new(
                lambda i: plan_join(names, ends, names[i:i + 1]),
                [nodes[n][:ends_of[n][stage + 1]] for n in names],
                [nodes[n][cuts[n][stage]:ends_of[n][stage + 1]]
                 for n in names], lookups, buckets))
            found += bool(grown and new)
            got += new
        want = [tuple(fam[n] for n in names) for fam in oracle_chase.families(
            nodes, [(s, t, m.get) for s, t, m in edges])]
        assert len(set(got)) == len(got)
        assert sorted(got) == sorted(want)
    assert found > 20


def test_stopped_check_respects_a_pinned_node_that_an_edge_reaches():
    # The base node b is projected and reached by a -> b; with b pinned to
    # b3, which no family has, the lookup must come back empty.
    sk = Sketch(name="s", objects=("A", "B", "P"),
                arrows={"f": ArrowDecl("f", "A", "B"), "p": ArrowDecl("p", "P", "B")},
                cones={"c": Cone("c", "P", {"a": "A", "b": "B"},
                                 (ConeEdge("a", "b", ("f",)),), {"b": "p"})})
    A, B, P = finset(["a0", "a1", "a2"]), finset(["b0", "b1", "b2", "b3"]), finset(["p0"])
    R = Realization(sk, {"A": A, "B": B, "P": P}, {
        "f": FinFunction(A, B, {"a0": "b0", "a1": "b1", "a2": "b2"}),
        "p": FinFunction(P, B, {"p0": "b3"})})
    assert [v.code for v in check_realization(R).violations] == [
        "cone-comparison-unrealized", "cone-comparison-not-surjective"]
