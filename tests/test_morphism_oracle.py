"""Differential tests: morphism search against a frozen enumerate-and-derive
copy, and forced extension against a frozen sweep-until-stable copy.

``oracle_morphisms`` derives every non-free apex component through one
cone's comparison index and keeps the natural candidates.  The library
passes each free assignment to forced extension instead.  On model targets
both must return the same morphisms in the same order, and ``is_isomorphic``
the same first isomorphism.  Forced extension of any seed into a model must
give the oracle's answer, its components keyed in source carrier order.
"""

import itertools
import random
from importlib import resources

import pytest

import oracle_morphisms
from limsketch import dsl
from limsketch.engine import saturate, transport_spec
from limsketch.finset import FinFunction
from limsketch.realization import (
    Realization,
    check_realization,
    enumerate_morphisms,
    extend_morphism,
    is_isomorphic,
)
from limsketch.sketch import ArrowDecl, Cone, Sketch, validate_sketch
from oracle_surface import finset

from test_acceptance import as_closed_table, tabled_spec
from test_engine import LOC, MP_RULE, RULES
from test_realization import MAGMA, TERMINAL, mk_graph

CORPUS = resources.files("limsketch") / "corpus"

# Pairs whose search is larger are only checked to raise alike or not.
CHECKED_SPACE = 5_000

# Two apexes, each the other's one projected node: the search enumerates
# both, since neither cone can be derived first.
CYCLIC = Sketch(
    name="cyclic",
    objects=("A", "B"),
    arrows={"f": ArrowDecl("f", "A", "B"), "g": ArrowDecl("g", "B", "A")},
    cones={"cA": Cone("cA", "A", {"n": "B"}, projections={"n": "f"}),
           "cB": Cone("cB", "B", {"n": "A"}, projections={"n": "g"})},
)


def assert_same_search(R1, R2):
    """Both searches agree on R1 -> R2; returns whether they were run."""
    assert check_realization(R2).ok
    space = oracle_morphisms.search_space(R1, R2)
    if space > oracle_morphisms.GUARD:
        for search in (enumerate_morphisms, is_isomorphic):
            with pytest.raises(ValueError, match="search space exceeds"):
                search(R1, R2)
        return False
    if space > CHECKED_SPACE:
        return False
    assert enumerate_morphisms(R1, R2) == \
        oracle_morphisms.enumerate_morphisms(R1, R2)
    assert is_isomorphic(R1, R2) == oracle_morphisms.is_isomorphic(R1, R2)
    return True


def assert_all_pairs(models, least):
    """Compare every ordered pair; at least ``least`` searches must run."""
    run = sum(assert_same_search(a, b) for a in models for b in models)
    assert run >= least


def test_tabled_specs_and_their_saturations():
    rng = random.Random(1101)
    run = 0
    for case in range(10):
        complete = case % 2 == 0
        rules = RULES if complete else [MP_RULE]
        spec = tabled_spec(rng, rng.randint(1, 2), complete)
        sat = saturate(spec, rules)
        other = saturate(tabled_spec(rng, rng.randint(1, 2), complete),
                         rules)
        assert sat.status == other.status == "fixpoint"
        models = [spec, sat.result, other.result]
        if complete:
            models.append(transport_spec(LOC.underlying,
                                         as_closed_table(other.result)))
        run += sum(assert_same_search(a, b) for a in models for b in models)
    assert run >= 60


def test_corpus_specs():
    by_sketch = {}
    for name in ("bank.sk", "graph.sk", "magma.sk", "mp.sk"):
        for decl in dsl.parse_path(CORPUS / name):
            if isinstance(decl, dsl.NamedSpec):
                spec = decl.realization
                by_sketch.setdefault(spec.over.name, []).append(spec)
    run = 0
    for specs in by_sketch.values():
        models = [s for s in specs if check_realization(s).ok]
        run += sum(assert_same_search(a, b) for a in specs for b in models)
    assert run >= len(by_sketch)


def random_graph(rng):
    vs = [f"v{i}" for i in range(rng.randint(0, 3))]
    es = [f"e{i}" for i in range(rng.randint(0, 3) if vs else 0)]
    return mk_graph(vs, es, {e: rng.choice(vs) for e in es},
                    {e: rng.choice(vs) for e in es})


def test_random_graphs():
    rng = random.Random(1102)
    for _ in range(6):
        assert_all_pairs([random_graph(rng) for _ in range(5)], 20)


def random_magma(rng):
    """A magma on 1-3 elements with a random table: M2 is the cone apex."""
    M = finset(f"m{i}" for i in range(rng.randint(1, 3)))
    pairs = [(a, b) for a in M for b in M]
    M2 = finset(f"{a}{b}" for a, b in pairs)
    return Realization(MAGMA, {"M": M, "M2": M2}, {
        "s": FinFunction(M2, M, {f"{a}{b}": a for a, b in pairs}),
        "t": FinFunction(M2, M, {f"{a}{b}": b for a, b in pairs}),
        "k": FinFunction(M2, M, {f"{a}{b}": rng.choice(M.elements)
                                 for a, b in pairs}),
    })


def test_random_magmas():
    rng = random.Random(1103)
    for _ in range(6):
        assert_all_pairs([random_magma(rng) for _ in range(5)], 25)


def random_cyclic(rng):
    """A model of ``CYCLIC``: f and g are bijections."""
    n = rng.randint(0, 3)
    A = finset(f"a{i}" for i in range(n))
    B = finset(f"b{i}" for i in range(n))
    f, g = list(B), list(A)
    rng.shuffle(f)
    rng.shuffle(g)
    return Realization(CYCLIC, {"A": A, "B": B}, {
        "f": FinFunction(A, B, dict(zip(A, f))),
        "g": FinFunction(B, A, dict(zip(B, g))),
    })


def test_cyclically_dependent_apexes_are_enumerated():
    assert validate_sketch(CYCLIC).ok
    assert oracle_morphisms._derivation_plan(CYCLIC) == (["A", "B"], [])
    rng = random.Random(1104)
    for _ in range(4):
        assert_all_pairs([random_cyclic(rng) for _ in range(4)], 16)


def assert_same_extension(R1, R2, seed):
    """Both extensions of ``seed`` agree; returns whether they exist."""
    got = extend_morphism(R1, R2, seed)
    want = oracle_morphisms.extend_morphism(R1, R2, seed)
    assert (got is None) == (want is None), seed
    if got is not None:
        for ob in R1.over.objects:
            assert list(got.components[ob].mapping.items()) == [
                (x, want(ob, x)) for x in R1.carrier[ob]], seed
    return got is not None


def extension_seeds(rng, R1, R2):
    """Single-generator seeds, then full, partial and conflicting ones cut
    from the first morphisms of a small search."""
    obs = [ob for ob in R1.over.objects if R1.carrier[ob] and R2.carrier[ob]]
    for ob in obs:
        yield {ob: {rng.choice(R1.carrier[ob].elements):
                    rng.choice(R2.carrier[ob].elements)}}
    if oracle_morphisms.search_space(R1, R2) > CHECKED_SPACE:
        return
    found = oracle_morphisms._iter_morphisms(R1, R2, CHECKED_SPACE)
    for phi in itertools.islice(found, 2):
        full = {ob: dict(fn.mapping) for ob, fn in phi.components.items()}
        yield full
        yield {ob: {x: y for x, y in m.items() if rng.random() < 0.3}
               for ob, m in full.items()}
        if obs:
            ob = rng.choice(obs)
            full[ob][rng.choice(R1.carrier[ob].elements)] = rng.choice(
                R2.carrier[ob].elements)
            yield full


def assert_same_extensions(rng, models, least):
    """Every seed into every model among ``models``; at least ``least``
    seeds must extend."""
    extended = 0
    for R1 in models:
        for R2 in models:
            if R1.over == R2.over and check_realization(R2).ok:
                extended += sum(assert_same_extension(R1, R2, seed)
                                for seed in extension_seeds(rng, R1, R2))
    assert extended >= least


def random_terminal(rng):
    """A model of ``TERMINAL``: One has one element."""
    A, One = finset(f"a{i}" for i in range(rng.randint(0, 2))), finset(["o"])
    return Realization(TERMINAL, {"One": One, "A": A},
                       {"a": FinFunction(A, One, {x: "o" for x in A})})


def test_forced_extension_matches_the_sweep():
    rng = random.Random(1105)
    corpus = []
    for name in ("bank.sk", "graph.sk", "magma.sk", "mp.sk"):
        corpus += [decl.realization for decl in dsl.parse_path(CORPUS / name)
                   if isinstance(decl, dsl.NamedSpec)]
    assert_same_extensions(rng, corpus, 20)
    for case in range(4):
        spec = tabled_spec(rng, rng.randint(1, 2), case % 2 == 0)
        sat = saturate(spec, RULES if case % 2 == 0 else [MP_RULE])
        assert_same_extensions(rng, [spec, sat.result], 4)
    for make in (random_graph, random_magma, random_terminal):
        for _ in range(3):
            assert_same_extensions(rng, [make(rng) for _ in range(4)], 20)
