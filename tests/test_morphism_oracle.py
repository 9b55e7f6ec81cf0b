"""Differential tests: morphism search against a frozen enumerate-and-derive
copy.

``oracle_morphisms`` derives every non-free apex component through one
cone's comparison index and keeps the natural candidates.  The library
passes each free assignment to forced extension instead.  On model targets
both must return the same morphisms in the same order, and ``is_isomorphic``
the same first isomorphism.
"""

import random
from importlib import resources

import pytest

import oracle_morphisms
from limsketch import dsl
from limsketch.engine import saturate, transport_spec
from limsketch.finset import FinFunction, finset
from limsketch.realization import (
    Realization,
    check_realization,
    enumerate_morphisms,
    is_isomorphic,
)
from limsketch.sketch import ArrowDecl, Cone, Sketch, validate_sketch

from test_acceptance import as_closed_table, tabled_spec
from test_engine import LOC, MP_RULE, RULES
from test_realization import MAGMA, mk_graph

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

