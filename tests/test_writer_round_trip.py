"""Seeded round trips of both writers.

Both text and JSON are written from one document per declaration, so on
random sketches with their repaired states as specs, on the corpus (whose
``mp_sigma`` has identity images), on a sketch with an identity equation
and on configs with random rule lists:

- load, write and load again is a fixpoint in each format (the second
  load is compared with the first, since a load adds projection
  triangles to a sketch);
- both formats load a written declaration to equal declarations, with the
  bulk spec build and with every spec walked entry by entry;
- writing a loaded canonical text reprints it byte for byte.
"""
import random
import string
from importlib import resources

import pytest

from limsketch import dsl, engine
from limsketch.engine import ChaseConfig, ChaseDiverged
from limsketch.sketch import Sketch

from test_chase_oracle import random_state

FORMATS = {"text": (dsl.serialize_file, dsl.parse),
           "json": (dsl.serialize_json, dsl.parse_json)}
RULE_CHARS = string.ascii_letters + string.digits + "_#'"


def random_config(rng: random.Random, name: str) -> dsl.NamedConfig:
    rules = None if rng.random() < 0.3 else tuple(
        rng.choice(string.ascii_letters + "_")
        + "".join(rng.choices(RULE_CHARS, k=rng.randint(0, 6)))
        for _ in range(rng.randint(1, 4)))
    return dsl.NamedConfig(name, ChaseConfig(
        max_rounds=rng.randint(0, 100), rule_subset=rules))


def seeded_decls(seed: int) -> list:
    """A random sketch, its repaired state as a spec, and a config; the
    spec is left out where the repair diverges."""
    rng = random.Random(seed)
    sk, carriers, actions = random_state(rng)
    decls = [sk]
    st = engine._Chase(sk, carriers, actions)
    try:
        st.repair(full=True)
        decls.append(dsl.NamedSpec("repaired", st.realization()))
    except ChaseDiverged:
        pass
    return decls + [random_config(rng, "cfg")]


def corpus_decls() -> list:
    return dsl.parse_path(resources.files("limsketch") / "corpus" / "mp.sk")


def identity_equation_decls() -> list:
    return dsl.parse("sketch r { object A object B arrow f : A -> B "
                     "arrow g : B -> A eq f.g = id(A) }")


CASES = [*(pytest.param(seeded_decls, seed, id=f"seed{seed}")
           for seed in range(50)),
         pytest.param(lambda _: corpus_decls(), 0, id="corpus-mp"),
         pytest.param(lambda _: identity_equation_decls(), 0,
                      id="identity-equation")]


@pytest.fixture(autouse=True)
def small_chase_budget(monkeypatch):
    monkeypatch.setattr(engine, "_MAX_ELEMENTS", 300)


@pytest.mark.parametrize("make, seed", CASES)
def test_both_writers_round_trip(make, seed, monkeypatch):
    decls = make(seed)
    loads = {}
    for form, (write, load) in FORMATS.items():
        first = load(write(decls))
        assert load(write(first)) == first, form
        with monkeypatch.context() as m:
            m.setattr(dsl, "_bulk_spec", lambda sk, elems, acts: None)
            assert load(write(decls)) == first, form
        loads[form] = first
    assert loads["text"] == loads["json"]
    canonical = dsl.serialize_file(loads["text"])
    assert dsl.serialize_file(dsl.parse(canonical)) == canonical


def test_the_seeds_cover_every_declaration_kind():
    decls = [d for seed in range(50) for d in seeded_decls(seed)]
    kinds = {type(d) for d in decls + corpus_decls()}
    assert kinds == {Sketch, dsl.NamedSpec, dsl.NamedMorphism,
                     dsl.NamedConfig}
    assert sum(isinstance(d, dsl.NamedSpec) for d in decls) >= 40
    assert any(not path for d in corpus_decls()
               if isinstance(d, dsl.NamedMorphism)
               for path in d.morphism.arrow_map.values())
    assert not identity_equation_decls()[0].equations[0].rhs
