"""Print one sha256 over the engine's observable output on fixed inputs.

    PYTHONPATH=src python3 tests/output_hash.py

Two versions of limsketch that print the same digest and byte count gave
byte-identical output on every input below; a change that claims to keep
traces, fresh names and results unchanged quotes both values. The inputs:

- the rules read off the corpus ``mp_sigma``: hypothesis, glue and
  conclusion, and the component mappings of both inclusions;
- ``bench/workloads.chain(n, seed 7 + n)`` for n = 5, 15, 25 saturated under
  modus ponens with ``max_rounds = n + 1``, and the corpus ``mp_basic`` under
  both rules capped at 3 rounds: trace lines, result and embedding;
- ``bench/workloads.prove_chain`` on ``chain(n, seed 11 + n)`` for
  n = 3, 5, 8: source, middle and target of the proof and both legs;
- four ``apply_rule`` steps on the corpus ``mp_basic``, each at the first
  unsatisfied match of the next rule in turn (a rule with none is skipped):
  each step's result and its ``h`` leg.

The digest is taken over the UTF-8 text, one line per item.
"""
from __future__ import annotations

import hashlib
import sys
from importlib import resources
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import limsketch as ls  # noqa: E402
from workloads import Env, chain, prove_chain  # noqa: E402


def spec_text(name: str, spec) -> list[str]:
    return ls.serialize(ls.NamedSpec(name, spec)).splitlines()


def leg_text(name: str, phi) -> list[str]:
    return [f"{name} {ob} {x} {y}" for ob in phi.src.over.objects
            for x, y in phi.components[ob].mapping.items()]


def run_text(name: str, res) -> list[str]:
    return (ls.trace_lines(res) + spec_text(name, res.result)
            + leg_text(f"{name}.embedding", res.embedding))


def lines() -> list[str]:
    corpus = {d.name: d for d in
              ls.parse_path(resources.files(ls) / "corpus" / "mp.sk")}
    rules = ls.rules_of(ls.as_localiser(corpus["mp_sigma"].morphism))
    mp_rule = next(r for r in rules if r.id == "c_MP")
    env = Env(ls, corpus, corpus["mp_sp"], rules, mp_rule, Path("."))
    basic = corpus["mp_basic"].realization
    out: list[str] = []
    for r in rules:
        out += spec_text(f"{r.id}_hyp", r.hypothesis)
        out += spec_text(f"{r.id}_glue", r.glue)
        out += spec_text(f"{r.id}_concl", r.conclusion)
        out += leg_text(f"{r.id}.hyp_to_glue", r.hyp_to_glue)
        out += leg_text(f"{r.id}.concl_to_glue", r.concl_to_glue)
    for n in (5, 15, 25):
        res = ls.saturate(chain(env, n, 7 + n), [mp_rule],
                          ls.ChaseConfig(max_rounds=n + 1))
        out += run_text(f"chain{n}", res)
    out += run_text("capped", ls.saturate(basic, rules,
                                          ls.ChaseConfig(max_rounds=3)))
    for n in (3, 5, 8):
        steps, frac, complaint = prove_chain(env, chain(env, n, 11 + n), 2 * n)
        out.append(f"prove{n} steps {steps} {complaint} {frac.certificate}")
        for part in ("src", "mid", "tgt"):
            out += spec_text(f"prove{n}_{part}", getattr(frac, part))
        out += leg_text(f"prove{n}.h", frac.h) + leg_text(f"prove{n}.c", frac.c)
    spec = basic
    for k in range(4):
        rule = rules[k % len(rules)]
        match = next((m for m in ls.match_rule(rule, spec)
                      if not m.satisfied), None)
        if match is None:
            continue
        step = ls.apply_rule(spec, rule, match)
        out += spec_text(f"step{k}", step.mid) + leg_text(f"step{k}.h", step.h)
        spec = step.tgt
    return out


def main() -> None:
    data = "\n".join(lines()).encode()
    print(hashlib.sha256(data).hexdigest(), f"{len(data)} bytes")


if __name__ == "__main__":
    main()
