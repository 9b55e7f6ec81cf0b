"""End-to-end runs of the command line over the shipped corpus."""

import json

import pytest

from limsketch import dsl, engine
from limsketch.cli import corpus_dir, main

CORPUS = corpus_dir()
MP = str(CORPUS / "mp.sk")
BANK = str(CORPUS / "bank.sk")
MAGMA = str(CORPUS / "magma.sk")
GRAPH = str(CORPUS / "graph.sk")

BAD_MAGMA = """spec three over magma {
  elem t : M
  elem f : M
  elem tt : M2
  elem tf : M2
  elem ft : M2
  act s(tt) = t
  act s(tf) = t
  act s(ft) = f
  act t(tt) = t
  act t(tf) = f
  act t(ft) = t
  act k(tt) = t
  act k(tf) = f
  act k(ft) = f
}
"""


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_corpus_exits_zero(capsys):
    for f in (GRAPH, MAGMA, MP, BANK):
        code, out, _ = run(["validate", f], capsys)
        assert code == 0, out
        assert ": ok" in out


def test_validate_json_lists_declarations(capsys):
    code, out, _ = run(["validate", GRAPH, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert [(e["kind"], e["name"]) for e in doc] == [
        ("sketch", "graph"), ("spec", "path1")]
    assert all(e["violations"] == [] for e in doc)


def test_check_real_cone_violation_exits_one(tmp_path, capsys):
    bad = tmp_path / "three.sk"
    bad.write_text(BAD_MAGMA)
    code, out, _ = run(["check-real", MAGMA, str(bad), "--spec", "three"],
                       capsys)
    assert code == 1
    assert "cone" in out


def test_missing_file_exits_two(capsys):
    code, _, err = run(["validate", "/no/such/file.sk"], capsys)
    assert code == 2
    assert "error:" in err


def test_parse_error_exits_two_with_position(tmp_path, capsys):
    f = tmp_path / "broken.sk"
    f.write_text("sketch a {\n  object\n}\n")
    code, _, err = run(["validate", str(f)], capsys)
    assert code == 2
    assert "3:1:" in err


def test_non_utf8_file_exits_two(tmp_path, capsys):
    f = tmp_path / "latin1.sk"
    f.write_bytes(b"sketch a {\n  object caf\xe9\n}\n")
    code, _, err = run(["validate", str(f)], capsys)
    assert code == 2
    assert err.startswith("error:") and "utf-8" in err


def test_non_utf8_proof_script_exits_two(tmp_path, capsys):
    script = tmp_path / "proof.txt"
    script.write_bytes(f"use {MP}\nspec mp_basic\n".encode() + b"// \xff\n")
    code, _, err = run(["prove", str(script)], capsys)
    assert code == 2
    assert err.startswith("error:") and "utf-8" in err
    # a file the script uses is read the same way
    bad = tmp_path / "bad.sk"
    bad.write_bytes(b"\xff")
    script.write_text(f"use {bad}\n")
    code, _, err = run(["prove", str(script)], capsys)
    assert code == 2
    assert err.startswith("error:") and "utf-8" in err


def test_non_utf8_file_is_named(tmp_path, capsys):
    bad = tmp_path / "bad.sk"
    bad.write_bytes(b"sketch a {\n  object caf\xe9\n}\n")
    code, _, err = run(["validate", MP, str(bad)], capsys)
    assert code == 2
    assert err.startswith("error:") and "utf-8" in err and str(bad) in err
    # a file that a proof script uses, and the script itself
    script = tmp_path / "proof.txt"
    script.write_text(f"use {bad}\n")
    code, _, err = run(["prove", str(script)], capsys)
    assert code == 2 and str(bad) in err
    script.write_bytes(b"// \xff\n")
    code, _, err = run(["prove", str(script)], capsys)
    assert code == 2 and str(script) in err


def test_break_reports_cycles_and_writes_files(tmp_path, capsys):
    code, out, _ = run(["break", MP, "--sketch", "mp_theory",
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    assert out.count("cycle:") == 5
    assert "broke c_IM" in out and "broke c_MP" in out
    sp = dsl.parse_path(tmp_path / "mp_theory_sp.sk")[0]
    assert sp.monos == frozenset({"inc", "h_c_IM", "h_c_MP"})
    # the sigma file is self-contained
    code, out, _ = run(["validate", str(tmp_path / "mp_theory_sigma.sk")],
                       capsys)
    assert code == 0
    assert "morphism mp_theory_sigma: ok" in out


def test_break_plan_naming_projection_exits_two(capsys):
    code, _, err = run(["break", MAGMA, "--sketch", "magma",
                        "--plan", "s", "--out", "/tmp"], capsys)
    assert code == 2
    assert "projection" in err


def test_saturate_fixpoint_and_round_trip(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    code, out, _ = run(["saturate", MP, "--rules", "MP",
                        "--trace", str(trace),
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "status fixpoint rounds 1" in out
    assert "carrier Theo 3" in out
    lines = trace.read_text().splitlines()
    assert lines[0] == "round 0"
    assert lines[-1] == "status fixpoint rounds 1"
    # the written theory is already closed: saturating again is a no-op
    code, out, _ = run(["saturate", str(tmp_path / "mp_basic_saturated.sk"),
                        MP, "--spec", "mp_basic_saturated",
                        "--rules", "MP"], capsys)
    assert code == 0
    assert "status fixpoint rounds 0" in out


def test_saturate_json_is_the_trace_document_with_carriers(tmp_path,
                                                          capsys):
    trace = tmp_path / "trace.json"
    code, out, _ = run(["saturate", MP, "--rules", "MP", "--format", "json",
                        "--trace", str(trace)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=2) + "\n"
    assert (doc["status"], doc["rounds"]) == ("fixpoint", 1)
    assert doc["carriers"]["Theo"] == 3
    del doc["carriers"]
    assert doc == json.loads(trace.read_text())


def test_saturate_capped_run(capsys):
    code, out, _ = run(["saturate", MP, "--rules", "IM,MP",
                        "--max-rounds", "3"], capsys)
    assert code == 0
    assert "status capped rounds 3" in out
    assert "carrier For 15131" in out


def test_saturate_max_rounds_zero_only_repairs(capsys):
    code, out, _ = run(["saturate", MP, "--max-rounds", "0"], capsys)
    assert code == 0
    assert "status capped rounds 0" in out
    assert "carrier For 3" in out
    code, _, err = run(["saturate", MP, "--max-rounds", "-3"], capsys)
    assert code == 2
    assert "--max-rounds -3 is not a natural number" in err


def test_diverging_chase_exits_one(tmp_path, monkeypatch, capsys):
    # over the unbroken theory sketch one formula closes up to infinity;
    # a small budget makes the chase give up in milliseconds
    monkeypatch.setattr(engine, "_MAX_ELEMENTS", 200)
    spec = tmp_path / "one.sk"
    spec.write_text("spec one over mp_theory { elem a : For }\n")
    code, out, err = run(["saturate", MP, str(spec), "--spec", "one"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "budget" in err
    assert "Traceback" not in err


def test_saturate_json_spec_missing_an_action_exits_two(tmp_path, capsys):
    spec = tmp_path / "s.sk.json"
    spec.write_text(json.dumps({
        "kind": "spec", "name": "s", "over": "graph",
        "carriers": {"E": ["e"], "V": ["v"]},
        "actions": {"s": {"e": "v"}}}))
    code, _, err = run(["saturate", str(spec)], capsys)
    assert code == 2
    assert "spec 's' is missing the action t(e)" in err


def test_saturate_unknown_rule_exits_two(capsys):
    code, _, err = run(["saturate", MP, "--rules", "nope"], capsys)
    assert code == 2
    assert "rule 'nope'" in err


def test_saturate_without_rules_only_repairs(capsys):
    code, out, _ = run(["saturate", MAGMA], capsys)
    assert code == 0
    assert "status fixpoint rounds 0" in out


def test_apply_modus_ponens_adds_theorem(capsys):
    code, out, _ = run(["apply", MP, "MP", "m0"], capsys)
    assert code == 0
    assert "applied c_MP at m0" in out
    assert "add Theo" in out
    code, out, _ = run(["apply", MP, "c_MP", "m0", "--format", "json"],
                       capsys)
    doc = json.loads(out)
    assert doc["rule"] == "c_MP" and "Theo" in doc["added"]


def test_apply_unknown_match_exits_two(capsys):
    code, _, err = run(["apply", MP, "c_MP", "zz"], capsys)
    assert code == 2
    assert "no match" in err


def test_apply_satisfied_match_exits_two(capsys):
    code, _, err = run(["apply", MP, "c_IM", "p_q"], capsys)
    assert code == 2
    assert "already satisfied" in err


def test_prove_composes_steps(tmp_path, capsys):
    script = tmp_path / "proof.txt"
    script.write_text(
        f"// detach q, then record an implication\n"
        f"use {MP}\n"
        f"spec mp_basic\n"
        f"step MP m0\n"
        f"step IM p_p\n")
    code, out, _ = run(["prove", str(script), "--out", str(tmp_path)],
                       capsys)
    assert code == 0, out
    assert "proof of 2 step(s)" in out
    proved = tmp_path / "proved.sk"
    decls = dsl.parse_path(proved)
    spec = decls[1].realization
    theorems = {spec.action["inc"].mapping[t]
                for t in spec.carrier["Theo"].elements}
    assert {"p", "q", "ipq"} <= theorems


def test_prove_loads_a_repeated_use_once(tmp_path, capsys):
    """A file named twice, however spelled, is loaded once, as in `_load`."""
    (tmp_path / "mp.sk").write_text((CORPUS / "mp.sk").read_text())
    body = "spec mp_basic\nstep MP m0\nstep IM p_p\n"
    outs = []
    for uses in ("use mp.sk\n", "use mp.sk\nuse ./mp.sk\n",
                 "use mp.sk\nuse mp.sk\n",
                 f"use ./mp.sk\nuse {tmp_path / 'mp.sk'}\n"):
        script = tmp_path / "proof.txt"
        script.write_text(uses + body)
        code, out, err = run(["prove", str(script)], capsys)
        assert code == 0, err
        outs.append(out)
    assert outs[0].startswith("proof of 2 step(s)")
    assert outs[1:] == outs[:1] * 3


def test_prove_bad_step_exits_two(tmp_path, capsys):
    script = tmp_path / "proof.txt"
    script.write_text(f"use {MP}\nspec mp_basic\nstep MP zz\n")
    code, _, err = run(["prove", str(script)], capsys)
    assert code == 2
    assert "no unsatisfied match" in err


def test_yoneda_formula_spec(capsys):
    code, out, _ = run(["yoneda", MP, "For", "--sketch", "mp_sp"], capsys)
    assert code == 0
    assert "spec y_For over mp_sp" in out
    spec = dsl.parse(out, env={"mp_sp": dsl.parse_path(MP)[1]})[0]
    assert len(spec.realization.carrier["For"]) == 1
    assert len(spec.realization.carrier["Theo"]) == 0


def test_yoneda_divergence_exits_one(capsys):
    code, _, err = run(["yoneda", MP, "Theo", "--sketch", "mp_theory"],
                       capsys)
    assert code == 1
    assert "not finitely closed" in err


def test_yoneda_divergence_exits_one_within_a_small_budget(monkeypatch,
                                                           capsys):
    monkeypatch.setattr(engine, "_MAX_ELEMENTS", 2000)
    code, _, err = run(["yoneda", MP, "Theo", "--sketch", "mp_theory"],
                       capsys)
    assert code == 1
    assert "not finitely closed" in err


def test_transport_reproduces_goldens(capsys):
    golden = {d.name: d for d in dsl.parse_path(BANK)}
    env = {n: d for n, d in golden.items() if hasattr(d, "objects")}
    for morphism, want in (("forget_decorations", "acct_apparent"),
                           ("expand_code", "acct_explicit")):
        code, out, _ = run(["transport", BANK, "--morphism", morphism,
                            "--spec", "acct_decorated"], capsys)
        assert code == 0
        moved = dsl.parse(out, env=env)[0]
        assert moved.realization == golden[want].realization


def test_transport_mismatched_pair_exits_two(capsys):
    code, _, err = run(["transport", BANK, "--morphism",
                        "forget_decorations", "--spec", "acct_explicit"],
                       capsys)
    assert code == 2
    assert "lives over" in err


def test_yoneda_and_transport_write_then_print_json(tmp_path, capsys):
    for argv, name in (
            (["yoneda", MP, "For", "--sketch", "mp_sp"], "y_For"),
            (["transport", BANK, "--morphism", "expand_code", "--spec",
              "acct_decorated"], "acct_decorated_along_expand_code")):
        code, out, _ = run(argv + ["--out", str(tmp_path), "--format",
                                   "json"], capsys)
        assert code == 0
        wrote, doc = out.split("\n", 1)
        path = tmp_path / f"{name}.sk"
        assert wrote == f"wrote {path}"
        written = dsl.parse_path(path)[-1]
        assert written.name == name
        assert doc == dsl.serialize_json(written) + "\n"


def test_corpus_copy(tmp_path, capsys):
    code, out, _ = run(["corpus", "--out", str(tmp_path)], capsys)
    assert code == 0
    names = sorted(p.name for p in tmp_path.glob("*.sk"))
    assert names == ["bank.sk", "graph.sk", "magma.sk", "mp.sk"]
    code, _, _ = run(["validate", str(tmp_path / "mp.sk")], capsys)
    assert code == 0


def test_selector_needed_when_ambiguous(capsys):
    code, _, err = run(["check-real", BANK], capsys)
    assert code == 2
    assert "several" in err
