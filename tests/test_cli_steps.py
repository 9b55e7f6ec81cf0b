"""``apply`` and a one-step ``prove`` script take a step through one runner
and report it through one report, so they word a bad step alike."""

import json

import pytest

from limsketch.cli import corpus_dir, main

MP = str(corpus_dir() / "mp.sk")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_step(tmp_path, rule, element):
    script = tmp_path / "proof.txt"
    script.write_text(f"use {MP}\nspec mp_basic\nstep {rule} {element}\n")
    return str(script)


@pytest.mark.parametrize("rule, element, message", [
    ("c_MP", "zz", "no match at 'zz' for rule c_MP, so no unsatisfied "
                   "match there (matches: m0)"),
    ("MP,IM", "m0", "rule 'MP,IM' does not select exactly one rule"),
    ("c_", "m0", "rule 'c_' does not name exactly one of: c_IM, c_MP"),
    ("IM", "p_q", "redundant step: match p_q of rule c_IM is already "
                  "satisfied"),
])
def test_a_bad_step_reads_the_same_from_apply_and_prove(tmp_path, capsys,
                                                        rule, element,
                                                        message):
    code, _, err = run(["apply", MP, rule, element], capsys)
    assert (code, err) == (2, f"error: {message}\n")
    script = one_step(tmp_path, rule, element)
    code, _, err = run(["prove", script], capsys)
    assert (code, err) == (2, f"error: {script}:3: {message}\n")


def test_apply_and_a_one_step_proof_report_the_same_step(tmp_path, capsys):
    script = one_step(tmp_path, "MP", "m0")
    code, applied, _ = run(["apply", MP, "MP", "m0"], capsys)
    assert code == 0
    code, proved, _ = run(["prove", script], capsys)
    assert code == 0
    assert applied.startswith("applied c_MP at m0 (by-construction)\n")
    assert proved.startswith("proof of 1 step(s) (by-construction)\n")
    assert "add Theo" in applied
    assert applied.splitlines()[1:] == proved.splitlines()[1:]
    code, applied, _ = run(["apply", MP, "MP", "m0", "--format", "json"],
                           capsys)
    assert code == 0
    code, proved, _ = run(["prove", script, "--format", "json"], capsys)
    assert code == 0
    applied, proved = json.loads(applied), json.loads(proved)
    assert list(applied) == ["rule", "match", "certificate", "added"]
    assert list(proved) == ["steps", "certificate", "added"]
    assert applied["certificate"] == proved["certificate"]
    assert applied["added"] == proved["added"]
