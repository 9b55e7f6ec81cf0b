"""How the command line reports a failure: one ``error:`` line, no traceback.

A ``RuntimeError`` of the library (a failed semantic check, such as a spec
that is not cone-valid) exits 1; a ``ValueError`` (bad input, such as an
invalid sketch morphism or a redundant proof step) exits 2.
"""

import json

import pytest

from limsketch import cli
from limsketch.cli import corpus_dir, main

MP = str(corpus_dir() / "mp.sk")
BANK = corpus_dir() / "bank.sk"
GRAPH = corpus_dir() / "graph.sk"

# mp_basic without the pair q_q of H_IM: the cone lim_H_IM has no apex
# element over (q, q), so no rule match has a classifying morphism
NOT_CONE_VALID = "".join(
    line for line in (corpus_dir() / "mp.sk").read_text().splitlines(True)
    if line.strip() not in ("elem q_q : H_IM", "act p1(q_q) = q",
                            "act p2(q_q) = q"))


def failure(argv, capsys, code):
    """Run ``argv``, expect exit ``code`` and one error line; return it."""
    got = main(argv)
    err = capsys.readouterr().err
    assert got == code, err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1, err
    return lines[0]


def test_apply_on_a_spec_that_is_not_cone_valid_exits_one(tmp_path, capsys):
    spec = tmp_path / "mp.sk"
    spec.write_text(NOT_CONE_VALID)
    line = failure(["apply", str(spec), "IM", "p_p"], capsys, 1)
    assert "cone-valid" in line


def test_prove_on_a_spec_that_is_not_cone_valid_exits_one(tmp_path,
                                                          capsys):
    (tmp_path / "mp.sk").write_text(NOT_CONE_VALID)
    script = tmp_path / "proof.txt"
    script.write_text("use mp.sk\nspec mp_basic\nstep MP m0\n")
    line = failure(["prove", str(script)], capsys, 1)
    assert "cone-valid" in line


def test_transport_along_an_invalid_morphism_exits_two(tmp_path, capsys):
    bank = tmp_path / "bank.sk"
    bank.write_text(BANK.read_text().replace("arr balance => balance_a",
                                             "arr balance => deposit_m"))
    line = failure(["transport", str(bank), "--morphism",
                    "forget_decorations", "--spec", "acct_decorated"],
                   capsys, 2)
    assert "invalid sketch morphism" in line


def test_prove_step_at_a_satisfied_match_exits_two(tmp_path, capsys):
    script = tmp_path / "proof.txt"
    script.write_text(f"use {MP}\nspec mp_basic\nstep IM p_q\n")
    line = failure(["prove", str(script)], capsys, 2)
    assert f"{script}:3:" in line
    assert "already satisfied" in line


def test_prove_reads_the_localiser_once(tmp_path, capsys, monkeypatch):
    calls = []
    read = cli.rules_of

    def counted(loc):
        calls.append(loc)
        return read(loc)

    monkeypatch.setattr(cli, "rules_of", counted)
    script = tmp_path / "proof.txt"
    script.write_text(f"use {MP}\nspec mp_basic\nstep MP m0\nstep IM p_p\n")
    assert main(["prove", str(script)]) == 0
    assert capsys.readouterr().out.startswith("proof of 2 step(s)")
    assert len(calls) == 1


def mp_with_two_localisers() -> str:
    """mp.sk with its localiser declared a second time, as mp_sigma2."""
    text = (corpus_dir() / "mp.sk").read_text()
    start = text.index("morphism mp_sigma ")
    block = text[start:text.index("\n}\n", start) + 3]
    return text + "\n" + block.replace("mp_sigma ", "mp_sigma2 ", 1)


@pytest.mark.parametrize("argv, files, message", [
    (["check-real", MP, "--spec", "x"], {},
     "no spec named 'x' in the given files"),
    (["check-real", "sketch_only.sk"],
     {"sketch_only.sk": GRAPH.read_text().split("spec path1")[0]},
     "the given files contain no spec"),
    (["saturate", str(GRAPH), "--rules", "c_MP"], {},
     "no morphism out of the spec's sketch was loaded, so no rules are "
     "available"),
    (["saturate", "two.sk"], {"two.sk": mp_with_two_localisers()},
     "several candidate localisers (mp_sigma, mp_sigma2); keep one in the "
     "loaded files"),
    (["validate", "notes.sk"], {"notes.sk": "// only a comment\n"},
     "nothing to validate in the given files"),
], ids=["no-spec-named", "no-spec", "no-localiser", "two-localisers",
        "nothing-to-validate"])
def test_cli_refusals_exit_two(argv, files, message, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert failure(argv, capsys, 2) == f"error: {message}"


def test_break_refuses_a_plan_naming_a_fresh_mono(tmp_path, capsys):
    argv = ["break", MP, "--sketch", "mp_theory", "--plan", "c_MP,h_c_MP",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        "error: cannot break 'h_c_MP': not a declared arrow\n"


@pytest.mark.parametrize("script, message", [
    (f"use {MP}\nstep MP m0\n", "{script}:2: step before any 'spec' line"),
    (f"use {MP}\nspec mp_basic\nfrobnicate now\n",
     "{script}:3: unrecognised line 'frobnicate now'"),
    (f"use {MP}\nspec mp_basic\n",
     "script must name a spec and apply at least one step"),
], ids=["step-first", "unrecognised", "no-step"])
def test_prove_script_refusals_exit_two(script, message, tmp_path, capsys):
    path = tmp_path / "proof.txt"
    path.write_text(script)
    assert failure(["prove", str(path)], capsys, 2) == \
        "error: " + message.format(script=path)


def test_corpus_lists_its_directory_and_files(capsys):
    files = ["bank.sk", "graph.sk", "magma.sk", "mp.sk"]
    assert main(["corpus"]) == 0
    assert capsys.readouterr().out.splitlines() == [str(corpus_dir()), *files]
    assert main(["corpus", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "dir": str(corpus_dir()), "files": files}
