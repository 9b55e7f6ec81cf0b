"""The README's command lines run as written in a copy of the corpus."""

import re
from pathlib import Path

from limsketch.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks():
    return re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(),
                      re.M | re.S)


def test_readme_command_lines_exit_zero(tmp_path, monkeypatch, capsys):
    blocks = fenced_blocks()
    monkeypatch.chdir(tmp_path)
    assert main(["corpus", "--out", "."]) == 0
    script = next(b for b in blocks if b.startswith("// closure.proof\n"))
    Path("closure.proof").write_text(script)
    commands = [line.removeprefix("$ ").split()[1:]
                for block in blocks for line in block.splitlines()
                if line.removeprefix("$ ").startswith("limsketch ")]
    assert ["prove", "closure.proof"] in commands
    for argv in commands:
        capsys.readouterr()
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 0, (argv, err)
        if argv[0] == "prove":
            assert out.startswith("proof of 2 step(s) (by-construction)\n")
