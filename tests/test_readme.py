"""The README's examples: its first shell session and its Python blocks."""

import re
import shlex
from pathlib import Path

from digitsquares.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def test_first_shell_session_prints_what_the_readme_shows(capsys, tmp_path,
                                                          monkeypatch):
    session = next(body for _, body in BLOCKS
                   if body.startswith("$ digitsquares "))
    monkeypatch.chdir(tmp_path)
    # each "$ digitsquares ..." line is followed by exactly what it prints
    steps = re.findall(r"^\$ digitsquares (.*)\n((?:(?!\$ ).*\n)*)", session,
                       re.M)
    assert len(steps) == 2
    for command, shown in steps:
        assert main(shlex.split(command)) == 0
        assert capsys.readouterr().out == shown


def test_python_blocks_run():
    code = [body for lang, body in BLOCKS if lang == "python"]
    assert len(code) == 2
    namespace = {}
    # the second block continues from the square the first one built
    for body in code:
        exec(body, namespace)
