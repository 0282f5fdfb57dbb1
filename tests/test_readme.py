"""The README's command examples, run through the CLI.

Every line of the README that starts with "$ metric-lines" is a command,
and ends with "# exit N", the exit code it gives.  Each runs through
cli.main, in order, in a fresh directory, with paths into the repository
made absolute, so the README cannot drift from the CLI.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from metriclines.cli import _build_parser, main

ROOT = Path(__file__).resolve().parents[1]
COMMAND = re.compile(r"^\$ metric-lines (.*?)\s+# exit (\d)$")


def readme_commands() -> list[tuple[list[str], int]]:
    commands = []
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("$ metric-lines"):
            match = COMMAND.match(line)
            assert match, f"no exit code stated: {line}"
            commands.append((shlex.split(match[1]), int(match[2])))
    return commands


def test_every_verb_and_exit_code_has_an_example():
    commands = readme_commands()
    verbs = {_build_parser().parse_known_args(argv)[0].verb for argv, _ in commands}
    assert verbs == {"lines", "triples", "hyperlines", "check", "construct", "search", "scan", "metrizable"}
    assert {code for _, code in commands} == {0, 1, 2, 3}


def test_examples_exit_as_stated(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, code in readme_commands():
        args = [str(ROOT / t) if t.startswith("tests/") else t for t in argv]
        assert main(args) == code, " ".join(argv)
        capsys.readouterr()
