"""The README's examples run: each CLI line exits 0, and the library block
executes."""

import re
import shlex
from pathlib import Path

from tverlab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(section: str, language: str) -> str:
    """The first ``language`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def cli_commands():
    """Each ``tverlab`` command of the CLI block, continuations joined and
    comments dropped."""
    text = fenced_block("CLI", "sh").replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in text.splitlines()]
    return [argv for argv in commands if argv]


def test_cli_examples_exit_0(tmp_path, monkeypatch):
    # in order: later lines read the files earlier ones write
    monkeypatch.chdir(tmp_path)
    commands = cli_commands()
    assert len(commands) == 18
    for argv in commands:
        assert argv[0] == "tverlab", argv
        assert main(argv[1:]) == 0, argv


def test_library_example_runs():
    exec(fenced_block("Library", "python"), {})
