"""The README's examples run: each CLI line exits 0, and the library block
executes.  The CLI block also drives the check of every subcommand's global
flags and record tags."""

import argparse
import json
import re
import shlex
from pathlib import Path

from tverlab.cli import build_parser, main

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


#: the subcommands that read --budget, and the ones that refuse --seed
BUDGET_READERS = {"search-c", "tolerance"}
SEED_REFUSERS = {"verify"}


def test_flags_and_tags_of_every_subcommand(tmp_path, monkeypatch, capsys):
    # every subcommand build_parser() registers has an example in the CLI
    # block, which runs as is, with --budget 0 and with --seed 7: --budget
    # exits 2 exactly where the command does not read it, --seed exits 2
    # only with verify and is echoed by every other record, and each record
    # names its subcommand, the closing one of a scan with "-summary"
    (action,) = [a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    monkeypatch.chdir(tmp_path)
    covered = set()
    for argv in cli_commands():
        sub = next(arg for arg in argv if arg in action.choices)
        covered.add(sub)
        for probe in ([], ["--budget", "0"], ["--seed", "7"]):
            code = main(argv[1:] + probe)
            out, err = capsys.readouterr()
            refused = (probe[:1] == ["--budget"] and sub not in BUDGET_READERS
                       or probe[:1] == ["--seed"] and sub in SEED_REFUSERS)
            if refused:
                assert (code, out, err) == (2, "", f"input error: {sub} takes no {probe[0]}\n")
                continue
            assert f"{sub} takes no" not in err, (argv, probe)
            if probe[:1] == ["--budget"]:
                continue  # a tolerance mode may refuse it, or a scan run out of it
            records = [json.loads(line) for line in out.splitlines()]
            assert code == 0 and records, (argv, probe)
            assert {rec["command"] for rec in records[:-1]} <= {sub}
            assert records[-1]["command"] in (sub, f"{sub}-summary")
            if probe:
                assert all(rec["seed"] == 7 for rec in records)
    assert covered == set(action.choices)


def test_library_example_runs():
    exec(fenced_block("Library", "python"), {})
