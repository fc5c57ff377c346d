"""README's CLI block runs, and its suite table names exactly the CLI's
suites, so the user's page cannot drift from the program."""

import re
import shlex
from pathlib import Path

import pytest

from vexpf import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def cli_lines() -> list:
    """The `vexpf ...` lines of the shell block under "## CLI"."""
    section = README.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("vexpf ")]


def test_the_block_has_every_command():
    assert len(cli_lines()) == 9
    assert {shlex.split(line)[1] for line in cli_lines()} == {"schubert", "vexillary", "enumerate", "verify"}


@pytest.mark.parametrize("line", cli_lines())
def test_each_cli_line_exits_0(line, capsys):
    argv = shlex.split(line, comments=True)[1:]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


def test_the_suite_table_names_every_suite_once():
    table = README.split("\n## What each suite checks\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\|.*\| `([a-z0-9-]+)` \|$", table, re.MULTILINE)
    assert len(names) == len(set(names))
    assert set(names) == set(cli.SUITES)
