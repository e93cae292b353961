"""Every `tjspectra ...` line in README's "CLI usage" block runs and exits 0,
so the documented command lines cannot drift from the CLI."""

import os
import shlex

import pytest

from tjspectra import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_command_lines():
    with open(README) as fh:
        text = fh.read()
    block = text.split("## CLI usage", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("tjspectra ")]


def test_readme_documents_every_subcommand():
    documented = {argv[0] for argv in readme_command_lines()}
    assert documented == {"spectrum", "check", "enumerate", "sweep", "milnor", "tjurina",
                          "verify"}


@pytest.mark.parametrize("argv", readme_command_lines(), ids=" ".join)
def test_readme_command_line_exits_0(capsys, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out
