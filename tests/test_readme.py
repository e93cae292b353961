"""Every `tjspectra ...` line in README's "CLI usage" block runs and exits 0,
and the "Library example" block prints what its comments say, so the
documented command lines and fields cannot drift from the code."""

import os
import shlex
from contextlib import redirect_stdout
from io import StringIO

import pytest

from tjspectra import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_block(heading, fence):
    with open(README) as fh:
        text = fh.read()
    return text.split(f"## {heading}", 1)[1].split(f"```{fence}\n", 1)[1].split("```", 1)[0]


def readme_command_lines():
    return [shlex.split(line)[1:] for line in readme_block("CLI usage", "sh").splitlines()
            if line.startswith("tjspectra ")]


def test_readme_documents_every_subcommand():
    documented = {argv[0] for argv in readme_command_lines()}
    assert documented == {"spectrum", "check", "enumerate", "sweep", "milnor", "tjurina",
                          "verify"}


@pytest.mark.parametrize("argv", readme_command_lines(), ids=" ".join)
def test_readme_command_line_exits_0(capsys, argv):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out


def test_readme_library_example_prints_its_comments():
    block = readme_block("Library example", "python")
    expected = [line.split("# ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    buf = StringIO()
    with redirect_stdout(buf):
        exec(block, {})
    assert expected and buf.getvalue().splitlines() == expected
