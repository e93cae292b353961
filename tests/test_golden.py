"""Exact stdout of `spectrum` and `check`, one instance of every family, of
a Puiseux and an swh drop-max `sweep`, of `check` on swh(300,299,1,1) at
scale (mu = 89102, L = 89700), and of `enumerate` and `verify`, pinned
against files in tests/golden/.  `spectrum` and `check` with
`--cross-check` must print the same file as without it, and a fresh
process must print the swh(300,299,1,1) file within 20 s.

The family files were written by the CLI before the family table replaced
the per-family code in `cli.py`, the `enumerate` and `verify` files
before those commands read the statistics fields directly, and the
swh(300,299,1,1) file before the statistics and the swh value-sum check ran
on the spectrum's integer numerators; any byte of difference is a
regression.
"""

import os
import subprocess
import sys

import pytest

from tjspectra import cli

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

FAMILY_FLAGS = {
    "brieskorn": ["--a", "5", "--b", "4"],
    "swh": ["--a", "7", "--b", "7", "--c", "1", "--d", "1"],
    "three-monomial": ["--a", "2", "--b", "4", "--c", "7", "--d", "6"],
    "puiseux": ["--a", "3", "--b", "2", "--d", "2", "--q", "1", "--r", "1"],
}
CROSS_CHECK = "-cross-check"

GOLDEN = {f"{command}-{family}{suffix}": [command, family] + flags + extra
          for command in ("spectrum", "check") for family, flags in FAMILY_FLAGS.items()
          for suffix, extra in (("", []), (CROSS_CHECK, ["--cross-check"]))}
GOLDEN["sweep-puiseux-drop-max"] = ["sweep", "puiseux", "--a", "3", "--b", "2", "--d", "2",
                                    "--q=-1:9", "--r", "1", "--subset", "drop-max",
                                    "--format", "json"]
GOLDEN["sweep-swh-drop-max"] = ["sweep", "swh", "--a", "47:48", "--b", "47:48", "--c", "1:2",
                                "--d", "1", "--subset", "drop-max"]
GOLDEN["check-swh-300-299"] = ["check", "swh", "--a", "300", "--b", "299", "--c", "1", "--d", "1"]
GOLDEN["enumerate-x7-y7"] = ["enumerate", "--poly", "x^7+y^7", "--slack", "10"]
GOLDEN["verify"] = ["verify"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_is_byte_identical(capsys, name):
    assert cli.main(GOLDEN[name]) == 0
    with open(os.path.join(GOLDEN_DIR, f"{name.removesuffix(CROSS_CHECK)}.txt")) as fh:
        assert capsys.readouterr().out == fh.read()


@pytest.mark.parametrize("name", ["check-swh-300-299"])
def test_a_fresh_process_prints_the_golden_file_within_20_s(name):
    r = subprocess.run([sys.executable, "-m", "tjspectra.cli"] + GOLDEN[name],
                       capture_output=True, text=True, timeout=20)
    with open(os.path.join(GOLDEN_DIR, f"{name}.txt")) as fh:
        assert (r.returncode, r.stdout, r.stderr) == (0, fh.read(), "")
