"""The package has no runtime dependencies: every absolute import in
src/tjspectra names a standard-library module."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tjspectra"
MODULES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_modules_found():
    assert PACKAGE / "localg.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = {name for name in absolute_imports(path)
               if name.split(".")[0] not in sys.stdlib_module_names}
    assert not outside
