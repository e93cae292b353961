"""The package surface: no runtime dependencies, since every absolute
import in src/tjspectra names a standard-library module, and exactly the
public names listed below exported from `tjspectra`."""

import ast
import sys
from pathlib import Path
from types import ModuleType

import pytest

import tjspectra

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


def test_package_exports_exactly_these_names():
    exported = {name for name, value in vars(tjspectra).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == {
        "Spectrum", "SubsetStats", "make_spectrum", "stats_of_values", "subset_stats",
        "FAMILIES", "BrieskornParams", "PuiseuxParams", "SwhParams", "ThreeMonomialParams",
        "TjurinaInstance", "brieskorn_instance", "puiseux_instance", "puiseux_spectrum",
        "swh_instance", "three_monomial_instance",
        "CandidateRecord", "EnumerationResult", "Thm31Verdict", "closed_form_tau_delta_322",
        "enumerate_candidates", "mple_failure_bound", "prop41_step", "remark32_compare",
        "thm31_verdict",
        "Poly", "jacobian", "parse_poly",
        "StdBasisResult", "colength_oracle", "local_std_basis", "milnor", "tjurina",
        "decimal_str", "format_ratio",
    }
