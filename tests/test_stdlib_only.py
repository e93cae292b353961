"""The package surface: no runtime dependencies, since every absolute
import in src/tjspectra names a standard-library module, exactly the
public names listed below exported from `tjspectra`, exactly the exception
classes listed below defined in `tjspectra.errors`, and no standard-library
module loaded at start-up that the CLI does not need."""

import ast
import pickle
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import tjspectra
from tjspectra import errors

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


def test_errors_defines_exactly_these_classes():
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and value.__module__ == errors.__name__}
    assert defined == {
        "TjspectraError", "InvalidFamilyParameters", "PolySyntaxError",
        "InternalConsistencyError",
    }


ERROR_CLASSES = [value for value in vars(errors).values()
                 if isinstance(value, type) and value.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_every_error_class_survives_pickling(cls):
    # sweep --jobs passes a worker's exception back through pickle
    exc = cls("expected a natural number", 2) if cls is errors.PolySyntaxError else cls("bad")
    again = pickle.loads(pickle.dumps(exc))
    assert (type(again), str(again), vars(again)) == (cls, str(exc), vars(exc))


def imported_modules(*args):
    """The modules a fresh interpreter run with these arguments imports, by
    the names that -X importtime reports, less those a bare start imports."""
    def names(*argv):
        err = subprocess.run([sys.executable, "-X", "importtime", *argv],
                             capture_output=True, text=True, check=True).stderr
        return {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
                if line.startswith("import time:") and "imported package" not in line}
    return names(*args) - names("-c", "pass")


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    loaded = imported_modules("-c", "import tjspectra.cli")
    assert "tjspectra.cli" in loaded
    assert not {"dataclasses", "inspect"} & loaded


def test_a_colength_call_loads_no_json():
    loaded = imported_modules("-m", "tjspectra.cli", "milnor", "--poly", "x^2+y^3")
    assert "tjspectra.localg" in loaded
    assert not {"json", "dataclasses", "inspect"} & loaded
