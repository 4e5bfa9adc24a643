"""The package imports nothing outside the standard library: every absolute
import in a module under ``src/fuzzint`` names a standard-library module
or ``fuzzint`` itself.  Parsed with ``ast``, so nothing is imported.  Nor
does it import ``dataclasses`` or ``fractions``, directly or through
another module."""

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fuzzint.monoid import builtin_chain

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fuzzint"


def _absolute_imports(path: Path):
    """(line, top-level module name) of each absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules, f"no modules under {PACKAGE}"
    allowed = sys.stdlib_module_names | {"fuzzint"}
    outside = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in modules
        for line, name in _absolute_imports(path)
        if name not in allowed
    ]
    assert outside == []


def test_package_imports_neither_dataclasses_nor_fractions():
    # both cost a cold command several milliseconds of set-up
    heavy = {"dataclasses", "fractions"}
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in _absolute_imports(path)
        if name in heavy
    ]
    assert found == []


def test_cli_import_loads_neither_dataclasses_nor_fractions():
    # a fresh interpreter, so a standard-library module that imports either
    # one in turn is caught too
    code = "import sys, fuzzint.cli; print(sorted({'dataclasses', 'fractions'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("kind", ["godel", "lukasiewicz"])
def test_chain_names_are_the_fractions_of_their_ranks(kind):
    for n in range(2, 13):
        assert builtin_chain(kind, n).lattice.elements == tuple(str(Fraction(i, n - 1)) for i in range(n))
