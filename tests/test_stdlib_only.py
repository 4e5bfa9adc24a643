"""The package imports nothing outside the standard library: every absolute
import in a module under ``src/fuzzint`` names a standard-library module
or ``fuzzint`` itself.  Parsed with ``ast``, so nothing is imported."""

import ast
import sys
from pathlib import Path

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
