"""The package imports only the standard library, numpy and itself, and no
module of it imports a private name of another.

`pyproject.toml` declares numpy alone; a module installed where the tests
happen to run (scipy, sympy, networkx, ...) would pass here and fail on a
clean install.  A name with a leading underscore is internal to its module;
the shared GF(2) helpers live in `_bits`, whose names carry none."""

import ast
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parents[1] / "src" / "perfcode"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "perfcode"}


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(SOURCES.glob("*.py"))
    assert len(sources) > 5
    undeclared = {
        f"{path.name}: {root}" for path in sources for root in _imported_roots(path) - ALLOWED
    }
    assert not undeclared, f"undeclared imports: {sorted(undeclared)}"


def test_no_private_cross_module_imports():
    private = set()
    for path in sorted(SOURCES.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("perfcode")):
                private.update(
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert not private, f"private names imported across modules: {sorted(private)}"
