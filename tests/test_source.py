"""Properties of the package source itself."""

import ast
from pathlib import Path

import slinv

PACKAGE = Path(slinv.__file__).parent
# the rational homology oracle and its private linear algebra
ORACLE = {"homology", "_linalg"}


def test_the_package_has_no_assert_statements():
    """Invariants raise typed errors, because `python -O` strips asserts."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _import_sites(tree: ast.Module):
    """(owner, statement) for each import in `tree`: owner is the name of
    the module-level function the import sits in, or None outside them."""
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield owner, node


def _loaded(node: ast.Import | ast.ImportFrom) -> set[str]:
    """The top-level module names, taken relative to slinv, that an import
    statement loads: {"homology"} for `from .homology import State` and for
    `from . import homology`, {"fractions"} for `from fractions import ...`."""
    if isinstance(node, ast.ImportFrom) and node.module not in (None, "slinv"):
        names = [node.module]
    else:
        names = [alias.name for alias in node.names]
    return {name.removeprefix("slinv.").split(".")[0] for name in names}


def test_the_fast_path_imports_no_oracle():
    """No fast path may check itself: the integer modules never import the
    oracle, apart from a module-level __getattr__ that forwards old names
    to it on first use; cli loads it only inside a function (`states
    --dump`); and ribbon and diagram do no Fraction arithmetic at all."""
    found = []
    for name in ("diagram.py", "ribbon.py", "invariants.py", "poly.py", "cli.py"):
        for owner, node in _import_sites(ast.parse((PACKAGE / name).read_text())):
            loaded = _loaded(node)
            lazy = owner is not None if name == "cli.py" else owner == "__getattr__"
            if loaded & ORACLE and not lazy:
                found.append(f"{name}:{node.lineno} imports {sorted(loaded & ORACLE)}")
            if "fractions" in loaded and name in ("diagram.py", "ribbon.py"):
                found.append(f"{name}:{node.lineno} imports fractions")
    assert found == []
