"""Every module-level import in the package is used somewhere in its module,
and the test oracles in ``reference.py`` import nothing from the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "csit"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no expression and no
    ``__all__`` string refers to (``from __future__`` is exempt)."""
    tree = ast.parse(source)
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\n__all__ = ['f']\nnp.zeros(1)\n") == ["os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_reference_imports_no_package_code():
    tree = ast.parse((Path(__file__).resolve().parent / "reference.py").read_text())
    modules = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    ] + [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "csit"] == []
