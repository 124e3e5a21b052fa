"""Static checks on the package source, with the standard library's ast."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "conformal"


def unused_imports(source: str) -> list:
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_unused_imports_are_found():
    src = ("from __future__ import annotations\n"
           "import numpy as np\nimport os.path\n"
           "from typing import Optional, List\nfrom .a import b, c\n"
           "__all__ = ['c']\n"
           "def f(x: List) -> None:\n    return np.sum(x)\n")
    assert unused_imports(src) == ["Optional", "b", "os"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
