"""Every name a kopt_lab module imports is used in that module.

No linter ships with the package, so this test is the dead-import check.
`__init__.py` is skipped: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import kopt_lab

MODULES = sorted(p for p in Path(kopt_lab.__file__).parent.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict:
    """{bound name: line} for every import outside `from __future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    src = "import math\nfrom typing import Optional, Sequence\n\ndef f(x: Optional[int]):\n    return x\n"
    assert unused_imports(src) == [(1, "math"), (2, "Sequence")]


def test_checker_sees_attribute_and_annotation_uses():
    src = "import os.path\nfrom typing import List\n\ndef f(x: List[int]):\n    return os.path.sep\n"
    assert unused_imports(src) == []
