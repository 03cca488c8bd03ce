"""Every module of the package uses each name it imports.

No linter ships with the toolchain, so the standard library's ast does the
check.  __init__.py is exempt: its imports are the public API.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ktangle"


def _unused_imports(text: str) -> list:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(text)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_check_finds_an_unused_import():
    text = "import os\nimport numpy.linalg\nfrom .core import a, b as c\nnumpy.linalg.eigh(a)\n"
    assert _unused_imports(text) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
