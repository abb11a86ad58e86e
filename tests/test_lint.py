"""Static checks of the library source, with the stdlib ``ast`` only.

``__init__.py`` is left out: the names it imports are its exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path
    for path in (Path(__file__).resolve().parents[1] / "src" / "modkit").glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Each name an import binds that the module never reads, as ``line: name``."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.partition(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in bound.items() if name not in used]


def test_finds_an_unused_import():
    source = "import os\nimport os.path as osp\nfrom sys import argv, exit as quit\nquit(argv)\n"
    assert unused_imports(source) == ["1: os", "2: osp"]
    assert unused_imports("from __future__ import annotations\nimport re\nx: re.Pattern\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
