"""Static checks of the library source, with the stdlib ``ast`` only.

``__init__.py`` is left out of the import check: the names it imports
are its exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "modkit").glob("*.py"))
SOURCES = [path for path in PACKAGE if path.name != "__init__.py"]


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


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """Each private module-level function or class, as ``module: name``,
    that no source reads by name, by attribute or in an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.alias):
            referenced.add(node.name)
    return [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]


def test_finds_an_unreferenced_private_definition():
    sources = {
        "a": "def _dead(): pass\ndef _called(): pass\nclass _Imported: pass\ndef public(): _called()\n",
        "b": "from a import _Imported\nimport a\na._by_attribute\n",
        "c": "def _by_attribute(): pass\ndef __dunder__(): pass\n",
    }
    assert unreferenced_private_definitions(sources) == ["a: _dead"]


def test_no_unreferenced_private_definitions():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unreferenced_private_definitions(sources) == []


def misplaced_pipeline_calls(name: str, source: str) -> list[int]:
    """The line of each ``run_pipeline`` call in the module file ``name``
    when that file is not ``textprep.py``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "run_pipeline"
        and name != "textprep.py"
    ]


def test_finds_a_pipeline_call_outside_textprep():
    source = "run_pipeline(chunk, *self.binding)\nx = textprep.run_pipeline(text, config)\n"
    assert misplaced_pipeline_calls("textprep.py", source) == []
    assert misplaced_pipeline_calls("models.py", source) == [1, 2]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_dataset_preprocessing_binds_tables_and_a_memo(path):
    """The library preprocesses a dataset only through a
    :class:`ChunkMemo`, which binds its tables when it is made, so no
    ``run_pipeline`` call is outside ``textprep.py``."""
    assert misplaced_pipeline_calls(path.name, path.read_text(encoding="utf-8")) == []
