"""Static checks of the library source, with the stdlib ``ast`` only.

``__init__.py`` is left out of the import check and of the readers of
the public-definition check: the names it imports and lists are its
exports.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "modkit").glob("*.py"))
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


def read_names(trees: Iterable[ast.Module]) -> set[str]:
    """Every name the trees read by name, by attribute or in an import."""
    referenced = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.alias):
            referenced.add(node.name)
    return referenced


def definitions(tree: ast.Module) -> list[str]:
    """The names of a module's module-level functions and classes."""
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """Each private module-level function or class, as ``module: name``,
    that no source reads by name, by attribute or in an import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = read_names(trees.values())
    return [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in definitions(tree)
        if name.startswith("_") and not name.startswith("__") and name not in referenced
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


def unread_public_definitions(sources: dict[str, str], readers: Iterable[str]) -> list[str]:
    """Each public module-level function or class of ``sources``, as
    ``module: name``, that no source of ``readers`` reads by name, by
    attribute or in an import."""
    referenced = read_names(map(ast.parse, readers))
    return [
        f"{module}: {name}"
        for module, source in sources.items()
        for name in definitions(ast.parse(source))
        if not name.startswith("_") and name not in referenced
    ]


def test_finds_an_unread_public_definition():
    sources = {"a": "def dead(): pass\ndef called(): pass\nclass Imported: pass\ndef _p(): pass\n"}
    readers = ["from a import Imported\n", "import a\na.called()\n"]
    assert unread_public_definitions(sources, readers) == ["a: dead"]


def test_every_public_definition_has_a_reader():
    """A public function or class of the library is read by the library
    itself, a demo, a tool, the benchmark or the acceptance oracles; one
    that only its own tests read is dead surface."""
    readers = [
        *SOURCES,
        *(ROOT / "demos").rglob("*.py"),
        *(ROOT / "tools").rglob("*.py"),
        *(ROOT / "perfbench").rglob("*.py"),
        ROOT / "tests" / "test_acceptance.py",
    ]
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    readers_text = [path.read_text(encoding="utf-8") for path in readers]
    assert unread_public_definitions(sources, readers_text) == []


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
