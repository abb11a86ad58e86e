from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))

DATA_DIR = TESTS_DIR / "data"


@pytest.fixture
def table_lookups(monkeypatch) -> list[str]:
    """The key of every data-table lookup made while the test runs."""
    from modkit import _resources

    lookups: list[str] = []
    cached = _resources.cached
    monkeypatch.setattr(
        _resources, "cached", lambda key, loader: lookups.append(key) or cached(key, loader)
    )
    return lookups


@pytest.fixture
def stop_list_dir(tmp_path, monkeypatch):
    """``stop_list_dir(content)``: point ``MODKIT_DATA_DIR`` at a new copy
    of the bundled tables whose ``stopwords.txt`` holds ``content`` (text
    or bytes), and return that directory. Each call makes a directory of
    its own, since a process caches a directory's tables."""
    from modkit import _resources

    made: list[Path] = []

    def make(content: str | bytes) -> Path:
        tables = tmp_path / f"tables_{len(made)}"
        shutil.copytree(_resources._BUNDLED, tables)
        raw = content.encode("utf-8") if isinstance(content, str) else content
        (tables / "stopwords.txt").write_bytes(raw)
        monkeypatch.setenv(_resources.ENV_VAR, str(tables))
        made.append(tables)
        return tables

    return make


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def fixture10_paths(data_dir: Path) -> tuple[Path, Path]:
    return data_dir / "fixture10_tree.json", data_dir / "fixture10_labels.json"


@pytest.fixture(scope="session")
def separable_paths(data_dir: Path) -> tuple[list[Path], Path]:
    trees = sorted(data_dir.glob("separable_tree_*.json"))
    return trees, data_dir / "separable_labels.json"


@pytest.fixture(scope="session")
def slang_corpus(data_dir: Path) -> list[str]:
    return (data_dir / "slang_corpus.txt").read_text(encoding="utf-8").splitlines()
