from __future__ import annotations

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
