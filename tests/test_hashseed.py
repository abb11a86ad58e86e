"""Every artifact is independent of Python's string-hash seed."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

LEXICON = "gatek\tderogatory\nmorif mirov\twatchword\nbagud\tthreatening\nnivom\tdiscriminatory\n"


def run_pipeline(work: Path, hash_seed: str, separable_paths) -> dict[str, bytes]:
    """ingest --lexicon, balance, analyze and a two-cycle NB train in
    fresh subprocesses under one ``PYTHONHASHSEED``; returns every
    artifact's bytes by path relative to ``work``."""
    trees, labels = separable_paths
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": hash_seed}
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    (work / "lexicon.tsv").write_text(LEXICON, encoding="utf-8")
    dataset, balanced = work / "dataset.json", work / "balanced.json"
    commands = [
        ["ingest", *map(str, trees), "--labels", str(labels),
         "--lexicon", str(work / "lexicon.tsv"), "--out", str(dataset)],
        ["balance", "--dataset", str(dataset), "--seed", "3", "--out", str(balanced)],
        ["analyze", "--dataset", str(dataset), "--out", str(work / "charts")],
        ["train", "--dataset", str(balanced), "--out", str(work / "runs"),
         "--model", "nb", "--cycles", "2", "--seed", "5"],
    ]
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "modkit.cli", *argv],
            cwd=work, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
    (run_dir,) = (work / "runs").iterdir()
    artifacts = [dataset, balanced, work / "dataset_lexicon_hits.json"]
    artifacts += sorted((work / "charts").glob("*.csv"))
    artifacts += [run_dir / name for name in ("tfidf.json", "model.json", "train_report.json")]
    return {str(path.relative_to(work)): path.read_bytes() for path in artifacts}


def test_artifacts_identical_under_two_hash_seeds(tmp_path, separable_paths):
    work = tmp_path / "work"
    first = run_pipeline(work, "0", separable_paths)
    second = run_pipeline(work, "1", separable_paths)
    assert len(first) == 3 + 9 + 3
    assert b"morif mirov" in first["dataset_lexicon_hits.json"]
    for name in first:
        assert first[name] == second[name], name
