"""The import boundary: each command executes only the modules it uses.

Every check runs in a fresh interpreter, because the test process itself
has long since executed every module.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modkit

ROOT = Path(__file__).resolve().parents[1]

#: Print which modkit modules are registered and executed, which numpy
#: modules are loaded, and which of ``dataclasses``, ``hashlib`` and
#: ``inspect`` are: text commands need none of them. A lazily registered module that has not executed is still of the
#: loader's module subclass; ``type()`` reads that without triggering the
#: load.
REPORT = """
print(json.dumps({
    "code": code,
    "registered": sorted(n for n in sys.modules if n.startswith("modkit.")),
    "executed": sorted(
        n[len("modkit."):] for n, m in sys.modules.items()
        if n.startswith("modkit.") and type(m) is types.ModuleType
    ),
    "numpy": sorted(n for n in sys.modules if n == "numpy" or n.startswith("numpy.")),
    "stdlib": sorted(n for n in ("dataclasses", "hashlib", "inspect") if n in sys.modules),
}))
"""

#: Import modkit and, given arguments, run ``main(argv)``; then REPORT.
PROBE = """
import json, sys, types
import modkit
code = 0
if len(sys.argv) > 1:
    from modkit.cli import main
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # --version exits through argparse
        code = exc.code
""" + REPORT

#: What the benchmark's BERT-side workflow does with the library, on the
#: dataset given: preprocess it in BERT mode, then measure and encode it
#: with an augmented WordPiece vocabulary; then REPORT.
BERT_PREP = """
import json, sys, types
from modkit import corpus, textprep, wordpiece
config = textprep.PreprocessConfig(emoji_mode=textprep.EmojiMode.BERT_DELIMITED)
texts = [
    " ".join(textprep.run_pipeline(text, config, source_id=cid).tokens)
    for cid, text, _ in corpus.load_dataset(sys.argv[1]).entries
]
vocab = wordpiece.augment_vocab(wordpiece.default_vocab(), [":skull:", "finna"])
code = int(not wordpiece.fragmentation_rate(texts, vocab).pieces_per_word > 0)
code += sum(len(wordpiece.wordpiece_encode(text, vocab)) < 2 for text in texts)
""" + REPORT

LIBRARY = ("_rng", "corpus", "textprep", "analytics", "vectorize", "wordpiece", "models", "evaluate")
#: Imported eagerly by ``modkit.cli``; they import nothing heavy.
EAGER = {"cli", "errors", "_atomic"}
#: Executed by every command that reads a dataset.
CORPUS = {"corpus", "_frozen", "_rng"}
#: Executed by ``eval``, which scores a trained run in plain Python.
SCORING = {"_resources", "textprep", "vectorize", "models", "evaluate"}
#: The standard modules a command loads of ``dataclasses``, ``hashlib`` and
#: ``inspect``: ``eval`` checks the run's files by their sha256.
STDLIB = {"eval": ["hashlib"], "eval_full": ["hashlib"]}

#: Every name ``modkit`` re-exports, by submodule: those it re-exported when
#: it imported its submodules eagerly, and ``rows``.
EXPORTED = {
    "corpus": (
        "Comment", "CommentTree", "Label", "LabeledDataset", "LexiconCategory", "LexiconEntry",
        "apply_labels", "balance", "dedupe", "flatten", "lexicon_flag", "load_dataset",
        "load_labels", "load_lexicon", "parse_comment_tree", "save_dataset", "split",
    ),
    "textprep": (
        "EmojiMode", "LemmaDictionary", "PreprocessConfig", "Step",
        "TokenStream", "encode_emojis", "lemmatize", "lowercase", "normalize_emoticons",
        "remove_punctuation", "remove_stopwords", "run_pipeline", "tokenize",
    ),
    "analytics": (
        "CloudWeights", "EmojiStats", "LengthHistogram", "NgramTable", "cloud_weights",
        "emoji_stats", "export_chart_data", "length_histogram", "ngram_counts",
    ),
    "vectorize": (
        "CSRMatrix", "TfidfModel", "fit", "load_tfidf", "rows", "save_tfidf", "transform_all",
    ),
    "wordpiece": (
        "Encoding", "FragmentationRate", "WordPieceVocab", "augment_vocab", "fragmentation_rate",
        "load_vocab", "wordpiece_encode",
    ),
    "models": (
        "LRModel", "NBModel", "RunConfig", "TrainReport", "TrainedArtifacts", "load_model",
        "predict_lr", "predict_nb", "run_cycles", "save_model", "train_lr", "train_nb",
    ),
    "evaluate": (
        "ConfusionMatrix", "MetricsReport", "confusion", "load_reference_scores", "metrics",
        "render_json", "render_text_table",
    ),
}


def python(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True, timeout=120,
    )


def probe(cwd: Path, *argv: str, script: str = PROBE) -> dict:
    proc = python("-c", script, *argv, cwd=cwd)
    assert proc.returncode == 0, proc.stderr[-2000:]
    state = json.loads(proc.stdout.splitlines()[-1])
    assert state["code"] == 0, proc.stderr[-2000:]
    return state


@pytest.fixture(scope="module")
def states(tmp_path_factory, separable_paths) -> dict[str, dict]:
    """Probe state after each command of one small ingest-to-train run."""
    work = tmp_path_factory.mktemp("imports")
    trees, labels = separable_paths
    dataset, balanced = str(work / "dataset.json"), str(work / "balanced.json")
    commands = {
        "import": [],
        "ingest": ["ingest", *map(str, trees), "--labels", str(labels), "--out", dataset],
        "balance": ["balance", "--dataset", dataset, "--out", balanced],
        "analyze": ["analyze", "--dataset", balanced, "--out", str(work / "charts")],
        "report": ["report", "--reference", "--out", str(work / "report")],
        "version": ["--version"],
        "train": ["train", "--dataset", balanced, "--out", str(work / "runs")],
        "train_lr": ["train", "--dataset", balanced, "--out", str(work / "runs_lr"), "--model", "lr"],
    }
    states = {name: probe(work, *argv) for name, argv in commands.items()}
    for name, runs in (("train", "runs"), ("train_lr", "runs_lr")):
        (run_dir,) = (work / runs).iterdir()
        states[name]["manifest"] = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    (run_dir,) = (work / "runs").iterdir()
    states["eval"] = probe(work, "eval", "--run", str(run_dir), "--dataset", balanced)
    states["eval_full"] = probe(
        work, "eval", "--run", str(run_dir), "--dataset", dataset, "--full", "--out", str(work / "full")
    )
    states["bert_prep"] = probe(work, balanced, script=BERT_PREP)
    return states


@pytest.mark.parametrize(
    "command, executed",
    [
        ("import", set()),
        ("ingest", EAGER | CORPUS),
        ("balance", EAGER | CORPUS),
        ("analyze", EAGER | CORPUS | {"_resources", "textprep", "analytics"}),
        ("report", EAGER | CORPUS | {"_resources", "evaluate"}),
        ("version", EAGER),
        ("bert_prep", {"errors", "_atomic"} | CORPUS | {"_resources", "textprep", "wordpiece"}),
        ("eval", EAGER | CORPUS | SCORING),
        ("eval_full", EAGER | CORPUS | SCORING),
    ],
)
def test_command_executes_only_what_it_uses(states, command, executed):
    state = states[command]
    assert set(state["executed"]) == executed
    assert state["numpy"] == []
    assert state["stdlib"] == STDLIB.get(command, [])


@pytest.mark.parametrize("command", ["train", "eval"])
def test_train_and_eval_load_no_dataclasses(states, command):
    assert set(states[command]["stdlib"]) <= {"hashlib", "inspect"}


def test_train_executes_models_and_vectorize(states):
    """``train`` trains NB by default, in plain Python: it loads no numpy."""
    state = states["train"]
    assert {"models", "vectorize"} <= set(state["executed"])
    assert state["numpy"] == []


def test_train_lr_loads_numpy(states):
    state = states["train_lr"]
    assert {"models", "vectorize"} <= set(state["executed"])
    assert "numpy" in state["numpy"]


def test_manifest_records_numpy_only_when_the_run_loaded_it(states):
    """An NB run loads no numpy and records ``"numpy": null``; an LR run
    records the numpy it ran on."""
    import numpy as np

    assert states["train"]["manifest"]["numpy"] is None
    record = states["train_lr"]["manifest"]["numpy"]
    assert record["version"] == np.__version__ and record["simd"]


def test_import_registers_every_library_module(states):
    assert states["import"]["registered"] == sorted(f"modkit.{name}" for name in LIBRARY)


@pytest.mark.parametrize("submodule", sorted(EXPORTED))
def test_exported_names_are_the_submodule_attributes(submodule):
    module = getattr(modkit, submodule)
    listed = dir(modkit)
    for name in EXPORTED[submodule]:
        assert getattr(modkit, name) is getattr(module, name), name
        assert name in listed and name in modkit.__all__, name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        modkit.no_such_name  # noqa: B018


def test_version_runs_clean_under_warnings_as_errors(tmp_path):
    proc = python("-W", "error", "-m", "modkit.cli", "--version", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"modkit {modkit.__version__}"
    assert proc.stderr == ""
