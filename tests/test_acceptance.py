"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints an ``ACCEPTANCE PASS: <criterion>`` line when it
succeeds; a failing criterion shows up as a normal pytest failure. Run
with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from modkit.analytics import emoji_stats, ngram_counts
from modkit.cli import main
from modkit.corpus import Label, LabeledDataset, balance
from modkit.evaluate import ConfusionMatrix, metrics
from modkit.models import lr_gradients, lr_loss, nb_log_joint, train_lr, train_nb
from modkit.textprep import (
    ALL_STEPS,
    EmojiMode,
    PreprocessConfig,
    Step,
    TokenStream,
    lemmatize,
    lowercase,
    remove_punctuation,
    remove_stopwords,
    run_pipeline,
    tokenize,
)
from modkit.wordpiece import augment_vocab, default_vocab, fragmentation_rate

from _fuzz import fuzz_texts
from _oracles import (
    brute_ngrams,
    brute_top_k,
    central_difference_gradient,
    metric_identities,
    nb_log_joint_oracle,
)
from _sparse import csr

SLANG_TOKENS = ["simp", "boomer", "cap"]
ALIAS_TOKENS = [
    ":face_with_tears_of_joy:",
    ":loudly_crying_face:",
    ":skull:",
    ":clown_face:",
    ":face_with_rolling_eyes:",
    ":fire:",
    ":thumbs_up:",
    ":red_heart:",
    ":pleading_face:",
    ":billed_cap:",
]


def passed(criterion: str) -> None:
    print(f"\nACCEPTANCE PASS: {criterion}")


def test_balanced_set_arithmetic():
    """2,034 + 75,650 labeled comments balance down to exactly 4,068."""
    entries = [(f"off{i:05d}", f"o {i}", Label.OFFENSIVE) for i in range(2034)]
    entries += [(f"not{i:05d}", f"n {i}", Label.NOT_OFFENSIVE) for i in range(75650)]
    dataset = LabeledDataset(entries=tuple(entries))
    started = time.perf_counter()
    balanced = balance(dataset, seed=42)
    elapsed = time.perf_counter() - started
    assert len(balanced) == 4068
    assert balanced.n_offensive == 2034
    assert balanced.n_not_offensive == 2034
    assert elapsed < 1.0, f"balance took {elapsed:.3f}s"
    passed("balanced-set arithmetic (2,034 + 75,650 -> 4,068 in < 1 s)")


def test_metric_formula_suite():
    """All five metrics satisfy their identities on 10,000 random
    matrices; the worked 337/55/70/352 example lands within 5e-5."""
    rng = np.random.default_rng(20230901)
    cells = rng.integers(0, 400, size=(10000, 4))
    for tp, fp, fn, tn in cells:
        tp, fp, fn, tn = int(tp), int(fp), int(fn), int(tn)
        if tp + fp + fn + tn == 0:
            tp = 1
        report = metrics(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
        expected = metric_identities(tp, fp, fn, tn)
        assert report.precision == expected["precision"]
        assert report.recall == expected["recall"]
        assert report.specificity == expected["specificity"]
        assert report.accuracy == expected["accuracy"]
        assert report.f1 == expected["f1"]
        for value in (report.f1, report.accuracy, report.precision, report.recall, report.specificity):
            assert 0.0 <= value <= 1.0
    worked = metrics(ConfusionMatrix(tp=337, fp=55, fn=70, tn=352))
    assert worked.precision == pytest.approx(0.8597, abs=5e-5)
    assert worked.recall == pytest.approx(0.8280, abs=5e-5)
    assert worked.f1 == pytest.approx(0.8436, abs=5e-5)
    passed("metric formula suite (10,000 matrices + worked example)")


def _weight_matrices(n_docs: int, n_terms: int, rng: random.Random):
    """All weight matrices over {0..3} when the grid is small; a dense
    seeded sample otherwise (the full 4^(docs*terms) grid is infeasible
    past six cells)."""
    cells = n_docs * n_terms
    if cells <= 6:
        for flat in itertools.product(range(4), repeat=cells):
            yield [flat[d * n_terms : (d + 1) * n_terms] for d in range(n_docs)]
    else:
        for _ in range(160):
            yield [[rng.randint(0, 3) for _ in range(n_terms)] for _ in range(n_docs)]


def test_nb_oracle_equivalence():
    """NB log-joints match exact-fraction counting on the small grid."""
    rng = random.Random(777)
    checked = 0
    for n_docs in (2, 3, 4):
        labelings = [
            labels
            for labels in itertools.product((0, 1), repeat=n_docs)
            if 0 < sum(labels) < n_docs
        ]
        for n_terms in (1, 2, 3, 4, 5):
            for matrix in _weight_matrices(n_docs, n_terms, rng):
                docs = [
                    {t: float(w) for t, w in enumerate(row) if w} for row in matrix
                ]
                labels = labelings[checked % len(labelings)]
                model = train_nb(
                    csr(docs, n_terms),
                    [Label.OFFENSIVE if v else Label.NOT_OFFENSIVE for v in labels],
                    alpha=1.0,
                )
                probe_pool = [d for d in docs if d] or [{0: 1.0}]
                probe = probe_pool[checked % len(probe_pool)]
                expected_not, expected_off = nb_log_joint_oracle(
                    docs, labels, 1.0, n_terms, probe
                )
                (got,) = nb_log_joint(model, csr([probe], n_terms))
                assert abs(got[0] - expected_not) < 1e-9
                assert abs(got[1] - expected_off) < 1e-9
                checked += 1
    assert checked > 10000
    passed(f"NB oracle equivalence ({checked} instances within 1e-9)")


def test_lr_gradient_check_and_loss_descent(separable_paths, fixture10_paths, tmp_path):
    """Analytic gradient vs central differences on 5x8 instances; loss
    never increases over 500 epochs on the bundled fixture."""
    for seed in (11, 22, 33):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(5, 8))
        y = rng.integers(0, 2, size=5).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        weights = rng.normal(size=8) * 0.5
        bias = float(rng.normal())
        l2 = 1e-4

        def loss_of(params):
            return lr_loss(np.array(params[:-1]), params[-1], X, y, l2)

        numeric = central_difference_gradient(loss_of, list(weights) + [bias], eps=1e-5)
        grad_w, grad_b = lr_gradients(weights, bias, X, y, l2)
        for analytic, estimate in zip(list(grad_w) + [grad_b], numeric):
            assert abs(analytic - estimate) / max(1e-12, abs(estimate)) < 1e-6

    from modkit.corpus import load_dataset
    from modkit.models import _preprocess_all
    from modkit.vectorize import fit, transform_all

    fixture_datasets = [load_dataset(_ingest(tmp_path, separable_paths))]
    tree, labels = fixture10_paths
    out = tmp_path / "fixture10.json"
    assert main(["ingest", str(tree), "--labels", str(labels), "--out", str(out)]) == 0
    fixture_datasets.append(load_dataset(out))
    preprocess = PreprocessConfig(steps=ALL_STEPS)
    for data in fixture_datasets:
        streams = _preprocess_all(data, preprocess)
        tfidf = fit(streams)
        model = train_lr(transform_all(tfidf, streams), data.labels(), epochs=500)
        assert len(model.loss_history) == 501
        for before, after in zip(model.loss_history, model.loss_history[1:]):
            assert after <= before + 1e-12
    passed("LR gradient check (< 1e-6 rel) and 500-epoch loss descent on both fixtures")


def _ingest(tmp_path: Path, separable_paths) -> Path:
    trees, labels = separable_paths
    dataset = tmp_path / "dataset.json"
    argv = ["ingest", *[str(p) for p in trees], "--labels", str(labels), "--out", str(dataset)]
    assert main(argv) == 0
    return dataset


def test_separable_fixture_through_cli(separable_paths, tmp_path):
    """Both classifiers reach test F1 >= 0.95 via the CLI in < 10 s."""
    started = time.perf_counter()
    dataset = _ingest(tmp_path, separable_paths)
    scores = {}
    for model_kind in ("nb", "lr"):
        out = tmp_path / f"runs_{model_kind}"
        argv = [
            "train",
            "--dataset", str(dataset),
            "--out", str(out),
            "--model", model_kind,
            "--seed", "1",
        ]
        assert main(argv) == 0
        (run_dir,) = out.iterdir()
        assert main(["eval", "--run", str(run_dir), "--dataset", str(dataset)]) == 0
        report = json.loads((run_dir / "eval_report.json").read_text())
        scores[model_kind] = report["variants"][0]["f1"]
    elapsed = time.perf_counter() - started
    assert scores["nb"] >= 0.95, scores
    assert scores["lr"] >= 0.95, scores
    assert elapsed < 10.0, f"CLI path took {elapsed:.1f}s"
    passed(f"separable fixture via CLI (NB F1={scores['nb']:.2f}, LR F1={scores['lr']:.2f}, {elapsed:.1f}s)")


def test_fragmentation_monotonicity(slang_corpus):
    """Slang + emoji-alias augmentation strictly lowers pieces-per-word,
    and no random augmentation set ever raises it."""
    vocab = default_vocab()
    base = fragmentation_rate(slang_corpus, vocab)
    grown = augment_vocab(vocab, SLANG_TOKENS + ALIAS_TOKENS)
    after = fragmentation_rate(slang_corpus, grown)
    assert after.pieces_per_word < base.pieces_per_word
    assert after.split_word_fraction <= base.split_word_fraction
    universe = sorted(
        {word for line in slang_corpus for word in line.split()}
        | set(SLANG_TOKENS)
        | set(ALIAS_TOKENS)
    )
    rng = random.Random(20240608)
    for _ in range(100):
        picks = rng.sample(universe, rng.randint(1, 12))
        rate = fragmentation_rate(slang_corpus, augment_vocab(vocab, picks))
        assert rate.pieces_per_word <= base.pieces_per_word + 1e-12
        assert rate.split_word_fraction <= base.split_word_fraction + 1e-12
    passed(
        "fragmentation monotonicity "
        f"({base.pieces_per_word:.3f} -> {after.pieces_per_word:.3f}, 100 random sets)"
    )


def test_ngram_oracle_and_golden_files(fixture10_paths, data_dir, tmp_path):
    """Top-20 tables equal brute force on 50 random corpora, and the
    analyze command reproduces the committed golden CSVs byte-for-byte."""
    rng = random.Random(555)
    vocab = ["you", "people", "know", "dumb", "shut", "up", "😂", "the", "a"]
    for _ in range(50):
        corpus = [
            TokenStream(tokenize(" ".join(rng.choice(vocab) for _ in range(rng.randint(0, 20)))))
            for _ in range(rng.randint(0, 50))
        ]
        for n in (1, 2, 3):
            expected = brute_top_k(brute_ngrams([s.tokens for s in corpus], n), 20)
            assert list(ngram_counts(corpus, n, 20).rows) == expected

    tree, labels = fixture10_paths
    dataset = tmp_path / "dataset.json"
    assert main(["ingest", str(tree), "--labels", str(labels), "--out", str(dataset)]) == 0
    charts = tmp_path / "charts"
    assert main(["analyze", "--dataset", str(dataset), "--out", str(charts)]) == 0
    golden_dir = data_dir / "golden"
    golden_files = sorted(golden_dir.glob("ngrams_*.csv"))
    assert len(golden_files) == 6
    for golden in golden_files:
        produced = charts / golden.name
        assert produced.read_bytes() == golden.read_bytes(), golden.name
    passed("n-gram oracle (50 corpora) and 6/6 golden chart files")


def test_pipeline_composition_and_idempotence():
    """run_pipeline == manual composition on 1,000 fuzzed strings; the
    four token-level steps are idempotent."""
    configs = [
        PreprocessConfig(steps=ALL_STEPS),
        PreprocessConfig(steps=ALL_STEPS, emoji_mode=EmojiMode.BERT_DELIMITED),
        PreprocessConfig(steps=frozenset({Step.LOWERCASING, Step.STOPWORD_REMOVAL})),
        PreprocessConfig(steps=frozenset({Step.EMOJI_ENCODING, Step.PUNCTUATION_REMOVAL})),
        PreprocessConfig(steps=frozenset()),
    ]
    from test_textprep import compose_by_hand

    texts = fuzz_texts(1000, 20240101)
    for i, text in enumerate(texts):
        config = configs[i % len(configs)]
        assert run_pipeline(text, config).tokens == compose_by_hand(text, config)
    for text in texts[:250]:
        stream = tokenize(text)
        for step in (lowercase, remove_punctuation):
            once = step(stream)
            assert step(once) == once
        lowered = lowercase(stream)
        for step in (remove_stopwords, lemmatize):
            once = step(lowered)
            assert step(once) == once
    passed("pipeline composition on 1,000 fuzzed strings + idempotence")


def test_emoji_presence_definition():
    """On a corpus built to have presence (0.0880, 0.0718, 0.1042), the
    computed statistics equal those values exactly."""
    entries = []
    for i in range(5000):
        text = "angry comment 😂" if i < 359 else "angry comment"
        entries.append((f"off{i:04d}", text, Label.OFFENSIVE))
    for i in range(5000):
        text = "calm comment 😭" if i < 521 else "calm comment"
        entries.append((f"not{i:04d}", text, Label.NOT_OFFENSIVE))
    stats = emoji_stats(LabeledDataset(entries=tuple(entries)))
    assert Fraction(359, 5000) == Fraction(718, 10000)
    assert stats.presence_overall == 0.0880
    assert stats.presence_offensive == 0.0718
    assert stats.presence_nonoffensive == 0.1042
    passed("emoji presence definition (0.0880 / 0.0718 / 0.1042 exact)")


def test_end_to_end_determinism(separable_paths, tmp_path):
    """Repeating ingest -> train -> eval with one seed reproduces every
    model and report file byte-for-byte (manifests compared modulo
    timings)."""
    tracked = (
        "tfidf.json",
        "model.json",
        "train_report.json",
        "eval_report.json",
        "eval_report.txt",
    )

    def run_once() -> Path:
        dataset = _ingest(tmp_path, separable_paths)
        out = tmp_path / "runs"
        argv = [
            "train",
            "--dataset", str(dataset),
            "--out", str(out),
            "--model", "lr",
            "--seed", "99",
            "--cycles", "2",
        ]
        assert main(argv) == 0
        (run_dir,) = out.iterdir()
        assert main(["eval", "--run", str(run_dir), "--dataset", str(dataset)]) == 0
        return run_dir

    def snapshot(run_dir: Path) -> dict[str, bytes]:
        blobs = {name: (run_dir / name).read_bytes() for name in tracked}
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifest.pop("timings")
        blobs["manifest-sans-timings"] = json.dumps(manifest, sort_keys=True).encode()
        blobs["dataset.json"] = (tmp_path / "dataset.json").read_bytes()
        return blobs

    first = snapshot(run_once())
    second = snapshot(run_once())
    for name in first:
        assert first[name] == second[name], name
    passed("end-to-end determinism (byte-identical artifacts)")


def _make_fixtures():
    """``tools/make_fixtures.py``, imported as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_close(produced, golden, where: str) -> None:
    """Equal JSON values, floats within 1e-12 relative."""
    if isinstance(golden, float):
        assert type(produced) is float and math.isclose(produced, golden, rel_tol=1e-12), where
    elif isinstance(golden, dict):
        assert type(produced) is dict and produced.keys() == golden.keys(), where
        for key in golden:
            _assert_close(produced[key], golden[key], f"{where}.{key}")
    elif isinstance(golden, list):
        assert type(produced) is list and len(produced) == len(golden), where
        for i, (a, b) in enumerate(zip(produced, golden)):
            _assert_close(a, b, f"{where}[{i}]")
    else:
        assert type(produced) is type(golden) and produced == golden, where


def test_training_artifacts_equal_the_golden_files(data_dir, tmp_path):
    """nb and lr runs with all five steps, in both emoji modes, write the
    committed TF-IDF, train and eval reports byte for byte, and the
    committed model within 1e-12 relative (``exp`` and ``log`` may differ
    in the last bit across numpy's CPU dispatch paths). The golden files
    are modkit's own output (``tools/make_fixtures.py``), no oracle."""
    make_fixtures = _make_fixtures()
    for model, emoji_mode in make_fixtures.GOLDEN_RUNS:
        run_dir = make_fixtures.golden_run(model, emoji_mode, tmp_path / f"{model}_{emoji_mode}")
        golden = data_dir / "golden" / f"run_{model}_{emoji_mode}"
        for name in make_fixtures.GOLDEN_RUN_FILES:
            where = f"{golden.name}/{name}"
            if name == "model.json":
                produced = json.loads((run_dir / name).read_text(encoding="utf-8"))
                _assert_close(produced, json.loads((golden / name).read_text(encoding="utf-8")), where)
            else:
                assert (run_dir / name).read_bytes() == (golden / name).read_bytes(), where
    passed("golden training artifacts (nb and lr, ML and BERT emoji modes)")
