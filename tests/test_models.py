"""Naive Bayes, Logistic Regression and the training-cycle protocol."""

from __future__ import annotations

import hashlib
import json
import math
import random

import numpy as np
import pytest

from modkit import corpus, models, textprep
from modkit.corpus import Label, LabeledDataset, split
from modkit.errors import (
    ConfigError,
    MalformedJsonError,
    ModkitError,
    NonFiniteLossError,
    SchemaViolationError,
)
from modkit.models import (
    CycleResult,
    LRModel,
    NBModel,
    RunConfig,
    evaluate_on,
    load_model,
    lr_gradients,
    lr_loss,
    nb_log_joint,
    predict_lr,
    predict_nb,
    run_cycles,
    save_model,
    select_best_cycle,
    train_lr,
    train_nb,
)
from modkit.evaluate import ConfusionMatrix, metrics
from modkit.textprep import (
    ALL_STEPS, PIPELINE_ORDER, EmojiMode, PreprocessConfig, Step, TokenStream, run_pipeline, tokenize,
)
from modkit.vectorize import TfidfModel, fit, rows, transform_all
from _fuzz import messy_text
from _oracles import central_difference_gradient, nb_log_joint_oracle
from _sparse import csr, dense, entries, row_lists

OFF, NOT = Label.OFFENSIVE, Label.NOT_OFFENSIVE
#: Every preprocessing step, by name, as RunConfig takes them.
ALL_STEP_NAMES = tuple(step.value for step in Step)


# "bad bad" -> offensive, "good" -> not offensive, raw counts as weights
BAD_GOOD_X = csr([{0: 2.0}, {1: 1.0}])
BAD_GOOD_Y = [OFF, NOT]


def unit_tfidf(width: int) -> TfidfModel:
    """A TF-IDF of the terms t0, t1, ... with idf 1: a stream of one
    known term is the row {its column: 1.0}, one of none the empty row."""
    return TfidfModel(vocabulary={f"t{i}": i for i in range(width)}, idf=[1.0] * width, doc_count=1)


def predict_one(predict, model, tokens: tuple[str, ...]) -> tuple[Label, float]:
    labels, probabilities = predict(model, unit_tfidf(model.vocab_size), [tokens])
    return labels[0], float(probabilities[0])


def plain(rows: list[dict[int, float]]) -> list[tuple[list[int], list[float]]]:
    """Rows as {column: weight} as the scorers read them: (columns, values)
    lists in column order."""
    return [(sorted(row), [row[column] for column in sorted(row)]) for row in rows]


class TestTrainNB:
    def test_counting_example(self):
        model = train_nb(BAD_GOOD_X, BAD_GOOD_Y, alpha=1.0)
        off, not_ = 1, 0
        assert math.exp(model.log_likelihood[off][0]) == pytest.approx(0.75)
        assert math.exp(model.log_likelihood[off][1]) == pytest.approx(0.25)
        assert math.exp(model.log_likelihood[not_][0]) == pytest.approx(1 / 3)
        assert np.exp(model.log_prior).tolist() == pytest.approx([0.5, 0.5])

    def test_disjoint_vocab_separates(self):
        model = train_nb(BAD_GOOD_X, BAD_GOOD_Y)
        labels, _ = predict_nb(model, unit_tfidf(2), [("t0",), ("t1",)])
        assert labels == [OFF, NOT]

    def test_zero_alpha_rejected(self):
        with pytest.raises(ConfigError, match=r"^alpha must be > 0, got 0\.0$"):
            train_nb(BAD_GOOD_X, BAD_GOOD_Y, alpha=0.0)

    def test_single_class_rejected(self):
        with pytest.raises(ModkitError, match="^both classes must be present in the training set$"):
            train_nb(BAD_GOOD_X, [OFF, OFF])

    def test_likelihoods_normalize_per_class(self):
        rng = random.Random(5)
        for _ in range(20):
            n_docs, n_terms = rng.randint(2, 8), rng.randint(1, 6)
            X = csr(
                [{t: float(rng.randint(0, 3)) for t in range(n_terms)} for _ in range(n_docs)],
                n_terms,
            )
            y = [OFF if i % 2 else NOT for i in range(n_docs)]
            model = train_nb(X, y, alpha=rng.choice([0.5, 1.0, 2.0]))
            sums = np.exp(model.log_likelihood).sum(axis=1)
            assert sums == pytest.approx([1.0, 1.0], abs=1e-9)


class TestPredictNB:
    def test_joint_scores_match_hand_arithmetic(self):
        model = train_nb(BAD_GOOD_X, BAD_GOOD_Y, alpha=1.0)
        label, _posterior = predict_one(predict_nb, model, ("t0",))
        joints = np.exp(nb_log_joint(model, csr([{0: 1.0}], 2))[0])
        assert joints[1] == pytest.approx(0.375)
        assert joints[0] == pytest.approx(1 / 6)
        assert label is OFF

    def test_empty_vector_uses_priors(self):
        X = csr([{0: 1.0}, {1: 1.0}, {1: 2.0}])
        model = train_nb(X, [OFF, NOT, NOT])
        label, posterior = predict_one(predict_nb, model, ())
        assert label is NOT
        assert posterior == pytest.approx(2 / 3)

    def test_exact_tie_goes_to_not_offensive(self):
        model = train_nb(csr([{0: 1.0}, {1: 1.0}]), [OFF, NOT], alpha=1.0)
        label, posterior = predict_one(predict_nb, model, ())
        assert label is NOT
        assert posterior == pytest.approx(0.5)

    def test_matches_counting_oracle(self):
        rng = random.Random(11)
        for _ in range(50):
            n_docs, n_terms = rng.randint(2, 4), rng.randint(1, 5)
            docs = [
                {t: rng.randint(0, 3) for t in range(n_terms)} for _ in range(n_docs)
            ]
            docs = [{t: w for t, w in d.items() if w} for d in docs]
            labels = [rng.randint(0, 1) for _ in range(n_docs)]
            if len(set(labels)) < 2:
                labels[0] = 1 - labels[1]
            X = csr(docs, n_terms)
            y = [OFF if v else NOT for v in labels]
            model = train_nb(X, y, alpha=1.0)
            probe = {t: rng.randint(0, 2) for t in range(n_terms)}
            probe = {t: w for t, w in probe.items() if w}
            expected_not, expected_off = nb_log_joint_oracle(
                docs, labels, 1.0, n_terms, probe
            )
            (got,) = nb_log_joint(model, csr([probe], n_terms))
            assert got[0] == pytest.approx(expected_not, abs=1e-9)
            assert got[1] == pytest.approx(expected_off, abs=1e-9)

    def test_scaling_features_keeps_argmax(self):
        rng = random.Random(13)
        rows = [
            {t: rng.randint(1, 3) for t in range(4) if rng.random() < 0.8}
            for _ in range(8)
        ]
        rows = [row or {0: 1.0} for row in rows]
        X = csr(rows, 4)
        y = [OFF if i % 2 else NOT for i in range(8)]
        model = train_nb(X, y)

        def argmax(model: NBModel) -> list[bool]:
            return [off > not_ for not_, off in models._nb_joints(model, plain(rows))]

        for scale in (0.25, 1.0, 7.5):
            scaled = csr([{i: w * scale for i, w in row.items()} for row in rows], 4)
            assert argmax(train_nb(scaled, y)) == argmax(model)


class TestTrainLR:
    def test_zero_model_predicts_half(self):
        model = LRModel(weights=np.zeros(3), bias=0.0, l2=0.0, learning_rate=0.1, epochs=0)
        assert models._lr_margins(model, [([0, 2], [1.0, 0.5])]) == [0.0]
        label, probability = predict_one(predict_lr, model, ("t0", "t2"))
        assert probability == 0.5
        assert label is OFF  # threshold rule: >= 0.5 is offensive

    def test_separable_line_reaches_perfect_accuracy(self):
        rows = [{0: -1.0}, {0: 1.0}] * 5
        y = [NOT, OFF] * 5
        model = train_lr(csr(rows), y)
        assert [OFF if z >= 0 else NOT for z in models._lr_margins(model, plain(rows))] == y

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(20240214)
        X = rng.normal(size=(5, 8))
        y = rng.integers(0, 2, size=5).astype(float)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        weights = rng.normal(size=8) * 0.5
        bias = 0.3
        l2 = 1e-4

        def loss_of(params):
            return lr_loss(np.array(params[:-1]), params[-1], X, y, l2)

        numeric = central_difference_gradient(loss_of, list(weights) + [bias], eps=1e-5)
        grad_w, grad_b = lr_gradients(weights, bias, X, y, l2)
        analytic = list(grad_w) + [grad_b]
        for a, n in zip(analytic, numeric):
            assert abs(a - n) / max(1e-12, abs(n)) < 1e-6

    def test_loss_non_increasing(self):
        rng = random.Random(17)
        X = csr(
            [{t: rng.random() for t in range(6) if rng.random() < 0.6} or {0: 1.0} for _ in range(20)],
            6,
        )
        y = [OFF if i % 2 else NOT for i in range(20)]
        model = train_lr(X, y)
        assert len(model.loss_history) == 501
        for before, after in zip(model.loss_history, model.loss_history[1:]):
            assert after <= before + 1e-12

    def test_diverging_rate_raises(self):
        X = csr([{0: 1000.0}, {0: -1000.0}])
        with pytest.raises(NonFiniteLossError):
            train_lr(X, [OFF, NOT], learning_rate=1e6, epochs=200)

    def test_single_class_rejected(self):
        with pytest.raises(ModkitError, match="^both classes must be present in the training set$"):
            train_lr(csr([{0: 1.0}] * 2), [OFF, OFF])

    def test_deterministic(self):
        X = csr([{0: 0.3, 1: 0.9}, {1: 1.0}, {0: 1.0}])
        y = [OFF, NOT, OFF]
        a = train_lr(X, y, epochs=50)
        b = train_lr(X, y, epochs=50)
        assert a.weights == b.weights
        assert a.bias == b.bias


class TestPredictLR:
    def test_bias_ln3_gives_three_quarters(self):
        model = LRModel(
            weights=np.zeros(2), bias=math.log(3), l2=0.0, learning_rate=0.1, epochs=0
        )
        _, probability = predict_one(predict_lr, model, ())
        assert probability == pytest.approx(0.75)

    def test_large_margin_saturates(self):
        model = LRModel(weights=np.array([50.0]), bias=0.0, l2=0.0, learning_rate=0.1, epochs=0)
        label, probability = predict_one(predict_lr, model, ("t0",))
        assert label is OFF
        assert probability > 0.999999


def tfidf_corpus(seed: int, n_docs: int = 80):
    """Random token streams, the TF-IDF fitted on them, and alternating labels."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(40)]
    streams = [
        TokenStream(tuple(rng.choice(words) for _ in range(rng.randint(0, 12))))
        for _ in range(n_docs)
    ]
    return streams, fit(streams), [OFF if i % 2 else NOT for i in range(n_docs)]


def tfidf_matrix(seed: int, n_docs: int = 80):
    """The TF-IDF matrix of :func:`tfidf_corpus`'s streams, and their labels."""
    streams, tfidf, y = tfidf_corpus(seed, n_docs)
    return transform_all(tfidf, streams), y


class TestAgainstReferences:
    """The CSR paths against a per-entry loop and against dense arrays."""

    def test_sigmoid_bit_identical_to_masked_two_branch_form(self):
        """``np.where`` over both branches gives, bit for bit, what filling
        the z >= 0 and z < 0 positions separately gave, ±0 and ±inf
        included; NaN stays NaN (its sign bit may differ)."""
        rng = np.random.default_rng(7)
        z = np.concatenate([
            rng.normal(0, 5, 5000), rng.normal(0, 400, 500),
            [0.0, -0.0, 1e-300, -1e-300, 709.0, -709.0, 746.0, -746.0, np.inf, -np.inf],
        ])
        expected = np.empty_like(z)
        pos = z >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        expected[~pos] = ez / (1.0 + ez)
        assert models._sigmoid(z, np.exp(-np.abs(z))).tobytes() == expected.tobytes()
        assert np.isnan(models._sigmoid(np.array([np.nan, 1.0]), np.array([np.nan, np.exp(-1.0)]))[0])

    def test_loss_within_4_ulp_of_logaddexp_form(self):
        """``max(z, 0) + log1p(exp(-|z|))`` is ``np.logaddexp(0, z)`` within
        4 ulp with the same zeros; with either label, the loss has the
        logaddexp form's infinities and NaNs."""
        rng = np.random.default_rng(23)
        special = [0.0, 5e-324, 1e-300, 700.0, 745.0, 800.0, np.inf]
        z = np.concatenate([
            rng.normal(0, 5, 20000), rng.normal(0, 300, 2000), special, np.negative(special), [np.nan],
        ])
        with np.errstate(invalid="ignore"):  # 0 * inf
            for label in (0.0, 1.0):
                y = np.full_like(z, label)
                got, expected = models._cross_entropy(z, y, np.exp(-np.abs(z))), np.logaddexp(0.0, z) - y * z
                assert (np.isnan(got) == np.isnan(expected)).all()
                assert (got[np.isinf(got)] == expected[np.isinf(got)]).all()
                assert np.isinf(got).sum() == np.isinf(expected).sum() == label
        finite = z[np.isfinite(z)]
        got = models._cross_entropy(finite, 0.0, np.exp(-np.abs(finite)))
        expected = np.logaddexp(0.0, finite)
        assert ((got == 0) == (expected == 0)).all() and (expected == 0).any()
        assert (np.abs(got - expected) <= 4 * np.spacing(expected)).all()

    def test_nb_mass_and_likelihoods_bit_identical_to_loop(self):
        for seed in (1, 2, 3):
            X, y = tfidf_matrix(seed)
            labels = [1 if t is OFF else 0 for t in y]
            mass = np.zeros((2, X.n_cols))
            for row in range(len(X)):
                for column, weight in entries(X, row):
                    mass[labels[row], column] += weight
            totals = mass.sum(axis=1, keepdims=True)
            expected = np.log(mass + 0.5) - np.log(totals + 0.5 * X.n_cols)
            model = train_nb(X, y, alpha=0.5)
            assert model.log_likelihood == expected.tolist()

    def test_nb_joint_matches_loop(self):
        X, y = tfidf_matrix(4)
        model = train_nb(X, y)
        joints = nb_log_joint(model, X)
        log_likelihood = np.array(model.log_likelihood)
        for row in range(len(X)):
            expected = np.array(model.log_prior)
            for column, weight in entries(X, row):
                expected += weight * log_likelihood[:, column]
            assert np.all(np.abs(joints[row] - expected) <= 1e-12 * np.abs(expected))

    def test_train_lr_matches_dense_descent(self):
        for seed in (5, 6):
            X, y = tfidf_matrix(seed)
            D, labels = dense(X), np.array([1.0 if t is OFF else 0.0 for t in y])
            weights, bias, history = np.zeros(X.n_cols), 0.0, []
            for _ in range(500):
                history.append(lr_loss(weights, bias, D, labels, 1e-4))
                grad_w, grad_b = lr_gradients(weights, bias, D, labels, 1e-4)
                weights -= 0.1 * grad_w
                bias -= 0.1 * grad_b
            history.append(lr_loss(weights, bias, D, labels, 1e-4))
            model = train_lr(X, y, learning_rate=0.1, epochs=500, l2=1e-4)
            assert np.abs(model.weights - weights).max() <= 1e-12 * np.abs(weights).max()
            assert abs(model.bias - bias) <= 1e-12 * abs(bias)
            assert np.allclose(model.loss_history, history, rtol=1e-12, atol=0.0)

    def test_batch_predictions_match_rows_one_at_a_time(self):
        streams, tfidf, y = tfidf_corpus(7)
        X = transform_all(tfidf, streams)
        for model, predict in ((train_nb(X, y), predict_nb), (train_lr(X, y, epochs=50), predict_lr)):
            labels, probabilities = predict(model, tfidf, iter(streams))
            for stream, label, probability in zip(streams, labels, probabilities):
                assert predict(model, tfidf, [stream]) == ([label], [probability])

    def test_width_mismatch_raises(self, monkeypatch):
        """Before any stream is read, and so before any comment is preprocessed."""
        X, y = tfidf_matrix(8)

        def unread():
            pytest.fail("a stream was read")
            yield

        def preprocess(*args, **kwargs):
            pytest.fail("a comment was preprocessed")

        def message(width: int) -> str:
            return f"^model has {X.n_cols} features but the TF-IDF vocabulary has {width}$"

        monkeypatch.setattr(textprep, "run_pipeline", preprocess)
        narrow, wide = (
            TfidfModel(vocabulary={f"w{i}": i for i in range(width)}, idf=[1.0] * width, doc_count=1)
            for width in (X.n_cols - 1, X.n_cols + 1)
        )
        data = LabeledDataset(entries=(("a", "w0", OFF), ("b", "w1", NOT)))
        for model, predict in ((train_nb(X, y), predict_nb), (train_lr(X, y, epochs=5), predict_lr)):
            for tfidf in (narrow, wide):
                with pytest.raises(SchemaViolationError, match=message(tfidf.vocab_size)):
                    predict(model, tfidf, unread())
            with pytest.raises(SchemaViolationError, match=message(X.n_cols - 1)):
                evaluate_on(narrow, model, data, RunConfig())
        with pytest.raises(SchemaViolationError, match=message(X.n_cols - 1)):
            nb_log_joint(train_nb(X, y), csr([{0: 1.0}], X.n_cols - 1))


class TestPlainPythonScorer:
    """``vectorize.rows`` and the plain-Python scorer against the numpy
    matrix and products they stand in for, bit for bit."""

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_joints_and_margins_equal_the_numpy_path(self, seed):
        rng = random.Random(seed)
        words = [f"w{i}" for i in range(150)]

        def random_stream() -> TokenStream:
            return TokenStream(tuple(rng.choice(words) for _ in range(rng.randint(0, 120))))

        train = [random_stream() for _ in range(60)]
        tfidf = fit(train)
        streams = [random_stream() for _ in range(40)] + [
            TokenStream(()),
            TokenStream(("oov", "zzz", "oov")),
            TokenStream(("w1",) * 7 + ("w2", "w1")),
            TokenStream(tuple(rng.sample(words, 60))),
            TokenStream(tuple(rng.sample(words, 45)) * 3),
        ]
        rng.shuffle(streams)
        X, python_rows = transform_all(tfidf, streams), list(rows(tfidf, streams))
        assert [columns for columns, _ in python_rows] == [columns for columns, _ in row_lists(X)]
        values = [value for _, row_values in python_rows for value in row_values]
        assert np.array(values).tobytes() == X.data.tobytes()
        lengths = [len(columns) for columns, _ in python_rows]
        assert min(lengths) == 0 and max(lengths) >= 40

        X_train, y = transform_all(tfidf, train), [OFF if i % 2 else NOT for i in range(len(train))]
        nb, lr = train_nb(X_train, y), train_lr(X_train, y, epochs=30)
        joints = np.array(models._nb_joints(nb, python_rows))
        products = np.stack([X @ np.array(ll) for ll in nb.log_likelihood], axis=1)
        assert joints.tobytes() == (products + np.array(nb.log_prior)).tobytes()
        margins = np.array(models._lr_margins(lr, python_rows))
        assert margins.tobytes() == (X @ np.array(lr.weights) + lr.bias).tobytes()


def per_fold_descent(X, y, learning_rate=0.1, epochs=500, l2=1e-4):
    """Reference descent on one fold through the public loss and gradient,
    the arithmetic of a standalone ``train_lr``: weights, bias, losses."""
    labels = np.array([1.0 if t is OFF else 0.0 for t in y])
    weights, bias = np.zeros(X.n_cols), 0.0
    history = [lr_loss(weights, bias, X, labels, l2)]
    for _ in range(epochs):
        grad_w, grad_b = lr_gradients(weights, bias, X, labels, l2)
        weights -= learning_rate * grad_w
        bias -= learning_rate * grad_b
        history.append(lr_loss(weights, bias, X, labels, l2))
    return weights, bias, tuple(history)


def lr_folds() -> list[tuple]:
    """Folds of different widths and sizes; the last has an empty row and
    columns no row uses."""
    folds = [tfidf_matrix(seed, n_docs) for seed, n_docs in ((11, 80), (12, 6), (13, 15))]
    sparse = csr([{0: 1.0}, {}, {0: -0.5, 2: 0.25}, {2: 1.0}, {}], 5)
    return [*folds, (sparse, [OFF, NOT, OFF, NOT, OFF])]


class TestOraclesShareTheRunPath:
    """The functions the acceptance oracles check are views of the code
    that trains and scores: each reaches the same helper."""

    @staticmethod
    def counted(monkeypatch, name: str) -> list:
        """Wrap ``models.<name>`` so that each call's result is recorded."""
        calls, inner = [], getattr(models, name)

        def wrapper(*args, **kwargs):
            calls.append(inner(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(models, name, wrapper)
        return calls

    def test_lr_loss_gradients_and_training_reach_one_step(self, monkeypatch):
        X, y = tfidf_matrix(3, 20)
        labels = np.array([1.0 if t is OFF else 0.0 for t in y])
        calls = self.counted(monkeypatch, "_lr_step")
        lr_loss(np.zeros(X.n_cols), 0.0, X, labels, 1e-4)
        lr_gradients(np.zeros(X.n_cols), 0.0, dense(X), labels, 1e-4)
        assert len(calls) == 2
        calls.clear()
        train_lr(X, y, epochs=7)
        # one step per epoch, and the loss after the last one without a gradient
        assert [grad_w is not None for _, grad_w, _ in calls] == [True] * 7 + [False]

    def test_nb_log_joint_and_predict_nb_reach_the_plain_python_joints(self, monkeypatch):
        X, y = tfidf_matrix(4, 20)
        model = train_nb(X, y)
        calls = self.counted(monkeypatch, "_nb_joints")
        nb_log_joint(model, X)
        predict_nb(model, unit_tfidf(model.vocab_size), [("t0",)])
        assert len(calls) == 2

    def test_nb_log_joint_of_no_rows_has_shape_0_by_2(self):
        X, y = tfidf_matrix(4, 20)
        joints = nb_log_joint(train_nb(X, y), csr([], X.n_cols))
        assert joints.shape == (0, 2) and joints.dtype == np.float64


class TestSharedDescent:
    """All cycles' LR folds trained by one descent, against each fold alone."""

    def test_every_fold_bit_identical_to_its_own_descent(self):
        folds = lr_folds()
        assert len({X.n_cols for X, _ in folds}) == len(folds)
        shared = models._train_lr_folds(folds, 0.1, 500, 1e-4)
        for (X, y), model in zip(folds, shared):
            weights, bias, history = per_fold_descent(X, y)
            alone = train_lr(X, y)
            for got in (model, alone):
                assert np.array(got.weights).tobytes() == weights.tobytes()
                assert got.bias.hex() == bias.hex()
                assert got.loss_history == history
                assert (got.learning_rate, got.epochs, got.l2) == (0.1, 500, 1e-4)

    def test_run_cycles_lr_models_are_the_per_cycle_descents(self):
        data = noisy_dataset(60)
        config = RunConfig(model="lr", steps=ALL_STEP_NAMES, epochs=60, n_cycles=3)
        trained = run_cycles(data, config)
        train_set, _, _ = split(data, config.ratios, trained.report.best.seed)
        streams = [run_pipeline(text, config.preprocess) for text in train_set.texts()]
        weights, bias, _ = per_fold_descent(
            transform_all(fit(streams), streams), train_set.labels(), epochs=60
        )
        assert np.array(trained.model.weights).tobytes() == weights.tobytes()
        assert trained.model.bias == bias

    @pytest.mark.parametrize("position", [0, 2])
    def test_one_diverging_fold_raises(self, position):
        folds = [tfidf_matrix(15), tfidf_matrix(16)]
        folds.insert(position, (csr([{0: 1e200}, {0: -1e200}]), [OFF, NOT]))
        for X, y in folds[:position] + folds[position + 1:]:
            train_lr(X, y, epochs=20)  # the others converge alone
        with pytest.raises(NonFiniteLossError):
            models._train_lr_folds(folds, 0.1, 20, 1e-4)

    def test_single_class_fold_rejected(self):
        folds = [tfidf_matrix(14), (csr([{0: 1.0}] * 2), [OFF, OFF])]
        with pytest.raises(ModkitError, match="^both classes must be present in the training set$"):
            models._train_lr_folds(folds, 0.1, 5, 1e-4)


class TestSelectBestCycle:
    @staticmethod
    def cycle(seed: int, f1: float, accuracy: float) -> CycleResult:
        base = metrics(ConfusionMatrix(tp=1, fp=0, fn=0, tn=1))
        report = type(base)(
            f1=f1,
            accuracy=accuracy,
            precision=base.precision,
            recall=base.recall,
            specificity=base.specificity,
            matrix=base.matrix,
        )
        return CycleResult(seed=seed, validation=report, test=report)

    def test_single_cycle(self):
        assert select_best_cycle([self.cycle(0, 0.9, 0.9)]) == 0

    def test_argmax_f1(self):
        cycles = [self.cycle(0, 0.70, 0.9), self.cycle(1, 0.80, 0.5)]
        assert select_best_cycle(cycles) == 1

    def test_tie_broken_by_accuracy(self):
        cycles = [self.cycle(0, 0.75, 0.7), self.cycle(1, 0.75, 0.8)]
        assert select_best_cycle(cycles) == 1

    def test_full_tie_prefers_lower_index(self):
        cycles = [self.cycle(0, 0.75, 0.8), self.cycle(1, 0.75, 0.8)]
        assert select_best_cycle(cycles) == 0


#: One out-of-range value per hyperparameter, and the error it raises.
OUT_OF_RANGE = [
    ({"model": "svm"}, "model must be 'nb' or 'lr', got 'svm'"),
    ({"emoji_mode": "raw"}, "emoji-mode must be 'ml' or 'bert', got 'raw'"),
    ({"steps": ("lowercasing", "bogus")}, "unknown preprocessing step: 'bogus'"),
    ({"ratios": (0.5, 0.5, 0.5)}, "ratios must sum to 1, got 1.5"),
    ({"n_cycles": 0}, "n_cycles must be >= 1, got 0"),
    ({"alpha": 0.0}, "alpha must be > 0, got 0.0"),
    ({"model": "lr", "alpha": -1.0}, "alpha must be > 0, got -1.0"),
    ({"learning_rate": -1.0}, "learning_rate must be > 0, got -1.0"),
    ({"model": "nb", "epochs": 0}, "epochs must be >= 1, got 0"),
    ({"l2": -1e-4}, "l2 must be >= 0, got -0.0001"),
    ({"seed": -1}, "seed must be in 0..18446744073709551615, got -1"),
    ({"seed": 2**64 - 4, "n_cycles": 5}, "seed must be in 0..18446744073709551611 for 5 cycles"),
]


class TestRunConfig:
    @pytest.mark.parametrize("kwargs, message", OUT_OF_RANGE)
    def test_out_of_range_value_raises_config_error(self, kwargs, message):
        """Every hyperparameter is checked, whichever model it is for."""
        with pytest.raises(ConfigError) as info:
            RunConfig(**kwargs)
        assert str(info.value).startswith(message), info.value
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("kwargs, message", OUT_OF_RANGE)
    def test_replace_runs_the_same_checks(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            RunConfig().replace(**kwargs)
        assert str(info.value).startswith(message), info.value
        assert info.value.exit_code == 2

    def test_fields_keep_their_order_and_refuse_assignment(self):
        """The manifest writes the fields in this order."""
        config = RunConfig(seed=3)
        assert list(config.asdict()) == [
            "seed", "model", "steps", "emoji_mode", "alpha", "learning_rate", "epochs", "l2",
            "ratios", "n_cycles", "dataset", "out", "variant_name",
        ]
        assert config.replace(model="lr").asdict() == {**config.asdict(), "model": "lr"}
        with pytest.raises(AttributeError, match="cannot assign to field 'seed'"):
            config.seed = 4
        with pytest.raises(ConfigError, match=r"unknown config keys: \['sed'\]") as info:
            RunConfig(sed=3)
        assert info.value.exit_code == 2
        with pytest.raises(ConfigError, match=r"unknown config keys: \['self'\]"):
            RunConfig(**{"self": 3})  # a key of a config file, not __init__'s own argument

    def test_json_round_trip_is_the_same_config(self):
        """``eval`` rebuilds a run's config from its manifest's JSON."""
        config = RunConfig(
            seed=9, model="lr", steps=ALL_STEP_NAMES, emoji_mode="bert", alpha=0.5,
            learning_rate=0.25, epochs=7, l2=0.0, ratios=(0.6, 0.2, 0.2), n_cycles=3,
            dataset="d.json", out="o", variant_name="V",
        )
        assert config.asdict() != RunConfig().asdict()
        loaded = RunConfig(**json.loads(json.dumps(config.asdict())))
        assert loaded.asdict() == config.asdict()
        assert loaded.hash("0" * 64, "cd" * 32) == config.hash("0" * 64, "cd" * 32)

    def test_preprocess_follows_steps_and_emoji_mode(self):
        config = RunConfig(steps=("lemmatization", "emoji_encoding"), emoji_mode="bert")
        assert config.preprocess == PreprocessConfig(
            steps=frozenset({Step.LEMMATIZATION, Step.EMOJI_ENCODING}),
            emoji_mode=EmojiMode.BERT_DELIMITED,
        )
        assert RunConfig(steps=ALL_STEP_NAMES).preprocess == PreprocessConfig(steps=ALL_STEPS)
        assert Step.EMOJI_ENCODING not in RunConfig().preprocess.steps

    def test_one_spelling_per_experiment(self):
        """Steps are kept once each in pipeline order, and the float fields
        and ratios as floats: spellings of one experiment are one config."""
        spelled = RunConfig(
            steps=["lemmatization", "lowercasing", "lemmatization"],
            alpha=1, learning_rate=1, l2=0, ratios=[1, 0, 0],
        )
        canonical = RunConfig(
            steps=("lowercasing", "lemmatization"),
            alpha=1.0, learning_rate=1.0, l2=0.0, ratios=(1.0, 0.0, 0.0),
        )
        assert json.dumps(spelled.asdict()) == json.dumps(canonical.asdict())
        assert spelled.hash("0" * 64, "cd" * 32) == canonical.hash("0" * 64, "cd" * 32)
        assert RunConfig(steps=ALL_STEP_NAMES[::-1]).steps == tuple(s.value for s in PIPELINE_ORDER)
        assert RunConfig().steps == models.DEFAULT_STEPS

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({}, "Naive Bayes Default"),
            ({"model": "lr"}, "Logistic Regression Default"),
            ({"steps": ALL_STEP_NAMES}, "Naive Bayes Emojis"),
            ({"model": "lr", "steps": ("emoji_encoding",)}, "Logistic Regression Emojis"),
            ({"model": "lr", "variant_name": "Mine"}, "Mine"),
        ],
    )
    def test_name(self, kwargs, name):
        assert RunConfig(**kwargs).name == name


def separable_dataset(n: int = 60) -> LabeledDataset:
    entries = []
    for i in range(n):
        if i % 2:
            entries.append((f"o{i}", "vile cruel nasty words here", OFF))
        else:
            entries.append((f"n{i}", "kind gentle pleasant words here", NOT))
    return LabeledDataset(entries=tuple(entries))


class TestRunCycles:
    CONFIG = RunConfig(model="nb", steps=("lowercasing",))

    def test_single_cycle_is_best(self):
        trained = run_cycles(separable_dataset(), self.CONFIG.replace(seed=3))
        assert trained.report.best_cycle_index == 0
        assert trained.report.cycles[0].seed == 3

    def test_seeds_increment_per_cycle(self):
        trained = run_cycles(separable_dataset(), self.CONFIG.replace(n_cycles=3, seed=10))
        assert [c.seed for c in trained.report.cycles] == [10, 11, 12]

    def test_bit_reproducible(self):
        config = self.CONFIG.replace(n_cycles=2, seed=5)
        first = run_cycles(separable_dataset(), config)
        second = run_cycles(separable_dataset(), config)
        assert first.report == second.report
        assert first.tfidf.vocabulary == second.tfidf.vocabulary

    def test_separable_data_scores_perfectly(self):
        trained = run_cycles(separable_dataset(), self.CONFIG.replace(n_cycles=2))
        assert trained.report.best.test.f1 == 1.0

    def test_lr_variant_runs(self):
        config = RunConfig(model="lr", steps=("lowercasing",), epochs=100, seed=1)
        trained = run_cycles(separable_dataset(), config)
        assert trained.report.best.test.f1 == 1.0


def noisy_dataset(n: int = 50, seed: int = 4) -> LabeledDataset:
    """Class words plus shared noise, and one token unique to each comment,
    so every fold holds tokens no other fold has."""
    rng = random.Random(seed)
    entries = []
    for i in range(n):
        label = OFF if rng.random() < 0.5 else NOT
        cue = "vile" if (label is OFF) == (rng.random() < 0.8) else "kind"
        noise = " ".join(rng.choice(["ok", "words", "here", "Now!", "then"]) for _ in range(3))
        entries.append((f"c{i}", f"{cue} {noise} only{i}", label))
    return LabeledDataset(entries=tuple(entries))


class TestPreprocessOnce:
    CONFIG = RunConfig(model="nb", steps=ALL_STEP_NAMES)

    def test_each_comment_preprocessed_once_per_run(self, monkeypatch):
        """Over a run of several cycles, the run's preprocessor is called
        on each comment once, not once per cycle or fold."""
        calls = []
        preprocess = textprep.ChunkMemo.__call__

        def counting(memo, text):
            calls.append(text)
            return preprocess(memo, text)

        monkeypatch.setattr(textprep.ChunkMemo, "__call__", counting)
        data = noisy_dataset()
        run_cycles(data, self.CONFIG.replace(n_cycles=5))
        assert sorted(calls) == sorted(data.texts())

    def test_each_distinct_chunk_tokenized_once_per_run(self, monkeypatch):
        """Over a run, each distinct whitespace chunk, keyed after
        lowercasing, goes through ``run_pipeline`` and its steps once,
        however often it recurs."""
        calls, tokenized = [], []

        def counting(text, *args, **kwargs):
            calls.append(text)
            return run_pipeline(text, *args, **kwargs)

        def counting_tokenize(text):
            tokenized.append(text)
            return tokenize(text)

        monkeypatch.setattr(textprep, "run_pipeline", counting)
        monkeypatch.setattr(textprep, "tokenize", counting_tokenize)
        data = noisy_dataset()
        chunks = [chunk for text in data.texts() for chunk in text.lower().split()]
        run_cycles(data, self.CONFIG.replace(n_cycles=5))
        assert sorted(calls) == sorted(set(chunks))
        assert len(tokenized) == len(set(chunks)) < len(chunks)

    def test_tables_looked_up_a_fixed_number_of_times(self, table_lookups):
        """The data tables are looked up once per run, not per comment."""
        counts = []
        for n in (50, 200):
            table_lookups.clear()
            run_cycles(noisy_dataset(n), self.CONFIG.replace(n_cycles=2))
            counts.append(len(table_lookups))
        assert counts[0] == counts[1] > 0

    def test_data_dir_needs_only_the_tables_the_steps_read(self, tmp_path, monkeypatch):
        (tmp_path / "stopwords.txt").write_text("ok\n", encoding="utf-8")
        monkeypatch.setenv("MODKIT_DATA_DIR", str(tmp_path))
        config = RunConfig(model="nb", steps=("lowercasing", "stopword_removal"))
        trained = run_cycles(noisy_dataset(), config)
        assert "ok" not in trained.tfidf.vocabulary and "vile" in trained.tfidf.vocabulary

    def test_vocabulary_is_the_best_train_fold_in_first_seen_order(self):
        data = noisy_dataset()
        trained = run_cycles(data, self.CONFIG.replace(n_cycles=5))
        # neither the first nor the last cycle, so keeping the wrong
        # cycle's featurizer would show
        assert 0 < trained.report.best_cycle_index < 4
        train_set, val_set, test_set = split(data, self.CONFIG.ratios, trained.report.best.seed)

        def first_seen(part: LabeledDataset) -> list[str]:
            order: dict[str, None] = {}
            for text in part.texts():
                order.update(dict.fromkeys(run_pipeline(text, self.CONFIG.preprocess).tokens))
            return list(order)

        train_terms = first_seen(train_set)
        assert list(trained.tfidf.vocabulary) == train_terms
        assert list(trained.tfidf.vocabulary.values()) == list(range(len(train_terms)))
        held_out_only = set(first_seen(val_set) + first_seen(test_set)) - set(train_terms)
        assert held_out_only and not held_out_only & set(trained.tfidf.vocabulary)
        assert trained.tfidf.doc_count == len(train_set)


class TestPersistence:
    def test_nb_round_trip(self, tmp_path):
        model = train_nb(BAD_GOOD_X, BAD_GOOD_Y)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, NBModel)
        assert loaded.alpha == model.alpha
        assert loaded.log_prior == model.log_prior
        assert loaded.log_likelihood == model.log_likelihood

    def test_lr_round_trip(self, tmp_path):
        model = train_lr(BAD_GOOD_X, BAD_GOOD_Y, epochs=20)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, LRModel)
        assert loaded.weights == model.weights
        assert loaded.bias == model.bias
        assert loaded.epochs == model.epochs

    @pytest.mark.parametrize("kind", ["nb", "lr"])
    def test_missing_key_is_schema_violation(self, tmp_path, kind):
        X, y = tfidf_matrix(9)
        model = train_nb(X, y) if kind == "nb" else train_lr(X, y, epochs=5)
        path = tmp_path / "model.json"
        save_model(model, path)
        obj = json.loads(path.read_text())
        for key in [k for k in obj if k != "kind"]:
            path.write_text(json.dumps({k: v for k, v in obj.items() if k != key}))
            with pytest.raises(SchemaViolationError, match=key):
                load_model(path)

    def test_malformed_entries_are_schema_violations(self, tmp_path):
        prior = {"offensive": -1.0, "not_offensive": -1.0}
        path = tmp_path / "model.json"
        for obj in (
            [],
            {"kind": "svm"},
            {"kind": "lr", "bias": 0.0, "weights": ["x"], "hyperparams": {}},
            {"kind": "nb", "alpha": 1.0, "log_prior": {}, "log_likelihood": {}},
            {"kind": "nb", "alpha": 1.0, "log_prior": prior,
             "log_likelihood": {"not_offensive": [-1.0], "offensive": [-1.0, -2.0]}},
            {"kind": "nb", "alpha": 1.0, "log_prior": prior,
             "log_likelihood": {"not_offensive": {}, "offensive": {}}},
            {"kind": "nb", "alpha": 1.0, "log_prior": prior,
             "log_likelihood": {"not_offensive": [-1.0], "offensive": ["x"]}},
            {"kind": "nb", "alpha": 1.0, "log_prior": [-1.0, -1.0],
             "log_likelihood": {"not_offensive": [-1.0], "offensive": [-1.0]}},
            # the format with one object per term, "vocab_size" and "terms"
            {"kind": "nb", "alpha": 1.0, "vocab_size": 1, "log_prior": prior,
             "terms": [{"index": 0, "log_likelihood_off": -1.0, "log_likelihood_not": -1.0}]},
        ):
            path.write_text(json.dumps(obj))
            with pytest.raises(SchemaViolationError):
                load_model(path)

    def test_invalid_json_is_malformed(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"kind": "lr",', encoding="utf-8")
        with pytest.raises(MalformedJsonError):
            load_model(path)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["nb", "lr"])
    def test_file_is_json_dumps_text(self, tmp_path, kind, seed):
        """The file is the text of ``json.dumps(obj, ensure_ascii=False)``
        byte for byte, with no terms or weights too, and loads back."""
        rng = np.random.default_rng(seed)
        width = int(rng.integers(1, 60)) if seed else 0
        values = rng.normal(0, 10.0 ** rng.integers(-300, 300), size=(2, width))
        values[:, ::7], values[:, 3::7] = -0.0, 5e-324  # a signed zero, the least subnormal
        if kind == "nb":
            model = NBModel(
                log_prior=(-rng.random(2)).tolist(), log_likelihood=values.tolist(),
                alpha=[1, 0.5, 1e-9, 3.0][seed],
            )
            obj = {
                "kind": "nb",
                "alpha": model.alpha,
                "log_prior": {
                    "not_offensive": model.log_prior[0],
                    "offensive": model.log_prior[1],
                },
                "log_likelihood": {
                    "not_offensive": model.log_likelihood[0],
                    "offensive": model.log_likelihood[1],
                },
            }
        else:
            model = LRModel(
                weights=values[0].tolist(), bias=float(values[0, 0]) if width else 0.0,
                l2=[1e-4, 0, 0.5, 1e-12][seed], learning_rate=0.1, epochs=[500, 1, 7, 10**6][seed],
            )
            obj = {
                "kind": "lr",
                "bias": model.bias,
                "weights": model.weights,
                "hyperparams": {
                    "learning_rate": model.learning_rate, "epochs": model.epochs, "l2": model.l2,
                },
            }
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_bytes() == json.dumps(obj, ensure_ascii=False).encode("utf-8")
        loaded = load_model(path)
        assert isinstance(loaded, type(model))
        if kind == "nb":
            for field in ("log_prior", "log_likelihood"):
                got, expected = (np.array(getattr(m, field)) for m in (loaded, model))
                assert got.tobytes() == expected.tobytes()
            assert loaded.alpha == model.alpha
        else:
            assert np.array(loaded.weights).tobytes() == np.array(model.weights).tobytes()
            assert (loaded.bias, loaded.l2, loaded.epochs) == (model.bias, model.l2, model.epochs)


# ---------------------------------------------------------------------------
# Dataset identity


def fuzz_dataset_file(seed: int) -> tuple[random.Random, dict]:
    """A seeded dataset as the JSON object ``save_dataset`` writes, with
    non-ASCII ids and messy texts, and the generator that made it."""
    rng = random.Random(seed)
    entries = [
        {"id": f"c{i}{rng.choice(['', 'é', '😂', ' '])}", "text": messy_text(rng), "label": rng.randint(0, 1)}
        for i in range(rng.randint(2, 30))
    ]
    return rng, {"entries": entries}


def digest(text: str) -> str:
    return models.dataset_sha256(corpus.dataset_from_json(text))


#: Rewritings of a dataset file that keep its ordered entries.
SAME_ENTRIES = {
    "reindented": lambda rng, obj: json.dumps(
        obj, ensure_ascii=False, indent=rng.choice([None, 0, 1, 4, "\t"])
    ),
    "keys_reordered": lambda rng, obj: json.dumps(
        {"entries": [dict(rng.sample(list(e.items()), 3)) for e in obj["entries"]]}, ensure_ascii=False
    ),
    "ascii_escaped": lambda rng, obj: json.dumps(obj, ensure_ascii=True),
    "float_labels": lambda rng, obj: json.dumps(
        {"entries": [{**e, "label": float(e["label"])} for e in obj["entries"]]}, ensure_ascii=False
    ),
    "trailing_newline": lambda rng, obj: json.dumps(obj, ensure_ascii=False, indent=2) + "\n",
    "old_provenance": lambda rng, obj: json.dumps(
        {**obj, "provenance": rng.choice([{e["id"]: "p1" for e in obj["entries"]}, {}, [1], None, 7])},
        ensure_ascii=False,
    ),
}


def changed_entries(rng: random.Random, obj: dict, change: str) -> dict:
    entries = [dict(e) for e in obj["entries"]]
    i, j = rng.sample(range(len(entries)), 2)
    if change == "id":
        entries[i]["id"] += "~"
    elif change == "text":
        entries[i]["text"] += rng.choice(["x", " ", "😂", "\u00e9"])
    elif change == "label":
        entries[i]["label"] = 1 - entries[i]["label"]
    else:
        entries[i], entries[j] = entries[j], entries[i]
    return {"entries": entries}


class TestDatasetSha256:
    def test_pinned_digest(self):
        """Pinned dataset identity, checked on every Python version CI
        runs: a change here moves every run directory."""
        dataset = LabeledDataset((
            ("c1", "café ☕ naïve", Label.OFFENSIVE),
            ("c2", 'lol 😂💀 "ok"', Label.NOT_OFFENSIVE),
            ("ü3", "", Label.OFFENSIVE),
        ))
        canonical = (
            '[["c1","caf\\u00e9 \\u2615 na\\u00efve",1],'
            '["c2","lol \\ud83d\\ude02\\ud83d\\udc80 \\"ok\\"",0],["\\u00fc3","",1]]'
        )
        assert models.dataset_sha256(dataset) == hashlib.sha256(canonical.encode()).hexdigest()
        assert models.dataset_sha256(dataset) == (
            "07ede701782b43dcb55b1a61838e019253c9c9df82a4e0f6213d7e34d867061b"
        )

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("rewrite", sorted(SAME_ENTRIES))
    def test_the_same_entries_keep_the_digest(self, tmp_path, rewrite, seed):
        rng, obj = fuzz_dataset_file(seed)
        corpus.save_dataset(corpus.dataset_from_json(json.dumps(obj)), tmp_path / "d.json")
        written = (tmp_path / "d.json").read_bytes().decode("utf-8")
        assert digest(SAME_ENTRIES[rewrite](rng, obj)) == digest(written), (rewrite, seed)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("change", ["id", "text", "label", "swap"])
    def test_changed_entries_move_the_digest(self, change, seed):
        rng, obj = fuzz_dataset_file(seed)
        changed = changed_entries(rng, obj, change)
        assert digest(json.dumps(changed)) != digest(json.dumps(obj)), (change, seed)
