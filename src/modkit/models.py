"""Binary classifiers over TF-IDF features.

Multinomial Naive Bayes treats TF-IDF weights as fractional event
counts (per-class feature mass) with Laplace smoothing; Logistic
Regression is full-batch gradient descent on L2-regularized mean
cross-entropy. Both are deterministic given their inputs, which keeps
whole training runs byte-reproducible on one numpy build and CPU
dispatch; across dispatch paths, whose ``exp``/``log``/``log1p`` may
differ in the last bit, weights agree within 1e-12 relative.

:func:`run_cycles` reproduces the multi-cycle protocol: every cycle
re-splits the dataset 80/10/10 with a fresh seed, trains, scores the
validation fold, and the best cycle by validation F1 supplies the
reported test metrics.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import _atomic
from ._frozen import Frozen
from .corpus import LabeledDataset, Label, check_ratios, split
from .errors import (
    ConfigError,
    ModkitError,
    NonFiniteLossError,
    SchemaViolationError,
    is_number,
    load_json,
    read_json_text,
)
from .evaluate import MetricsReport, confusion, metrics
from .textprep import (
    PIPELINE_ORDER, EmojiMode, PreprocessConfig, Step, TokenStream, _step_tables, run_pipeline,
)
from .vectorize import CSRMatrix, TfidfModel, _fit_transform, transform_all

# Class index convention: column 0 = NOT_OFFENSIVE, column 1 = OFFENSIVE.
_NOT, _OFF = 0, 1
#: The classes' names in model.json, by index.
_CLASSES = ("not_offensive", "offensive")


def _as_label_array(y: Sequence[Label]) -> np.ndarray:
    return np.array([1 if label is Label.OFFENSIVE else 0 for label in y])


def _check_width(n_features: int, X: CSRMatrix) -> None:
    if n_features != X.n_cols:
        raise SchemaViolationError(
            f"model has {n_features} features but the TF-IDF vocabulary has {X.n_cols}"
        )


class NBModel(NamedTuple):
    log_prior: np.ndarray  # shape (2,)
    log_likelihood: np.ndarray  # shape (2, vocab_size)
    alpha: float

    @property
    def vocab_size(self) -> int:
        return self.log_likelihood.shape[1]


def train_nb(X: CSRMatrix, y: Sequence[Label], alpha: float = 1.0) -> NBModel:
    """Multinomial NB over per-class feature mass.

    mass(t, c) sums the weight of term t across class-c documents;
    log P(t|c) = ln((mass(t,c) + alpha) / (mass(., c) + alpha * V)).
    Priors are class document fractions.
    """
    if alpha <= 0:
        raise ConfigError(f"alpha must be > 0, got {alpha}")
    if len(X) != len(y):
        raise ValueError("X and y must have equal length")
    if len(X) == 0:
        raise ModkitError("training set is empty")
    labels = _as_label_array(y)
    if labels.min() == labels.max():
        raise ModkitError("both classes must be present in the training set")
    mass = np.stack([(labels == _NOT) @ X, (labels == _OFF) @ X])
    class_counts = np.array([(labels == _NOT).sum(), (labels == _OFF).sum()])
    log_prior = np.log(class_counts / len(X))
    totals = mass.sum(axis=1, keepdims=True)
    log_likelihood = np.log(mass + alpha) - np.log(totals + alpha * X.n_cols)
    return NBModel(log_prior=log_prior, log_likelihood=log_likelihood, alpha=alpha)


def nb_log_joint(model: NBModel, X: CSRMatrix) -> np.ndarray:
    """Per row: log prior + sum_t x_t * log P(t|c), shape (n_rows, 2)."""
    _check_width(model.vocab_size, X)
    return np.stack([X @ ll for ll in model.log_likelihood], axis=1) + model.log_prior


def predict_nb(model: NBModel, X: CSRMatrix) -> tuple[list[Label], np.ndarray]:
    """Argmax class of every row and its posterior (log-sum-exp stabilized).

    Exact ties go to NOT_OFFENSIVE, the conservative moderation default.
    """
    scores = nb_log_joint(model, X)
    posterior = np.exp(scores - scores.max(axis=1, keepdims=True))
    posterior /= posterior.sum(axis=1, keepdims=True)
    offensive = scores[:, _OFF] > scores[:, _NOT]
    labels = [Label.OFFENSIVE if off else Label.NOT_OFFENSIVE for off in offensive]
    return labels, np.where(offensive, posterior[:, _OFF], posterior[:, _NOT])


class LRModel(NamedTuple):
    weights: np.ndarray
    bias: float
    l2: float
    learning_rate: float
    epochs: int
    loss_history: tuple[float, ...] = ()


def _sigmoid(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # two-branch form never exponentiates a positive argument; e = exp(-|z|)
    e = np.exp(-np.abs(z)) if e is None else e
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _cross_entropy(z: np.ndarray, y: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    # log(1 + e^z) - y*z  ==  -[y log p + (1-y) log(1-p)], with
    # log(1 + e^z) = max(z, 0) + log1p(exp(-|z|)) from the sigmoid's e
    e = np.exp(-np.abs(z)) if e is None else e
    return np.maximum(z, 0.0) + np.log1p(e) - y * z


def lr_loss(
    weights: np.ndarray, bias: float, X: CSRMatrix | np.ndarray, y: np.ndarray, l2: float
) -> float:
    """Mean cross-entropy + (l2/2)*||w||^2, numerically stable.

    The bias is not regularized. The gradient check passes dense arrays.
    """
    per_example = _cross_entropy(X @ weights + bias, y)
    return float(np.add.reduce(per_example) / len(per_example) + 0.5 * l2 * (weights @ weights))


def lr_gradients(
    weights: np.ndarray, bias: float, X: CSRMatrix | np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    residual = _sigmoid(X @ weights + bias) - y
    return (residual @ X) / len(y) + l2 * weights, float(np.add.reduce(residual) / len(residual))


def train_lr(
    X: CSRMatrix,
    y: Sequence[Label],
    learning_rate: float = 0.1,
    epochs: int = 500,
    l2: float = 1e-4,
) -> LRModel:
    """Full-batch gradient descent from zero-initialized weights.

    Zero initialization plus full batches make training deterministic.
    This is the one-fold case of :func:`_train_lr_folds`, which trains
    every cycle of :func:`run_cycles` at once.
    """
    return _train_lr_folds([(X, y)], learning_rate, epochs, l2)[0]


def _train_lr_folds(
    folds: Sequence[tuple[CSRMatrix, Sequence[Label]]],
    learning_rate: float,
    epochs: int,
    l2: float,
) -> list[LRModel]:
    """One model per (X, y) fold, from one descent over all of them.

    The folds' matrices are stacked block-diagonally, so fold j's rows
    meet only fold j's weights and every epoch is one set of numpy calls
    for all folds. Each epoch computes the margins z = Xw + b and
    exp(-|z|) once: they give the loss after the previous step and the
    sigmoid of the next. Products, sigmoid and updates are elementwise or
    summed in storage order within a fold; the bias gradient and the loss
    are summed per fold over its contiguous slice, and the L2 term is the
    fold's own ``w @ w``. So each model, its ``loss_history`` included,
    equals bit for bit the descent on its fold alone. A loss that is not
    finite in any fold raises :class:`NonFiniteLossError`.
    """
    labels = []
    for X, y in folds:
        if len(X) != len(y):
            raise ValueError("X and y must have equal length")
        if len(X) == 0:
            raise ModkitError("training set is empty")
        labels.append(_as_label_array(y).astype(float))
        if labels[-1].min() == labels[-1].max():
            raise ModkitError("both classes must be present in the training set")
    if learning_rate <= 0 or epochs < 1 or l2 < 0:
        raise ConfigError("learning_rate must be > 0, epochs >= 1, l2 >= 0")
    X = CSRMatrix.block_diagonal([X for X, _ in folds])
    y = np.concatenate(labels)
    n_rows = np.array([len(fold) for fold in labels])
    widths = [fold.n_cols for fold, _ in folds]
    n_of_column = np.repeat(n_rows, widths).astype(float)
    stops = np.cumsum(n_rows).tolist()
    row_slices = [slice(a, b) for a, b in zip([0, *stops], stops)]
    weights = np.zeros(X.n_cols)
    bias = np.zeros(len(folds))
    fold_weights = np.split(weights, np.cumsum(widths)[:-1])  # views: weights changes in place

    def fold_sums(values: np.ndarray) -> np.ndarray:
        return np.array([np.add.reduce(values[rows]) for rows in row_slices])

    def losses(z: np.ndarray, e: np.ndarray) -> np.ndarray:
        squares = np.array([w @ w for w in fold_weights])
        return fold_sums(_cross_entropy(z, y, e)) / n_rows + 0.5 * l2 * squares

    # divergence is detected via the finiteness check, so numpy's own
    # overflow warnings on that path are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        z = X @ weights + bias.repeat(n_rows)
        e = np.exp(-np.abs(z))
        history = [losses(z, e)]
        for _ in range(epochs):
            residual = _sigmoid(z, e) - y
            grad_w = (residual @ X) / n_of_column + l2 * weights
            grad_b = fold_sums(residual) / n_rows
            weights -= learning_rate * grad_w
            bias -= learning_rate * grad_b
            z = X @ weights + bias.repeat(n_rows)
            e = np.exp(-np.abs(z))
            loss = losses(z, e)
            if not np.isfinite(loss).all():
                raise NonFiniteLossError("training loss diverged; lower the learning rate")
            history.append(loss)
    history_of = np.array(history).T.tolist()
    return [
        LRModel(
            weights=w.copy(),
            bias=b,
            l2=l2,
            learning_rate=learning_rate,
            epochs=epochs,
            loss_history=tuple(losses_j),
        )
        for w, b, losses_j in zip(fold_weights, bias.tolist(), history_of)
    ]


def predict_lr(model: LRModel, X: CSRMatrix) -> tuple[list[Label], np.ndarray]:
    """Probability sigmoid(w.x + b) of every row; OFFENSIVE iff it is >= 0.5."""
    _check_width(len(model.weights), X)
    probability = _sigmoid(X @ model.weights + model.bias)
    labels = [Label.OFFENSIVE if p >= 0.5 else Label.NOT_OFFENSIVE for p in probability]
    return labels, probability


# ---------------------------------------------------------------------------
# Training cycles


#: The steps a run takes unless told otherwise: all but emoji encoding.
DEFAULT_STEPS = ("lowercasing", "punctuation_removal", "stopword_removal", "lemmatization")


class RunConfig(Frozen):
    """One experiment variant: the model and its hyperparameters, the
    preprocessing steps by :class:`Step` value, the split ratios, and
    ``n_cycles`` cycles seeded ``seed``, ``seed + 1``, ... Every value
    out of range raises :class:`ConfigError` here. ``dataset``,
    ``stoplist`` and ``out`` are the command line's paths; the library
    reads none of them. One experiment has one spelling: ``steps`` are
    kept once each in :data:`PIPELINE_ORDER`, and the float fields and
    ``ratios`` as floats, so that ``1`` and ``1.0`` are one value."""

    #: Every field and its default, in order; a value has its default's type.
    #: A config is built by keyword, and :meth:`replace` checks its changes too.
    DEFAULTS = {
        "seed": 0,
        "model": "nb",
        "steps": DEFAULT_STEPS,
        "emoji_mode": "ml",
        "alpha": 1.0,
        "learning_rate": 0.1,
        "epochs": 500,
        "l2": 1e-4,
        "ratios": (0.8, 0.1, 0.1),
        "n_cycles": 1,
        "dataset": "",
        "stoplist": "",
        "out": "runs",
        "variant_name": "",
    }
    __slots__ = tuple(DEFAULTS)

    def __init__(self, **values):
        unknown = values.keys() - self.DEFAULTS.keys()
        if unknown:
            raise TypeError(f"unknown RunConfig fields: {sorted(unknown)}")
        for name, default in self.DEFAULTS.items():
            value = values.get(name, default)
            object.__setattr__(self, name, float(value) if type(default) is float else value)
        object.__setattr__(self, "ratios", tuple(map(float, self.ratios)))
        if self.model not in ("nb", "lr"):
            raise ConfigError(f"model must be 'nb' or 'lr', got {self.model!r}")
        if self.emoji_mode not in ("ml", "bert"):
            raise ConfigError(f"emoji-mode must be 'ml' or 'bert', got {self.emoji_mode!r}")
        try:
            steps = {Step(name) for name in self.steps}
        except ValueError as exc:
            raise ConfigError(f"unknown preprocessing step: {exc}") from exc
        object.__setattr__(self, "steps", tuple(s.value for s in PIPELINE_ORDER if s in steps))
        check_ratios(self.ratios)
        for name, ok, bound in (
            ("n_cycles", self.n_cycles >= 1, ">= 1"),
            ("alpha", self.alpha > 0, "> 0"),
            ("learning_rate", self.learning_rate > 0, "> 0"),
            ("epochs", self.epochs >= 1, ">= 1"),
            ("l2", self.l2 >= 0, ">= 0"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {bound}, got {getattr(self, name)}")

    def asdict(self) -> dict:
        """Every field by name, in order."""
        return {name: getattr(self, name) for name in self.__slots__}

    def replace(self, **changes) -> RunConfig:
        """A config with ``changes`` made, checked as any other."""
        return RunConfig(**{**self.asdict(), **changes})

    @property
    def preprocess(self) -> PreprocessConfig:
        steps = frozenset(Step(name) for name in self.steps)
        return PreprocessConfig(steps=steps, emoji_mode=EmojiMode(self.emoji_mode))

    @property
    def name(self) -> str:
        """The variant's report name: ``variant_name``, or the paper's
        name for the model with or without emoji encoding."""
        if self.variant_name:
            return self.variant_name
        base = "Naive Bayes" if self.model == "nb" else "Logistic Regression"
        return f"{base} {'Emojis' if Step.EMOJI_ENCODING.value in self.steps else 'Default'}"

    def hash(self, dataset_sha256: str, tables_sha256: str) -> str:
        """Run identity: every field but ``out`` and ``stoplist``, the
        dataset by :func:`dataset_sha256`, and the tables the steps read
        (the stop list's words included) by their sha256."""
        payload = self.asdict()
        del payload["out"], payload["stoplist"]
        payload.update(dataset=dataset_sha256, tables_sha256=tables_sha256)
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        )
        return digest.hexdigest()[:12]

    def tables_sha256(self, stoplist: frozenset[str] | None) -> str:
        """sha256 of the tables the steps read, as canonical JSON: sets and
        mappings sorted, the lemma suffix rules in their order. A stop-list
        file counts by the words it gives, so its comments do not."""
        canonical = json.dumps(
            _step_tables(self.preprocess, stoplist),
            sort_keys=True,
            default=lambda table: (
                sorted(table) if isinstance(table, frozenset) else [table.exceptions, table.suffix_rules]
            ),
        )
        return hashlib.sha256(canonical.encode()).hexdigest()


def dataset_sha256(dataset: LabeledDataset) -> str:
    """The sha256 of the dataset's ordered entries, in hex: that of
    ``[[id, text, label], ...]`` as compact ASCII JSON. So a file's layout,
    key order and escapes, and any key it holds besides the entries', do
    not count; the entries' order does."""
    rows = [[cid, text, label.value] for cid, text, label in dataset.entries]
    canonical = json.dumps(rows, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def file_sha256(path: str | Path) -> str:
    """The sha256 of a file's bytes, in hex."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class CycleResult(NamedTuple):
    seed: int
    validation: MetricsReport
    test: MetricsReport


class TrainReport(NamedTuple):
    cycles: tuple[CycleResult, ...]
    best_cycle_index: int
    variant_name: str = ""

    @property
    def best(self) -> CycleResult:
        return self.cycles[self.best_cycle_index]


class TrainedArtifacts(NamedTuple):
    """Fitted featurizer and model from the best cycle."""

    tfidf: TfidfModel
    model: NBModel | LRModel
    report: TrainReport


def _preprocess_all(
    dataset: LabeledDataset, preprocess: PreprocessConfig, stoplist: frozenset[str] | None
) -> list[TokenStream]:
    tables = _step_tables(preprocess, stoplist)
    return [
        run_pipeline(text, preprocess, source_id=cid, **tables)
        for cid, text, _ in dataset.entries
    ]


def _train_all(
    folds: Sequence[tuple[CSRMatrix, Sequence[Label]]], config: RunConfig
) -> list[NBModel | LRModel]:
    """One model per (X, y) training fold."""
    if config.model == "nb":
        return [train_nb(X, y, alpha=config.alpha) for X, y in folds]
    return _train_lr_folds(folds, config.learning_rate, config.epochs, config.l2)


def _score(model: NBModel | LRModel, X: CSRMatrix, y: Sequence[Label], name: str) -> MetricsReport:
    predict = predict_nb if isinstance(model, NBModel) else predict_lr
    y_pred, _ = predict(model, X)
    return metrics(confusion(y, y_pred), variant_name=name)


def evaluate_on(
    tfidf: TfidfModel,
    model: NBModel | LRModel,
    dataset: LabeledDataset,
    config: RunConfig,
    stoplist: frozenset[str] | None = None,
) -> MetricsReport:
    X = transform_all(tfidf, _preprocess_all(dataset, config.preprocess, stoplist))
    return _score(model, X, dataset.labels(), config.name)


def run_cycles(
    dataset: LabeledDataset, config: RunConfig, stoplist: frozenset[str] | None = None
) -> TrainedArtifacts:
    """Repeat split/train/validate; keep the best cycle's artifacts.

    Cycle i of ``config.n_cycles`` splits with seed ``config.seed + i``.
    Best = highest validation F1, ties broken by higher validation
    accuracy, then lower index. Test metrics are computed for every cycle
    but only the best cycle's are authoritative. ``stoplist`` is the
    stop-word removal step's list, the bundled one when None. Every
    comment is preprocessed once per run; each cycle fits TF-IDF on its
    own train fold only. Reports are named ``config.name``.

    All cycles are split, fitted and transformed first. NB then trains
    per cycle, and LR trains every cycle in one shared descent (see
    :func:`_train_lr_folds`) whose models equal, bit for bit, those of
    :func:`train_lr` on each cycle's train fold.
    """
    stream_of = dict(zip(dataset.ids(), _preprocess_all(dataset, config.preprocess, stoplist)))

    def streams(part: LabeledDataset) -> list[TokenStream]:
        return [stream_of[cid] for cid in part.ids()]

    seeds = range(config.seed, config.seed + config.n_cycles)
    featurizers, folds = [], []  # per cycle: its TF-IDF; its train, validation and test (X, y)
    for seed in seeds:
        parts = split(dataset, config.ratios, seed)
        tfidf, train_X = _fit_transform(streams(parts[0]))
        featurizers.append(tfidf)
        rows = [train_X, *(transform_all(tfidf, streams(part)) for part in parts[1:])]
        folds.append([(X, part.labels()) for X, part in zip(rows, parts)])
    trained = _train_all([train for train, _, _ in folds], config)
    name = config.name
    results = [
        CycleResult(seed, validation=_score(model, *val, name), test=_score(model, *test, name))
        for seed, model, (_, val, test) in zip(seeds, trained, folds)
    ]
    best = select_best_cycle(results)
    report = TrainReport(cycles=tuple(results), best_cycle_index=best, variant_name=name)
    return TrainedArtifacts(tfidf=featurizers[best], model=trained[best], report=report)


def select_best_cycle(results: Sequence[CycleResult]) -> int:
    """Highest validation F1; ties by validation accuracy, then the
    earliest cycle."""
    return max(
        range(len(results)),
        key=lambda i: (results[i].validation.f1, results[i].validation.accuracy, -i),
    )


# ---------------------------------------------------------------------------
# Persistence


def save_model(model: NBModel | LRModel, path: str | Path) -> None:
    """Write ``{"kind": "nb", "alpha", "log_prior": {class: prior},
    "log_likelihood": {class: [one value per term]}}``, the classes being
    ``not_offensive`` and ``offensive``, or ``{"kind": "lr", "bias",
    "weights", "hyperparams": {"learning_rate", "epochs", "l2"}}``."""
    if isinstance(model, NBModel):
        obj = {
            "kind": "nb",
            "alpha": model.alpha,
            "log_prior": dict(zip(_CLASSES, model.log_prior.tolist())),
            "log_likelihood": dict(zip(_CLASSES, model.log_likelihood.tolist())),
        }
    else:
        hyper = {"learning_rate": model.learning_rate, "epochs": model.epochs, "l2": model.l2}
        weights = model.weights.tolist()
        obj = {"kind": "lr", "bias": model.bias, "weights": weights, "hyperparams": hyper}
    _atomic.write_text(path, json.dumps(obj, ensure_ascii=False))


def load_model(path: str | Path) -> NBModel | LRModel:
    obj = load_json(read_json_text(path), f"invalid model JSON in {path}")
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind not in ("nb", "lr"):
        raise SchemaViolationError(f"unknown model kind {kind!r}", str(path))
    try:
        if kind == "nb":
            prior = [obj["log_prior"][name] for name in _CLASSES]
            rows = [obj["log_likelihood"][name] for name in _CLASSES]
            if not all(isinstance(row, list) and len(row) == len(rows[0]) for row in rows) or not all(
                map(is_number, [*rows[0], *rows[1], *prior, obj["alpha"]])
            ):
                raise ValueError("log_likelihood rows need one number per term each")
            return NBModel(
                log_prior=np.array(prior, dtype=float),
                log_likelihood=np.array(rows, dtype=float),
                alpha=obj["alpha"],
            )
        hyper, weights, bias = obj["hyperparams"], obj["weights"], obj["bias"]
        if type(hyper["epochs"]) is not int or not all(
            map(is_number, [*weights, bias, hyper["l2"], hyper["learning_rate"]])
        ):
            raise ValueError("weights, bias and hyperparameters must be numbers")
        return LRModel(
            weights=np.array(weights, dtype=float),
            bias=float(bias),
            l2=hyper["l2"],
            learning_rate=hyper["learning_rate"],
            epochs=hyper["epochs"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolationError(f"malformed {kind} model: {exc!r}", str(path)) from exc
