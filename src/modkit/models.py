"""Binary classifiers over TF-IDF features.

Multinomial Naive Bayes treats TF-IDF weights as fractional event
counts (per-class feature mass) with Laplace smoothing; Logistic
Regression is full-batch gradient descent on L2-regularized mean
cross-entropy. Both are deterministic given their inputs, which keeps
whole training runs byte-reproducible on one numpy build and CPU
dispatch; across dispatch paths, whose ``exp``/``log``/``log1p`` may
differ in the last bit, weights agree within 1e-12 relative. No step
calls BLAS, so the BLAS core numpy picks does not matter.

Fitting runs on numpy, which the fitting functions import when first
called. Models are plain floats, and :func:`predict_nb` and
:func:`predict_lr` score token streams through the model's own TF-IDF,
one plain-Python row at a time, so scoring a trained model imports no
numpy.

The acceptance oracles check the code that runs: :func:`nb_log_joint`
is the scorer's joint over a matrix's rows, and :func:`lr_loss` and
:func:`lr_gradients` are the one-fold case of :func:`_lr_step`, the
descent step that trains.

:func:`run_cycles` reproduces the multi-cycle protocol: every cycle
re-splits the dataset 80/10/10 with a fresh seed, trains, scores the
validation fold, and the best cycle by validation F1 supplies the
reported test metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from . import _atomic
from ._frozen import Frozen
from .corpus import LabeledDataset, Label, check_ratios, check_seed, fold_sizes, split
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
from .textprep import PIPELINE_ORDER, ChunkMemo, EmojiMode, PreprocessConfig, Step, TokenStream, _step_tables
from .vectorize import CSRMatrix, Row, TfidfModel, _fit_transform, rows

if TYPE_CHECKING:
    import numpy as np

# Class index convention: index 0 = NOT_OFFENSIVE, index 1 = OFFENSIVE.
_NOT, _OFF = 0, 1
#: The classes' names in model.json, by index.
_CLASSES = ("not_offensive", "offensive")


def _fold_labels(X: CSRMatrix, y: Sequence[Label]) -> np.ndarray:
    """The class indices of ``y``, once the training fold (X, y) is checked:
    of equal lengths, not empty, and holding both classes."""
    import numpy as np
    if len(X) != len(y):
        raise ValueError("X and y must have equal length")
    if len(X) == 0:
        raise ModkitError("training set is empty")
    labels = np.array([1 if label is Label.OFFENSIVE else 0 for label in y])
    if labels.min() == labels.max():
        raise ModkitError("both classes must be present in the training set")
    return labels


def _check_width(n_features: int, n_cols: int) -> None:
    if n_features != n_cols:
        raise SchemaViolationError(
            f"model has {n_features} features but the TF-IDF vocabulary has {n_cols}"
        )


class NBModel(NamedTuple):
    log_prior: list[float]  # by class index
    log_likelihood: list[list[float]]  # by class index, then column
    alpha: float

    @property
    def vocab_size(self) -> int:
        return len(self.log_likelihood[0])


def train_nb(X: CSRMatrix, y: Sequence[Label], alpha: float = 1.0) -> NBModel:
    """Multinomial NB over per-class feature mass.

    mass(t, c) sums the weight of term t across class-c documents;
    log P(t|c) = ln((mass(t,c) + alpha) / (mass(., c) + alpha * V)).
    Priors are class document fractions.
    """
    import numpy as np
    if alpha <= 0:
        raise ConfigError(f"alpha must be > 0, got {alpha}")
    labels = _fold_labels(X, y)
    mass = np.stack([(labels == _NOT) @ X, (labels == _OFF) @ X])
    class_counts = np.array([(labels == _NOT).sum(), (labels == _OFF).sum()])
    log_prior = np.log(class_counts / len(X))
    totals = mass.sum(axis=1, keepdims=True)
    log_likelihood = np.log(mass + alpha) - np.log(totals + alpha * X.n_cols)
    return NBModel(log_prior=log_prior.tolist(), log_likelihood=log_likelihood.tolist(), alpha=alpha)


def nb_log_joint(model: NBModel, X: CSRMatrix) -> np.ndarray:
    """:func:`_nb_joints` over the rows of ``X``, shape (n_rows, 2)."""
    import numpy as np
    _check_width(model.vocab_size, X.n_cols)
    bounds, columns, values = X.indptr.tolist(), X.indices.tolist(), X.data.tolist()
    X_rows = ((columns[a:b], values[a:b]) for a, b in zip(bounds, bounds[1:]))
    return np.array(_nb_joints(model, X_rows), dtype=float).reshape(len(X), 2)


def _nb_joints(model: NBModel, X: Iterable[Row]) -> list[tuple[float, float]]:
    """Per row: log prior + sum_t x_t * log P(t|c), by class index, in
    plain Python: the products added one at a time in column order."""
    (prior_not, prior_off), (ll_not, ll_off) = model.log_prior, model.log_likelihood
    joints = []
    for columns, values in X:
        joint_not = joint_off = 0.0
        for column, value in zip(columns, values):
            joint_not += value * ll_not[column]
            joint_off += value * ll_off[column]
        joints.append((joint_not + prior_not, joint_off + prior_off))
    return joints


def predict_nb(
    model: NBModel, tfidf: TfidfModel, corpus: Iterable[Sequence[str]]
) -> tuple[list[Label], list[float]]:
    """Argmax class of every stream of ``corpus``, featurized by the
    model's ``tfidf`` (:func:`~modkit.vectorize.rows`), and its posterior
    (log-sum-exp stabilized). :class:`SchemaViolationError`, before any
    stream is read, when ``tfidf`` is not as wide as the model.

    Exact ties go to NOT_OFFENSIVE, the conservative moderation default.
    """
    _check_width(model.vocab_size, tfidf.vocab_size)
    labels, posteriors = [], []
    for joint_not, joint_off in _nb_joints(model, rows(tfidf, corpus)):
        top = max(joint_not, joint_off)
        e_not, e_off = math.exp(joint_not - top), math.exp(joint_off - top)
        offensive = joint_off > joint_not
        labels.append(Label.OFFENSIVE if offensive else Label.NOT_OFFENSIVE)
        posteriors.append((e_off if offensive else e_not) / (e_not + e_off))
    return labels, posteriors


class LRModel(NamedTuple):
    weights: list[float]  # by column
    bias: float
    l2: float
    learning_rate: float
    epochs: int
    loss_history: tuple[float, ...] = ()

    @property
    def vocab_size(self) -> int:
        return len(self.weights)


def _sigmoid(z: np.ndarray, e: np.ndarray) -> np.ndarray:
    # two-branch form never exponentiates a positive argument; e = exp(-|z|)
    import numpy as np
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _cross_entropy(z: np.ndarray, y: np.ndarray, e: np.ndarray) -> np.ndarray:
    # log(1 + e^z) - y*z  ==  -[y log p + (1-y) log(1-p)], with
    # log(1 + e^z) = max(z, 0) + log1p(exp(-|z|)) from the sigmoid's e
    import numpy as np
    return np.maximum(z, 0.0) + np.log1p(e) - y * z


def _lr_step(
    X: CSRMatrix | np.ndarray, y: np.ndarray, weights: np.ndarray, bias: np.ndarray | float, l2: float,
    blocks: Sequence[tuple[slice, slice]], n_rows: np.ndarray | int, n_of_column: np.ndarray | int,
    gradient: bool = True,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """One descent step for folds stacked block-diagonally in ``X``: fold j
    has the rows and columns ``blocks[j]``, ``n_rows[j]`` rows and the bias
    ``bias[j]``; ``n_of_column`` is each column's ``n_rows``. Returns each
    fold's mean cross-entropy plus (l2/2)*||w||^2, the weight gradient and
    each fold's bias gradient (both ``None`` unless ``gradient``). Summed
    over its slice in storage order, a fold's values are bit for bit its own."""
    import numpy as np
    z = X @ weights + np.repeat(bias, n_rows)
    e = np.exp(-np.abs(z))

    def sums(values: np.ndarray) -> np.ndarray:
        return np.array([np.add.reduce(values[rows]) for rows, _ in blocks])

    squares = np.array([np.add.reduce(weights[columns] * weights[columns]) for _, columns in blocks])
    loss = sums(_cross_entropy(z, y, e)) / n_rows + 0.5 * l2 * squares
    if not gradient:
        return loss, None, None
    residual = _sigmoid(z, e) - y
    return loss, (residual @ X) / n_of_column + l2 * weights, sums(residual) / n_rows


_ONE_FOLD = [(slice(None), slice(None))]  # all rows and columns, as _lr_step's blocks


def lr_loss(
    weights: np.ndarray, bias: float, X: CSRMatrix | np.ndarray, y: np.ndarray, l2: float
) -> float:
    """Mean cross-entropy + (l2/2)*||w||^2: :func:`_lr_step` on one fold; ``X`` may be dense."""
    return float(_lr_step(X, y, weights, bias, l2, _ONE_FOLD, len(y), len(y), gradient=False)[0][0])


def lr_gradients(
    weights: np.ndarray, bias: float, X: CSRMatrix | np.ndarray, y: np.ndarray, l2: float
) -> tuple[np.ndarray, float]:
    _, grad_w, grad_b = _lr_step(X, y, weights, bias, l2, _ONE_FOLD, len(y), len(y))
    return grad_w, float(grad_b[0])


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
    meet only fold j's weights, and each epoch is one :func:`_lr_step`
    for all folds (the loss after the last step needs no gradient). So
    each model, its ``loss_history`` included, equals bit for bit the
    descent on its fold alone. A loss that is not finite in any fold
    raises :class:`NonFiniteLossError`.
    """
    import numpy as np
    labels = [_fold_labels(X, y).astype(float) for X, y in folds]
    if learning_rate <= 0 or epochs < 1 or l2 < 0:
        raise ConfigError("learning_rate must be > 0, epochs >= 1, l2 >= 0")
    X = CSRMatrix.block_diagonal([X for X, _ in folds])
    y = np.concatenate(labels)
    n_rows = np.array([len(fold) for fold in labels])
    widths = [fold.n_cols for fold, _ in folds]
    n_of_column = np.repeat(n_rows, widths).astype(float)
    row_stops, column_stops = [0, *np.cumsum(n_rows).tolist()], [0, *np.cumsum(widths).tolist()]
    blocks = [(slice(*row_stops[j:j + 2]), slice(*column_stops[j:j + 2])) for j in range(len(folds))]
    weights = np.zeros(X.n_cols)
    bias = np.zeros(len(folds))
    history = []
    # divergence is detected via the finiteness check, so numpy's own
    # overflow warnings on that path are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs + 1):
            last = epoch == epochs
            loss, grad_w, grad_b = _lr_step(X, y, weights, bias, l2, blocks, n_rows, n_of_column, not last)
            if not np.isfinite(loss).all():
                raise NonFiniteLossError("training loss diverged; lower the learning rate")
            history.append(loss)
            if not last:
                weights -= learning_rate * grad_w
                bias -= learning_rate * grad_b
    return [
        LRModel(weights[columns].tolist(), b, l2, learning_rate, epochs, loss_history=tuple(losses))
        for (_, columns), b, losses in zip(blocks, bias.tolist(), np.array(history).T.tolist())
    ]


def _lr_margins(model: LRModel, X: Iterable[Row]) -> list[float]:
    """Per row: w.x + b, in plain Python: the products added one at a
    time in column order, then the bias."""
    weights, bias = model.weights, model.bias
    margins = []
    for columns, values in X:
        margin = 0.0
        for column, value in zip(columns, values):
            margin += value * weights[column]
        margins.append(margin + bias)
    return margins


def _probability(z: float) -> float:
    # the two-branch sigmoid, which never exponentiates a positive argument
    e = math.exp(-abs(z))
    return (1.0 if z >= 0 else e) / (1.0 + e)


def predict_lr(
    model: LRModel, tfidf: TfidfModel, corpus: Iterable[Sequence[str]]
) -> tuple[list[Label], list[float]]:
    """Probability sigmoid(w.x + b) of every stream of ``corpus``, as
    :func:`predict_nb` takes them; OFFENSIVE iff it is >= 0.5."""
    _check_width(model.vocab_size, tfidf.vocab_size)
    probability = [_probability(z) for z in _lr_margins(model, rows(tfidf, corpus))]
    labels = [Label.OFFENSIVE if p >= 0.5 else Label.NOT_OFFENSIVE for p in probability]
    return labels, probability


def numpy_runtime() -> dict:
    """numpy's version and the SIMD targets it runs on this CPU: its
    baseline, then each dispatch target the CPU has and the environment
    leaves on."""
    import numpy as np
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__,
        )
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__,
        )
    used = [*__cpu_baseline__, *(f for f in __cpu_dispatch__ if __cpu_features__.get(f))]
    return {"version": np.__version__, "simd": used}


# ---------------------------------------------------------------------------
# Training cycles


#: The steps a run takes unless told otherwise: all but emoji encoding.
DEFAULT_STEPS = ("lowercasing", "punctuation_removal", "stopword_removal", "lemmatization")


def _fits(value, default) -> bool:
    """Whether a config value has its field default's type (arrays itemwise)."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(item, default[0]) for item in value)
    return is_number(value) if isinstance(default, float) else type(value) is type(default)


class RunConfig(Frozen):
    """One experiment variant: the model and its hyperparameters, the
    preprocessing steps by :class:`Step` value, the split ratios, and
    ``n_cycles`` cycles seeded ``seed``, ``seed + 1``, ... This is the one
    check of a run's config, the command line's too: an unknown field, a
    value unlike its default's type (a list counts as a tuple, an int as
    a float) and one out of range raise :class:`ConfigError`; each
    cycle's seed lies in 0..2**64 - 1. ``dataset`` and ``out`` are the
    command line's paths; the library reads neither. One experiment has
    one spelling: ``steps`` are kept once each in :data:`PIPELINE_ORDER`,
    and the float fields and ``ratios`` as floats, so that ``1`` and
    ``1.0`` are one value."""

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
        "out": "runs",
        "variant_name": "",
    }
    __slots__ = tuple(DEFAULTS)

    def __init__(self, /, **values):  # self positional-only: a field named 'self' is unknown
        unknown = values.keys() - self.DEFAULTS.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, value in values.items():
            if not _fits(value, self.DEFAULTS[name]):
                raise ConfigError(f"config {name!r} is unlike its default {self.DEFAULTS[name]!r}")
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
        check_seed(self.seed, self.n_cycles)

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
        """Run identity: every field but ``out``, the dataset by
        :func:`dataset_sha256`, and the tables the steps read by their sha256."""
        payload = self.asdict()
        del payload["out"]
        payload.update(dataset=dataset_sha256, tables_sha256=tables_sha256)
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        )
        return digest.hexdigest()[:12]

    def tables_sha256(self) -> str:
        """sha256 of the data directory's tables that the steps read, as
        canonical JSON: sets and mappings sorted, the lemma suffix rules in
        their order. So the stop list counts by its words, not its comments."""
        canonical = json.dumps(
            _step_tables(self.preprocess),
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


def _preprocess_all(dataset: LabeledDataset, preprocess: PreprocessConfig) -> list[TokenStream]:
    return list(map(ChunkMemo(preprocess), dataset.texts()))


def _train_all(
    folds: Sequence[tuple[CSRMatrix, Sequence[Label]]], config: RunConfig
) -> list[NBModel | LRModel]:
    """One model per (X, y) training fold."""
    if config.model == "nb":
        return [train_nb(X, y, alpha=config.alpha) for X, y in folds]
    return _train_lr_folds(folds, config.learning_rate, config.epochs, config.l2)


def _score(
    model: NBModel | LRModel, tfidf: TfidfModel, streams: Iterable[Sequence[str]], y: Sequence[Label], name: str
) -> MetricsReport:
    predict = predict_nb if isinstance(model, NBModel) else predict_lr
    y_pred, _ = predict(model, tfidf, streams)
    return metrics(confusion(y, y_pred), variant_name=name)


def evaluate_on(
    tfidf: TfidfModel, model: NBModel | LRModel, dataset: LabeledDataset, config: RunConfig
) -> MetricsReport:
    """The metrics of ``model`` on ``dataset``, featurized by ``tfidf``,
    each comment preprocessed as it is scored; :class:`SchemaViolationError`,
    before any is, when their widths differ."""
    streams = map(ChunkMemo(config.preprocess), dataset.texts())
    return _score(model, tfidf, streams, dataset.labels(), config.name)


def run_cycles(dataset: LabeledDataset, config: RunConfig) -> TrainedArtifacts:
    """Repeat split/train/validate; keep the best cycle's artifacts.

    Cycle i of ``config.n_cycles`` splits with seed ``config.seed + i``.
    Best = highest validation F1, ties broken by higher validation
    accuracy, then lower index. Test metrics are computed for every cycle
    but only the best cycle's are authoritative. Every comment is
    preprocessed once per run, with the data directory's tables; each
    cycle fits TF-IDF on its own train fold only. Reports are named
    ``config.name``.

    All cycles are split, and their train folds fitted and transformed
    to numpy matrices, first. NB then trains per cycle, and LR trains
    every cycle in one shared descent (see :func:`_train_lr_folds`) whose
    models equal, bit for bit, those of :func:`train_lr` on each cycle's
    train fold. Each cycle's model then scores its validation and test
    streams through that cycle's TF-IDF, as :func:`evaluate_on` scores.

    A fold that :func:`fold_sizes` leaves empty raises
    :class:`ModkitError`, naming it, before any comment is preprocessed.
    """
    sizes = fold_sizes(len(dataset), config.ratios)
    empty = [fold for fold, size in zip(("train", "validation", "test"), sizes) if not size]
    if empty:
        raise ModkitError(
            f"the {' and '.join(empty)} fold{'s' if len(empty) > 1 else ''} of "
            f"{len(dataset)} comments split by ratios {list(config.ratios)} would be empty"
        )
    stream_of = dict(zip(dataset.ids(), _preprocess_all(dataset, config.preprocess)))

    def streams(part: LabeledDataset) -> list[TokenStream]:
        return [stream_of[cid] for cid in part.ids()]

    seeds = range(config.seed, config.seed + config.n_cycles)
    featurizers, folds = [], []  # per cycle: TF-IDF; train (X, y), validation and test (streams, y)
    for seed in seeds:
        parts = split(dataset, config.ratios, seed)
        tfidf, train_X = _fit_transform(streams(parts[0]))
        featurizers.append(tfidf)
        features = [train_X, *map(streams, parts[1:])]
        folds.append([(X, part.labels()) for X, part in zip(features, parts)])
    trained = _train_all([train for train, _, _ in folds], config)
    name = config.name
    results = [
        CycleResult(seed, _score(model, tfidf, *val, name), _score(model, tfidf, *test, name))
        for seed, tfidf, model, (_, val, test) in zip(seeds, featurizers, trained, folds)
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
            "log_prior": dict(zip(_CLASSES, model.log_prior)),
            "log_likelihood": dict(zip(_CLASSES, map(list, model.log_likelihood))),
        }
    else:
        hyper = {"learning_rate": model.learning_rate, "epochs": model.epochs, "l2": model.l2}
        weights = list(model.weights)  # a model built by hand may hold a numpy array
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
            ll = [obj["log_likelihood"][name] for name in _CLASSES]
            if not all(isinstance(row, list) and len(row) == len(ll[0]) for row in ll) or not all(
                map(is_number, [*ll[0], *ll[1], *prior, obj["alpha"]])
            ):
                raise ValueError("log_likelihood rows need one number per term each")
            return NBModel(
                log_prior=list(map(float, prior)),
                log_likelihood=[list(map(float, row)) for row in ll],
                alpha=obj["alpha"],
            )
        hyper, weights, bias = obj["hyperparams"], obj["weights"], obj["bias"]
        if type(hyper["epochs"]) is not int or not all(
            map(is_number, [*weights, bias, hyper["l2"], hyper["learning_rate"]])
        ):
            raise ValueError("weights, bias and hyperparameters must be numbers")
        return LRModel(
            weights=list(map(float, weights)),
            bias=float(bias),
            l2=hyper["l2"],
            learning_rate=hyper["learning_rate"],
            epochs=hyper["epochs"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolationError(f"malformed {kind} model: {exc!r}", str(path)) from exc
