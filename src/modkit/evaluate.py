"""Confusion matrices, the five score metrics and variant report tables.

OFFENSIVE is the positive class everywhere, so recall reads as "share
of offensive comments caught". Degenerate 0/0 metrics are reported as
0.0 with a flag instead of raising, because evaluation must survive
lopsided folds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Sequence

from . import _resources
from ._frozen import Frozen
from .corpus import Label
from .errors import ModkitError, SchemaViolationError, is_number, load_json, read_json_text


class ConfusionMatrix(Frozen):
    __slots__ = ("tp", "fp", "fn", "tn")

    def __init__(self, tp: int, fp: int, fn: int, tn: int):
        if min(tp, fp, fn, tn) < 0:
            raise ValueError("confusion matrix cells must be non-negative")
        for name, value in zip(self.__slots__, (tp, fp, fn, tn)):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not ConfusionMatrix:
            return NotImplemented
        return (self.tp, self.fp, self.fn, self.tn) == (other.tp, other.fp, other.fn, other.tn)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


class MetricsReport(NamedTuple):
    f1: float
    accuracy: float
    precision: float
    recall: float
    specificity: float
    matrix: ConfusionMatrix
    variant_name: str = ""
    degenerate: bool = False


def confusion(y_true: Sequence[Label], y_pred: Sequence[Label]) -> ConfusionMatrix:
    """Cell counts with OFFENSIVE as the positive class."""
    if len(y_true) != len(y_pred):
        raise ModkitError(f"y_true has {len(y_true)} items, y_pred has {len(y_pred)}")
    if len(y_true) == 0:
        raise ModkitError("cannot evaluate zero examples")
    tp = fp = fn = tn = 0
    for truth, pred in zip(y_true, y_pred):
        if truth is Label.OFFENSIVE:
            if pred is Label.OFFENSIVE:
                tp += 1
            else:
                fn += 1
        else:
            if pred is Label.OFFENSIVE:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def metrics(matrix: ConfusionMatrix, variant_name: str = "") -> MetricsReport:
    """Five metrics from the matrix; 0/0 cases yield 0.0 and set the
    degenerate flag."""
    if matrix.total < 1:
        raise ModkitError("metrics need at least one evaluated example")
    degenerate = False

    def ratio(num: int, den: int) -> float:
        nonlocal degenerate
        if den == 0:
            degenerate = True
            return 0.0
        return num / den

    precision = ratio(matrix.tp, matrix.tp + matrix.fp)
    recall = ratio(matrix.tp, matrix.tp + matrix.fn)
    specificity = ratio(matrix.tn, matrix.tn + matrix.fp)
    accuracy = (matrix.tp + matrix.tn) / matrix.total
    if precision + recall == 0:
        degenerate = True
        f1 = 0.0
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return MetricsReport(
        f1=f1,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        specificity=specificity,
        matrix=matrix,
        variant_name=variant_name,
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Report rendering


#: Variant field order in report JSON: these cells under "matrix", then these scores.
_CELLS = ("tp", "fp", "fn", "tn")
_SCORES = ("f1", "accuracy", "precision", "recall", "specificity")


def report_to_dict(report: MetricsReport) -> dict:
    return {
        "name": report.variant_name,
        "matrix": {key: getattr(report.matrix, key) for key in _CELLS},
        **{key: getattr(report, key) for key in _SCORES},
        "degenerate": report.degenerate,
    }


def report_from_dict(obj, path: str) -> MetricsReport:
    """Inverse of :func:`report_to_dict`; :class:`SchemaViolationError`
    at ``path`` when a field is missing or of the wrong type."""
    matrix = obj.get("matrix") if isinstance(obj, dict) else None
    if not isinstance(matrix, dict):
        raise SchemaViolationError("a variant must be an object with a 'matrix' object", path)
    cells = {key: matrix.get(key) for key in _CELLS}
    scores = {key: obj.get(key) for key in _SCORES}
    name, degenerate = obj.get("name", ""), obj.get("degenerate", False)
    if not (
        all(type(value) is int and value >= 0 for value in cells.values())
        and all(map(is_number, scores.values()))
        and isinstance(name, str)
        and isinstance(degenerate, bool)
    ):
        raise SchemaViolationError("a variant field is missing or of the wrong type", path)
    return MetricsReport(
        matrix=ConfusionMatrix(**cells), variant_name=name, degenerate=degenerate, **scores
    )


def render_json(variants: Sequence[MetricsReport]) -> str:
    if not variants:
        raise ModkitError("report needs at least one variant")
    return json.dumps(
        {"variants": [report_to_dict(v) for v in variants]},
        indent=2,
        ensure_ascii=False,
    )


def render_text_table(variants: Sequence[MetricsReport]) -> str:
    """Aligned table, one row per variant, scores at 4 decimal places."""
    if not variants:
        raise ModkitError("report needs at least one variant")
    headers = (
        "Model variation",
        "TP",
        "FP",
        "FN",
        "TN",
        "F1",
        "Accuracy",
        "Precision",
        "Recall",
        "Specificity",
    )
    rows = [
        (
            v.variant_name or "(unnamed)",
            *(str(getattr(v.matrix, key)) for key in _CELLS),
            *(f"{getattr(v, key):.4f}" for key in _SCORES),
        )
        for v in variants
    ]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rows))
        for col in range(len(headers))
    ]
    lines = [
        "  ".join(headers[col].ljust(widths[col]) for col in range(len(headers))),
        "  ".join("-" * widths[col] for col in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(row[col].ljust(widths[col]) for col in range(len(headers))))
    return "\n".join(lines) + "\n"


def parse_report_json(data: str, source: str = "report") -> list[MetricsReport]:
    """Variants of a report written by :func:`render_json`. Invalid JSON
    raises :class:`MalformedJsonError`, any other shape
    :class:`SchemaViolationError`; ``source`` names the input in both."""
    obj = load_json(data, f"invalid JSON in {source}")
    variants = obj.get("variants") if isinstance(obj, dict) else None
    if not isinstance(variants, list):
        raise SchemaViolationError(f"{source} must be an object with a 'variants' array", "$")
    return [report_from_dict(v, f"$.variants[{i}] of {source}") for i, v in enumerate(variants)]


def load_reference_scores() -> list[MetricsReport]:
    """Externally measured per-variant scores shipped as reference data
    in ``reference_scores.json``, one row for each of the eight variants
    in the published table's order.

    These rows are rendered verbatim; they are comparison points, not
    outputs of this toolkit. In none of them do the printed F1, accuracy,
    precision and recall follow from the row's own confusion matrix:
    "Naive Bayes Default" prints F1 0.7063 and accuracy 0.6547, but its
    matrix (TP 337, FP 55, FN 70, TN 352), which "Naive Bayes Emojis" and
    "BERT Default" share, gives 0.8436 and 0.8464. Each matrix sums to
    814 or 815 comments, about 20% of the 4,068 balanced comments, where
    this toolkit's test fold is 10% (406 at that scale).
    """

    def load(directory: Path) -> list[MetricsReport]:
        path = directory / "reference_scores.json"
        return parse_report_json(read_json_text(path), str(path))

    return _resources.cached("reference_scores", load)
