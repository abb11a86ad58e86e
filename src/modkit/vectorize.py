"""TF-IDF featurization for the classical classifiers.

Weighting is raw term frequency times smoothed inverse document
frequency, idf(t) = ln((1 + N) / (1 + df(t))) + 1, followed by L2
normalization. The smoothing keeps idf >= 1, so downstream multinomial
models never see negative feature mass.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from . import _atomic
from .errors import EmptyCorpusError, SchemaViolationError, is_number, load_json, read_json_text
from .textprep import TokenStream


@dataclass(frozen=True, eq=False)
class CSRMatrix:
    """Row-compressed sparse matrix: row i holds columns
    ``indices[indptr[i]:indptr[i+1]]`` (strictly increasing) with values
    ``data[indptr[i]:indptr[i+1]]``.

    Only the two products the classifiers need are offered, ``X @ v``
    and ``r @ X``. Both accumulate with ``np.bincount`` in storage
    order, so results do not depend on a BLAS build.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int

    # make ``ndarray @ CSRMatrix`` defer to __rmatmul__
    __array_ufunc__ = None

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @cached_property
    def _rows(self) -> np.ndarray:
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """X @ v for a vector of length n_cols."""
        return np.bincount(self._rows, weights=self.data * v[self.indices], minlength=len(self))

    def __rmatmul__(self, r: np.ndarray) -> np.ndarray:
        """r @ X for a vector of length n_rows."""
        return np.bincount(self.indices, weights=self.data * r[self._rows], minlength=self.n_cols)


@dataclass(frozen=True)
class TfidfModel:
    vocabulary: dict[str, int]  # term -> column, assigned in first-seen order
    idf: np.ndarray
    doc_count: int

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)


def fit(corpus: Sequence[TokenStream]) -> TfidfModel:
    """Learn vocabulary (first-appearance order) and smoothed idf."""
    if len(corpus) == 0:
        raise EmptyCorpusError("cannot fit TF-IDF on an empty corpus")
    vocabulary: dict[str, int] = {}
    df: Counter[str] = Counter()
    for stream in corpus:
        seen: set[str] = set()
        for token in stream.tokens:
            if token not in vocabulary:
                vocabulary[token] = len(vocabulary)
            if token not in seen:
                seen.add(token)
                df[token] += 1
    n = len(corpus)
    idf = np.empty(len(vocabulary))
    for term, index in vocabulary.items():
        idf[index] = math.log((1 + n) / (1 + df[term])) + 1.0
    return TfidfModel(vocabulary=vocabulary, idf=idf, doc_count=n)


def transform_all(model: TfidfModel, corpus: Sequence[TokenStream]) -> CSRMatrix:
    """One row per stream: raw tf x idf, L2-normalized; out-of-vocabulary
    tokens are ignored, so a stream without known tokens is an empty row."""
    indptr = [0]
    indices: list[int] = []
    data: list[np.ndarray] = []
    for stream in corpus:
        counts = Counter(
            index for index in map(model.vocabulary.get, stream.tokens) if index is not None
        )
        if counts:
            columns = sorted(counts)
            weights = np.array([counts[i] * model.idf[i] for i in columns])
            weights /= np.linalg.norm(weights)
            indices.extend(columns)
            data.append(weights)
        indptr.append(len(indices))
    return CSRMatrix(
        indptr=np.array(indptr),
        indices=np.array(indices, dtype=np.intp),
        data=np.concatenate(data) if data else np.zeros(0),
        n_cols=model.vocab_size,
    )


def save_tfidf(model: TfidfModel, path: str | Path) -> None:
    obj = {
        "doc_count": model.doc_count,
        "terms": [
            {"term": term, "index": index, "idf": model.idf[index]}
            for term, index in model.vocabulary.items()
        ],
    }
    _atomic.write_text(path, json.dumps(obj, ensure_ascii=False, indent=2))


def load_tfidf(path: str | Path) -> TfidfModel:
    obj = load_json(read_json_text(path), f"invalid TF-IDF JSON in {path}")
    if not isinstance(obj, dict):
        raise SchemaViolationError("TF-IDF model must be a JSON object", str(path))
    try:
        terms = sorted(obj["terms"], key=lambda item: item["index"])
        vocabulary = {item["term"]: item["index"] for item in terms}
        idf = [item["idf"] for item in terms]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolationError(f"malformed TF-IDF term: {exc!r}", str(path)) from exc
    indices = list(vocabulary.values())
    if (
        indices != list(range(len(terms)))
        or not all(type(i) is int for i in indices)
        or not all(isinstance(term, str) for term in vocabulary)
        or not all(map(is_number, idf))
        or type(obj.get("doc_count")) is not int
    ):
        raise SchemaViolationError(
            "TF-IDF needs distinct string terms with indices 0..n-1, number idf values "
            "and an integer doc_count",
            str(path),
        )
    return TfidfModel(
        vocabulary=vocabulary, idf=np.array(idf, dtype=float), doc_count=obj["doc_count"]
    )
