"""TF-IDF featurization for the classical classifiers.

Weighting is raw term frequency times smoothed inverse document
frequency, idf(t) = ln((1 + N) / (1 + df(t))) + 1, followed by L2
normalization. The smoothing keeps idf >= 1, so downstream multinomial
models never see negative feature mass.

Fitting counts the corpus's terms once, and the model and the corpus's
numpy :class:`CSRMatrix` rows both come from that count (:func:`fit`
keeps the model); :func:`transform_all` gives the rows of other
streams. Scoring reads the plain-Python :func:`rows`, one
stream at a time, the same rows bit for bit. Only fitting imports numpy,
inside the functions that use it, so scoring never loads it.
"""

from __future__ import annotations

import json
import math
from itertools import accumulate, chain, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from . import _atomic
from ._frozen import Frozen
from .errors import ModkitError, SchemaViolationError, is_number, load_json, read_json_text

if TYPE_CHECKING:
    import numpy as np


class CSRMatrix(Frozen):
    """Row-compressed sparse matrix: row i holds columns
    ``indices[indptr[i]:indptr[i+1]]`` (strictly increasing) with values
    ``data[indptr[i]:indptr[i+1]]``; ``row_of`` holds the row of each
    stored entry, worked out when the matrix is made.

    Only the two products the classifiers need are offered, ``X @ v``
    and ``r @ X``. Both accumulate with ``np.bincount`` in storage
    order, so results do not depend on a BLAS build.
    """

    __slots__ = ("indptr", "indices", "data", "n_cols", "row_of")

    # make ``ndarray @ CSRMatrix`` defer to __rmatmul__
    __array_ufunc__ = None

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, n_cols: int):
        import numpy as np
        row_of = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        for name, value in zip(self.__slots__, (indptr, indices, data, n_cols, row_of)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @classmethod
    def block_diagonal(cls, blocks: Sequence[CSRMatrix]) -> CSRMatrix:
        """The blocks' rows in order, each block's columns after those of
        the blocks before it; every row keeps its entries and their order."""
        import numpy as np
        nnz = [0, *accumulate(len(block.data) for block in blocks)]
        width = [0, *accumulate(block.n_cols for block in blocks)]
        return cls(
            indptr=np.concatenate([[0], *(b.indptr[1:] + start for b, start in zip(blocks, nnz))]),
            indices=np.concatenate([b.indices + start for b, start in zip(blocks, width)]),
            data=np.concatenate([b.data for b in blocks]),
            n_cols=width[-1],
        )

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """X @ v for a vector of length n_cols."""
        import numpy as np
        products = self.data * v.take(self.indices)
        return np.bincount(self.row_of, weights=products, minlength=len(self))

    def __rmatmul__(self, r: np.ndarray) -> np.ndarray:
        """r @ X for a vector of length n_rows."""
        import numpy as np
        products = self.data * r.take(self.row_of)
        return np.bincount(self.indices, weights=products, minlength=self.n_cols)


class TfidfModel(NamedTuple):
    vocabulary: dict[str, int]  # term -> column, assigned in first-seen order
    idf: list[float]  # by column
    doc_count: int

    @property
    def vocab_size(self) -> int:
        return len(self.vocabulary)


#: Rows, columns and counts of (stream, term) pairs, as :func:`_term_counts` gives them.
_TermCounts = tuple["np.ndarray", "np.ndarray", "np.ndarray"]


def _term_counts(vocabulary: dict[str, int], corpus: Sequence[Sequence[str]]) -> _TermCounts:
    """Rows, columns and counts of every (stream, known term) pair, in
    row then column order; out-of-vocabulary tokens are ignored.

    Every token maps to its column once, and ``np.unique`` over
    ``row * n_cols + column`` gives each row's columns in order with their
    counts.
    """
    import numpy as np
    n_cols = len(vocabulary)
    columns = np.fromiter(
        map(vocabulary.get, chain.from_iterable(corpus), repeat(-1)),
        dtype=np.intp,
    )
    rows = np.repeat(np.arange(len(corpus)), list(map(len, corpus)))
    known = columns >= 0
    keys, counts = np.unique(rows[known] * n_cols + columns[known], return_counts=True)
    row_of, indices = np.divmod(keys, n_cols)
    return row_of, indices, counts


def fit(corpus: Sequence[Sequence[str]]) -> TfidfModel:
    """Learn vocabulary (first-appearance order) and smoothed idf; a
    term's document frequency is the number of streams it has a count in."""
    return _fit_transform(corpus)[0]


def _fit_transform(corpus: Sequence[Sequence[str]]) -> tuple[TfidfModel, CSRMatrix]:
    """``fit(corpus)`` and ``transform_all`` of ``corpus`` by it, from one term count."""
    import numpy as np
    if len(corpus) == 0:
        raise ModkitError("cannot fit TF-IDF on an empty corpus")
    terms = dict.fromkeys(chain.from_iterable(corpus))
    vocabulary = {term: index for index, term in enumerate(terms)}
    counts = _term_counts(vocabulary, corpus)
    n = len(corpus)
    df = np.bincount(counts[1], minlength=len(vocabulary)).tolist()
    idf = [math.log((1 + n) / (1 + d)) + 1.0 for d in df]
    model = TfidfModel(vocabulary=vocabulary, idf=idf, doc_count=n)
    return model, _tfidf_rows(model, n, counts)


def transform_all(model: TfidfModel, corpus: Sequence[Sequence[str]]) -> CSRMatrix:
    """One row per stream: raw tf x idf, L2-normalized; out-of-vocabulary
    tokens are ignored, so a stream without known tokens is an empty row."""
    return _tfidf_rows(model, len(corpus), _term_counts(model.vocabulary, corpus))


def _tfidf_rows(model: TfidfModel, n_rows: int, counts: _TermCounts) -> CSRMatrix:
    """The rows of :func:`transform_all` from the streams' :func:`_term_counts`.

    Each row is divided by the square root of its squares summed one at a
    time in column order (``np.bincount``), the sum :func:`rows` takes, so
    a row has the same bits from either function.
    """
    import numpy as np
    row_of, indices, term_counts = counts
    data = term_counts * np.asarray(model.idf, dtype=float)[indices]
    indptr = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(row_of, minlength=n_rows), out=indptr[1:])
    norms = np.sqrt(np.bincount(row_of, weights=data * data, minlength=n_rows))
    data /= np.repeat(norms, np.diff(indptr))
    return CSRMatrix(indptr=indptr, indices=indices, data=data, n_cols=model.vocab_size)


#: A scoring row: a stream's known terms by column, increasing, and their weights.
Row = tuple[list[int], list[float]]


def rows(model: TfidfModel, corpus: Iterable[Sequence[str]]) -> Iterator[Row]:
    """One ``(columns, values)`` row per stream, in plain Python, built
    as the stream is read: each known term's count times its idf, in
    column order, divided by the square root of the squares added one at
    a time in that order. These are, bit for bit, the rows of
    :func:`transform_all`, whose norm adds the same way; a stream without
    known tokens is an empty row. A row whose squares all round to zero
    (idf values far below 1, which no fit gives) raises
    :class:`ModkitError`."""
    column_of, idf = model.vocabulary.get, model.idf
    for i, tokens in enumerate(corpus):
        counts: dict[int, int] = {}
        for column in map(column_of, tokens):
            if column is not None:
                counts[column] = counts.get(column, 0) + 1
        columns = sorted(counts)
        values = [counts[column] * idf[column] for column in columns]
        squares = 0.0
        for value in values:
            squares += value * value
        if squares:
            norm = math.sqrt(squares)
            values = [value / norm for value in values]
        elif values:
            raise ModkitError(f"TF-IDF row {i} has no norm: its terms' idf values are too small")
        yield columns, values


def save_tfidf(model: TfidfModel, path: str | Path) -> None:
    """Write ``{"doc_count", "terms": [...], "idf": [...]}``: the terms in
    column order, and each term's idf at its position."""
    terms = sorted(model.vocabulary, key=model.vocabulary.__getitem__)
    obj = {"doc_count": model.doc_count, "terms": terms, "idf": list(model.idf)}
    _atomic.write_text(path, json.dumps(obj, ensure_ascii=False))


def load_tfidf(path: str | Path) -> TfidfModel:
    obj = load_json(read_json_text(path), f"invalid TF-IDF JSON in {path}")
    if not isinstance(obj, dict):
        raise SchemaViolationError("TF-IDF model must be a JSON object", str(path))
    terms, idf = obj.get("terms"), obj.get("idf")
    if not (
        isinstance(terms, list)
        and isinstance(idf, list)
        and all(isinstance(term, str) for term in terms)  # before the set: a list is unhashable
        and len(set(terms)) == len(terms) == len(idf)
        and all(map(is_number, idf))
        and type(obj.get("doc_count")) is int
    ):
        raise SchemaViolationError(
            "TF-IDF needs distinct string terms, one number idf per term and an integer doc_count",
            str(path),
        )
    return TfidfModel(
        vocabulary={term: i for i, term in enumerate(terms)},
        idf=list(map(float, idf)),
        doc_count=obj["doc_count"],
    )
