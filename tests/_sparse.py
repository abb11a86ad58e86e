"""Build CSRMatrix inputs from {column: weight} rows, and read them back
entry by entry, for tests written against per-row mappings."""

from __future__ import annotations

import numpy as np

from modkit.vectorize import CSRMatrix


def csr(rows: list[dict[int, float]], n_cols: int | None = None) -> CSRMatrix:
    """Rows as {column: weight}; zero weights are dropped. The width
    defaults to one past the largest column used."""
    indptr, indices, data = [0], [], []
    for row in rows:
        for column, weight in sorted(row.items()):
            if weight:
                indices.append(column)
                data.append(float(weight))
        indptr.append(len(indices))
    if n_cols is None:
        n_cols = max(indices, default=-1) + 1
    return CSRMatrix(
        indptr=np.array(indptr),
        indices=np.array(indices, dtype=np.intp),
        data=np.array(data, dtype=float),
        n_cols=n_cols,
    )


def entries(X: CSRMatrix, row: int) -> list[tuple[int, float]]:
    """(column, weight) pairs of one row, read from the raw arrays."""
    start, stop = X.indptr[row], X.indptr[row + 1]
    return list(zip(X.indices[start:stop].tolist(), X.data[start:stop].tolist()))


def dense(X: CSRMatrix) -> np.ndarray:
    """The (n_rows, n_cols) array, filled one stored entry at a time."""
    out = np.zeros((len(X), X.n_cols))
    for row in range(len(X)):
        for column, weight in entries(X, row):
            out[row, column] = weight
    return out


def row_lists(X: CSRMatrix) -> list[tuple[list[int], list[float]]]:
    """Every row as a (columns, values) pair of lists, sliced from the raw arrays."""
    bounds = X.indptr.tolist()
    return [(X.indices[a:b].tolist(), X.data[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
