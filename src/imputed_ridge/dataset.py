"""Datasets with missing features.

A sample is a feature vector observed through a binary mask: unobserved
coordinates are recorded as zero and flagged in the mask.  Everything
downstream (imputers, kernels, the solver) consumes this representation,
so the loader and the normalizer are the only places that ever look at
raw files or raw value ranges.

Cost: ``load_csv`` reads the file in one ``csv.reader`` pass and parses
every cell through C-level ``map`` calls with Python's ``float``, with no
Python function call per cell; ``Dataset`` validation keeps at most one
m x d boolean temporary alive at a time.
"""

from __future__ import annotations

import csv
import math
import operator
import warnings
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

# Cell contents treated as a missing feature value.
MISSING_TOKENS = frozenset({"", "?", "na", "nan"})
# What load_csv parses in place of a missing cell: float("0") is +0.0.
_FILL = dict.fromkeys(MISSING_TOKENS, "0")


class CsvFormatError(ValueError):
    """Malformed CSV input: ragged rows or unparseable cells."""


@dataclass(frozen=True)
class Dataset:
    """A batch of corrupted samples in matrix form.

    X: (m, d) feature matrix, zeros at masked entries.
    Z: (m, d) observation mask in {0, 1}.
    y: (m,) labels.

    Construction rejects non-finite X or y, mask entries other than 0 and
    1, and nonzero X at masked entries, with at most one m x d boolean
    temporary alive at a time.
    """

    X: np.ndarray
    Z: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Z = np.asarray(self.Z, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)
        object.__setattr__(self, "y", y)
        if X.ndim != 2 or Z.shape != X.shape:
            raise ValueError("X and Z must be 2-d arrays of equal shape")
        if y.shape != (X.shape[0],):
            raise ValueError("y must have one entry per row of X")
        # NaN propagates through min and max, so these four are finite
        # exactly when every entry is.
        bounds = (X.min(initial=0.0), X.max(initial=0.0), y.min(initial=0.0), y.max(initial=0.0))
        if not all(map(math.isfinite, bounds)):
            raise ValueError("X and y must be finite")
        if np.count_nonzero(Z == 1.0) != np.count_nonzero(Z):
            raise ValueError("mask entries must be 0 or 1")
        if np.count_nonzero(np.logical_and(X, Z)) != np.count_nonzero(X):
            raise ValueError("masked entries of X must be stored as zero")

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _parse_cell(text, row, col):
    token = text.strip()
    if token.lower() in MISSING_TOKENS:
        return 0.0, 0.0
    try:
        value = float(token)
    except ValueError:
        raise CsvFormatError(
            f"row {row}, column {col}: cannot parse {token!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise CsvFormatError(f"row {row}, column {col}: {token!r} is not a finite number")
    return value, 1.0


def _check_row(row, i, width, label_idx):
    """Raise the CsvFormatError the first fault of data row i earns, if any."""
    if len(row) != width:
        raise CsvFormatError(f"row {i}: expected {width} cells, found {len(row)}")
    if _parse_cell(row[label_idx], i, label_idx)[1] == 0.0:
        raise CsvFormatError(f"row {i}: label value is missing")
    for j, cell in enumerate(row):
        _parse_cell(cell, i, j)


def load_csv(path, label_column=-1, has_header=False) -> Dataset:
    """Read a numeric CSV into a Dataset.

    ``label_column`` is a zero-based integer index (negative counts from
    the end) or, when ``has_header`` is true, a column name.  Cells equal
    to '?', 'na', 'nan' (any case, any padding) or empty are missing
    features; a missing label is an error.

    Cost: one ``csv.reader`` pass; the cells of all rows are stripped,
    matched against the missing tokens and parsed with Python's ``float``
    through C-level ``map`` calls, with no Python function call per cell,
    and every fault check is vectorised.  Only once a check has found a
    fault is the row holding the first one re-read cell by cell, to word
    the error with its row and column (an unparseable cell stops the
    parse, so its row is searched for from the top).
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(map(str.strip, row))]
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")

    header = None
    if has_header:
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise CsvFormatError(f"{path}: header but no data rows")

    width = len(rows[0])
    if isinstance(label_column, str):
        if header is None:
            raise ValueError("column names require has_header=True")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ValueError(f"no column named {label_column!r}") from None
    else:
        if isinstance(label_column, bool) or not hasattr(type(label_column), "__index__"):
            raise ValueError(
                f"label_column must be an integer index or a column name, got {label_column!r}"
            )
        label_idx = operator.index(label_column)
        if label_idx < 0:
            label_idx += width
    if not 0 <= label_idx < width:
        raise ValueError(f"label column {label_column} out of range for {width} columns")

    # Rows before the first ragged one; faults in them are reported first.
    ragged = np.flatnonzero(np.fromiter(map(len, rows), np.intp, len(rows)) != width)
    m = int(ragged[0]) if ragged.size else len(rows)
    cells = list(chain.from_iterable(islice(rows, m)))
    tokens = list(map(str.lower, map(str.strip, cells)))
    n = len(cells)
    missing = np.fromiter(map(MISSING_TOKENS.__contains__, tokens), bool, n).reshape(m, width)
    try:
        values = np.fromiter(map(float, map(_FILL.get, tokens, cells)), float, n)
    except ValueError:
        for i in range(m):
            _check_row(rows[i], i, width, label_idx)
        raise
    values = values.reshape(m, width)
    faulty = np.flatnonzero(missing[:, label_idx] | ~np.isfinite(values).all(axis=1))
    if faulty.size or ragged.size:
        i = int(faulty[0]) if faulty.size else m
        _check_row(rows[i], i, width, label_idx)

    # np.delete keeps C order, which downstream rounding depends on.
    X = np.delete(values, label_idx, axis=1)
    Z = (~np.delete(missing, label_idx, axis=1)).astype(float)
    return Dataset(X, Z, values[:, label_idx].copy())


def normalize(ds: Dataset) -> Dataset:
    """Min-max rescale observed features and labels to [0, 1].

    Per-feature ranges are computed over observed entries only; masked
    entries stay zero.  Constant features map to zero with a warning.
    Every feature must be observed at least once.
    """
    X, Z, y = ds.X, ds.Z, ds.y
    counts = Z.sum(axis=0)
    if np.any(counts == 0):
        bad = int(np.argmin(counts))
        raise ValueError(f"feature {bad} has no observed values")

    big = np.finfo(float).max
    lo = np.where(Z == 1.0, X, big).min(axis=0)
    hi = np.where(Z == 1.0, X, -big).max(axis=0)
    span = hi - lo
    constant = span == 0.0
    if np.any(constant):
        idx = np.flatnonzero(constant)
        warnings.warn(
            f"constant feature(s) {idx.tolist()} mapped to zero", stacklevel=2
        )
    safe = np.where(constant, 1.0, span)
    Xn = np.where(Z == 1.0, (X - lo) / safe, 0.0)
    Xn[:, constant] = 0.0
    Xn *= Z  # re-assert exact zeros at masked entries

    y_lo, y_hi = float(y.min()), float(y.max())
    if y_hi == y_lo:
        warnings.warn("constant labels mapped to zero", stacklevel=2)
        yn = np.zeros_like(y)
    else:
        yn = (y - y_lo) / (y_hi - y_lo)
    return Dataset(Xn, Z.copy(), yn)


def split(ds: Dataset, train_size: int, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic seeded shuffle; first train_size rows become the train fold."""
    if not 0 < train_size < ds.m:
        raise ValueError(f"train_size must be in (0, {ds.m}), got {train_size}")
    perm = np.random.default_rng(seed).permutation(ds.m)
    tr, te = perm[:train_size], perm[train_size:]
    return Dataset(ds.X[tr], ds.Z[tr], ds.y[tr]), Dataset(ds.X[te], ds.Z[te], ds.y[te])
