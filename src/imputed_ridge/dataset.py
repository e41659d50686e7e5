"""Datasets with missing features.

A sample is a feature vector observed through a binary mask: unobserved
coordinates are recorded as zero and flagged in the mask.  Everything
downstream (imputers, kernels, the solver) consumes this representation,
so the loader and the normalizer are the only places that ever look at
raw files or raw value ranges.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

# Cell contents treated as a missing feature value.
MISSING_TOKENS = frozenset({"", "?", "na", "nan"})


class CsvFormatError(ValueError):
    """Malformed CSV input: ragged rows or unparseable cells."""


@dataclass(frozen=True)
class Dataset:
    """A batch of corrupted samples in matrix form.

    X: (m, d) feature matrix, zeros at masked entries.
    Z: (m, d) observation mask in {0, 1}.
    y: (m,) labels.
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
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise ValueError("X and y must be finite")
        if not np.all((Z == 0.0) | (Z == 1.0)):
            raise ValueError("mask entries must be 0 or 1")
        if np.any(X[Z == 0.0] != 0.0):
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


def load_csv(path, label_column=-1, has_header=False) -> Dataset:
    """Read a numeric CSV into a Dataset.

    ``label_column`` is a zero-based index (negative counts from the end)
    or, when ``has_header`` is true, a column name.  Cells equal to '?' or
    empty are missing features; a missing label is an error.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row and any(c.strip() for c in row)]
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
        label_idx = int(label_column)
        if label_idx < 0:
            label_idx += width
    if not 0 <= label_idx < width:
        raise ValueError(f"label column {label_column} out of range for {width} columns")

    m = len(rows)
    d = width - 1
    X = np.zeros((m, d))
    Z = np.zeros((m, d))
    y = np.zeros(m)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise CsvFormatError(
                f"row {i}: expected {width} cells, found {len(row)}"
            )
        value, seen = _parse_cell(row[label_idx], i, label_idx)
        if seen == 0.0:
            raise CsvFormatError(f"row {i}: label value is missing")
        y[i] = value
        k = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                continue
            X[i, k], Z[i, k] = _parse_cell(cell, i, j)
            k += 1
    return Dataset(X, Z, y)


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
