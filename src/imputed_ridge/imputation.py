"""Imputation maps for missing features.

The central object is a linear map: column k of a d x d matrix M holds
the weights that reconstruct feature k from the observed remainder of
the same vector.  Filling a sample means adding M's prediction at every
masked coordinate while leaving observed coordinates untouched.

Baselines share the same application path: zero-imputation keeps the
zeros, mean-imputation writes per-feature training means, independent
per-feature regression is the linear map with each column fit on its
own least-squares problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import Dataset


class BaselineKind(Enum):
    ZERO = "zero"
    MEAN = "mean"
    INDEPENDENT = "ind"


def impute_dataset(M, X, Z) -> np.ndarray:
    """Fill every row of (X, Z) through the linear map M.

    Returns X + (1 - Z) * (X M): masked coordinates receive the map's
    prediction from the observed (zero-filled) entries, observed ones
    pass through unchanged.
    """
    M = np.asarray(M, dtype=float)
    return X + (1.0 - Z) * (X @ M)


@dataclass(frozen=True)
class BaselineImputer:
    """Fitted baseline: zero, per-feature means, or independent regressions."""

    kind: BaselineKind
    means: np.ndarray | None = None
    M_ind: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", BaselineKind(self.kind))
        if self.means is not None:
            object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        if self.M_ind is not None:
            M = np.asarray(self.M_ind, dtype=float)
            object.__setattr__(self, "M_ind", M)
            if np.any(np.diag(M) != 0.0):
                raise ValueError("independent-regression map must have a zero diagonal")
        if self.kind is BaselineKind.MEAN and self.means is None:
            raise ValueError("mean imputer needs fitted means")
        if self.kind is BaselineKind.INDEPENDENT and self.M_ind is None:
            raise ValueError("independent imputer needs a fitted map")


def fit_zero() -> BaselineImputer:
    return BaselineImputer(BaselineKind.ZERO)


def fit_mean(train: Dataset) -> BaselineImputer:
    """Per-feature mean over observed entries; never-observed features get 0."""
    counts = train.Z.sum(axis=0)
    sums = (train.X * train.Z).sum(axis=0)
    means = np.divide(sums, counts, out=np.zeros(train.d), where=counts > 0)
    return BaselineImputer(BaselineKind.MEAN, means=means)


def fit_independent(train: Dataset, eps: float = 1e-8) -> BaselineImputer:
    """One least-squares regressor per feature, fit on the corrupted matrix.

    Column k of the map predicts feature k from all other coordinates of
    the zero-filled sample, using rows where feature k was observed, and
    carries a Tikhonov term eps * I for rank safety.  The diagonal stays
    zero so a feature never feeds its own reconstruction.
    """
    X, Z = train.X, train.Z
    d = train.d
    M = np.zeros((d, d))
    for k in range(d):
        rows = Z[:, k] == 1.0
        if not rows.any():
            continue
        R = X[rows].copy()
        target = R[:, k].copy()
        R[:, k] = 0.0
        A = R.T @ R + eps * np.eye(d)
        b = R.T @ target
        w = np.linalg.solve(A, b)
        w[k] = 0.0  # zeroed column keeps A's k-th row/col at eps only
        M[:, k] = w
    return BaselineImputer(BaselineKind.INDEPENDENT, M_ind=M)


def apply_baseline_matrix(imputer: BaselineImputer, X, Z) -> np.ndarray:
    """Vectorized baseline fill for a whole (X, Z) matrix pair."""
    X = np.asarray(X, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if imputer.kind is BaselineKind.ZERO:
        return X.copy()
    if imputer.kind is BaselineKind.MEAN:
        return X + (1.0 - Z) * imputer.means[None, :]
    return impute_dataset(imputer.M_ind, X, Z)
