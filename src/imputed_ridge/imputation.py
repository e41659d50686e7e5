"""Imputation maps for missing features.

Every fill in the package is one affine map: column k of a d x d matrix
M holds the weights that reconstruct feature k from the observed
remainder of the same vector, and b[k] is its offset.  Filling a sample
adds XM + b at every masked coordinate and leaves observed coordinates
untouched.  The baselines are points of that family: zero fill is
M = 0, b = 0; mean fill is M = 0 with b the observed means
(``fit_mean``); independent per-feature regression is b = 0 with each
column of M fit on its own least-squares problem (``fit_independent``).
IRR learns M jointly with the regressor.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset

# Tikhonov weight of each per-feature regression in fit_independent
EPS = 1e-8


def impute_dataset(M, X, Z, b=0.0) -> np.ndarray:
    """Fill every row of (X, Z) through the affine map (M, b).

    Returns X + (1 - Z) * (X M + b): masked coordinates receive the
    map's prediction from the observed (zero-filled) entries, observed
    ones pass through unchanged.
    """
    M = np.asarray(M, dtype=float)
    return X + (1.0 - Z) * (X @ M + b)


def fit_mean(train: Dataset) -> np.ndarray:
    """Offset b of mean fill: per-feature means over observed entries.

    A feature that is never observed gets 0.
    """
    counts = train.Z.sum(axis=0)
    sums = (train.X * train.Z).sum(axis=0)
    return np.divide(sums, counts, out=np.zeros(train.d), where=counts > 0)


def fit_independent(train: Dataset) -> np.ndarray:
    """Map M of independent per-feature regression, fit on the corrupted matrix.

    Column k of the map predicts feature k from all other coordinates of
    the zero-filled sample, using rows where feature k was observed, and
    carries a Tikhonov term EPS * I for rank safety.  The diagonal stays
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
        A = R.T @ R + EPS * np.eye(d)
        b = R.T @ target
        w = np.linalg.solve(A, b)
        w[k] = 0.0  # zeroed column keeps A's k-th row/col at EPS only
        M[:, k] = w
    return M
