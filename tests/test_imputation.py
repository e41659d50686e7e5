import numpy as np
import pytest

from imputed_ridge import (
    Dataset,
    fit_independent,
    fit_mean,
    impute_dataset,
)
from imputed_ridge.imputation import EPS
from tests.conftest import random_corrupted


def test_impute_linear_hand_case():
    """d=2, second coordinate masked: the fill is M[0,1] * x1."""
    M = np.array([[0.0, 0.7], [0.3, 0.0]])
    filled = impute_dataset(M, np.array([[2.0, 0.0]]), np.array([[1.0, 0.0]]))
    np.testing.assert_allclose(filled, [[2.0, 1.4]])


def test_impute_preserves_observed(rng):
    ds = random_corrupted(rng, 20, 5)
    M = rng.standard_normal((5, 5))
    filled = impute_dataset(M, ds.X, ds.Z)
    np.testing.assert_array_equal(filled[ds.Z == 1.0], ds.X[ds.Z == 1.0])


def test_impute_matrix_matches_per_sample(rng):
    ds = random_corrupted(rng, 15, 4)
    M = rng.standard_normal((4, 4)) * 0.3
    b = rng.standard_normal(4)
    filled = impute_dataset(M, ds.X, ds.Z, b)
    for x, z, row in zip(ds.X, ds.Z, filled):
        np.testing.assert_allclose(row, x + (1.0 - z) * (M.T @ x + b), atol=1e-12)


def test_zero_fill_keeps_zeros(rng):
    """Zero fill is the map M = 0, b = 0."""
    ds = random_corrupted(rng, 10, 3)
    np.testing.assert_array_equal(impute_dataset(np.zeros((3, 3)), ds.X, ds.Z), ds.X)


def test_fit_mean_observed_means():
    X = np.array([[1.0, 0.0], [3.0, 4.0], [0.0, 8.0]])
    Z = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    ds = Dataset(X * Z, Z, np.zeros(3))
    b = fit_mean(ds)
    np.testing.assert_allclose(b, [2.0, 6.0])
    filled = impute_dataset(np.zeros((2, 2)), ds.X, ds.Z, b)
    np.testing.assert_array_equal(filled, ds.X + (1.0 - ds.Z) * b)
    assert filled[0, 1] == pytest.approx(6.0)
    assert filled[2, 0] == pytest.approx(2.0)
    assert filled[1, 0] == 3.0  # observed passes through


def test_fit_mean_never_observed_feature():
    Z = np.array([[1.0, 0.0], [1.0, 0.0]])
    ds = Dataset(np.array([[1.0, 0.0], [2.0, 0.0]]), Z, np.zeros(2))
    assert fit_mean(ds)[1] == 0.0


def test_fit_independent_matches_normal_equations(rng):
    """Per-column least squares with the feature's own column zeroed."""
    ds = random_corrupted(rng, 40, 4, beta=0.5)
    M = fit_independent(ds)
    for k in range(4):
        rows = ds.Z[:, k] == 1.0
        R = ds.X[rows].copy()
        t = R[:, k].copy()
        R[:, k] = 0.0
        w = np.linalg.solve(R.T @ R + EPS * np.eye(4), R.T @ t)
        w[k] = 0.0
        np.testing.assert_allclose(M[:, k], w, atol=1e-10)
    assert np.all(np.diag(M) == 0.0)


def test_fit_independent_skips_never_observed():
    Z = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    M = fit_independent(Dataset(X, Z, np.zeros(3)))
    assert np.all(M[:, 1] == 0.0)


def test_baselines_preserve_observed(rng):
    ds = random_corrupted(rng, 25, 5)
    zero = np.zeros((5, 5))
    for M, b in ((zero, 0.0), (zero, fit_mean(ds)), (fit_independent(ds), 0.0)):
        filled = impute_dataset(M, ds.X, ds.Z, b)
        np.testing.assert_array_equal(filled[ds.Z == 1.0], ds.X[ds.Z == 1.0])
