import numpy as np
import pytest

from imputed_ridge import (
    BaselineImputer,
    BaselineKind,
    Dataset,
    apply_baseline_matrix,
    fit_independent,
    fit_mean,
    fit_zero,
    impute_dataset,
)
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
    filled = impute_dataset(M, ds.X, ds.Z)
    for x, z, row in zip(ds.X, ds.Z, filled):
        np.testing.assert_allclose(row, x + (1.0 - z) * (M.T @ x), atol=1e-12)


def test_fit_zero_keeps_zeros(rng):
    ds = random_corrupted(rng, 10, 3)
    imp = fit_zero()
    np.testing.assert_array_equal(apply_baseline_matrix(imp, ds.X, ds.Z), ds.X)


def test_fit_mean_observed_means():
    X = np.array([[1.0, 0.0], [3.0, 4.0], [0.0, 8.0]])
    Z = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    ds = Dataset(X * Z, Z, np.zeros(3))
    imp = fit_mean(ds)
    np.testing.assert_allclose(imp.means, [2.0, 6.0])
    filled = apply_baseline_matrix(imp, ds.X, ds.Z)
    assert filled[0, 1] == pytest.approx(6.0)
    assert filled[2, 0] == pytest.approx(2.0)
    assert filled[1, 0] == 3.0  # observed passes through


def test_fit_mean_never_observed_feature():
    Z = np.array([[1.0, 0.0], [1.0, 0.0]])
    ds = Dataset(np.array([[1.0, 0.0], [2.0, 0.0]]), Z, np.zeros(2))
    imp = fit_mean(ds)
    assert imp.means[1] == 0.0


def test_fit_independent_matches_normal_equations(rng):
    """Per-column least squares with the feature's own column zeroed."""
    ds = random_corrupted(rng, 40, 4, beta=0.5)
    eps = 1e-8
    imp = fit_independent(ds, eps=eps)
    for k in range(4):
        rows = ds.Z[:, k] == 1.0
        R = ds.X[rows].copy()
        t = R[:, k].copy()
        R[:, k] = 0.0
        w = np.linalg.solve(R.T @ R + eps * np.eye(4), R.T @ t)
        w[k] = 0.0
        np.testing.assert_allclose(imp.M_ind[:, k], w, atol=1e-10)
    assert np.all(np.diag(imp.M_ind) == 0.0)


def test_fit_independent_skips_never_observed():
    Z = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    imp = fit_independent(Dataset(X, Z, np.zeros(3)))
    assert np.all(imp.M_ind[:, 1] == 0.0)


def test_baselines_preserve_observed(rng):
    ds = random_corrupted(rng, 25, 5)
    for imp in (fit_zero(), fit_mean(ds), fit_independent(ds)):
        filled = apply_baseline_matrix(imp, ds.X, ds.Z)
        np.testing.assert_array_equal(filled[ds.Z == 1.0], ds.X[ds.Z == 1.0])


def test_imputer_validation():
    with pytest.raises(ValueError):
        BaselineImputer(BaselineKind.MEAN)  # means missing
    with pytest.raises(ValueError):
        BaselineImputer(BaselineKind.INDEPENDENT, M_ind=np.eye(2))  # nonzero diag
