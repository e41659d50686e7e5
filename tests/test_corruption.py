import numpy as np
import pytest

from imputed_ridge import (
    CorruptionKind,
    CorruptionSpec,
    calibrate_beta,
    corrupt_column_block,
    corrupt_dependent,
    corrupt_independent,
)
from imputed_ridge.corruption import apply


def test_independent_deterministic(rng):
    X = rng.random((30, 4))
    Z1 = corrupt_independent(X, 0.7, seed=42)
    Z2 = corrupt_independent(X, 0.7, seed=42)
    np.testing.assert_array_equal(Z1, Z2)
    Z3 = corrupt_independent(X, 0.7, seed=43)
    assert not np.array_equal(Z1, Z3)


def test_independent_ignores_values(rng):
    """The mask is a function of (seed, shape) only, so the same process
    can corrupt train and test folds of different data identically."""
    A = rng.random((25, 3))
    B = rng.random((25, 3)) * 100.0
    np.testing.assert_array_equal(
        corrupt_independent(A, 0.5, seed=7), corrupt_independent(B, 0.5, seed=7)
    )


def test_independent_expected_fraction():
    # E[observed] = 1 - beta/2; averaged over re-draws the Monte Carlo
    # error at 300 masks of 200 entries is well under the 0.02 margin
    X = np.zeros((40, 5))
    beta = 0.8
    fracs = [corrupt_independent(X, beta, seed=s).mean() for s in range(300)]
    assert abs(np.mean(fracs) - (1.0 - beta / 2)) < 0.02


def test_independent_per_feature_rates():
    """Column k is deleted at its own drawn rate p_k."""
    X = np.zeros((4000, 3))
    Z = corrupt_independent(X, 0.9, seed=11)
    p = np.random.default_rng(11).uniform(0.0, 0.9, size=3)  # drawn first
    missing = 1.0 - Z.mean(axis=0)
    # binomial 4-sigma band per column
    for k in range(3):
        sigma = np.sqrt(p[k] * (1 - p[k]) / 4000)
        assert abs(missing[k] - p[k]) < 4 * sigma + 1e-9


def test_independent_beta_zero_and_validation(rng):
    X = rng.random((10, 2))
    np.testing.assert_array_equal(corrupt_independent(X, 0.0, seed=1), np.ones((10, 2)))
    with pytest.raises(ValueError):
        corrupt_independent(X, 1.5, seed=1)


def test_dependent_requires_unit_interval(rng):
    with pytest.raises(ValueError, match="normalize"):
        corrupt_dependent(rng.uniform(-2, 2, (10, 2)), 0.5, seed=0)


def _dependent_draws(seed, d):
    """(tau, sign) in the draw order corrupt_dependent documents."""
    gen = np.random.default_rng(seed)
    tau = gen.uniform(0.0, 1.0, size=d)
    sign = np.where(gen.random(d) < 0.5, -1.0, 1.0)
    return tau, sign


def test_dependent_deletes_only_past_threshold(rng):
    X = rng.random((500, 4))
    Z = corrupt_dependent(X, 0.9, seed=3)
    tau, sign = _dependent_draws(3, 4)
    safe = sign * (X - tau) <= 0.0
    # entries on the safe side of the threshold are never deleted
    assert np.all(Z[safe] == 1.0)


def test_dependent_rate_on_exposed_side(rng):
    X = rng.random((4000, 2))
    beta = 0.6
    Z = corrupt_dependent(X, beta, seed=9)
    tau, sign = _dependent_draws(9, 2)
    exposed = sign * (X - tau) > 0.0
    rate = 1.0 - Z[exposed].mean()
    n = exposed.sum()
    assert abs(rate - beta) < 4 * np.sqrt(beta * (1 - beta) / n)


def test_dependent_deterministic(rng):
    X = rng.random((20, 3))
    np.testing.assert_array_equal(
        corrupt_dependent(X, 0.5, seed=2), corrupt_dependent(X, 0.5, seed=2)
    )


def test_column_block_exact_pattern(rng):
    X = rng.random((64, 12))
    Z = corrupt_column_block(X, block_size=3, eligible_blocks=(0, 2), seed=5)
    n_blocks = 4  # 12 / 3
    seen = set()
    for i in range(64):
        gone = np.flatnonzero(Z[i] == 0.0)
        assert gone.size == 3
        b = gone[0]
        seen.add(b)
        np.testing.assert_array_equal(gone, b + n_blocks * np.arange(3))
        assert b in (0, 2)
    assert seen == {0, 2}  # both eligible blocks get used across rows


def test_column_block_fraction(rng):
    X = rng.random((30, 64))
    Z = corrupt_column_block(X, block_size=8, eligible_blocks=(2, 3, 4), seed=1)
    # every row loses exactly one 8-pixel column of the 8x8 layout
    assert Z.mean() == pytest.approx(1.0 - 8 / 64)


def test_column_block_validation(rng):
    X = rng.random((5, 10))
    with pytest.raises(ValueError):
        corrupt_column_block(X, block_size=3, eligible_blocks=(0,), seed=0)
    with pytest.raises(ValueError):
        corrupt_column_block(X, block_size=5, eligible_blocks=(2,), seed=0)
    with pytest.raises(ValueError):
        corrupt_column_block(X, block_size=5, eligible_blocks=(), seed=0)


def test_apply_dispatch(rng):
    X = rng.random((15, 6))
    s = CorruptionSpec(CorruptionKind.INDEPENDENT, beta=0.4, seed=8)
    np.testing.assert_array_equal(apply(s, X), corrupt_independent(X, 0.4, seed=8))
    s = CorruptionSpec(CorruptionKind.COLUMN_BLOCK, block_size=2, eligible_blocks=(1,), seed=8)
    np.testing.assert_array_equal(
        apply(s, X), corrupt_column_block(X, 2, (1,), seed=8)
    )


def test_spec_accepts_string_kind():
    s = CorruptionSpec("independent", beta=0.1)
    assert s.kind is CorruptionKind.INDEPENDENT


def test_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec(CorruptionKind.INDEPENDENT, beta=1.2)
    with pytest.raises(ValueError):
        CorruptionSpec(CorruptionKind.COLUMN_BLOCK, block_size=0)


def test_calibrate_independent_hits_target(rng):
    """The five calibration masks carry per-feature rate noise of about
    beta/sqrt(60 d), so the check runs at d=40 where that is ~0.012 and
    a 0.05 tolerance on fresh seeds is meaningful rather than flaky."""
    X = rng.random((60, 40))
    target = 0.7
    beta = calibrate_beta(X, CorruptionKind.INDEPENDENT, target, seed=3)
    # analytic answer is beta = 2 (1 - target) = 0.6
    assert abs(beta - 0.6) < 0.1
    fracs = [corrupt_independent(X, beta, seed=s).mean() for s in range(50)]
    assert abs(np.mean(fracs) - target) < 0.05


def test_calibrate_dependent_hits_target(rng):
    X = rng.random((60, 40))
    target = 0.75
    beta = calibrate_beta(X, CorruptionKind.DEPENDENT, target, seed=3)
    fracs = [corrupt_dependent(X, beta, seed=s).mean() for s in range(50)]
    assert abs(np.mean(fracs) - target) < 0.06


def test_calibrate_edge_cases(rng):
    X = rng.random((100, 3))
    assert calibrate_beta(X, CorruptionKind.INDEPENDENT, 1.0, seed=0) == 0.0
    # independent corruption cannot delete more than half on average
    with pytest.raises(ValueError, match="floor"):
        calibrate_beta(X, CorruptionKind.INDEPENDENT, 0.2, seed=0)
    with pytest.raises(ValueError):
        calibrate_beta(X, CorruptionKind.COLUMN_BLOCK, 0.9, seed=0)
    with pytest.raises(ValueError):
        calibrate_beta(X, CorruptionKind.INDEPENDENT, 0.0, seed=0)


def test_calibrate_deterministic(rng):
    X = rng.random((150, 4))
    b1 = calibrate_beta(X, CorruptionKind.INDEPENDENT, 0.8, seed=12)
    b2 = calibrate_beta(X, CorruptionKind.INDEPENDENT, 0.8, seed=12)
    assert b1 == b2
