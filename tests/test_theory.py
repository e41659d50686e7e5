import math

import numpy as np
import pytest

from imputed_ridge import (
    BoundInputs,
    Dataset,
    Hyperparams,
    empirical_rademacher,
    generalization_gap,
    rademacher_bound,
)
from tests.conftest import random_corrupted


def test_bound_gamma_zero_reduces():
    b = BoundInputs(B=2.0, R=3.0, gamma=0.0, lam=0.5, d=7, m=25)
    assert rademacher_bound(b) == pytest.approx(2.0 * 9.0 / (0.5 * 5.0))


def test_bound_spot_value():
    # (1 + 1 + (1 + 1) * 2) * 1 * 1 / (1 * 10) = 0.6
    b = BoundInputs(B=1.0, R=1.0, gamma=1.0, lam=1.0, d=4, m=100)
    assert rademacher_bound(b) == pytest.approx(0.6, abs=1e-12)


def test_bound_sqrt_m_scaling():
    b1 = BoundInputs(B=1.0, R=1.0, gamma=0.5, lam=1.0, d=3, m=50)
    b2 = BoundInputs(B=1.0, R=1.0, gamma=0.5, lam=1.0, d=3, m=100)
    assert rademacher_bound(b2) == pytest.approx(rademacher_bound(b1) / math.sqrt(2))


def test_bound_monotonicity():
    base = dict(B=1.0, R=1.0, gamma=0.5, lam=1.0, d=4, m=100)
    val = rademacher_bound(BoundInputs(**base))
    for key in ("B", "R", "gamma", "d"):
        up = dict(base)
        up[key] = up[key] * 2 if key != "d" else 8
        assert rademacher_bound(BoundInputs(**up)) >= val
    for key in ("lam", "m"):
        up = dict(base)
        up[key] = up[key] * 2 if key == "lam" else 400
        assert rademacher_bound(BoundInputs(**up)) <= val


def test_gap_spot_value():
    # c = 1; gap = 1 * (sqrt(1/100) + sqrt(8 ln 10)/10)
    b = BoundInputs(B=1.0, R=1.0, gamma=0.0, lam=1.0, d=1, m=100)
    expect = 0.1 + math.sqrt(8.0 * math.log(10.0)) / 10.0
    got = generalization_gap(b, delta=0.2)
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(0.529, abs=5e-4)


def test_gap_delta_validation():
    b = BoundInputs(B=1.0, R=1.0, gamma=0.0, lam=1.0, d=1, m=10)
    with pytest.raises(ValueError):
        generalization_gap(b, delta=2.0)
    with pytest.raises(ValueError):
        generalization_gap(b, delta=0.0)
    generalization_gap(b, delta=1.0)  # boundary allowed


def test_gap_vanishes_with_samples():
    vals = [
        generalization_gap(
            BoundInputs(B=1.0, R=1.0, gamma=0.3, lam=0.5, d=4, m=m), delta=0.1
        )
        for m in (100, 10_000, 1_000_000)
    ]
    assert vals[0] > vals[1] > vals[2]


def test_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(B=-1.0, R=1.0, gamma=0.0, lam=1.0, d=1, m=1)
    with pytest.raises(ValueError):
        BoundInputs(B=1.0, R=1.0, gamma=0.0, lam=0.0, d=1, m=1)
    with pytest.raises(ValueError):
        BoundInputs(B=1.0, R=1.0, gamma=0.0, lam=1.0, d=0, m=1)
    # a NaN fails every < and > test, so each non-finite field is rejected as such
    base = dict(B=1.0, R=1.0, gamma=0.0, lam=1.0, d=1, m=1)
    for key, bad in [("B", math.nan), ("R", math.inf), ("gamma", math.nan),
                     ("lam", math.inf), ("d", math.nan), ("m", math.inf)]:
        with pytest.raises(ValueError, match="finite"):
            BoundInputs(**{**base, key: bad})


def test_inputs_from_dataset(rng):
    X = np.array([[3.0, 4.0], [1.0, 0.0]])
    ds = Dataset(X, np.ones((2, 2)), np.array([2.0, -7.0]))
    b = BoundInputs.from_dataset(ds, Hyperparams(lam=0.5, gamma=1.5))
    assert b.B == 7.0
    assert b.R == 5.0  # the (3, 4) row
    assert b.d == 2 and b.m == 2
    assert b.gamma == 1.5 and b.lam == 0.5


def test_empirical_zero_data():
    ds = Dataset(np.zeros((10, 3)), np.ones((10, 3)), np.zeros(10))
    hp = Hyperparams(lam=1.0, gamma=1.0)
    assert empirical_rademacher(ds, hp, B=1.0, n_sigma=8, n_hyp=8, seed=0) == 0.0


def test_empirical_below_bound(rng):
    """Sampled suprema cannot exceed the closed form; ten random configs."""
    for _ in range(10):
        m = int(rng.integers(5, 40))
        d = int(rng.integers(2, 5))
        ds = random_corrupted(rng, m, d)
        hp = Hyperparams(
            lam=float(2.0 ** rng.uniform(-3, 1)),
            gamma=float(2.0 ** rng.uniform(-2, 1)),
        )
        b = BoundInputs.from_dataset(ds, hp)
        est = empirical_rademacher(
            ds, hp, B=b.B, n_sigma=32, n_hyp=48, seed=int(rng.integers(1 << 16))
        )
        assert est <= rademacher_bound(b) + 1e-12
        assert est >= 0.0


def test_empirical_positive_and_deterministic(rng):
    ds = random_corrupted(rng, 20, 3)
    hp = Hyperparams(lam=0.5, gamma=1.0)
    e1 = empirical_rademacher(ds, hp, B=1.0, n_sigma=16, n_hyp=16, seed=4)
    e2 = empirical_rademacher(ds, hp, B=1.0, n_sigma=16, n_hyp=16, seed=4)
    assert e1 == e2
    assert e1 > 0.0


def test_empirical_validation(rng):
    ds = random_corrupted(rng, 5, 2)
    hp = Hyperparams(lam=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        empirical_rademacher(ds, hp, B=1.0, n_sigma=0)
    empty = Dataset(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        empirical_rademacher(empty, hp, B=1.0)
