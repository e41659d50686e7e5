import numpy as np
import pytest

from imputed_ridge import Dataset, corrupt_independent


def random_corrupted(rng, m, d, beta=0.6, observed=()):
    """Random dataset with independent feature deletion.

    The columns listed in ``observed`` keep every entry.
    """
    X = rng.random((m, d))
    y = rng.uniform(-1.0, 1.0, m)
    Z = corrupt_independent(X, beta, int(rng.integers(1 << 31)))
    Z[:, list(observed)] = 1.0
    return Dataset(X * Z, Z, y)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
