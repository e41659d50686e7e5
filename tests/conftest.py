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


def flat_row(s, V):
    """Coefficient row of the affine map (M, N) -> a' K a - a' X X' a.

    (s, V) is quad_factors' pair restricted to the active features.
    With x = [vec(M_active), vec(N_active)] the map is row . x, where
    the M block carries 2 s_k V[:, k] and the N block the outer
    products V[:, k] V[:, k]'.
    """
    coef_m = 2.0 * V * s[None, :]
    coef_n = np.einsum("rk,sk->krs", V, V)
    return np.concatenate([coef_m.ravel(), coef_n.ravel()])


@pytest.fixture
def rng():
    return np.random.default_rng(0)
