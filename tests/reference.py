"""The m x m forms of the relaxed kernel, as references for the tests.

The package never forms an m x m kernel: it works through the factored
forms of imputed_ridge.kernel.  These build the matrices the module
docstring there writes down, entry formula and all, so each factored
form can be checked against the plain matrix:

  * lift: the exact lift N_k = M_k M_k' of an imputation map,
  * build_km: the exact Gram of the rows imputed through M,
  * build_kmn: the relaxed Gram B S(M, N) B' at any (M, N).
"""

import numpy as np

from imputed_ridge import Dataset, LiftedTensor, impute_dataset


def lift(M) -> LiftedTensor:
    """Exact lift of an imputation map: slice k is outer(M[:, k], M[:, k]).

    The joint norm of the result is sqrt(sum_k ||M_k||^4) <= ||M||_F^2,
    so the budget gamma2 = ||M||_F^2 is always feasible.
    """
    M = np.asarray(M, dtype=float)
    slices = np.einsum("rk,sk->krs", M, M)
    gamma2 = float(np.linalg.norm(M)) ** 2
    return LiftedTensor(slices, gamma2)


def build_km(train: Dataset, M) -> np.ndarray:
    """Exact imputed Gram matrix: the m x m Gram of rows filled through M."""
    M = np.asarray(M, dtype=float)
    if M.shape != (train.d, train.d):
        raise ValueError(f"M must be {train.d} x {train.d}")
    Ximp = impute_dataset(M, train.X, train.Z)
    G = Ximp @ Ximp.T
    return 0.5 * (G + G.T)


def build_kmn(train: Dataset, M, N: LiftedTensor) -> np.ndarray:
    """Relaxed m x m Gram matrix B S(M, N) B', affine in (M, N).

    With B's blocks X and X_k = Zb[:, k] * X, k over the features some
    row masks (the others add nothing),

        B S B' = X X' + sum_k [(X_k M[:, k]) X[:, k]' + transpose]
                      + sum_k X_k N_k X_k'

    in O(m a d^2 + m^2 a d), symmetrized.
    """
    M = np.asarray(M, dtype=float)
    (m, d), X = train.X.shape, train.X
    if M.shape != (d, d):
        raise ValueError(f"M must be {d} x {d}")
    if N.slices.shape != (d, d, d):
        raise ValueError(f"N must carry {d} slices of shape ({d}, {d})")
    Zb = 1.0 - train.Z
    active = np.flatnonzero(Zb.any(axis=0))
    Xk = Zb[:, active, None] * X[:, None, :]  # Xk[:, j, :] is X_k, k = active[j]
    P = np.einsum("iks,sk->ik", Xk, M[:, active]) @ X[:, active].T
    A = np.einsum("iks,kst->ikt", Xk, N.slices[active], optimize=True)
    cols = active.size * d
    T = X @ X.T + P + P.T + A.reshape(m, cols) @ Xk.reshape(m, cols).T
    return 0.5 * (T + T.T)
