"""Plain forms of the package's algorithms, as references for the tests.

The package never forms an m x m kernel: it works through the factored
forms of imputed_ridge.kernel.  These build the matrices the module
docstring there writes down, entry formula and all, so each factored
form can be checked against the plain matrix:

  * lift: the exact lift N_k = M_k M_k' of an imputation map,
  * build_km: the exact Gram of the rows imputed through M,
  * build_kmn: the relaxed Gram B S(M, N) B' at any (M, N).

The solver's linear step evaluates its dual one feature at a time in
scalar arithmetic; lmo_inner and cubic_root are the same formulas over
numpy vectors.
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


def lmo_inner(b, c, p, q):
    """imputed_ridge.solver._lmo_inner over arrays b and c: (G, gradient,
    Hessian, mu, nu, b'mu, c'nu) of the dual G(p, q), each feature on
    the branch where mu = b / 2p, nu = c / 2q or where nu = mu^2."""
    r2 = c / (2.0 * q)
    first = b * b <= 4.0 * p * p * r2
    mu, nu = np.empty_like(b), np.empty_like(b)
    hpp = hpq = hqq = 0.0
    if first.any():
        m1 = b[first] / (2.0 * p) if p > 0.0 else np.zeros(int(first.sum()))
        mu[first], nu[first] = m1, r2[first]
        hpp += 2.0 * float(m1 @ m1) / p if p > 0.0 else 0.0
        hqq += 2.0 * float(r2[first] @ r2[first]) / q
    if not first.all():
        second = ~first
        x, D = cubic_root(b[second], c[second] - p, q)
        x2 = x * x
        mu[second], nu[second] = x, x2
        hpp += float((4.0 * x2 / D).sum())
        hpq += float((8.0 * x2 * x2 / D).sum())
        hqq += float((16.0 * x2 * x2 * x2 / D).sum())
    bm, cn = float(b @ mu), float(c @ nu)
    G = p + q + bm + cn - p * float(mu @ mu) - q * float(nu @ nu)
    grad = (1.0 - float(mu @ mu), 1.0 - float(nu @ nu))
    return G, grad, (hpp, hpq, hqq), mu, nu, bm, cn


def cubic_root(b, k, q):
    """imputed_ridge.solver._cubic_root over arrays b and k: the positive
    root x of 4q x^3 - 2k x - b and D = 12q x^2 - 2k there."""
    P, h = k / (6.0 * q), b / (8.0 * q)
    rt = np.sqrt(np.abs(P))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = h / (rt * rt * rt)
        x = np.where(
            P > 0.0,
            np.where(z <= 1.0, np.cos(np.arccos(np.minimum(z, 1.0)) / 3.0),
                     np.cosh(np.arccosh(np.maximum(z, 1.0)) / 3.0)),
            np.sinh(np.arcsinh(z) / 3.0),
        ) * (2.0 * rt)
    x = np.where(np.isfinite(x) & (x > 0.0), x, np.cbrt(2.0 * h))
    D = 12.0 * q * x * x - 2.0 * k
    x = x - (4.0 * q * x * x * x - 2.0 * k * x - b) / D
    return x, 12.0 * q * x * x - 2.0 * k
