"""Gram matrices for linearly imputed data, exact and relaxed.

The exact matrix is the Gram of the imputed rows and is quadratic in
the imputation map M, which ruins convexity of the training objective.
The relaxed form replaces every product of two M columns with its own
d x d matrix (one slice N_k per feature), so the entries become affine
in (M, N):

    K[i, j] = xt_i.xt_j + xt_i' M Zb_i xt_j + xt_i' Zb_j M' xt_j
              + sum_k zb_ik zb_jk xt_i' N_k xt_j

where Zb_i is the diagonal of row i's missingness indicator.  Choosing
N_k as the outer product of column k of M with itself recovers the
exact matrix on corrupted coordinates, so the affine family contains
every exact one; the price is that a free N can make the matrix
indefinite, which the solver polices with eigenvector cuts.

Whatever (M, N) is, the matrix factors through X's columns and their
masked copies, B = [X, Zb_k * X for the a features k with a masked
entry]: K = B S(M, N) B' with a c x c matrix S, c = d(1 + a), whose
blocks are I on the X block, M[:, k] e_k' between the X block and
block k, and N_k on block k.  With B = Q R (range_basis, Q orthonormal
m x r, r <= c the rank of B), K = Q T Q' for the r x r core
T = R S R' (relaxed_core).  So the solver never forms K: the
eigenvalues of K are those of T plus, when r < m, zeros on the
complement of span Q, and one eigendecomposition of T (min_eigpair)
gives both the PSD certificate and the ridge solve.  build_km and
build_kmn (through assemble_relaxed) form the m x m matrix as a plain
array, for callers that need K itself, such as theory's empirical
capacity estimate.  Since a' K a is affine in (M, N) for a fixed
vector a, its coefficients (quad_factors) are also its gradient.

Budgets are Frobenius balls: ||M||_F <= gamma and
sqrt(sum_k ||N_k||_F^2) <= gamma^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .dataset import Dataset
from .imputation import FEASIBILITY_SLACK, impute_dataset


@dataclass(frozen=True)
class LiftedTensor:
    """Stack of d symmetric d x d slices standing in for M-column outer products.

    slices[k] plays the role of the rank-one matrix M[:, k] M[:, k]^T.
    The budget caps the joint Frobenius norm at gamma2 (= gamma^2 when
    tied to an M-ball of radius gamma).
    """

    slices: np.ndarray
    gamma2: float

    def __post_init__(self):
        slices = np.asarray(self.slices, dtype=float)
        object.__setattr__(self, "slices", slices)
        object.__setattr__(self, "gamma2", float(self.gamma2))
        if slices.ndim != 3 or slices.shape[1] != slices.shape[2]:
            raise ValueError("slices must have shape (k, d, d)")
        if self.gamma2 < 0:
            raise ValueError("budget must be nonnegative")
        if self.norm > self.gamma2 + FEASIBILITY_SLACK:
            raise ValueError(
                f"joint norm {self.norm:.6g} exceeds budget {self.gamma2}"
            )

    @property
    def norm(self) -> float:
        return float(np.sqrt((self.slices * self.slices).sum()))

    @classmethod
    def zeros(cls, d: int, gamma2: float = 0.0) -> "LiftedTensor":
        return cls(np.zeros((d, d, d)), gamma2)

    @classmethod
    def projected(cls, slices, gamma2) -> "LiftedTensor":
        """Radially scale the stack onto the budget ball."""
        slices = np.asarray(slices, dtype=float)
        norm = float(np.sqrt((slices * slices).sum()))
        if norm > gamma2 and norm > 0:
            slices = slices * (gamma2 / norm)
        return cls(slices, gamma2)


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


def assemble_relaxed(X, Zb, M, slices, active) -> np.ndarray:
    """Relaxed Gram from raw arrays.

    ``slices`` holds one d x d matrix per index in ``active`` (features
    with at least one masked entry); inactive features contribute
    nothing because their zb column is identically zero.
    """
    m = X.shape[0]
    G = X @ X.T
    C = Zb * (X @ M)
    T2 = C @ X.T
    G = G + T2 + T2.T
    active = np.asarray(active, dtype=int)
    if active.size:
        B = Zb[:, active, None] * X[:, None, :]  # B[i, k, :] = zb_i[k] xt_i
        A = np.einsum("ikr,krs->iks", B, slices, optimize=True)
        G = G + A.reshape(m, -1) @ B.reshape(m, -1).T
    return 0.5 * (G + G.T)


def build_kmn(train: Dataset, M, N: LiftedTensor) -> np.ndarray:
    """Relaxed m x m Gram matrix, affine in (M, N)."""
    M = np.asarray(M, dtype=float)
    d = train.d
    if M.shape != (d, d):
        raise ValueError(f"M must be {d} x {d}")
    if N.slices.shape != (d, d, d):
        raise ValueError(f"N must carry {d} slices of shape ({d}, {d})")
    Zb = 1.0 - train.Z
    active = np.flatnonzero(Zb.any(axis=0))
    return assemble_relaxed(train.X, Zb, M, N.slices[active], active)


def quad_factors(X, Zb, a):
    """Factor the affine map (M, N) -> a' K a for a fixed vector a.

    Returns (const, s, V) with const = a' X X' a, s = X' a and
    V[:, k] = X' (a * Zb[:, k]), so that

        a' K a = const + 2 sum_k s_k (M[:, k] . V[:, k])
                       + sum_k V[:, k]' N_k V[:, k].
    """
    s = X.T @ a
    V = X.T @ (a[:, None] * Zb)
    return float(s @ s), s, V


def range_basis(X, Zb, active):
    """Factor B = [X, Zb[:, k] * X for k in active] as B = Q R.

    Every relaxed Gram is B S(M, N) B', so Q is an orthonormal basis
    holding the range of every K(M, N) and one factorization per
    training set serves every outer iteration.  Pivoted QR of B,
    truncated where the diagonal of R falls below 1e-12 of its largest
    entry: Q is m x r and R is r x c with its columns in B's order, r
    the numerical rank.  An identically zero X gives r = 0.
    """
    B = np.concatenate([X] + [Zb[:, [k]] * X for k in active], axis=1)
    Q, R, piv = scipy.linalg.qr(B, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int((diag > diag[0] * 1e-12).sum()) if diag.size and diag[0] > 0 else 0
    R_b = np.empty((rank, B.shape[1]))
    R_b[:, piv] = R[:rank]
    return Q[:, :rank], R_b


def relaxed_core(R, M, slices, active) -> np.ndarray:
    """The r x r core T = R S(M, N) R' of the relaxed Gram K = Q T Q'.

    ``R`` is the second factor of range_basis for the same ``active``;
    ``M`` and ``slices`` are as for assemble_relaxed.  With R split
    into d-column blocks R_0 (the X block) and R_k (block k):

        T = R_0 R_0' + sum_k [(R_k M[:, k]) R_0[:, k]' + transpose]
                     + sum_k R_k N_k R_k'

    which costs O(r a d^2 + r^2 a d) and nothing in m.
    """
    active = np.asarray(active, dtype=int)
    r, d = R.shape[0], M.shape[0]
    R0 = R[:, :d]
    Rk = R[:, d:].reshape(r, active.size, d)  # Rk[:, k, :] is block k
    P = np.einsum("iks,sk->ik", Rk, M[:, active]) @ R0[:, active].T
    A = np.einsum("iks,kst->ikt", Rk, slices, optimize=True)
    cols = active.size * d
    T = R0 @ R0.T + P + P.T + A.reshape(r, cols) @ Rk.reshape(r, cols).T
    return 0.5 * (T + T.T)


def min_eigpair(T, Q):
    """Smallest eigenvalue of K = Q T Q', with a unit eigenvector when negative.

    ``T`` is an r x r core (relaxed_core) and ``Q`` the m x r
    orthonormal basis it is taken on.  The nonzero eigenvalues of K are
    those of T, and when r < m the orthogonal complement of span Q adds
    an exact zero, so the smallest eigenvalue is min(w0, 0) there and
    w0 itself when Q is square.  Returns (eigenvalue, vector-or-None,
    w, U) with T = U diag(w) U', w ascending, which the solver reuses
    for its ridge solve; the vector Q U[:, 0] is only materialized when
    the eigenvalue is negative, the only case a cut needs it.  Raises
    ValueError when T is not symmetric.
    """
    T = np.asarray(T, dtype=float)
    m, r = Q.shape
    if T.shape != (r, r):
        raise ValueError("core must be square with one row per basis column")
    if r and np.abs(T - T.T).max() > 1e-9 * np.abs(T).max():
        raise ValueError("matrix must be symmetric")
    w, U = np.linalg.eigh(0.5 * (T + T.T))
    if r == 0:
        return 0.0, None, w, U
    lam = float(w[0]) if r == m else float(min(w[0], 0.0))
    if lam < 0.0:
        v = Q @ U[:, 0]
        return lam, v / np.linalg.norm(v), w, U
    return lam, None, w, U
