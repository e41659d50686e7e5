"""The relaxed Gram matrix of linearly imputed data, in factored forms.

The exact matrix is the Gram of the imputed rows and is quadratic in
the imputation map M, which ruins convexity of the training objective.
The relaxed form replaces every product of two M columns with its own
d x d matrix (one symmetric slice N_k per feature), so the entries
become affine in (M, N):

    K[i, j] = xt_i.xt_j + xt_i' M Zb_i xt_j + xt_i' Zb_j M' xt_j
              + sum_k zb_ik zb_jk xt_i' N_k xt_j

where Zb_i is the diagonal of row i's missingness indicator.  Choosing
N_k as the outer product of column k of M with itself recovers the
exact matrix on corrupted coordinates, so the affine family contains
every exact one; the price is that a free N can make the matrix
indefinite.  Since K(M, N) - K_exact(M) is
sum_k D_k X (N_k - M[:, k] M[:, k]') X' D_k with D_k = diag(Zb[:, k]),
it is PSD wherever every N_k - M[:, k] M[:, k]' is, whatever the data;
the solver keeps its iterates in that set.

This module is the only place that knows the formula, and it never
forms an m x m matrix.  Whatever (M, N) is, the matrix factors through
X's columns and their masked copies, B = [X, Zb_k * X for the a
features k with a masked entry]: K = B S(M, N) B' with a c x c matrix
S, c = d(1 + a), whose blocks are I on the X block, M[:, k] e_k' between
the X block and block k, and N_k on block k.  A solve and a prediction
use that in three factored forms:

  * schur_factor: on the Schur set, where every W_k = N_k - M[:, k]
    M[:, k]' is PSD, S = L L' with L the identity on the X block and
    M[:, k] routed into column k from block k, then in block k's rows a
    column per eigenpair of W_k above 1e-12 of the largest eigenvalue
    of all, its eigenvector times the root of its eigenvalue.  So
    K = (B L)(B L)' there, B L starts with the M-imputed rows, and as
    each block holds at most n <= d such columns, schur_lt and schur_l
    multiply by L' and L in O(c (1 + n)) per column.
  * quad_factors and quad_value: a' K a is affine in (M, N) for a fixed
    vector a; quad_factors gives its coefficients from B'a = [s, V[:, k]
    per block], which are also its gradient, and quad_value evaluates
    the map at any (M, N).
  * relaxed_apply: K(X0 rows, X rows) alpha for any rows X0, which gives
    dual predictions without forming either matrix, in row blocks of a
    fixed byte size, so no n x d temporary either.

s_apply is the one copy of S(M, N) B'a on the masked blocks: the
solver's curvature and relaxed_apply both call it.

Budgets are Frobenius balls: ||M||_F <= gamma and
sqrt(sum_k ||N_k||_F^2) <= gamma^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEASIBILITY_SLACK = 1e-9
# Bytes of one relaxed_apply row block (256 KiB), small enough for L2.
_BLOCK_BYTES = 2**18


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


def quad_value(s, V, Ma, Ns):
    """a' K(M, N) a - const = 2 sum_k s_k (M[:, k] . V[:, k]) + sum_k
    V[:, k]' N_k V[:, k] for quad_factors' (s, V), over the features k of
    the columns of ``Ma`` and the slices of ``Ns``: linear, O(a d^2)."""
    return 2.0 * float(s @ np.einsum("rk,rk->k", Ma, V)) + float(
        np.einsum("krs,rk,sk->", Ns, V, V)
    )


def s_apply(s, V, Ma, Ns):
    """(u, P) with u_k = M_k . V[:, k] and P[:, k] = s_k M_k + N_k V[:, k],
    M_k the columns of ``Ma`` and N_k the slices of ``Ns``: for
    quad_factors' (s, V) of a vector a, S(M, N) B'a is s + sum_k u_k e_k
    on the X block and P[:, k] on block k.  O(a d^2)."""
    return np.einsum("rk,rk->k", Ma, V), Ma * s + np.einsum("krs,sk->rk", Ns, V)


def _basis(X, Zb, active):
    """B = [X, Zb[:, k] * X for k in active], the m x d(1 + a) factor of K."""
    return np.concatenate([X] + [Zb[:, [k]] * X for k in active], axis=1)


def schur_factor(Ma, roots, active):
    """F, a x d x (1 + n): the factor L of S(M, N) = L L' on the Schur set.

    ``Ma`` holds the columns M_k, k in ``active``, and ``roots[j]`` a d x d
    R_j with R_j R_j' = N_k - M_k M_k', k = active[j].  L is c x (d + a n)
    with rows [I, 0] on the X block; block j's rows hold M_k in column k
    and R_j's last n columns in columns d + j n .. d + (j + 1) n, where
    n leaves out the leading columns that no block keeps: a column is
    kept if its squared norm is above 1e-12 of the largest of all, and
    zeroed if not.  With the ascending eigenpairs of solver._schur_roots, n
    is the most any block keeps.  F[j] = [M_k, R_j's n columns].
    """
    sq = np.einsum("jsi,jsi->ji", roots, roots)
    keep = sq > 1e-12 * sq.max(initial=0.0)
    lo = np.append(keep.any(axis=0), True).argmax()  # first column kept, or d
    R = roots[:, :, lo:] * keep[:, None, lo:]
    return np.concatenate([Ma.T[:, :, None], R], axis=2)


def schur_lt(F, active, Y):
    """L'Y for the factor L of schur_factor and Y with c rows, q columns:
    O(c (1 + n) q), where a dense L would cost O(c (d + a n) q)."""
    (a, d, w), q = F.shape, Y.shape[1]
    P = F.transpose(0, 2, 1) @ Y[d:].reshape(a, d, q)
    out = np.empty((d + a * (w - 1), q))
    out[:d] = Y[:d]
    out[active] += P[:, 0]
    out[d:].reshape(a, w - 1, q)[...] = P[:, 1:]
    return out


def schur_l(F, active, V):
    """L V for V with d + a n rows and L the factor of schur_factor."""
    a, d, w = F.shape
    Vb = np.concatenate([V[active][:, None], V[d:].reshape(a, w - 1, V.shape[1])], axis=1)
    return np.concatenate([V[:d], (F @ Vb).reshape(a * d, V.shape[1])])


def _block_rows(d: int) -> int:
    """Rows of a d-column float64 block that fits _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * max(d, 1)))


def relaxed_apply(X, Zb, M, slices, alpha, X0, Z0) -> np.ndarray:
    """K(X0 rows, X rows) alpha without forming either kernel.

    ``X, Zb`` are the rows alpha weights and their missingness
    indicators, ``X0, Z0`` the rows to evaluate and their observation
    mask, ``slices`` all d slices of N.  Summing the module's formula
    over the X rows against alpha gives, for a row x0 with missingness
    indicator zb0,

        x0 . (s + u) + sum_k zb0_k (x0 . P[:, k])

    with (s, V) from quad_factors and (u, P) = s_apply(s, V, M, N).  N_k
    enters through its symmetric part, so for any stack this is the
    cross block of the symmetrized formula on the rows [X; X0].
    Features no X row masks have V[:, k] = 0 but keep the M term where
    x0 masks them.  The masked sum is the full row sum minus its
    observed part.  X0 and Z0 are read in blocks of _block_rows(d) rows,
    and each block's X0 P is summed against its mask while in cache, so
    beyond the (n,) output the only temporaries are one block's.
    O(m d^2 + d^3) once plus O(d^2) per row.
    """
    _, s, V = quad_factors(X, Zb, alpha)
    u, P = s_apply(s, V, M, 0.5 * (slices + slices.transpose(0, 2, 1)))
    w = s + u + P.sum(axis=1)
    n, d = X0.shape
    rows = _block_rows(d)
    out = np.empty(n)
    for i in range(0, n, rows):
        X0b, Z0b = X0[i : i + rows], Z0[i : i + rows]
        out[i : i + rows] = X0b @ w - np.einsum("ij,ij->i", X0b @ P, Z0b)
    return out
