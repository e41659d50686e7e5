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
    column per eigenpair of W_k above 1e-12 of the largest ||N_j||_F,
    its eigenvector times the root of its eigenvalue.  So
    K = (B L)(B L)' there, B L starts with the M-imputed rows, and as
    each block holds at most n <= d such columns, schur_lt and schur_l
    multiply by L' and L in O(c (1 + n)) per column.
  * quad_factors and s_apply: a' K a is affine in (M, N) for a fixed
    vector a; quad_factors gives its coefficients from B'a = [s, V[:, k]
    per block], which are also its gradient, and s_apply's (u, P) at any
    (M, N) gives the map's value there, a' K a - const = s.u + <V, P>.
  * relaxed_apply: K(X0 rows, X rows) alpha for any rows X0, which gives
    dual predictions without forming either matrix, in row blocks of a
    fixed byte size, so no n x d temporary either.

RelaxedRidge is the ridge objective y' (K + m*lam*I)^{-1} y of one
training set on the Schur set, with its second derivative along a
direction: the solver reaches B, L, Phi = B L and B'B only through it,
and it forms B'B only once a solve has taken enough steps through Phi
to pay for it.  s_apply is the one copy of S(M, N) B'a on the masked
blocks: the solver's slope and curvature and relaxed_apply read it.

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
        if not np.isfinite(slices).all():
            raise ValueError("slices must be finite")
        if not 0 <= self.gamma2 < np.inf:
            raise ValueError(f"budget must be nonnegative and finite, got {self.gamma2}")
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


def s_apply(s, V, Ma, Ns):
    """(u, P) with u_k = M_k . V[:, k] and P[:, k] = s_k M_k + N_k V[:, k],
    M_k the columns of ``Ma`` and N_k the slices of ``Ns``: for
    quad_factors' (s, V) of a vector a, S(M, N) B'a is s + sum_k u_k e_k
    on the X block and P[:, k] on block k, and a'K(M, N)a - const =
    s.u + <V, P>.  O(a d^2)."""
    return np.einsum("rk,rk->k", Ma, V), Ma * s + np.einsum("krs,sk->rk", Ns, V)


def schur_factor(Ma, Ns):
    """F, a x d x (1 + n): the factor L of S(M, N) = L L' on the Schur set.

    ``Ma`` holds the columns M_k and ``Ns`` the slices N_k of the a
    active features.  One batched eigh gives W_k = N_k - M_k M_k' =
    U_k diag(w_k) U_k' with ascending w_k; on C the W_k are PSD, so
    eigenvalues below zero are rounding and clipped to 0, and the roots
    R_k = U_k diag(sqrt(w_k)) have R_k R_k' = W_k.  L is c x (d + a n)
    with rows [I, 0] on the X block; block j's rows hold M_k in column
    k, the feature of block j, and R_j's last n columns in columns
    d + j n .. d + (j + 1) n, where n leaves out the leading columns
    that no block keeps: a column is kept if its squared norm, the
    clipped eigenvalue as U_k is orthonormal, is above 1e-12 of the
    largest ||N_j||_F, and zeroed if not; as W_j <= N_j,
    no eigenvalue is above that scale, and at an exact lift the floor
    drops eigh's rounding.  As the roots come in ascending order, n is
    the most any block keeps.
    F[j] = [M_k, R_j's n columns].
    """
    w, U = np.linalg.eigh(Ns - np.einsum("rk,sk->krs", Ma, Ma))
    w = np.maximum(w, 0.0)
    roots = U * np.sqrt(w)[:, None, :]
    keep = w > 1e-12 * np.sqrt(np.einsum("krs,krs->k", Ns, Ns).max(initial=0.0))
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


class RelaxedRidge:
    """f(M, N) = y' (K(M, N) + m*lam*I)^{-1} y on the Schur set C for one
    training set (X, Zb, y), mlam = m*lam.

    The features with a masked entry are ``active`` and Zba holds their
    masks.  At a point of C, with L the factor of schur_factor and
    Phi = B L, K = Phi Phi' past rounding, and by Woodbury
    alpha = (y - Phi v) / (m*lam), (Phi'Phi + m*lam*I) v = Phi'y; the
    matrix solved has eigenvalues >= m*lam whatever the rank of B.  A
    step rents Phi (m x c_L, c_L = d + a n <= c), built from X, the
    masks and F, at a charge of m c_L (c_L + d a), until the charges
    reach m c^2 / 2, the price of G = B'B; it then buys B, G and B'y
    once, O(m c^2), and each later step solves with Phi'Phi = L'GL in
    O(m c + m d a + a d^3 + c^2 (1 + n) + c_L^3).  That rent-or-buy rule
    costs at most twice the better fixed choice (Karlin et al. 1988),
    and short solves of a wide B never form G.  K - Phi Phi' =
    sum_k D_k X E_k X' D_k with E_k the part of N_k - M_k M_k' that L
    drops, ||E_k|| <= 1e-12 gamma^2, so past rounding

        ||(K + m*lam*I) alpha - y|| <= 1e-12 gamma^2 a ||X||_2^2 ||y|| / (m*lam).
    """

    def __init__(self, X, Zb, y, mlam):
        self.active = np.flatnonzero(Zb.any(axis=0))
        self.Zba = Zb[:, self.active]
        self.X, self.y, self.mlam = X, y, mlam
        m, d = X.shape
        # the rented steps' charges less the price of G, m c^2 / 2
        self.G, self._rent = None, -0.5 * m * (d * (1 + self.active.size)) ** 2

    def _gram(self):
        """Buy B = [X, Zba[:, j] * X per active feature], G = B'B and B'y."""
        X = self.X
        self.B = np.concatenate([X] + [self.Zba[:, [j]] * X for j in range(self.active.size)], 1)
        self.G, self.By = self.B.T @ self.B, self.B.T @ self.y

    def _phi(self, F):
        """Phi = B L from X, the masks and schur_factor's F, O(m d a (1 + n)):
        the M-imputed rows, then Zba[:, j] * X R_j per active feature."""
        (a, d, w), m = F.shape, self.X.shape[0]
        XF = (self.X @ F.transpose(1, 0, 2).reshape(d, a * w)).reshape(m, a, w)
        XF *= self.Zba[:, :, None]
        Phi = np.concatenate([self.X, XF[:, :, 1:].reshape(m, a * (w - 1))], axis=1)
        Phi[:, self.active] += XF[:, :, 0]
        return Phi

    def ridge(self, Ma, Ns):
        """(f, alpha, (F, A, Phi), (c0, s, V)) at the point (Ma, Ns) of C: F
        its Schur factor, A = L'GL + m*lam*I, Phi = B L on a rented step
        (None once G is bought), and quad_factors of alpha with s on the
        active features."""
        F = schur_factor(Ma, Ns)
        if self.G is None and self._rent >= 0.0:
            self._gram()
        if self.G is None:
            Phi = self._phi(F)
            self._rent += Phi.size * (Phi.shape[1] + F.shape[0] * F.shape[1])  # m c_L (c_L + a d)
            A, rhs = Phi.T @ Phi, Phi.T @ self.y
        else:
            Phi = None
            GL = schur_lt(F, self.active, self.G).T  # G L, as G is symmetric
            H = schur_lt(F, self.active, np.column_stack([GL, self.By]))  # [L'G L, L'B'y]
            A, rhs = H[:, :-1], H[:, -1]
        A.flat[:: A.shape[1] + 1] += self.mlam
        v = np.linalg.solve(A, rhs)
        Phi_v = Phi @ v if Phi is not None else self.B @ schur_l(F, self.active, v[:, None])[:, 0]
        alpha = (self.y - Phi_v) / self.mlam
        c0, s, V = quad_factors(self.X, self.Zba, alpha)
        return float(self.y @ alpha), alpha, (F, A, Phi), (c0, s[self.active], V)

    def curvature(self, fac, u, P):
        """f's second derivative along (Dm, Dn) at the point with ridge
        factors fac and quad_factors pair (s, V), (u, P) = s_apply(s, V,
        Dm, Dn): 2 r'(K + m*lam*I)^{-1} r for r = K_D alpha = B theta, K_D
        the part of K linear in (Dm, Dn) and theta = S(Dm, Dn) B'alpha less
        its identity part (u, P), which by Woodbury is 2 (r'r - w'A^{-1} w)
        / (m*lam), w = Phi'r: from X and the masks on a rented step,
        through G once bought."""
        F, A, Phi = fac
        theta = np.zeros(self.X.shape[1])
        theta[self.active] = u
        if Phi is not None:
            r = self.X @ theta + np.einsum("ij,ij->i", self.X @ P, self.Zba)
            rr, w = r @ r, Phi.T @ r
        else:
            theta = np.concatenate([theta, P.T.ravel()])
            Gt = self.G @ theta
            rr, w = theta @ Gt, schur_lt(F, self.active, Gt[:, None])[:, 0]
        return 2.0 * (rr - w @ np.linalg.solve(A, w)) / self.mlam


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
