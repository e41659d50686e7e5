"""Joint training of the imputation map and a ridge regressor.

The training objective is the dual ridge value y' (K + m*lam*I)^{-1} y
minimized over the relaxed Gram family of kernel.py.  Because that
family is affine in (M, N), the objective is a pointwise maximum of
affine functions over dual vectors:

    f(M, N) = max_alpha [ 2 alpha'y - alpha'(K(M, N) + m*lam*I) alpha ]

which this module minimizes with cutting planes over the Schur set

    C = {(M, N) : N_k - M_k M_k' >= 0 (PSD) for every feature k}

(M_k column k of M).  K(M, N) - K_exact(M) = sum_k D_k X (N_k - M_k M_k')
X' D_k with D_k = diag(Zb[:, k]), so every kernel on C is PSD, for any
data; C holds every exact lift N_k = M_k M_k' and so still relaxes
exact imputation.  Each outer iteration:

  1. at the current point of C, where K = (B L)(B L)' with the Schur
     factor L of kernel.py, solve the ridge system for the maximizing
     alpha (_schur_ridge) and add alpha to an active set;
  2. re-minimize the active-set maximum over the Frobenius balls with
     INNER_STEPS projected subgradient steps, in plane coordinates: the
     iterate is a combination of the planes' and cuts' coefficient rows,
     and the steps only need those rows' k x k Grams;
  3. take one batched eigendecomposition of the blocks N_k - M_k M_k'
     at that iterate: each block below -eps_psd adds a Schur cut, an
     affine constraint that holds on C, and clipping the blocks'
     negative eigenvalues gives the next point of C (_schur_separate);
  4. stop when the incumbent's value and the master value agree to
     relative tolerance.

With gamma = 0 the master's steps have length 0, and with nothing
missing (or X = 0) every plane is flat in (M, N), so the point stays
at M = N = 0 and the second iteration stops with a gap of rounding
size: plain ridge on the zero-filled rows, by the same path.

Every alpha and every Schur cut enters the master step through the
same factorization (quad_factors): its pair (s, V) gives one new row
and column of each Gram in O(k d a), and one inner iteration costs
O(k) for k planes and cuts, whatever d.  The iterate's (M, N) is
rebuilt from its coefficients once per outer iteration.  No step of a
solve forms an m x m matrix: O(m c^2) once for G = B'B, then per
outer iteration O(m c) for one product with B, O(m d a) for the new
plane and O(c^2 (1 + n) + c_L^3) for the ridge step, c = d(1 + a) and
c_L = d + a n (kernel.schur_factor).  The solve returns the incumbent:
the point of C with the lowest objective among those it evaluated.

Primal ridge on explicit rows U (the benchmark's baselines) is
ridge_weights: the d x d normal equations, never the m x m Gram U U'.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .dataset import Dataset
from .kernel import LiftedTensor, _basis, quad_factors, relaxed_apply
from .kernel import schur_factor, schur_l, schur_lt

# Projected subgradient steps of one master solve (_master).
INNER_STEPS = 500


@dataclass(frozen=True)
class Hyperparams:
    """Ridge weight lam > 0 and imputation budget gamma >= 0.

    gamma = 0 removes the imputation map entirely: the solve returns
    plain kernel ridge on the zero-filled data, with M = N = 0.
    """

    lam: float
    gamma: float

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be nonnegative and finite, got {self.gamma}")


@dataclass(frozen=True)
class SolverConfig:
    """Solver limits: the relative gap tol at which a solve stops and
    the most outer iterations it may take.

    eps_psd, not settable, is how far below zero a Schur block's
    smallest eigenvalue may go before it is cut off.
    """

    tol: float = 1e-3
    max_outer: int = 200
    eps_psd: ClassVar[float] = 1e-7

    def __post_init__(self):
        """max_outer must be an integer >= 1 and tol a positive finite
        real, booleans neither, so nothing is silently rounded or cast."""
        n, tol = self.max_outer, self.tol
        try:
            ok = not isinstance(n, bool) and operator.index(n) >= 1
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"max_outer must be an integer of at least 1, got {n!r}")
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise ValueError(f"tol must be a real number, got {tol!r}")
        if not 0 < tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {tol}")

    @classmethod
    def from_json(cls, text: str) -> "SolverConfig":
        """Read a JSON object of SolverConfig fields; absent keys keep defaults.

        The values are checked as by the constructor.
        """
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("solver config must be a JSON object")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown solver config keys: {', '.join(unknown)}")
        return cls(**obj)


@dataclass(frozen=True)
class Diagnostics:
    iterations: int
    gap: float
    cuts: int  # Schur cuts added to the model
    objective: float
    converged: bool


@dataclass(frozen=True)
class IrrSolution:
    """Trained model: dual weights, imputation map, lifted slices.

    ``train`` is kept because the dual predictor evaluates against the
    training rows.
    """

    alpha: np.ndarray
    M: np.ndarray
    N: LiftedTensor
    train: Dataset
    hp: Hyperparams
    diagnostics: Diagnostics


def ridge_weights(U, y, lam) -> np.ndarray:
    """Primal ridge weights w = (U'U + m*lam*I)^{-1} U'y for the m rows U.

    A d x d solve; the m x m Gram U U' is never formed.  Raises
    ValueError when U and y disagree in row count.
    """
    U = np.asarray(U, dtype=float)
    y = np.asarray(y, dtype=float)
    if U.ndim != 2 or y.shape != (U.shape[0],):
        raise ValueError("design rows and label sizes disagree")
    G = U.T @ U
    G.flat[:: G.shape[0] + 1] += U.shape[0] * lam
    return np.linalg.solve(G, U.T @ y)


class _Rows:
    """The planes and cuts of the cutting-plane model, in plane coordinates.

    Row j is the affine map (M, N) -> a_j' K a_j - a_j' X X' a_j of one
    dual vector a_j, given on the active features by quad_factors' pair
    (s_j, V_j); a Schur cut has a pair of the same form
    (_schur_separate).  Its M block is B_j = 2 V_j diag(s_j) and its N
    block the outer products V_j[:, k] V_j[:, k]'; only B_j and V_j are
    stored.  Planes come first, then cuts, each in the order they were
    added.  The master step needs the rows' inner products, the two
    k x k Grams

        GM[i, j] = B_i . B_j = 4 sum_k s_ik s_jk (V_i[:, k] . V_j[:, k])
        GN[i, j] = sum_k (V_i[:, k] . V_j[:, k])^2

    grown by one row and column per new row in O(k d a), and carries
    its iterate as coefficients (cM, cN) over the rows: the iterate's
    M[:, active] is sum_j cM_j B_j and its N_k is
    sum_j cN_j V_j[:, k] V_j[:, k]'.
    ``const`` holds A0 for a plane (value A0 - row . x) and C0 for a cut
    (value C0 + row . x >= 0).
    """

    def __init__(self, d, a):
        self.planes = 0
        self.const = np.zeros(0)
        self.B = np.zeros((0, d * a))
        self.V = np.zeros((0, d, a))
        self.GM = np.zeros((0, 0))
        self.GN = np.zeros((0, 0))
        self.cM = np.zeros(0)
        self.cN = np.zeros(0)

    def add(self, const, s, V, cut):
        """Append a plane after the planes, or a cut after the cuts."""
        i = self.const.size if cut else self.planes
        self.planes += not cut
        B = (2.0 * V * s).ravel()

        def insert(A, row):
            return np.concatenate([A[:i], [row], A[i:]])

        self.const = insert(self.const, const)
        self.B = insert(self.B, B)
        self.V = insert(self.V, V)
        self.cM = insert(self.cM, 0.0)
        self.cN = insert(self.cN, 0.0)
        VV = np.einsum("jrk,rk->jk", self.V, V)
        self.GM = _grow(self.GM, i, self.B @ B)
        self.GN = _grow(self.GN, i, (VV * VV).sum(axis=1))

    def iterate(self, gamma):
        """The iterate's (M[:, active], N[active]), radially inside both balls.

        The master tracks the balls' norms by updates that drift by
        about 1e-13, so the rebuilt blocks are projected here with their
        exact norms, and the coefficients scaled along.
        """
        Ma = (self.cM @ self.B).reshape(self.V.shape[1:])
        Vt = self.V.transpose(2, 1, 0)  # Vt[k]'s columns: the rows' V_j[:, k]
        Ns = (Vt * self.cN) @ Vt.transpose(0, 2, 1)
        fM = _into_ball(Ma, gamma)
        fN = _into_ball(Ns, gamma * gamma)
        self.cM *= fM
        self.cN *= fN
        return Ma * fM, Ns * fN


def _grow(G, i, g):
    """Insert row and column i, holding g, into the symmetric matrix G."""
    H = np.empty((g.size, g.size))
    H[:i, :i], H[:i, i + 1 :] = G[:i, :i], G[:i, i:]
    H[i + 1 :, :i], H[i + 1 :, i + 1 :] = G[i:, :i], G[i:, i:]
    H[i] = g
    H[:, i] = g
    return H


def _into_ball(A, radius):
    """Factor f <= 1 with ||f A||_F <= radius, exactly in floating point."""
    nrm = float(np.linalg.norm(A))
    if nrm <= radius:
        return 1.0
    f = radius / nrm
    while np.linalg.norm(f * A) > radius:
        f = float(np.nextafter(f, 0.0))
    return f


def _master(rows, gamma):
    """Minimize the active-set maximum over the budget balls in INNER_STEPS
    steps, or fewer where the objective is flat.

    The iterate x is sum_j (cM_j row_j^M + cN_j row_j^N) over the _Rows
    ``rows``, starting from its coefficients: every plane is the affine
    objective A0 - row . x and every cut the affine constraint
    C0 + row . x >= 0.  Cut violations are repaired by exact projection
    onto the violated halfspace; objective steps follow the subgradient
    of the current maximizer with a c/sqrt(t) schedule, c calibrated to
    the first subgradient so the initial step is on the budget's scale;
    the two Frobenius balls (M block, N block) are enforced by radial
    scaling.  Returns the best cut-feasible iterate's coefficients
    (cM, cN) and its value.

    Every step moves x along one row, so the loop works on the products
    P = G c of the rows with the iterate, in O(k) per step for k rows:
    a step updates P by one column of each Gram, and the squared norms
    of the two blocks by the matching scalar terms.  Each ball's radial
    scaling is a lazy per-block scale (the stored coefficients and
    products are the true ones divided by it), folded back before it
    can underflow: a small budget shrinks the N scale by about gamma on
    every step.
    """
    GM, GN = rows.GM, rows.GN
    eps = SolverConfig.eps_psd
    npl, k = rows.planes, GM.shape[0]
    have_cuts = k > npl
    rM = gamma * gamma  # squared radii of the two balls
    rN = rM * rM
    dM = np.diag(GM).tolist()
    dN = np.diag(GN).tolist()
    # G[j] stacks row j of each Gram, so that a step of length tau along
    # row j adds D G[j] to P[1:], D = diag(tau/sM, tau/sN)
    G = np.stack([GM, GN], axis=1)
    cM, cN = rows.cM.tolist(), rows.cN.tolist()
    # row 0 holds the constants, the cuts' negated, so that u = w . P
    # is the planes' values, then the cuts' values negated, with
    # w = (1, -sM, -sN) the lazy scales
    const = np.concatenate([rows.const[:npl], -rows.const[npl:]])
    P = np.stack([const, GM @ rows.cM, GN @ rows.cN])
    PG = P[1:]
    w = np.array([1.0, -1.0, -1.0])
    u = np.empty(k)
    u_planes, u_cuts = u[:npl], u[npl:]
    D = np.empty((2, 1))
    DG = np.empty((2, k))
    sM = sN = 1.0
    qM = float(rows.cM @ P[1])
    qN = float(rows.cN @ P[2])
    best_val = np.inf
    best = (cM.copy(), cN.copy(), 1.0, 1.0)
    step_scale = None

    for t in range(1, INNER_STEPS + 1):
        w.dot(P, out=u)
        viol = 0.0
        if have_cuts:
            j = npl + int(u_cuts.argmax())
            viol = -u.item(j)

        if viol < -eps:
            gsq = dM[j] + dN[j]
            tau = -viol / gsq if gsq > 0.0 else 0.0
        else:
            j = int(u_planes.argmax())
            val = u.item(j)
            if val < best_val:
                best_val = val
                best = (cM.copy(), cN.copy(), sM, sN)
            gnorm = math.sqrt(dM[j] + dN[j])
            if gnorm <= 1e-14:
                break  # objective is flat in (M, N); nothing to move
            if step_scale is None:
                step_scale = gamma / (1.0 + gnorm)
            # decreasing the maximum means increasing the quadratic term;
            # the step length is taken along the normalized direction so
            # flat objectives still traverse the ball
            tau = step_scale / (math.sqrt(t) * gnorm)

        if tau != 0.0:
            qM += tau * (2.0 * sM * P.item(1, j) + tau * dM[j])
            qN += tau * (2.0 * sN * P.item(2, j) + tau * dN[j])
            stepM, stepN = tau / sM, tau / sN
            cM[j] += stepM
            cN[j] += stepN
            D[0, 0], D[1, 0] = stepM, stepN
            np.multiply(G[j], D, out=DG)
            PG += DG

        if qM > rM:
            sM *= math.sqrt(rM / qM)
            qM = rM
            w[1] = -sM
        if qN > rN:
            sN *= math.sqrt(rN / qN)
            qN = rN
            w[2] = -sN
        if sM < 1e-60 or sN < 1e-60:
            cM = [c * sM for c in cM]
            cN = [c * sN for c in cN]
            P[1] *= sM
            P[2] *= sN
            sM = sN = 1.0
            w[1:] = -1.0

    cM, cN, sM, sN = best
    return np.array(cM) * sM, np.array(cN) * sN, best_val


def solve_irr(train: Dataset, hp: Hyperparams, config: SolverConfig | None = None) -> IrrSolution:
    """Cutting-plane minimization of the relaxed ridge objective.

    Starts from M = N = 0, which lies in the Schur set C.  Alternates
    ridge solves at points of C, master re-minimization, and Schur cuts
    with a move back into C until the relative gap between the best
    objective found and the master value drops below config.tol.  Every
    kernel evaluated is PSD.  Returns the incumbent, the evaluated point
    of C with the lowest objective, which Diagnostics.objective reports.
    Diagnostics.converged is True only when that test fired; a run that
    stops at config.max_outer reports False, whatever its last gap.
    (The master value is the model's value at an approximate minimizer,
    so it is not a certified lower bound.)  Raises ValueError for an
    empty training set, and for a lam so small that m*lam is below
    1e-12 of the kernel scale ||X||_F^2 (1 + gamma)^2.
    """
    cfg = config or SolverConfig()
    X, Z, y = train.X, train.Z, train.y
    m, d = X.shape
    if m == 0:
        raise ValueError("empty training set")
    Zb = 1.0 - Z
    active = np.flatnonzero(Zb.any(axis=0))
    a = active.size
    mlam = m * hp.lam
    # ||X||_F^2 (1 + gamma)^2 is the scale of the trace of every kernel
    # in budget; a shift m*lam far below it is lost in rounding, and the
    # solve would return NaN or infinite weights
    scale = float(np.vdot(X, X)) * (1.0 + hp.gamma) ** 2
    if mlam < 1e-12 * scale:
        raise ValueError(
            f"lam = {hp.lam:g} is too small for this data: m*lam = {mlam:g} is "
            f"below 1e-12 of the kernel scale {scale:g}"
        )

    B = _basis(X, Zb, active)
    G, By = B.T @ B, B.T @ y
    rows = _Rows(d, a)
    Ma, Ns, roots = np.zeros((d, a)), np.zeros((a, d, d)), np.zeros((a, d, d))

    upper_best = np.inf
    lower = -np.inf
    converged = False

    for it in range(1, cfg.max_outer + 1):
        # (Ma, Ns) lies in C, where roots factor its blocks N_k - M_k M_k'
        alpha = _schur_ridge(B, G, By, y, schur_factor(Ma, roots, active), active, mlam)
        f_cur = float(y @ alpha)
        if f_cur < upper_best:
            upper_best = f_cur
            incumbent = (Ma, Ns, alpha)
        _, s, V = quad_factors(X, Zb, alpha)
        a0 = 2.0 * f_cur - mlam * float(alpha @ alpha) - float(s @ s)
        rows.add(a0, s[active], V[:, active], cut=False)

        gap = upper_best - lower
        if gap <= cfg.tol * max(abs(upper_best), 1e-12):
            converged = True
            break

        rows.cM, rows.cN, lower = _master(rows, hp.gamma)
        Ma, Ns, roots = _schur_separate(rows, *rows.iterate(hp.gamma), hp.gamma, cfg.eps_psd)

    Ma, Ns, alpha = incumbent
    M, N = np.zeros((d, d)), np.zeros((d, d, d))
    M[:, active], N[active] = Ma, Ns

    diag = Diagnostics(
        iterations=it,
        gap=float(max(gap, 0.0)),
        cuts=rows.const.size - rows.planes,
        objective=float(upper_best),
        converged=converged,
    )
    return IrrSolution(
        alpha=alpha,
        M=M,
        N=LiftedTensor(N, hp.gamma**2),
        train=train,
        hp=hp,
        diagnostics=diag,
    )


def _schur_ridge(B, G, By, y, F, active, mlam):
    """Dual ridge weights alpha = (Phi Phi' + m*lam*I)^{-1} y, Phi = B L.

    L is the factor kernel.schur_factor gives as F.  By Woodbury
    alpha = (y - Phi v) / (m*lam), (L'GL + m*lam*I) v = L'B'y, with G = B'B
    and B'y formed once per solve: O(m c + c^2 (1 + n) + c_L^3).  The
    matrix solved has eigenvalues >= m*lam whatever the rank of B.  At a
    point of C, K - Phi Phi' = sum_k D_k X E_k X' D_k with E_k the part of
    N_k - M_k M_k' that L drops, ||E_k|| <= 1e-12 gamma^2, so past rounding

        ||(K + m*lam*I) alpha - y|| <= 1e-12 gamma^2 a ||X||_2^2 ||y|| / (m*lam).
    """
    GL = schur_lt(F, active, G).T  # G L, as G is symmetric
    H = schur_lt(F, active, np.column_stack([GL, By]))  # [L'G L, L'B'y]
    H.flat[:: H.shape[1] + 1] += mlam
    v = np.linalg.solve(H[:, :-1], H[:, -1:])
    return (y - B @ schur_l(F, active, v)[:, 0]) / mlam


def _schur_separate(rows, Ma, Ns, gamma, eps):
    """Cut (Ma, Ns) off the Schur set C and return a point of C near it.

    C asks N_k - M_k M_k' >= 0 for every active feature k, M_k column k
    of Ma.  One batched eigh of those a blocks gives both results.  A
    block whose smallest eigenvalue is below -eps, with unit eigenvector
    v, adds the cut u0^2 + 2 u0 (M_k . v) + v' N_k v >= 0, u0 = -M_k . v:
    it is u' [[1, M_k'], [M_k, N_k]] u >= 0 at u = (u0, v), valid on all
    of C and violated here by that eigenvalue, and in quad_factors form
    it is const u0^2, s = u0 e_k and V with v as its only column, k.
    The point returned is (t Ma, t^2 N'), N'_k = M_k M_k' plus the
    block's positive part, with t <= 1 the largest factor inside both
    balls; it is (Ma, Ns) itself when no block is negative.  With it
    come the roots U_k diag(sqrt(w_k)) of N_k - M_k M_k' = U_k diag(w_k) U_k'.
    """
    d, a = Ma.shape
    MM = np.einsum("rk,sk->krs", Ma, Ma)
    w, U = np.linalg.eigh(Ns - MM)
    for k in np.flatnonzero(w[:, 0] < -eps):
        v = U[k, :, 0]
        u0 = -float(Ma[:, k] @ v)
        s, V = np.zeros(a), np.zeros((d, a))
        s[k], V[:, k] = u0, v
        rows.add(u0 * u0, s, V, cut=True)
    neg = w[:, 0] < 0.0
    if not neg.any():
        return Ma, Ns, U * np.sqrt(w)[:, None, :]
    w = np.maximum(w, 0.0)
    Ns = np.where(neg[:, None, None], MM + (U * w[:, None, :]) @ U.transpose(0, 2, 1), Ns)
    t2 = _into_ball(Ns, gamma * gamma)
    return Ma * math.sqrt(t2), Ns * t2, U * np.sqrt(t2 * w)[:, None, :]


def predict_batch(sol: IrrSolution, test: Dataset) -> np.ndarray:
    """Dual predictor on a batch of corrupted samples.

    Evaluates sum_i alpha_i k(x0, x_i) for every test row x0 through
    kernel.relaxed_apply: O(m d^2 + d^3) once plus O(d^2) per test
    row, with no kernel matrix formed.  Memory is the O(n) output plus
    one fixed-size block of test rows.
    """
    if test.d != sol.train.d:
        raise ValueError("test dimension does not match training dimension")
    train = sol.train
    return relaxed_apply(
        train.X, 1.0 - train.Z, sol.M, sol.N.slices, sol.alpha, test.X, test.Z
    )


def rmse(sol: IrrSolution, test: Dataset) -> float:
    """Root mean squared error of a solution on a corrupted test set."""
    if test.m == 0:
        raise ValueError("empty test set")
    resid = test.y - predict_batch(sol, test)
    return float(np.sqrt((resid @ resid) / test.m))

