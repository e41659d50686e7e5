"""Joint training of the imputation map and a ridge regressor.

The training objective is the dual ridge value y' (K + m*lam*I)^{-1} y
minimized over the relaxed Gram family of kernel.py.  Because that
family is affine in (M, N), the objective is a pointwise maximum of
affine functions over dual vectors:

    f(M, N) = max_alpha [ 2 alpha'y - alpha'(K(M, N) + m*lam*I) alpha ]

which this module minimizes with cutting planes:

  1. at the current (M, N), build the r x r core T of the kernel
     K = Q T Q' on the basis Q of kernel.range_basis, computed once per
     solve, and take its eigendecomposition T = U diag(w) U'; then
     solve the ridge system for the maximizing alpha through it, in
     O(m r), and add alpha to an active set;
  2. re-minimize the active-set maximum over the Frobenius balls with
     projected subgradient steps;
  3. if the current kernel has a negative eigenvalue, add the affine
     constraint v' K(M, N) v >= 0 for the offending eigenvector
     v = Q U[:, 0], from the same eigendecomposition, whatever the
     problem's shape;
  4. stop when the incumbent's value and the master value agree to
     relative tolerance.

Every alpha and every eigenvector enters the master step through the
same factorization (quad_factors), so one inner iteration costs a few
stacked contractions.  No step of a solve forms an m x m matrix: the
per-iteration work is O(m r) plus the r x r core, r <= d(1 + a).  A
short projected gradient polish on the exact-imputation objective runs
after the cutting planes, each evaluation a d x d primal ridge solve;
its result is adopted only when it improves, which is always sound
because the lift of an in-budget map stays feasible.

Ridge on explicit rows U (the polish, the gamma = 0 shortcut and the
benchmark's baselines) has one implementation, ridge_weights: the
d x d normal equations, never the m x m Gram U U'.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np
import scipy.linalg

from .dataset import Dataset
from .kernel import (
    LiftedTensor,
    lift,
    min_eigpair,
    quad_factors,
    range_basis,
    relaxed_apply,
    relaxed_core,
)


@dataclass(frozen=True)
class Hyperparams:
    """Ridge weight lam > 0 and imputation budget gamma >= 0.

    gamma = 0 removes the imputation map entirely and the solver
    short-circuits to plain kernel ridge on the zero-filled data.
    """

    lam: float
    gamma: float

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-3
    max_outer: int = 200
    inner_steps: int = 500
    eps_psd: float = 1e-7

    def __post_init__(self):
        if not (self.tol > 0 and self.eps_psd > 0):
            raise ValueError("tolerances must be positive")
        if self.max_outer < 1 or self.inner_steps < 1:
            raise ValueError("iteration limits must be at least 1")

    @classmethod
    def from_json(cls, text: str) -> "SolverConfig":
        """Read a JSON object of SolverConfig fields; absent keys keep defaults.

        The iteration limits must be JSON integers and the tolerances
        numbers (booleans are neither), so no value is silently rounded.
        """
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("solver config must be a JSON object")
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown solver config keys: {', '.join(unknown)}")
        limits = ("max_outer", "inner_steps")
        for key, value in obj.items():
            kind = int if key in limits else (int, float)
            if isinstance(value, bool) or not isinstance(value, kind):
                what = "an integer" if key in limits else "a number"
                raise ValueError(f"solver config: {key} must be {what}, got {value!r}")
        return cls(**{k: v if k in limits else float(v) for k, v in obj.items()})


@dataclass(frozen=True)
class Diagnostics:
    iterations: int
    gap: float
    cuts: int
    objective: float
    converged: bool


@dataclass(frozen=True)
class IrrSolution:
    """Trained model: dual weights, imputation map, lifted slices.

    ``train`` is kept because the dual predictor evaluates against the
    training rows; serialization strips it (see save_solution).
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
    return scipy.linalg.solve(G, U.T @ y, assume_a="pos")


def _flat_row(s, V):
    """Coefficient vector of the affine map (M, N) -> quadratic-term value.

    With x = [vec(M_active), vec(N_active)], the map a' K a - a' X X' a
    equals row . x, where the M block carries 2 s_k V[:, k] and the N
    block the outer products V[:, k] V[:, k]'.
    """
    coef_m = 2.0 * V * s[None, :]
    coef_n = np.einsum("rk,sk->krs", V, V)
    return np.concatenate([coef_m.ravel(), coef_n.ravel()])


def _master(x0, A0, CA, C0, CC, gamma, inner_steps, eps, dM):
    """Minimize the active-set maximum over the budget balls.

    The variable x stacks the active columns of M and the active slices
    of N, so every active objective is the affine A0 - CA x and every
    cut the affine C0 + CC x >= 0.  Cut violations are repaired by exact
    projection onto the violated halfspace; objective steps follow the
    subgradient of the current maximizer with a c/sqrt(t) schedule, c
    calibrated to the first subgradient so the initial step is on the
    budget's scale; the two Frobenius balls are enforced by radial
    scaling.  Returns the best cut-feasible iterate and its value.
    """
    x = x0.copy()
    gamma2 = gamma * gamma
    best_val = np.inf
    best_x = x.copy()
    step_scale = None
    have_cuts = C0.size > 0

    for t in range(1, inner_steps + 1):
        viol = 0.0
        if have_cuts:
            cvals = C0 + CC @ x
            worst = int(np.argmin(cvals))
            viol = float(cvals[worst])

        if viol < -eps:
            g = CC[worst]
            gsq = float(g @ g)
            if gsq > 0.0:
                x = x + (-viol / gsq) * g
        else:
            phi = A0 - CA @ x
            top = int(np.argmax(phi))
            val = float(phi[top])
            if val < best_val:
                best_val = val
                best_x = x.copy()
            g = CA[top]
            gnorm = float(np.sqrt(g @ g))
            if gnorm <= 1e-14:
                break  # objective is flat in (M, N); nothing to move
            if step_scale is None:
                step_scale = gamma / (1.0 + gnorm)
            # decreasing the maximum means increasing the quadratic term;
            # the step length is taken along the normalized direction so
            # flat objectives still traverse the ball
            x = x + (step_scale / (np.sqrt(t) * gnorm)) * g

        nm = float(np.linalg.norm(x[:dM]))
        if nm > gamma:
            x[:dM] *= gamma / nm
        nn = float(np.linalg.norm(x[dM:]))
        if nn > gamma2:
            x[dM:] *= gamma2 / nn

    return best_x, best_val


def _polish(X, Zba, active, y, mlam, Ma0, gamma, tol, max_steps=80):
    """Projected gradient descent on the exact-imputation objective.

    h(M) = y'(K_M + m*lam*I)^{-1} y is smooth in M, and near the PSD
    boundary the subgradient master stalls a few multiples of tol above
    the best nearby exact point.  Descending h directly closes that
    residual.  Each evaluation is the d x d primal solve of
    _primal_alpha on the imputed rows U.  Gradient at the ridge solution
    alpha: with u = U'alpha and V the alpha-weighted masked design, the
    derivative in column k is -2 u_k V[:, k].  Backtracking steps,
    radial projection onto the gamma ball; stops once a step gains less
    than a tol-scaled amount, so the depth follows the configured
    tolerance.
    """

    def evaluate(Ma):
        U = X.copy()
        U[:, active] += Zba * (X @ Ma)
        alpha = _primal_alpha(U, y, mlam)
        return float(y @ alpha), alpha, U

    Ma = Ma0.copy()
    obj, alpha, U = evaluate(Ma)
    floor_gain = 0.1 * tol * max(abs(obj), 1e-12)
    tau = None
    for _ in range(max_steps):
        u = U.T @ alpha
        grad = -2.0 * (X.T @ (alpha[:, None] * Zba)) * u[active][None, :]
        gn = float(np.linalg.norm(grad))
        if gn <= 1e-14:
            break
        if tau is None:
            tau = gamma / gn  # first trial step traverses the ball's scale
        for _ in range(30):
            cand = Ma - tau * grad
            nm = float(np.linalg.norm(cand))
            if nm > gamma:
                cand *= gamma / nm
            o2, a2, U2 = evaluate(cand)
            if o2 < obj:
                break
            tau *= 0.25
        if not o2 < obj:
            break
        gain = obj - o2
        Ma, obj, alpha, U = cand, o2, a2, U2
        tau *= 2.0
        if gain < floor_gain:
            break
    return Ma, obj, alpha


def solve_irr(train: Dataset, hp: Hyperparams, config: SolverConfig | None = None) -> IrrSolution:
    """Cutting-plane minimization of the relaxed ridge objective.

    Starts from M = N = 0, which is always feasible (the zero-filled
    Gram matrix is positive semidefinite).  Alternates ridge solves,
    master re-minimization, and eigenvector cuts until the relative
    gap between the best feasible objective and the master value drops
    below config.tol.  Hitting the iteration cap with a gap above ten
    times the tolerance flags the result as non-converged.
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

    if hp.gamma == 0.0 or a == 0:
        # no imputation freedom, or nothing missing: plain ridge on X
        alpha = _primal_alpha(X, y, mlam)
        diag = Diagnostics(
            iterations=1,
            gap=0.0,
            cuts=0,
            objective=float(y @ alpha),
            converged=True,
        )
        return IrrSolution(
            alpha=alpha,
            M=np.zeros((d, d)),
            N=LiftedTensor.zeros(d, hp.gamma**2),
            train=train,
            hp=hp,
            diagnostics=diag,
        )

    Zba = Zb[:, active]
    Qb, Rb = range_basis(X, Zb, active)

    dM = d * a  # split point between the M and N blocks of the flat variable
    x = np.zeros(dM + a * d * d)
    A0l, CAl = [], []
    C0l, CCl = [], []

    upper_best = np.inf
    incumbent = None
    lower = -np.inf
    gap = np.inf
    converged = False
    it_done = 0

    for it in range(1, cfg.max_outer + 1):
        it_done = it
        Ma = x[:dM].reshape(d, a)
        Ns = x[dM:].reshape(a, d, d)
        T = relaxed_core(Rb, _scatter(Ma, active, d), Ns, active)
        lam_min, vmin, w, U = min_eigpair(T, Qb)
        # None: kernel too indefinite for the shift; the cut below repairs it
        alpha = _core_solve(Qb, w, U, y, mlam)

        if lam_min >= -cfg.eps_psd:
            if alpha is not None:
                f_cur = float(y @ alpha)
                if f_cur < upper_best:
                    upper_best = f_cur
                    incumbent = (x.copy(), alpha)
        else:
            c0, s, V = quad_factors(X, Zb, vmin)
            C0l.append(c0)
            CCl.append(_flat_row(s[active], V[:, active]))

        if alpha is not None:
            _, s, V = quad_factors(X, Zb, alpha)
            A0l.append(
                2.0 * float(alpha @ y) - mlam * float(alpha @ alpha) - float(s @ s)
            )
            CAl.append(_flat_row(s[active], V[:, active]))

        if np.isfinite(upper_best) and np.isfinite(lower):
            gap = upper_best - lower
            if gap <= cfg.tol * max(abs(upper_best), 1e-12):
                converged = True
                break

        if not A0l:
            continue  # nothing to model yet; keep cutting
        x, lower = _master(
            x,
            np.asarray(A0l),
            np.asarray(CAl),
            np.asarray(C0l),
            np.asarray(CCl) if CCl else np.zeros((0, x.size)),
            hp.gamma,
            cfg.inner_steps,
            cfg.eps_psd,
            dM,
        )

    if not converged and np.isfinite(gap):
        converged = gap <= 10.0 * cfg.tol * max(abs(upper_best), 1e-12)

    if incumbent is None:
        # should not happen: the zero start is feasible
        raise RuntimeError("no feasible iterate found")
    x_b, alpha_b = incumbent
    Ma_b = x_b[:dM].reshape(d, a)
    Ns_b = x_b[dM:].reshape(a, d, d)

    # Final polish: descend the exact objective from the incumbent's map.
    # The lift of any in-budget M is feasible for the relaxation, so the
    # polished point is adopted only when it strictly improves.
    Ma_p, obj_p, alpha_p = _polish(
        X, Zba, active, y, mlam, Ma_b, hp.gamma, cfg.tol
    )
    if obj_p < upper_best:
        upper_best = obj_p
        M_fin = _scatter(Ma_p, active, d)
        N_fin = lift(M_fin)
        N_fin = LiftedTensor(N_fin.slices, hp.gamma**2)
        alpha_fin = alpha_p
    else:
        alpha_fin = alpha_b
        M_fin = _scatter(Ma_b, active, d)
        N_full = np.zeros((d, d, d))
        N_full[active] = Ns_b
        N_fin = LiftedTensor(N_full, hp.gamma**2)

    diag = Diagnostics(
        iterations=it_done,
        gap=float(max(gap, 0.0)) if np.isfinite(gap) else float("inf"),
        cuts=len(C0l),
        objective=float(upper_best),
        converged=converged,
    )
    return IrrSolution(
        alpha=alpha_fin,
        M=M_fin,
        N=N_fin,
        train=train,
        hp=hp,
        diagnostics=diag,
    )


def _scatter(Ma, active, d):
    M = np.zeros((d, d))
    M[:, active] = Ma
    return M


def _core_solve(Q, w, U, y, mlam):
    """Dual ridge solve through the factored kernel K = Q U diag(w) U' Q'.

    alpha = (K + m*lam*I)^{-1} y splits into span Q, where the shifted
    eigenvalues are w + m*lam, and its complement, where K vanishes:

        alpha = Q U diag(1/(w + m*lam)) U' Q'y + (y - Q Q'y) / (m*lam).

    O(m r) for an m x r basis.  Returns None when K + m*lam*I is not
    positive definite (w0 + m*lam <= 0), where its Cholesky would fail.
    """
    if w.size and w[0] + mlam <= 0.0:
        return None
    qy = Q.T @ y
    return Q @ (U @ ((U.T @ qy) / (w + mlam)) - qy / mlam) + y / mlam


def _primal_alpha(U, y, mlam):
    """alpha = (U U' + m*lam*I)^{-1} y through a d x d solve.

    By the Woodbury identity alpha = (y - U w) / (m*lam) with the primal
    ridge weights w of ridge_weights, so the m x m Gram of the rows U is
    never formed.
    """
    return (y - U @ ridge_weights(U, y, mlam / U.shape[0])) / mlam


def predict_batch(sol: IrrSolution, test: Dataset) -> np.ndarray:
    """Dual predictor on a batch of corrupted samples.

    Evaluates sum_i alpha_i k(x0, x_i) for every test row x0 through
    kernel.relaxed_apply: O(m d^2 + d^3) once plus O(d^2) per test
    row, with no kernel matrix formed.
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


def save_solution(sol: IrrSolution, path):
    """Write a solution to JSON: weights, maps, hyperparameters,
    diagnostics.  Training data is not stored; reattach it on load."""
    gap = sol.diagnostics.gap
    obj = {
        "alpha": sol.alpha.tolist(),
        "M": {
            "rows": sol.M.shape[0],
            "cols": sol.M.shape[1],
            "data": sol.M.ravel().tolist(),
        },
        "N": {
            "slices": sol.N.slices.shape[0],
            "rows": sol.N.slices.shape[1],
            "cols": sol.N.slices.shape[2],
            "data": sol.N.slices.ravel().tolist(),
            "gamma2": sol.N.gamma2,
        },
        "hp": {"lambda": sol.hp.lam, "gamma": sol.hp.gamma},
        "diagnostics": {
            "iterations": sol.diagnostics.iterations,
            "gap": gap if np.isfinite(gap) else None,
            "cuts": sol.diagnostics.cuts,
            "objective": sol.diagnostics.objective,
            "converged": sol.diagnostics.converged,
        },
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)


def load_solution(path, train: Dataset) -> IrrSolution:
    """Read a solution written by save_solution, reattaching training data."""
    with open(path) as fh:
        obj = json.load(fh)
    M = np.asarray(obj["M"]["data"], dtype=float).reshape(
        int(obj["M"]["rows"]), int(obj["M"]["cols"])
    )
    n_obj = obj["N"]
    slices = np.asarray(n_obj["data"], dtype=float).reshape(
        int(n_obj["slices"]), int(n_obj["rows"]), int(n_obj["cols"])
    )
    diag_obj = obj["diagnostics"]
    gap = diag_obj["gap"]
    diag = Diagnostics(
        iterations=int(diag_obj["iterations"]),
        gap=float("inf") if gap is None else float(gap),
        cuts=int(diag_obj["cuts"]),
        objective=float(diag_obj["objective"]),
        converged=bool(diag_obj["converged"]),
    )
    return IrrSolution(
        alpha=np.asarray(obj["alpha"], dtype=float),
        M=M,
        N=LiftedTensor(slices, float(n_obj["gamma2"])),
        train=train,
        hp=Hyperparams(lam=float(obj["hp"]["lambda"]), gamma=float(obj["hp"]["gamma"])),
        diagnostics=diag,
    )
