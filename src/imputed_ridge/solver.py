"""Joint training of the imputation map and a ridge regressor.

The objective f(M, N) = y' (K(M, N) + m*lam*I)^{-1} y is minimized over
the relaxed Gram family of kernel.py within the budget balls, in the
Schur set C = {(M, N) : N_k - M_k M_k' PSD for every feature k}, M_k
column k of M.  K(M, N) - K_exact(M) = sum_k D_k X (N_k - M_k M_k') X' D_k,
D_k = diag(Zb[:, k]), so every kernel on C is PSD, for any data, and C
holds every exact lift N_k = M_k M_k'.  On C, f is convex and smooth,
and since alpha'K alpha is affine in (M, N), at the ridge solution alpha
of a point (quad_factors' pair (s, V), kernel.quad_value's Q_alpha)

    f(P) >= a0 - Q_alpha(P) for every P,  a0 = 2 y'alpha - m*lam ||alpha||^2 - ||X'alpha||^2,

with equality at the point, so -Q_alpha is f's gradient there.
solve_irr runs Frank-Wolfe on that, from M = N = 0; each iteration:

  1. the ridge step at the incumbent, through its Schur factor L,
     K = (B L)(B L)' (_schur_ridge, with _schur_roots' one batched eigh);
  2. the linear step (_lmo): the maximum of Q_alpha over C and the balls
     at a rank-one point S, with an upper bound G from a two-multiplier
     dual, so a0 - G is a certified lower bound on the relaxed optimum;
  3. stop when the incumbent is within relative tol of the best bound
     (Diagnostics.gap, a certificate as in Jaggi 2013);
  4. else a line search of f toward S (_line_search); the segment stays
     in C and the balls, as they are convex.

With gamma = 0 or nothing missing (or X = 0), G = 0 and the first
iteration stops: plain ridge on the zero-filled rows, by the same path.
No step forms an m x m matrix: O(m c^2) once for G = B'B, then per ridge
step O(m c + m d a + a d^3 + c^2 (1 + n) + c_L^3), c = d(1 + a), c_L =
d + a n (kernel.schur_factor).  Primal ridge on explicit rows U (the
benchmark's baselines) is ridge_weights, the d x d normal equations.
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
from .kernel import LiftedTensor, _basis, quad_factors, quad_value, relaxed_apply
from .kernel import s_apply, schur_factor, schur_l, schur_lt

# Limits of _line_search (trials, slope share) and _lmo (evaluations,
# relative gap, share of the solve's tol |objective|).
LINE_TRIALS, LINE_SLOPE = 12, 0.05
LMO_STEPS, LMO_RTOL, LMO_SHARE = 60, 1e-10, 0.01


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
    """Solver limits: the relative certified gap tol at which a solve
    stops and the most outer iterations it may take.

    eps_psd, not settable and not read by the solver, is the tolerance
    to which a returned relaxed kernel is PSD, as callers check it; the
    benchmark's fit check (perfbench check_fit) sets its PSD floor from it.
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
    """How a solve ended: objective - gap is a certified lower bound on
    the relaxed optimum, converged means gap <= tol |objective| stopped
    it.  cuts is always 0; the benchmark's traced solver.cuts and
    solver.feasible_share metrics still read it."""

    iterations: int
    gap: float
    cuts: int
    objective: float
    converged: bool


@dataclass(frozen=True)
class IrrSolution:
    """Trained model: dual weights, imputation map, lifted slices.

    ``train`` is kept because the dual predictor evaluates against the
    training rows; the benchmark's prediction check (perfbench
    check_predict) reads them from it too.
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


def solve_irr(train: Dataset, hp: Hyperparams, config: SolverConfig | None = None) -> IrrSolution:
    """Certified Frank-Wolfe minimization of the relaxed ridge objective.

    Returns the incumbent, the evaluated point of C with the lowest
    objective; every kernel evaluated is PSD.  Diagnostics.gap is its
    distance to the best certified lower bound, and converged is True
    only when gap <= config.tol |objective| stopped the solve, not
    config.max_outer or a descent lost in rounding.  Raises ValueError
    for an empty training set, and for a lam so small that m*lam is
    below 1e-12 of the kernel scale ||X||_F^2 (1 + gamma)^2.
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

    obj = _Objective(X, Zb[:, active], y, active, mlam)
    Ma, Ns = np.zeros((d, a)), np.zeros((a, d, d))
    upper, alpha, fac, (c0, s, V) = obj.ridge(Ma, Ns)
    lower, pq = -np.inf, None
    converged = False

    for it in range(1, cfg.max_outer + 1):
        # (Ma, Ns) is the incumbent, upper = f there; alpha solves its
        # ridge system (fac), and (c0, s, V) are its quad_factors
        a0 = 2.0 * upper - mlam * float(alpha @ alpha) - c0
        slack = LMO_SHARE * cfg.tol * abs(upper)
        bound, Sm, Sn, pq = _lmo(s, V, hp.gamma, pq, slack)
        lower = max(lower, a0 - bound)
        gap = upper - lower
        if gap <= cfg.tol * max(abs(upper), 1e-12):
            converged = True
            break
        Dm, Dn = Sm - Ma, Sn - Ns
        g0 = -quad_value(s, V, Dm, Dn)  # slope of f from (Ma, Ns) toward S
        if it == cfg.max_outer or not g0 < 0.0:
            break  # out of iterations, or no descent direction above rounding
        eta = min(1.0, -g0 / max(obj.curvature(fac, s, V, Dm, Dn), 1e-300))
        trial = _line_search(obj, Ma, Ns, Dm, Dn, g0, eta)
        if not trial[0] < upper:
            break  # no trial improved on the incumbent: descent is below rounding
        upper, Ma, Ns, alpha, fac, (c0, s, V) = trial

    M, N = np.zeros((d, d)), np.zeros((d, d, d))
    M[:, active], N[active] = Ma, Ns
    diag = Diagnostics(it, float(max(gap, 0.0)), 0, upper, converged)
    return IrrSolution(alpha, M, LiftedTensor(N, hp.gamma**2), train, hp, diag)


class _Objective:
    """f on C for one training set, with B, G = B'B and B'y formed once;
    Zba holds the masks Zb[:, k] of the active features k."""

    def __init__(self, X, Zba, y, active, mlam):
        self.B = _basis(X, Zba, range(active.size))
        self.G, self.By = self.B.T @ self.B, self.B.T @ y
        self.X, self.Zba, self.y, self.active, self.mlam = X, Zba, y, active, mlam

    def ridge(self, Ma, Ns):
        """(f, alpha, (F, A), (c0, s, V)) at the point (Ma, Ns) of C: F its
        Schur factor, A = L'GL + m*lam*I, and quad_factors of alpha with
        s on the active features."""
        F = schur_factor(Ma, _schur_roots(Ma, Ns), self.active)
        alpha, A = _schur_ridge(self.B, self.G, self.By, self.y, F, self.active, self.mlam)
        c0, s, V = quad_factors(self.X, self.Zba, alpha)
        return float(self.y @ alpha), alpha, (F, A), (c0, s[self.active], V)

    def curvature(self, fac, s, V, Dm, Dn):
        """f's second derivative along (Dm, Dn) at the point with ridge
        factors fac and quad_factors pair (s, V): 2 u'(K + m*lam*I)^{-1} u
        for u = K_D alpha = B theta, K_D the part of K linear in (Dm, Dn)
        and theta = S(Dm, Dn) B'alpha less its identity part (s_apply),
        which by Woodbury is 2 (theta'G theta - w'A^{-1} w) / (m*lam),
        w = L'G theta."""
        d = Dm.shape[0]
        theta = np.zeros(self.B.shape[1])
        theta[self.active], P = s_apply(s, V, Dm, Dn)
        theta[d:] = P.T.ravel()
        F, A = fac
        Gt = self.G @ theta
        w = schur_lt(F, self.active, Gt[:, None])[:, 0]
        return 2.0 * (theta @ Gt - w @ np.linalg.solve(A, w)) / self.mlam


def _schur_roots(Ma, Ns):
    """Roots U_k diag(sqrt(w_k)) of the blocks N_k - M_k M_k' = U_k diag(w_k) U_k'.

    One batched eigh of the a blocks, M_k column k of Ma.  On C the
    blocks are PSD, so the eigenvalues below zero are rounding and are
    clipped to 0; the eigenpairs come in ascending order.
    """
    w, U = np.linalg.eigh(Ns - np.einsum("rk,sk->krs", Ma, Ma))
    return U * np.sqrt(np.maximum(w, 0.0))[:, None, :]


def _line_search(obj, Ma, Ns, Dm, Dn, g0, eta):
    """Minimize the convex phi(eta) = f((Ma, Ns) + eta (Dm, Dn)) on [0, 1]
    from a first trial at ``eta``; phi'(0) = g0 < 0.

    A trial is one ridge step, and phi' = -Q_alpha(Dm, Dn) there.  The
    search stops at |phi'| <= LINE_SLOPE |g0|, at eta = 1 with phi' <= 0,
    or after LINE_TRIALS trials: until phi' changes sign it extrapolates
    the secant through 0, at least 4-fold, then takes Illinois steps on
    the bracket.
    Returns (f, Ma, Ns, alpha, fac, (c0, s, V)) of the trial with the
    lowest f, as _Objective.ridge gives them.
    """
    lo, hi = [0.0, g0], None
    kept = 0  # +1 or -1 when the last trial replaced hi or lo
    best = None
    for _ in range(LINE_TRIALS):
        Mt, Nt = Ma + eta * Dm, Ns + eta * Dn
        f, alpha, fac, quad = obj.ridge(Mt, Nt)
        if best is None or f < best[0]:
            best = (f, Mt, Nt, alpha, fac, quad)
        _, s, V = quad
        g = -quad_value(s, V, Dm, Dn)
        if (g <= 0.0 and eta == 1.0) or abs(g) <= LINE_SLOPE * -g0:
            break
        # Illinois: halve the kept end's slope when the same end moves twice
        if g > 0.0:
            if kept == 1:
                lo[1] *= 0.5
            hi, kept = [eta, g], 1
        else:
            if kept == -1 and hi is not None:
                hi[1] *= 0.5
            lo, kept = [eta, g], -1
        if hi is None:  # at least 4 times further until phi' changes sign
            eta = min(1.0, max(4.0 * eta, eta * g0 / (g0 - g) if g0 < g else 1.0))
        else:
            eta = lo[0] - lo[1] * (hi[0] - lo[0]) / (hi[1] - lo[1])
    return best


def _lmo(s, V, gamma, pq, slack=0.0):
    """Maximize Q_alpha over C and the balls, for quad_factors' (s, V) on
    the active features: (G, Sm, Sn, pq), an upper bound G, a point of C
    in both balls with Q within max(LMO_RTOL G, slack) of G (unless
    LMO_STEPS ran out), and the multipliers to warm-start the next call.

    As v'N_k v >= (M_k . v)^2 on C, the maximum is attained at M_k =
    gamma mu_k sign(s_k) V^_k, N_k = gamma^2 nu_k V^_k V^_k', V^_k =
    V_k / ||V_k||, and is max sum_k b_k mu_k + c_k nu_k subject to
    ||mu||, ||nu|| <= 1 and nu_k >= mu_k^2 >= 0, b_k = 2 gamma |s_k| ||V_k||,
    c_k = gamma^2 ||V_k||^2.  Each p >= 0, q > 0 bounds it by weak duality:

        G(p, q) = p + q + sum_k max_{mu >= 0, nu >= mu^2} b_k mu + c_k nu - p mu^2 - q nu^2,

    in closed form (_lmo_inner).  Damped Newton steps lower the convex G
    until the maximizers, scaled into the balls, come close; stopping
    early only loosens G.  b and c are divided by their largest entry,
    so (p, q) are of order one.  One live feature has mu = nu = 1.
    """
    d, a = V.shape
    nv = np.sqrt(np.einsum("rk,rk->k", V, V))
    b = 2.0 * gamma * np.abs(s) * nv
    c = gamma * gamma * nv * nv
    top = max(float(b.max(initial=0.0)), float(c.max(initial=0.0)))
    Sm, Sn = np.zeros((d, a)), np.zeros((a, d, d))
    if top == 0.0:
        return 0.0, Sm, Sn, pq  # Q is 0 on the whole set: gamma = 0 or V = 0
    live = (b > 0.0) | (c > 0.0)
    if live.sum() == 1:
        # one feature: mu = nu = 1 meets both balls, and G = b + c is that
        # point's value (the optimal (p, q) form a line, where Newton stalls)
        nu = live.astype(float)
        mu = nu * (b > 0.0)
        return _rank_one(V, nv, s, gamma, mu, nu) + (pq,)
    b, c = b[live] / top, c[live] / top
    if not b.any():
        p, q = 0.0, float(np.linalg.norm(c)) / 2.0
    elif pq is None:
        p, q = float(np.linalg.norm(b)) / 2.0, max(float(np.linalg.norm(c)), 1e-6) / 2.0
    else:
        p, q = pq
    best_G, best_P = np.inf, -np.inf
    base = None  # (G, p, q, slope) where the last Newton step started
    p_cap = p
    for _ in range(LMO_STEPS):
        G, (gp, gq), (hpp, hpq, hqq), mu, nu = _lmo_inner(b, c, p, q)
        t = 1.0 / max(1.0, math.sqrt(mu @ mu), math.sqrt(math.sqrt(nu @ nu)))
        P = t * float(b @ mu) + t * t * float(c @ nu)
        if G < best_G:
            best_G, best_pq = G, (p, q)
        if P > best_P:
            best_P, best_mu, best_nu = P, t * mu, t * t * nu
        if best_G - best_P <= max(LMO_RTOL * best_G, slack / top):
            break
        if base is not None and G > base[0] + 1e-4 * step * base[3] + 1e-15 * base[0]:
            # backtrack along the last step, to the root of the secant of
            # G's slope along it where that slope is now positive
            s1 = gp * dp + gq * dq
            step *= min(0.5, max(0.02, base[3] / (base[3] - s1))) if s1 > 0.0 else 0.5
            p, q = max(base[1] + step * dp, 0.0), base[2] + step * dq
            continue
        # Newton step on H + tiny I (H is singular when optimal (p, q) form
        # a line); at p = 0 only q moves if p would not rise.
        reg = 1e-12 * (hpp + hqq)
        dp = 0.0
        if not (p == 0.0 and gp >= 0.0):
            det = (hpp + reg) * (hqq + reg) - hpq * hpq
            dp = ((hqq + reg) * -gp + hpq * gq) / det
            dq = (hpq * gp - (hpp + reg) * gq) / det
        if p == 0.0 and dp <= 0.0:
            dp, dq = 0.0, -gq / (hqq + reg)
        # It stops at p = 0 and changes q, and p upward, by at most a
        # factor 4 (from 0, up to the last positive p): H jumps where a
        # feature changes branch, so a full step can overshoot far.
        p_cap = p if p > 0.0 else p_cap
        step = 1.0
        if dp < 0.0:
            step = min(step, p / -dp)
        elif dp > 0.0 and p_cap > 0.0:
            step = min(step, 3.0 * p_cap / dp if p > 0.0 else p_cap / dp)
        if dq != 0.0:
            step = min(step, 3.0 * q / dq if dq > 0.0 else 0.75 * q / -dq)
        base = (G, p, q, gp * dp + gq * dq)
        p, q = max(p + step * dp, 0.0), q + step * dq
    mu, nu = np.zeros(a), np.zeros(a)
    mu[live], nu[live] = best_mu, best_nu
    _, Sm, Sn = _rank_one(V, nv, s, gamma, mu, nu)
    return best_G * top, Sm, Sn, best_pq


def _rank_one(V, nv, s, gamma, mu, nu):
    """(Q, M, N) at M_k = gamma mu_k sign(s_k) V^_k, N_k = gamma^2 nu_k V^_k V^_k',
    V^_k = V_k / ||V_k|| (nv holds the norms)."""
    Vh = V / np.where(nv > 0.0, nv, 1.0)
    Sm = Vh * (gamma * mu * np.sign(s))
    Sn = (gamma * gamma * nu)[:, None, None] * np.einsum("rk,sk->krs", Vh, Vh)
    Q = float(2.0 * gamma * (np.abs(s) * nv) @ mu + gamma * gamma * (nv * nv) @ nu)
    return Q, Sm, Sn


def _lmo_inner(b, c, p, q):
    """G(p, q) of _lmo, its gradient (1 - ||mu||^2, 1 - ||nu||^2), Hessian
    and maximizers.  The best nu for a mu is max(c / 2q, mu^2), so: if
    b <= 2p sqrt(c / 2q), mu = b / 2p and nu = c / 2q; else nu = mu^2,
    mu the positive root of 4q mu^3 - 2(c - p) mu - b (_cubic_root)."""
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
        x, D = _cubic_root(b[second], c[second] - p, q)
        x2 = x * x
        mu[second], nu[second] = x, x2
        hpp += float((4.0 * x2 / D).sum())
        hpq += float((8.0 * x2 * x2 / D).sum())
        hqq += float((16.0 * x2 * x2 * x2 / D).sum())
    G = p + q + float(b @ mu + c @ nu - p * (mu @ mu) - q * (nu @ nu))
    return G, (1.0 - float(mu @ mu), 1.0 - float(nu @ nu)), (hpp, hpq, hqq), mu, nu


def _cubic_root(b, k, q):
    """The positive root x of 4q x^3 - 2k x - b (b, q > 0) and D = 12q x^2
    - 2k > 0 there.  With P = k / 6q, h = b / 8q and z = h / |P|^1.5 it is
    2 sqrt(P) cos(acos(z) / 3) (P > 0, z <= 1), 2 sqrt(P) cosh(acosh(z) / 3)
    (P > 0, z > 1) or 2 sqrt(-P) sinh(asinh(z) / 3) (P <= 0), free of
    cancellation; one Newton step polishes where acos loses digits."""
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
    # P = 0 or z overflowing: the cube root of 2h is the root
    x = np.where(np.isfinite(x) & (x > 0.0), x, np.cbrt(2.0 * h))
    D = 12.0 * q * x * x - 2.0 * k
    x = x - (4.0 * q * x * x * x - 2.0 * k * x - b) / D
    return x, 12.0 * q * x * x - 2.0 * k


def _schur_ridge(B, G, By, y, F, active, mlam):
    """Dual ridge weights alpha = (Phi Phi' + m*lam*I)^{-1} y, Phi = B L, and
    the matrix L'GL + m*lam*I solved for them.

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
    return (y - B @ schur_l(F, active, v)[:, 0]) / mlam, H[:, :-1]


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

