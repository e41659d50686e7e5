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

  1. the ridge step at the incumbent (kernel.RelaxedRidge, through the
     Schur factor L of K = (B L)(B L)');
  2. the linear step (_lmo): the maximum of Q_alpha over C and the balls
     at a rank-one point S, with an upper bound G from a two-multiplier
     dual, so a0 - G is a certified lower bound on the relaxed optimum;
  3. stop when the incumbent is within relative tol of the best bound
     (Diagnostics.gap, a certificate as in Jaggi 2013);
  4. else a step toward S (_line_search): the Newton step of f along
     the segment, backtracked on a quadratic model until f descends, so
     one ridge step as a rule; the segment stays in C and the balls, as
     they are convex.

With gamma = 0 or nothing missing (or X = 0), G = 0 and the first
iteration stops: plain ridge on the zero-filled rows, by the same path.
No step forms an m x m matrix; the costs of a ridge step are
RelaxedRidge's.  Primal ridge on explicit rows U (the benchmark's
baselines) is ridge_weights, the d x d normal equations.
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
from .kernel import LiftedTensor, RelaxedRidge, quad_value, relaxed_apply

# Limits of _line_search (trials) and _lmo (evaluations, relative gap,
# share of the solve's tol |objective|).
LINE_TRIALS, LMO_STEPS, LMO_RTOL, LMO_SHARE = 12, 60, 1e-10, 0.01


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

    obj = RelaxedRidge(X, 1.0 - Z, y, mlam)
    a = obj.active.size
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
        trial = _line_search(obj, Ma, Ns, Dm, Dn, upper, g0, eta)
        if not trial[0] < upper:
            break  # no trial improved on the incumbent: descent is below rounding
        upper, Ma, Ns, alpha, fac, (c0, s, V) = trial

    M, N = np.zeros((d, d)), np.zeros((d, d, d))
    M[:, obj.active], N[obj.active] = Ma, Ns
    diag = Diagnostics(it, float(max(gap, 0.0)), 0, upper, converged)
    return IrrSolution(alpha, M, LiftedTensor(N, hp.gamma**2), train, hp, diag)


def _line_search(obj, Ma, Ns, Dm, Dn, f0, g0, eta):
    """Descend the convex phi(eta) = f((Ma, Ns) + eta (Dm, Dn)) on [0, 1],
    phi(0) = f0 and phi'(0) = g0 < 0, from a first trial at ``eta``.

    A trial is one ridge step, and the first with phi below f0 is taken.
    A trial that does not descend is followed by the minimizer of the
    quadratic through phi(0), phi'(0) and phi(eta), clamped to
    [eta / 10, eta / 2], for at most LINE_TRIALS trials: backtracking on
    a quadratic model, which keeps Frank-Wolfe's convergence (Pedregosa
    et al. 2020), while the certified bound does not depend on the step.
    Returns (f, Ma, Ns, alpha, fac, (c0, s, V)) of the trial with the
    lowest f, as RelaxedRidge.ridge gives them.
    """
    best = None
    for _ in range(LINE_TRIALS):
        Mt, Nt = Ma + eta * Dm, Ns + eta * Dn
        f, alpha, fac, quad = obj.ridge(Mt, Nt)
        if best is None or f < best[0]:
            best = (f, Mt, Nt, alpha, fac, quad)
        if f < f0:
            break
        # f0 + g0 x + (f - f0 - g0 eta) (x / eta)^2 is least at x = eta times
        eta *= min(0.5, max(0.1, -0.5 * g0 * eta / (f - f0 - g0 * eta)))
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
    bl, cl = b.tolist(), c.tolist()
    best_G, best_P = np.inf, -np.inf
    base = None  # (G, p, q, slope) where the last Newton step started
    p_cap = p
    for _ in range(LMO_STEPS):
        G, (gp, gq), (hpp, hpq, hqq), mu, nu, bm, cn = _lmo_inner(bl, cl, p, q)
        t = 1.0 / max(1.0, math.sqrt(1.0 - gp), math.sqrt(math.sqrt(1.0 - gq)))
        P = t * bm + t * t * cn
        if G < best_G:
            best_G, best_pq = G, (p, q)
        if P > best_P:
            best_P, best_t, best_mu, best_nu = P, t, mu, nu
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
    mu[live], nu[live] = best_t * np.array(best_mu), best_t * best_t * np.array(best_nu)
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
    """G(p, q) of _lmo, its gradient (1 - ||mu||^2, 1 - ||nu||^2), Hessian,
    the maximizers mu and nu, b'mu and c'nu, for lists b and c, in one
    pass of scalar arithmetic: on a few features numpy's per-call cost
    would dominate.  The best nu for a mu is max(c / 2q, mu^2), so: if
    b <= 2p sqrt(c / 2q), mu = b / 2p and nu = c / 2q; else nu = mu^2,
    mu the positive root of 4q mu^3 - 2(c - p) mu - b (_cubic_root)."""
    hpp = hpq = hqq = mm = nn = bm = cn = 0.0
    mu, nu = [], []
    for bk, ck in zip(b, c):
        r2 = ck / (2.0 * q)
        if bk * bk <= 4.0 * p * p * r2:
            x, v = 0.0, r2
            if p > 0.0:
                x = bk / (2.0 * p)
                hpp += 2.0 * x * x / p
            hqq += 2.0 * r2 * r2 / q
        else:
            x, D = _cubic_root(bk, ck - p, q)
            v = x * x
            hpp += 4.0 * v / D
            hpq += 8.0 * v * v / D
            hqq += 16.0 * v * v * v / D
        mu.append(x)
        nu.append(v)
        mm += x * x
        nn += v * v
        bm += bk * x
        cn += ck * v
    G = p + q + bm + cn - p * mm - q * nn
    return G, (1.0 - mm, 1.0 - nn), (hpp, hpq, hqq), mu, nu, bm, cn


def _cubic_root(b, k, q):
    """The positive root x of 4q x^3 - 2k x - b (b, q > 0) and D = 12q x^2
    - 2k > 0 there.  With P = k / 6q, h = b / 8q and z = h / |P|^1.5 it is
    2 sqrt(P) cos(acos(z) / 3) (P > 0, z <= 1), 2 sqrt(P) cosh(acosh(z) / 3)
    (P > 0, z > 1) or 2 sqrt(-P) sinh(asinh(z) / 3) (P < 0), free of
    cancellation; one Newton step polishes where acos loses digits."""
    P, h = k / (6.0 * q), b / (8.0 * q)
    rt = math.sqrt(abs(P))
    r3 = rt * rt * rt
    x = 0.0
    if r3 > 0.0:
        z = h / r3  # may be inf, which the cube root below catches
        if P < 0.0:
            x = 2.0 * rt * math.sinh(math.asinh(z) / 3.0)
        elif z <= 1.0:
            x = 2.0 * rt * math.cos(math.acos(z) / 3.0)
        else:
            x = 2.0 * rt * math.cosh(math.acosh(z) / 3.0)
    if not 0.0 < x < math.inf:  # P = 0 or z overflowing: the cube root of 2h is the root
        x = (2.0 * h) ** (1.0 / 3.0)
    D = 12.0 * q * x * x - 2.0 * k
    x -= (4.0 * q * x * x * x - 2.0 * k * x - b) / D
    return x, 12.0 * q * x * x - 2.0 * k


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

