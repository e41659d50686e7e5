"""Output checks computed apart from the program, with plain numpy.

Nothing here calls into imputed_ridge: the relaxed kernel is rebuilt
from the formula in the docstring of ``imputed_ridge/kernel.py``,

    K[i, j] = xt_i.xt_j + xt_i' M Zb_i xt_j + xt_i' Zb_j M' xt_j
              + sum_k zb_ik zb_jk xt_i' N_k xt_j,

ridge systems are solved with ``numpy.linalg``, and the benchmark
protocol's folds are re-derived from its documented seeding.  Each
check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np

# The budget balls may be exceeded by this much (the program's own
# feasibility slack, restated here so a change to it shows).
FEASIBILITY_SLACK = 1e-9
SOUNDNESS_MAPS = 3       # random in-budget maps per fit for the soundness check
PREDICT_SAMPLE = 64      # test rows recomputed per prediction check
IRR_MARGIN = 0.01        # irr must beat zero fill by this much test RMSE


def relaxed_gram(Xa, Za, Xb, Zb, M, N):
    """Relaxed kernel between the rows of (Xa, Za) and of (Xb, Zb)."""
    Ma, Mb = 1.0 - Za, 1.0 - Zb
    K = Xa @ Xb.T
    K += ((Xa @ M) * Ma) @ Xb.T
    K += Xa @ ((Xb @ M) * Mb).T
    for k in range(M.shape[0]):
        if Ma[:, k].any() and Mb[:, k].any():
            K += (Ma[:, [k]] * (Xa @ N[k])) @ (Mb[:, [k]] * Xb).T
    return K


def ridge_dual(K, y, mlam):
    H = K + mlam * np.eye(K.shape[0])
    return np.linalg.solve(H, y)


def exact_objective(X, Z, y, M, mlam):
    """y'(U U' + m lam I)^{-1} y for the rows U filled through M."""
    U = X + (1.0 - Z) * (X @ M)
    return float(y @ ridge_dual(U @ U.T, y, mlam))


def zero_fill_objective(X, y, mlam):
    """The objective at M = N = 0, a feasible point of every relaxation."""
    return float(y @ ridge_dual(X @ X.T, y, mlam))


def _shifted_pd(K, shift):
    """True when K + shift*I is positive definite (its Cholesky exists)."""
    try:
        np.linalg.cholesky(K + shift * np.eye(K.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def check_fit(X, Z, y, lam, gamma, alpha, M, N, objective, converged,
              eps_psd, tol, rng):
    """Checks on one solve_irr result.

    Returns (failures, objective_ratio, floor, meets_eps_psd).  The
    relaxed kernel must be semidefinite to `floor`, eps_psd scaled by
    its largest row sum (a bound on its largest eigenvalue).  That floor
    is loose: on the benchmark's kernels the row sums run to about a
    thousand, where the solver's own certificate is the unscaled
    eps_psd.  Whether the kernel meets that one is returned for the
    caller to count, as it misses it on some draws and not on others.
    """
    bad = []
    m = X.shape[0]
    mlam = m * lam
    K = relaxed_gram(X, Z, X, Z, M, N)
    K = 0.5 * (K + K.T)
    floor = eps_psd * max(1.0, float(np.abs(K).sum(axis=1).max()))
    if not _shifted_pd(K, floor):
        bad.append(f"relaxed kernel has an eigenvalue below -{floor:.3g}")
    meets_eps_psd = _shifted_pd(K, eps_psd)
    resid = (K + mlam * np.eye(m)) @ alpha - y
    if np.linalg.norm(resid) > 1e-8 * max(1.0, float(np.linalg.norm(y))):
        bad.append(f"alpha does not solve the ridge system: residual "
                   f"{np.linalg.norm(resid):.3g}")
    if abs(float(y @ alpha) - objective) > 1e-9 * max(1.0, abs(objective)):
        bad.append(f"y'alpha = {float(y @ alpha):.12g} but objective = {objective:.12g}")
    m_norm = float(np.linalg.norm(M))
    if m_norm > gamma + FEASIBILITY_SLACK:
        bad.append(f"||M||_F = {m_norm:.9g} exceeds gamma = {gamma}")
    n_norm = float(np.sqrt((N * N).sum()))
    if n_norm > gamma * gamma + FEASIBILITY_SLACK:
        bad.append(f"joint slice norm {n_norm:.9g} exceeds gamma^2 = {gamma * gamma}")
    zero_obj = zero_fill_objective(X, y, mlam)
    ratio = objective / zero_obj
    if ratio > 1.0 + 1e-9:
        bad.append(f"objective {objective:.9g} above the zero-fill objective {zero_obj:.9g}")
    if converged:
        # a converged relaxation value lies within its reported tolerance
        # of the relaxed optimum, which no exactly evaluated map beats
        slack = 10.0 * tol * max(abs(objective), 1e-12)
        d = M.shape[0]
        for r in np.linspace(1.0, 0.25, SOUNDNESS_MAPS):
            G = rng.standard_normal((d, d))
            Mr = G * (r * gamma / np.linalg.norm(G))
            h = exact_objective(X, Z, y, Mr, mlam)
            if objective > h + slack:
                bad.append(f"objective {objective:.9g} above the exact objective "
                           f"{h:.9g} of an in-budget map")
    return bad, ratio, floor, meets_eps_psd


def check_predictions(Xtr, Ztr, alpha, M, N, Xte, Zte, pred, rng):
    """predict_batch outputs against alpha' K(train, test) on sampled rows."""
    n = Xte.shape[0]
    if pred.shape != (n,):
        return [f"prediction shape {pred.shape}, expected ({n},)"]
    idx = rng.choice(n, size=min(PREDICT_SAMPLE, n), replace=False)
    Kt = relaxed_gram(Xtr, Ztr, Xte[idx], Zte[idx], M, N)
    want = alpha @ Kt
    err = np.abs(pred[idx] - want)
    scale = np.maximum(1.0, np.abs(want))
    if np.any(err > 1e-9 * scale):
        i = int(np.argmax(err / scale))
        return [f"prediction of test row {int(idx[i])} is {pred[idx][i]:.12g}, "
                f"kernel formula gives {want[i]:.12g}"]
    return []


# --- the benchmark protocol of imputed_ridge.bench, restated ---------------

_SPLIT, _TRAIN_MASK, _TEST_MASK = 0, 1, 2


def _derived(master, trial, purpose):
    return int(np.random.SeedSequence([master, trial, purpose]).generate_state(1)[0])


def _minmax(X, y):
    lo, hi = X.min(axis=0), X.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    return (X - lo) / span, (y - y.min()) / (y.max() - y.min())


def _dependent_mask(X, beta, seed):
    rng = np.random.default_rng(seed)
    tau = rng.uniform(0.0, 1.0, size=X.shape[1])
    sign = np.where(rng.random(X.shape[1]) < 0.5, -1.0, 1.0)
    u = rng.random(X.shape)
    return np.where((sign * (X - tau) > 0.0) & (u < beta), 0.0, 1.0)


def _primal_rmse(Xtr, ytr, Xte, yte, lam):
    m, d = Xtr.shape
    w = np.linalg.solve(Xtr.T @ Xtr + m * lam * np.eye(d), Xtr.T @ ytr)
    r = yte - Xte @ w
    return float(np.sqrt(r @ r / yte.size))


def check_report(report, X_raw, y_raw, master_seed, train_size, trials, grid):
    """The irr bench JSON report against folds and ridge fits rebuilt here.

    Covers value-dependent corruption with a calibrated rate, the
    setting the grid workload runs.
    """
    bad = []
    methods = report["methods"]
    for name, res in methods.items():
        per = res["per_trial"]
        if len(per) != trials:
            bad.append(f"{name}: {len(per)} per-trial values for {trials} trials")
        elif abs(res["rmse_mean"] - float(np.mean(per))) > 1e-12:
            bad.append(f"{name}: rmse_mean {res['rmse_mean']} is not the mean of per_trial")
    if bad:
        return bad
    beta = float(report["beta"])
    X, y = _minmax(np.asarray(X_raw, float), np.asarray(y_raw, float))
    curves = {"zero": [], "nocorr": []}
    for t in range(trials):
        perm = np.random.default_rng(_derived(master_seed, t, _SPLIT)).permutation(len(y))
        tr, te = perm[:train_size], perm[train_size:]
        Ztr = _dependent_mask(X[tr], beta, _derived(master_seed, t, _TRAIN_MASK))
        Zte = _dependent_mask(X[te], beta, _derived(master_seed, t, _TEST_MASK))
        views = {"zero": (X[tr] * Ztr, X[te] * Zte), "nocorr": (X[tr], X[te])}
        for name, (A, B) in views.items():
            curves[name].append({e: _primal_rmse(A, y[tr], B, y[te], 2.0**e) for e in grid})
    for name, per_trial in curves.items():
        res = methods[name]
        e_best = int(round(np.log2(res["best_lambda"])))
        want = [c[e_best] for c in per_trial]
        if not np.allclose(res["per_trial"], want, rtol=0.0, atol=1e-8):
            bad.append(f"{name}: per-trial RMSE {res['per_trial']} but primal ridge "
                       f"gives {want}")
        best_mean = min(float(np.mean([c[e] for c in per_trial])) for e in grid)
        if float(np.mean(want)) > best_mean + 1e-12:
            bad.append(f"{name}: lambda 2^{e_best} is not the best grid point")
    irr, zero = methods["irr"]["rmse_mean"], methods["zero"]["rmse_mean"]
    if not irr <= zero - IRR_MARGIN:
        bad.append(f"irr RMSE {irr:.4f} does not beat zero fill {zero:.4f} by {IRR_MARGIN}")
    nocorr = methods["nocorr"]["rmse_mean"]
    for name, res in methods.items():
        if name != "nocorr" and not nocorr < res["rmse_mean"]:
            bad.append(f"nocorr RMSE {nocorr:.4f} does not beat {name} {res['rmse_mean']:.4f}")
    return bad
