#!/usr/bin/env python3
"""Solve one corrupted regression instance end to end.

Builds a small dataset with feature-independent deletion, runs the
Frank-Wolfe solver, and then audits the answer three ways:

  * the certified lower bound (objective - gap) sits at or below the
    exact objective of every random in-budget imputation map (the
    relaxation never overclaims),
  * the returned kernel is positive semidefinite: every block
    N_k - M_k M_k' is, up to rounding,
  * test RMSE improves on the zero- and mean-fill baselines.

Takes about a second.
"""

import numpy as np

from imputed_ridge import (
    CorruptionKind,
    CorruptionSpec,
    Dataset,
    Hyperparams,
    SolverConfig,
    fit_mean,
    impute_dataset,
    ridge_weights,
    rmse,
    solve_irr,
    split,
)
from imputed_ridge.corruption import apply as corrupt


def baseline_rmse(b, train, test, lam):
    """Ridge on rows filled with the constant offset b, scored on filled test rows."""
    zero = np.zeros((train.d, train.d))
    Xtr = impute_dataset(zero, train.X, train.Z, b)
    Xte = impute_dataset(zero, test.X, test.Z, b)
    pred = Xte @ ridge_weights(Xtr, train.y, lam)
    return float(np.sqrt(((pred - test.y) ** 2).mean()))


def main():
    rng = np.random.default_rng(12)
    m, d = 260, 5
    latent = rng.random((m, 2))
    X = np.clip(latent @ rng.random((2, d)) + 0.1 * rng.random((m, d)), 0.0, 1.0)
    w_true = rng.uniform(-1.0, 1.0, d)
    y = X @ w_true + 0.02 * rng.standard_normal(m)

    Z = corrupt(CorruptionSpec(CorruptionKind.INDEPENDENT, beta=0.8, seed=3), X)
    full = Dataset(X * Z, Z, y)
    train, test = split(full, 200, seed=0)
    print(f"train {train.m} x {train.d}, observed fraction {train.Z.mean():.3f}")

    hp = Hyperparams(lam=2.0**-6, gamma=1.0)
    sol = solve_irr(train, hp, SolverConfig(tol=1e-4))
    diag = sol.diagnostics
    print(
        f"solver: {diag.iterations} iterations, objective {diag.objective:.5f},"
        f" certified gap {diag.gap:.2e} (bound {diag.objective - diag.gap:.5f}),"
        f" converged {diag.converged}"
    )
    print(f"map norm {np.linalg.norm(sol.M):.3f} (budget {hp.gamma})")

    # audit 1: exact objective y'(U U' + m lam I)^{-1} y of random feasible
    # maps, U the rows imputed through the map, by the d x d primal solve
    yy, mlam = float(train.y @ train.y), train.m * hp.lam
    slack = np.inf
    for _ in range(300):
        G = rng.standard_normal((d, d))
        r = hp.gamma * rng.random() ** (1.0 / (d * d))
        U = impute_dataset(G * (r / np.linalg.norm(G)), train.X, train.Z)
        val = (yy - float(train.y @ U @ ridge_weights(U, train.y, hp.lam))) / mlam
        slack = min(slack, val - (diag.objective - diag.gap))
    print(f"audit 1: min slack over 300 random maps {slack:.2e} (>= 0 expected)")

    # audit 2: the relaxed kernel exceeds the exact one by
    # sum_k D_k X (N_k - M_k M_k') X' D_k, so PSD blocks certify it PSD
    low = np.linalg.eigvalsh(sol.N.slices - np.einsum("rk,sk->krs", sol.M, sol.M)).min()
    print(f"audit 2: smallest eigenvalue of N_k - M_k M_k' {low:.2e}")

    # audit 3: held-out error against the cheap repairs, every method
    # tuned over the same small lambda grid (irr also tunes gamma)
    lams = [2.0**e for e in (-8, -6, -4, -2)]
    for name, b in (("zero", 0.0), ("mean", fit_mean(train))):
        best = min(baseline_rmse(b, train, test, lam) for lam in lams)
        print(f"audit 3: {name} rmse {best:.4f}")
    best_irr = min(
        rmse(solve_irr(train, Hyperparams(lam=lam, gamma=g), SolverConfig(tol=1e-4)), test)
        for lam in lams
        for g in (1.0, 2.0, 4.0)
    )
    print(f"audit 3: irr  rmse {best_irr:.4f}")


if __name__ == "__main__":
    main()
