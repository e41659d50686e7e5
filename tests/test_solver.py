import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from imputed_ridge import (
    Dataset,
    Diagnostics,
    Hyperparams,
    IrrSolution,
    LiftedTensor,
    SolverConfig,
    corrupt_independent,
    predict_batch,
    ridge_weights,
    rmse,
    solve_irr,
)
from imputed_ridge import kernel as kernel_module
from imputed_ridge import solver as solver_module
from imputed_ridge.kernel import RelaxedRidge, s_apply, schur_factor
from imputed_ridge.solver import LINE_TRIALS, _line_search, _lmo, _lmo_inner
from tests.conftest import random_corrupted
from tests.reference import build_km, build_kmn, lmo_inner, quad_value


@pytest.fixture
def strong():
    """Tight limits: tol 1e-6, at most 60 outer iterations."""
    return SolverConfig(tol=1e-6, max_outer=60)


def assert_plain_ridge_at_zero(sol):
    """The one-path solve of a problem with no imputation freedom: M = N = 0,
    certified at the first iteration, where the linear step's bound is 0."""
    diag, tol = sol.diagnostics, SolverConfig().tol
    assert diag.converged and diag.iterations == 1
    assert diag.gap <= tol * abs(diag.objective)
    assert np.all(sol.M == 0.0) and np.all(sol.N.slices == 0.0)


def gaussian_elimination(A, b):
    """Plain row-reduction solve, independent of any library solver."""
    A = A.astype(float).copy()
    b = b.astype(float).copy()
    n = len(b)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(A[col:, col])))
        A[[col, piv]] = A[[piv, col]]
        b[[col, piv]] = b[[piv, col]]
        for r in range(col + 1, n):
            f = A[r, col] / A[col, col]
            A[r, col:] -= f * A[col, col:]
            b[r] -= f * b[col]
    x = np.zeros(n)
    for r in range(n - 1, -1, -1):
        x[r] = (b[r] - A[r, r + 1 :] @ x[r + 1 :]) / A[r, r]
    return x


def dense_alpha(K, y, lam):
    """Dual ridge reference: (K + m*lam*I)^{-1} y by a dense solve."""
    m = y.shape[0]
    return np.linalg.solve(K + m * lam * np.eye(m), y)


def test_ridge_weights_against_elimination(rng):
    for _ in range(10):
        m = int(rng.integers(3, 12))
        d = int(rng.integers(1, 6))
        U = rng.standard_normal((m, d))
        y = rng.standard_normal(m)
        lam = float(rng.uniform(0.05, 2.0))
        w = ridge_weights(U, y, lam)
        expect = gaussian_elimination(U.T @ U + m * lam * np.eye(d), U.T @ y)
        np.testing.assert_allclose(w, expect, atol=1e-9)


def test_ridge_weights_residual_bound(rng):
    m, d = 30, 8
    U = rng.standard_normal((m, d))
    y = rng.standard_normal(m)
    w = ridge_weights(U, y, 0.3)
    resid = np.linalg.norm((U.T @ U + m * 0.3 * np.eye(d)) @ w - U.T @ y)
    assert resid <= 1e-8 * np.linalg.norm(U.T @ y)


def test_ridge_weights_shape_check(rng):
    with pytest.raises(ValueError):
        ridge_weights(np.eye(3), np.zeros(4), 1.0)


def test_no_corruption_collapses_to_ridge(rng):
    """With nothing missing the imputation terms are dead weight."""
    m, d = 20, 4
    X = rng.random((m, d))
    ds = Dataset(X, np.ones((m, d)), rng.uniform(-1, 1, m))
    hp = Hyperparams(lam=0.2, gamma=1.0)
    sol = solve_irr(ds, hp)
    alpha = dense_alpha(X @ X.T, ds.y, hp.lam)
    test = Dataset(X, np.ones((m, d)), np.zeros(m))
    np.testing.assert_allclose(
        predict_batch(sol, test), (X @ X.T) @ alpha, atol=1e-6
    )
    assert_plain_ridge_at_zero(sol)


def test_gamma_zero_collapses_to_zero_fill(rng):
    ds = random_corrupted(rng, 18, 4)
    hp = Hyperparams(lam=0.3, gamma=0.0)
    sol = solve_irr(ds, hp)
    alpha = dense_alpha(ds.X @ ds.X.T, ds.y, hp.lam)
    np.testing.assert_allclose(sol.alpha, alpha, atol=1e-8)
    np.testing.assert_allclose(
        predict_batch(sol, ds), (ds.X @ ds.X.T) @ alpha, atol=1e-6
    )
    assert_plain_ridge_at_zero(sol)


def test_solution_invariants(rng, strong):
    for _ in range(8):
        m = int(rng.integers(6, 20))
        d = int(rng.integers(2, 5))
        ds = random_corrupted(rng, m, d)
        gam = float(2.0 ** rng.uniform(-2, 1))
        lam = float(2.0 ** rng.uniform(-4, 1))
        sol = solve_irr(ds, Hyperparams(lam=lam, gamma=gam), strong)
        assert np.linalg.norm(sol.M) <= gam + 1e-9
        assert sol.N.norm <= gam * gam + 1e-9
        K = build_kmn(ds, sol.M, sol.N)
        # alpha solves the ridge system of the kernel at the returned (M, N)
        resid = (K + m * lam * np.eye(m)) @ sol.alpha - ds.y
        assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(ds.y))
        lam_min = float(np.linalg.eigvalsh(K)[0])
        assert lam_min >= -1e-7 - 1e-9 * abs(K).max()
        if lam_min >= 0:
            B = float(np.abs(ds.y).max())
            assert np.linalg.norm(sol.alpha) <= B / (lam * np.sqrt(m)) + 1e-6


def test_objective_never_worse_than_zero_map(rng, strong):
    """M = N = 0 is always feasible, so the solver cannot end above it."""
    for _ in range(5):
        ds = random_corrupted(rng, 12, 3)
        lam = 0.4
        sol = solve_irr(ds, Hyperparams(lam=lam, gamma=0.8), strong)
        alpha0 = dense_alpha(ds.X @ ds.X.T, ds.y, lam)
        assert sol.diagnostics.objective <= float(ds.y @ alpha0) + 1e-9


def test_relaxation_soundness_small(rng, strong):
    """Solver objective must not exceed the exact objective of any
    feasible M; ten instances with twenty probes each."""
    for _ in range(10):
        m = int(rng.integers(5, 12))
        d = int(rng.integers(2, 4))
        ds = random_corrupted(rng, m, d, beta=float(rng.uniform(0.3, 0.9)))
        lam = float(2.0 ** rng.uniform(-4, 1))
        gam = float(2.0 ** rng.uniform(-2, 1))
        sol = solve_irr(ds, Hyperparams(lam=lam, gamma=gam), strong)
        for _ in range(20):
            G = rng.standard_normal((d, d))
            r = gam * rng.random() ** (1.0 / (d * d))
            Mr = G * (r / np.linalg.norm(G))
            val = float(ds.y @ np.linalg.solve(
                build_km(ds, Mr) + m * lam * np.eye(m), ds.y
            ))
            assert val - sol.diagnostics.objective >= -1e-6


def test_train_predictions_match_kernel(rng):
    ds = random_corrupted(rng, 15, 4)
    sol = solve_irr(ds, Hyperparams(lam=0.1, gamma=1.0))
    K = build_kmn(ds, sol.M, sol.N)
    np.testing.assert_allclose(predict_batch(sol, ds), K @ sol.alpha, atol=1e-8)


def test_solver_deterministic(rng):
    ds = random_corrupted(rng, 14, 3)
    hp = Hyperparams(lam=0.2, gamma=0.9)
    s1 = solve_irr(ds, hp)
    s2 = solve_irr(ds, hp)
    np.testing.assert_array_equal(s1.M, s2.M)
    np.testing.assert_array_equal(s1.alpha, s2.alpha)
    assert s1.diagnostics == s2.diagnostics


def _wide_basis_case():
    """m = 280 rows, d = 16, basis width d(1+a) = 272 just below m."""
    rng = np.random.default_rng(18)
    m, d = 280, 16
    F = rng.standard_normal((m, 3))
    X = F @ rng.standard_normal((3, d)) + 0.1 * rng.standard_normal((m, d))
    X = (X - X.min(axis=0)) / (X.max(axis=0) - X.min(axis=0))
    y = F @ rng.standard_normal(3) + 0.1 * rng.standard_normal(m)
    Z = corrupt_independent(X, 0.6, 18)
    return Dataset(X * Z, Z, y), Hyperparams(lam=2.0**-5, gamma=2.0**-3)


def schur_blocks(sol):
    """The blocks N_k - M_k M_k' of a returned solution."""
    return sol.N.slices - np.einsum("rk,sk->krs", sol.M, sol.M)


def test_wide_basis_refit_repeatable_and_psd():
    """Basis width d(1+a) = 272 just below m = 280, with N off the exact lift.

    Two fits in one process agree bit for bit, and the returned relaxed
    kernel is PSD within eps_psd plus rounding.
    """
    ds, hp = _wide_basis_case()
    s1 = solve_irr(ds, hp)
    s2 = solve_irr(ds, hp)
    assert s1.diagnostics == s2.diagnostics
    assert np.abs(schur_blocks(s1)).max() > 0.0
    np.testing.assert_array_equal(s1.alpha, s2.alpha)
    K = build_kmn(ds, s1.M, s1.N)
    floor = -SolverConfig().eps_psd - 1e-9 * np.abs(K).max()
    assert np.linalg.eigvalsh(K)[0] >= floor


def test_solutions_lie_in_schur_set():
    """Every returned (M, N) lies in C: N_k - M_k M_k' >= -eps_psd.

    On the wide-basis case and rc cases at two budgets; in each the
    returned blocks are not all zero, so N is not the exact lift of M.
    """
    eps = SolverConfig().eps_psd
    cases = [_wide_basis_case()] + [
        (random_corrupted(np.random.default_rng(seed), 60, 5), Hyperparams(lam, gamma))
        for seed, lam, gamma in ((0, 2.0**-8, 1.0), (2, 2.0**-6, 2.0**-2))
    ]
    for ds, hp in cases:
        sol = solve_irr(ds, hp)
        W = schur_blocks(sol)
        assert np.abs(W).max() > 0.0
        assert np.linalg.eigvalsh(W)[:, 0].min() >= -eps


def test_default_solve_agrees_with_tight_reference():
    """Default solves converge, within 3e-3 of a tight reference.

    rc m=60, d=5, seeds 0-7 on a 2 x 2 grid of lam and gamma: every
    default solve reports converged, and its objective is at most
    (1 + 3e-3) times that of a tol=1e-6 solve with longer limits.
    """
    tight = SolverConfig(tol=1e-6, max_outer=1500)
    for seed in range(8):
        ds = random_corrupted(np.random.default_rng(seed), 60, 5)
        for lam in (2.0**-8, 2.0**-6):
            for gamma in (2.0**-2, 1.0):
                hp = Hyperparams(lam, gamma)
                got = solve_irr(ds, hp).diagnostics
                ref = solve_irr(ds, hp, tight).diagnostics
                assert got.converged, (seed, lam, gamma)
                assert got.objective <= (1.0 + 3e-3) * ref.objective, (seed, lam, gamma)


def test_reported_bound_below_a_point_of_c():
    """objective - gap, the certified bound, is at most any point of C.

    The tight solve's objective is that of a point of C it evaluated,
    so a sound lower bound lies at or below it.  The cutting-plane
    solver reported a bound above it here (68.7077 against 68.6961).
    """
    ds = random_corrupted(np.random.default_rng(1), 60, 5)
    hp = Hyperparams(2.0**-8, 2.0**-6)
    got = solve_irr(ds, hp).diagnostics
    tight = SolverConfig(tol=1e-6, max_outer=2000)
    ref = solve_irr(ds, hp, tight).diagnostics
    assert got.objective - got.gap <= ref.objective


def test_converged_objective_near_tight_reference():
    """A solve that reports converged is within 10 tol of a tight solve's
    certified lower bound objective - gap.

    The cutting-plane solver stopped converged here after 2 iterations
    at about 1263, where the relaxed optimum is about 1160.
    """
    ds = random_corrupted(np.random.default_rng(0), 80, 4, beta=0.5)
    hp = Hyperparams(2.0**-12, 2.0**-2)
    got = solve_irr(ds, hp).diagnostics
    tight = SolverConfig(tol=1e-6, max_outer=100)
    ref = solve_irr(ds, hp, tight).diagnostics
    if got.converged:
        assert got.objective <= (1.0 + 10 * SolverConfig().tol) * (ref.objective - ref.gap)


def test_factored_path_matches_dense():
    """The solver's factored ridge solve against the m x m one it replaces.

    Three shapes: a basis narrower than m (m=200, d=5), a wider one
    (m=60, d=8, beta 0.6, where c = 72 > m) and X = 0.  At random
    in-budget points of the Schur set C, N_k = M_k M_k' + P_k P_k' (P_k
    zero for an exact lift, where N_k - M_k M_k' is 0 bit for bit): the
    kernel is PSD, RelaxedRidge's c_L x c_L solve through the Schur
    factor L (no root columns at the lift, d with P_k) matches a dense
    solve of K + m*lam*I, and the same step on the imputed rows with
    nothing masked, so L = I (a d x d solve), matches the dense one of
    the exact kernel.  On X = 0 a full solve is plain ridge on the
    zero-filled rows.
    """
    Z0 = np.ones((12, 3))
    Z0[::3, 0] = 0.0
    Z0[1::4, 2] = 0.0
    cases = [
        random_corrupted(np.random.default_rng(5), 200, 5),
        random_corrupted(np.random.default_rng(4), 60, 8, beta=0.6),
        Dataset(np.zeros((12, 3)), Z0, np.linspace(-1.0, 1.0, 12)),
    ]
    rng = np.random.default_rng(5)
    lam, gamma = 2.0**-2, 1.5
    for ds in cases:
        m, d, y = ds.m, ds.d, ds.y
        mlam = m * lam
        Zb = 1.0 - ds.Z
        obj = RelaxedRidge(ds.X, Zb, y, mlam)
        active = obj.active
        none_masked = np.zeros((d, 0)), np.zeros((0, d, d))
        for trial in range(8):
            G0 = rng.standard_normal((d, d))
            M = G0 * (gamma * rng.random() / np.linalg.norm(G0))
            P = rng.standard_normal((d, d, d)) * (trial % 2)
            S = np.einsum("rk,sk->krs", M, M) + P @ P.transpose(0, 2, 1)
            t = np.sqrt(min(1.0, gamma**2 / np.sqrt((S * S).sum())))
            M, P = M * t, P * t
            S = np.einsum("rk,sk->krs", M, M) + P @ P.transpose(0, 2, 1)
            K = build_kmn(ds, M, LiftedTensor(S, gamma**2))
            scale = max(np.abs(K).max(), 1.0)
            assert np.linalg.eigvalsh(K)[0] >= -1e-12 * scale
            F = schur_factor(M[:, active], S[active])
            assert F.shape == (active.size, d, 1 + (trial % 2) * d)
            alpha = obj.ridge(M[:, active], S[active])[1]
            dense = np.linalg.solve(K + mlam * np.eye(m), y)
            assert np.linalg.norm(alpha - dense) <= 1e-9 * np.linalg.norm(dense)
            # the primal solve on the imputed rows is the exact kernel's
            Ximp = ds.X + Zb * (ds.X @ M)
            exact = dense_alpha(build_km(ds, M), y, lam)
            primal = RelaxedRidge(Ximp, np.zeros_like(Zb), y, mlam).ridge(*none_masked)[1]
            assert np.linalg.norm(primal - exact) <= 1e-9 * np.linalg.norm(exact)
    ds, hp = cases[2], Hyperparams(lam=0.5, gamma=1.0)
    sol = solve_irr(ds, hp)
    np.testing.assert_allclose(sol.alpha, ds.y / (ds.m * hp.lam))
    assert sol.diagnostics.objective == pytest.approx(ds.y @ ds.y / (ds.m * hp.lam))
    assert sol.diagnostics.converged
    np.testing.assert_array_equal(sol.M, 0.0)


def test_schur_roots_factor_blocks():
    """The roots schur_factor keeps factor the blocks of points of C.

    At N_k = M_k M_k' + P_k P_k', at an exact lift (blocks 0, where
    eigh's rounding may go below zero and is clipped) and at a convex
    combination of the two, as a line search visits: F[k] = [M_k, R_k]
    with R_k R_k' = N_k - M_k M_k' to rounding, with finite roots.
    """
    rng = np.random.default_rng(3)
    d, a = 4, 3
    Ma = rng.standard_normal((d, a)) * 0.3
    P = rng.standard_normal((a, d, d)) * 0.2
    lift_ = np.einsum("rk,sk->krs", Ma, Ma)
    M2 = rng.standard_normal((d, a)) * 0.3
    points = [(Ma, lift_ + P @ P.transpose(0, 2, 1)), (M2, np.einsum("rk,sk->krs", M2, M2))]
    Mc = 0.3 * points[0][0] + 0.7 * points[1][0]
    points.append((Mc, 0.3 * points[0][1] + 0.7 * points[1][1]))
    for Mo, No in points:
        F = schur_factor(Mo, No)
        np.testing.assert_array_equal(F[:, :, 0], Mo.T)
        roots = F[:, :, 1:]
        assert np.isfinite(roots).all()
        W = No - np.einsum("rk,sk->krs", Mo, Mo)
        np.testing.assert_allclose(roots @ roots.transpose(0, 2, 1), W, rtol=0, atol=1e-12)


def _points_of_c(rng, d, a, gamma, s, V):
    """Points (Ma, Ns) of C inside both balls: random ones, N_k = M_k M_k'
    + P_k P_k' scaled as (t M, t^2 N), and rank-one ones aligned with V,
    M_k = mu_k sign(s_k) V^_k and N_k = nu_k V^_k V^_k' with nu_k >= mu_k^2."""
    nv = np.linalg.norm(V, axis=0)
    Vh = V / np.where(nv > 0.0, nv, 1.0)
    for i in range(60):
        if i % 2:
            M = rng.standard_normal((d, a))
            P = rng.standard_normal((a, d, d)) * rng.random()
            N = np.einsum("rk,sk->krs", M, M) + P @ P.transpose(0, 2, 1)
        else:
            mu = rng.random(a)
            nu = mu * mu + rng.random(a) * rng.random()
            M = Vh * (mu * np.sign(s))
            N = nu[:, None, None] * np.einsum("rk,sk->krs", Vh, Vh)
        scale = max(np.linalg.norm(M) / gamma, np.sqrt(np.linalg.norm(N)) / gamma, 1e-300)
        t = rng.uniform(0.5, 1.0) / scale
        yield M * t, N * t * t


def _lmo_cases(rng):
    """quad_factors-like pairs (s, V) for d <= 4, one with an all-zero V
    column and one with s_k = 0 on a live feature."""
    for d in (1, 2, 3, 4):
        a = max(1, d - 1)
        s, V = rng.standard_normal(a), rng.standard_normal((d, a)) * rng.uniform(0.1, 10.0)
        yield s, V
    s, V = rng.standard_normal(3), rng.standard_normal((4, 3))
    V[:, 1] = 0.0
    s[2] = 0.0
    yield s, V


@pytest.mark.parametrize("gamma", [2.0**-7, 2.0**-2, 1.0, 4.0])
def test_lmo_bound_covers_points_of_c(gamma):
    """The linear step's G is at or above Q_alpha on sampled points of C
    in both balls, and its vertex is such a point with Q within 1e-9 of G.

    Q_alpha(M, N) = 2 sum_k s_k (M_k . V_k) + sum_k V_k' N_k V_k, sampled at
    random points and at rank-one points aligned with V.
    """
    rng = np.random.default_rng(int(np.log2(gamma)) + 20)
    for s, V in _lmo_cases(rng):
        d, a = V.shape
        G, Sm, Sn = _lmo(s, V, gamma)
        assert np.isfinite(G) and G >= 0.0
        assert np.linalg.norm(Sm) <= gamma * (1.0 + 1e-12)
        assert np.linalg.norm(Sn) <= gamma * gamma * (1.0 + 1e-12)
        W = Sn - np.einsum("rk,sk->krs", Sm, Sm)
        assert np.linalg.eigvalsh(W)[:, 0].min() >= -1e-12 * gamma * gamma
        top = quad_value(s, V, Sm, Sn)
        assert G * (1.0 - 1e-9) <= top <= G * (1.0 + 1e-12)
        for M, N in _points_of_c(rng, d, a, gamma, s, V):
            assert quad_value(s, V, M, N) <= G * (1.0 + 1e-12)


@pytest.mark.parametrize("gamma", [2.0**-7, 1.0, 4.0])
def test_lmo_cold_start_exact_without_coupling(gamma, monkeypatch):
    """Three features with equal |s_k| and equal ||V_k||: the maximizer
    without the coupling, mu = b / ||b|| and nu = c / ||c||, has
    mu_k^2 = 1/3 <= nu_k = 1/sqrt(3), so it is feasible, and the start
    at its multipliers is exact: one _lmo_inner call, G = ||b|| + ||c||."""
    calls = []
    inner = solver_module._lmo_inner
    monkeypatch.setattr(solver_module, "_lmo_inner", lambda *args: calls.append(1) or inner(*args))
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4)
    V = np.column_stack([v, -v[::-1], np.roll(v, 1)])
    s = 0.7 * np.array([1.0, -1.0, 1.0])
    G, Sm, Sn = _lmo(s, V, gamma)
    nv = np.linalg.norm(V, axis=0)
    b, c = 2.0 * gamma * np.abs(s) * nv, gamma * gamma * nv * nv
    assert calls == [1]
    assert G == pytest.approx(np.linalg.norm(b) + np.linalg.norm(c), rel=1e-15, abs=0)


@pytest.mark.parametrize("gamma", [2.0**-7, 4.0])
def test_lmo_finite_without_runtime_warnings(gamma):
    """No overflow, division by zero or invalid value in the linear step
    at the budget extremes, with an all-zero V column, or with V = 0:
    neither numpy's warnings nor the errors math raises in their place."""
    rng = np.random.default_rng(5)
    cases = list(_lmo_cases(rng)) + [(rng.standard_normal(2), np.zeros((3, 2)))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            for s, V in cases:
                out = _lmo(s, V, gamma)
                assert np.isfinite(out[0])
                assert np.isfinite(out[1]).all() and np.isfinite(out[2]).all()
            ds = random_corrupted(rng, 40, 4)
            sol = solve_irr(ds, Hyperparams(2.0**-6, gamma))
        except (OverflowError, ValueError, ZeroDivisionError) as exc:
            pytest.fail(f"arithmetic error in the linear step: {exc!r}")
    assert np.isfinite(sol.alpha).all() and sol.diagnostics.converged


def test_scalar_dual_matches_numpy_reference():
    """_lmo_inner's scalar pass against the numpy form in tests.reference:
    G, gradient, Hessian, maximizers, b'mu and c'nu agree to 1e-12
    relative on random (b, c, p, q) and on the edges of _cubic_root:
    p = 0, P <= 0 (c <= p, with c = p exactly), z > 1, z <= 1 and z
    overflowing (p = 0 and c so small that |P|^1.5 is subnormal), with
    some b = 0 and with features on both branches."""
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(40):
        a = int(rng.integers(1, 17))
        b, c = rng.random(a), rng.random(a)
        b[rng.random(a) < 0.2] = 0.0
        cases.append((b, c, float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.05, 2.0))))
    b, c = rng.random(6), rng.random(6)
    cases += [
        (b, c, 0.0, 0.7),  # p = 0: every feature with b > 0 on the cubic branch
        (b, c * 0.1, 0.5, 0.3),  # c < p: P < 0, the sinh form
        (b, np.full(6, 0.5), 0.5, 0.3),  # c = p: P = 0, the cube root
        (b * 50.0, c, 0.01, 0.4),  # z > 1: the cosh form
        (b * 1e-3, c, 1e-3, 0.4),  # z <= 1: the cos form
        (b + 0.5, np.full(6, 1e-206), 0.0, 0.5),  # |P|^1.5 subnormal: z = inf
    ]
    for b, c, p, q in cases:
        got = _lmo_inner(b.tolist(), c.tolist(), p, q)
        want = lmo_inner(b, c, p, q)
        for g, w in zip(got, want):
            np.testing.assert_allclose(np.asarray(g), np.asarray(w), rtol=1e-12, atol=0)


def test_certified_bound_below_exact_objectives():
    """objective - gap is at most the exact objective of sampled in-ball
    maps and the relaxed objective of sampled points of C (criterion-1
    style), and converged means gap <= tol |objective|."""
    rng = np.random.default_rng(17)
    cfg = SolverConfig()
    for _ in range(12):
        m, d = int(rng.integers(6, 14)), int(rng.integers(2, 5))
        ds = random_corrupted(rng, m, d, beta=float(rng.uniform(0.3, 0.9)))
        lam = float(2.0 ** rng.uniform(-6, 1))
        gam = float(2.0 ** rng.uniform(-3, 1))
        diag = solve_irr(ds, Hyperparams(lam, gam), cfg).diagnostics
        assert diag.converged == (diag.gap <= cfg.tol * abs(diag.objective))
        bound = diag.objective - diag.gap
        eye = m * lam * np.eye(m)
        for _ in range(30):
            G0 = rng.standard_normal((d, d))
            M = G0 * (gam * rng.random() ** (1.0 / (d * d)) / np.linalg.norm(G0))
            exact = float(ds.y @ np.linalg.solve(build_km(ds, M) + eye, ds.y))
            P = rng.standard_normal((d, d, d)) * rng.random()
            N = np.einsum("rk,sk->krs", M, M) + P @ P.transpose(0, 2, 1)
            t = min(1.0, gam * gam / np.sqrt((N * N).sum()))
            K = build_kmn(ds, np.sqrt(t) * M, LiftedTensor(t * N, gam * gam + 1e-9))
            relaxed = float(ds.y @ np.linalg.solve(K + eye, ds.y))
            assert bound <= min(exact, relaxed) + 1e-9 * abs(bound)


def test_gram_bought_only_by_long_solves(monkeypatch):
    """RelaxedRidge rents Phi = B L before it buys G = B'B: a short solve
    of a wide B (c = 72 columns, above m/2 = 50 rows, certified after 2
    iterations) never forms G, and a long solve of a tall B (c = 20,
    m = 400) forms it once.  The count is of calls to the private builder."""
    calls = []
    gram = RelaxedRidge._gram
    monkeypatch.setattr(RelaxedRidge, "_gram", lambda self: calls.append(1) or gram(self))
    wide = random_corrupted(np.random.default_rng(0), 100, 8)
    got = solve_irr(wide, Hyperparams(2.0**-5, 2.0**-3)).diagnostics
    assert (1.0 - wide.Z).any(axis=0).all()
    assert got.converged and got.iterations == 2 and calls == []
    tall = random_corrupted(np.random.default_rng(0), 400, 4)
    got = solve_irr(tall, Hyperparams(2.0**-3, 4.0)).diagnostics
    assert got.converged and got.iterations > 5 and calls == [1]


def test_slope_and_curvature_match_differences():
    """Along a segment of C, f's slope -Q_alpha(D) and RelaxedRidge.curvature
    match central differences of f and of the slope (the line search's
    first step is -slope / curvature)."""
    rng = np.random.default_rng(9)
    ds, lam, gamma = random_corrupted(rng, 40, 4), 2.0**-5, 0.8
    obj = RelaxedRidge(ds.X, 1.0 - ds.Z, ds.y, ds.m * lam)
    a, d, h = obj.active.size, ds.d, 1e-5
    points = [next(_points_of_c(rng, d, a, gamma, rng.standard_normal(a), rng.standard_normal((d, a))))
              for _ in range(2)]
    (M0, N0), (M1, N1) = points
    Dm, Dn = M1 - M0, N1 - N0

    def at(eta):
        f, _, fac, (_, s, V) = obj.ridge(M0 + eta * Dm, N0 + eta * Dn)
        return f, -quad_value(s, V, Dm, Dn), fac, s, V

    for eta in (0.2, 0.5):
        f, g, fac, s, V = at(eta)
        (fp, gp, *_), (fm, gm, *_) = at(eta + h), at(eta - h)
        assert g == pytest.approx((fp - fm) / (2 * h), rel=1e-6)
        curv = obj.curvature(fac, *s_apply(s, V, Dm, Dn))
        assert curv == pytest.approx((gp - gm) / (2 * h), rel=1e-5)


def test_one_quad_factors_per_ridge_step(monkeypatch):
    """A solve takes one ridge step per iteration and forms quad_factors
    once per ridge step: the start's, then the accepted Newton step of
    each iteration but the last, which stops.  The main loop reuses the
    pair its ridge step gave, and forms the direction's s_apply pair once
    per iteration that steps, for the slope and the curvature both.  The
    counts are of the names RelaxedRidge.ridge looks up in the kernel
    module and solve_irr in the solver module."""
    calls = {"ridge": 0, "quad": 0, "s_apply": 0}
    ridge, quad, apply = RelaxedRidge.ridge, kernel_module.quad_factors, solver_module.s_apply

    def counted_ridge(*args, **kwargs):
        calls["ridge"] += 1
        return ridge(*args, **kwargs)

    def counted_quad(*args):
        calls["quad"] += 1
        return quad(*args)

    def counted_apply(*args):
        calls["s_apply"] += 1
        return apply(*args)

    monkeypatch.setattr(RelaxedRidge, "ridge", counted_ridge)
    monkeypatch.setattr(kernel_module, "quad_factors", counted_quad)
    monkeypatch.setattr(solver_module, "s_apply", counted_apply)
    ds = random_corrupted(np.random.default_rng(9), 40, 4)
    sol = solve_irr(ds, Hyperparams(lam=2.0**-5, gamma=0.8))
    assert sol.diagnostics.iterations > 1 and sol.diagnostics.converged
    assert calls["quad"] == calls["ridge"] == sol.diagnostics.iterations
    assert calls["s_apply"] == sol.diagnostics.iterations - 1


class _Stub:
    """An objective along a segment for _line_search: ridge(Mt, Nt) gives
    phi at Mt[0] (Ns and Dn are zero) and records the trial."""

    def __init__(self, phi):
        self.phi, self.trials = phi, []

    def ridge(self, Mt, Nt):
        eta = float(Mt[0])
        self.trials.append(eta)
        return self.phi(eta), None, None, None


@pytest.mark.parametrize("k", [2.0, 100.0])
def test_line_search_backtracks_on_quadratic_model(k):
    """phi(x) = -x + k x^4 is convex with phi(0) = 0 and phi'(0) = -1, and
    its curvature at 0 is 0, so the Newton step is the full step 1, where
    phi(1) = k - 1 > 0.  The second trial is the minimizer of the
    quadratic through phi(0), phi'(0) and phi(1), 1 / (2 k), clamped to
    [1/10, 1/2]: 1/4 at k = 2, 1/10 at k = 100.  It descends and is what
    the search returns."""
    obj = _Stub(lambda x: -x + k * x**4)
    zero = np.zeros(1)
    f, Mt, *_ = _line_search(obj, zero, zero, np.ones(1), zero, 0.0, -1.0, 1.0)
    want = min(0.5, max(0.1, 1.0 / (2.0 * k)))
    assert obj.trials == [1.0, pytest.approx(want, rel=1e-15)]
    assert f == obj.phi(want) < 0.0
    assert Mt[0] == obj.trials[-1]


def test_line_search_accepts_descending_newton_step():
    """A first trial below phi(0) is taken as it is, one ridge step.  A phi
    flat in rounding, whose slope g0 < 0 never shows in f, halves eta
    each trial, LINE_TRIALS trials in all, and returns a trial no lower
    than phi(0), which the main loop rejects."""
    zero = np.zeros(1)
    obj = _Stub(lambda x: (x - 0.6) ** 2 - 0.36)
    f = _line_search(obj, zero, zero, np.ones(1), zero, 0.0, -1.2, 0.6)[0]
    assert obj.trials == [0.6] and f == -0.36
    flat = _Stub(lambda x: 1.0)
    f = _line_search(flat, zero, zero, np.ones(1), zero, 1.0, -1e-20, 1.0)[0]
    assert flat.trials == [0.5**i for i in range(LINE_TRIALS)]
    assert f == 1.0


def test_solve_needs_no_qr(monkeypatch):
    """A solve factors nothing but its Schur blocks: with np.linalg.qr
    raising, the wide-basis case still solves, off the exact lift."""

    def no_qr(*args, **kwargs):
        raise AssertionError("solve_irr called np.linalg.qr")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    ds, hp = _wide_basis_case()
    sol = solve_irr(ds, hp)
    assert np.abs(schur_blocks(sol)).max() > 0.0
    K = build_kmn(ds, sol.M, sol.N)
    resid = (K + ds.m * hp.lam * np.eye(ds.m)) @ sol.alpha - ds.y
    assert np.linalg.norm(resid) <= 1e-8 * max(1.0, np.linalg.norm(ds.y))


def test_capped_run_reports_not_converged():
    """Diagnostics.converged is the tol test, not a gap within slack.

    On a panel (rc m=30, d=4, seeds 0-3, a 2 x 2 grid of lam and gamma)
    every default solve converges after more than one iteration, and the
    run capped one iteration short stops at the cap, not converged, with
    its gap above tol.  At least one capped gap is within ten times the
    tolerance, which once counted as converged.
    """
    near = 0
    for seed in range(4):
        ds = random_corrupted(np.random.default_rng(seed), 30, 4)
        for lam in (2.0**-3, 2.0**-6):
            for gamma in (2.0**-2, 1.0):
                hp = Hyperparams(lam, gamma)
                full = solve_irr(ds, hp).diagnostics
                assert full.converged and full.iterations > 1, (seed, lam, gamma)
                cfg = SolverConfig(max_outer=full.iterations - 1)
                capped = solve_irr(ds, hp, cfg).diagnostics
                assert capped.iterations == cfg.max_outer, (seed, lam, gamma)
                assert not capped.converged, (seed, lam, gamma)
                rel = capped.gap / abs(capped.objective)
                assert rel > cfg.tol, (seed, lam, gamma)
                near += rel <= 10.0 * cfg.tol
    assert near >= 1


def test_solve_allocates_no_m_by_m_matrix():
    """A solve at m=3000 peaks below a quarter of one m x m float64 matrix.

    Correlated features move the solve off the exact lift, so its Schur
    roots and factor are nonzero.
    """
    rng = np.random.default_rng(11)
    m, d = 3000, 4
    F = rng.standard_normal((m, 3))
    X = F @ rng.standard_normal((3, d)) + 0.3 * rng.standard_normal((m, d))
    X = (X - X.min(axis=0)) / (X.max(axis=0) - X.min(axis=0))
    y = F @ rng.standard_normal(3) + 0.1 * rng.standard_normal(m)
    Z = corrupt_independent(X, 0.6, 11)
    ds = Dataset(X * Z, Z, y)
    hp = Hyperparams(lam=2.0**-3, gamma=1.0)
    tracemalloc.start()
    try:
        sol = solve_irr(ds, hp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.abs(schur_blocks(sol)).max() > 0.0
    assert peak < m * m * 8 / 4


def test_predict_allocates_no_n_by_d_array(rng):
    """A large batch costs its (n,) output plus one fixed-size row block.

    relaxed_apply walks the test rows in blocks of a fixed byte size, so
    the peak stays far below one n x d float64 array (12.8 MB here).
    """
    sol = solve_irr(random_corrupted(rng, 40, 8), Hyperparams(lam=0.5, gamma=0.5))
    test = random_corrupted(rng, 200_000, 8)
    tracemalloc.start()
    try:
        pred = predict_batch(sol, test)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pred.nbytes + 2**20


def test_predict_single_matches_batch(rng):
    ds = random_corrupted(rng, 10, 3)
    sol = solve_irr(ds, Hyperparams(lam=0.5, gamma=0.5))
    test = random_corrupted(rng, 6, 3)
    batch = predict_batch(sol, test)
    for i in range(test.m):
        one = Dataset(test.X[i : i + 1], test.Z[i : i + 1], test.y[i : i + 1])
        assert predict_batch(sol, one)[0] == pytest.approx(batch[i], abs=1e-12)


def test_predict_dimension_check(rng):
    ds = random_corrupted(rng, 8, 3)
    sol = solve_irr(ds, Hyperparams(lam=0.5, gamma=0.5))
    with pytest.raises(ValueError):
        predict_batch(sol, random_corrupted(rng, 4, 2))


def test_rmse_empty_test_rejected(rng):
    ds = random_corrupted(rng, 5, 2)
    sol = solve_irr(ds, Hyperparams(lam=0.5, gamma=0.2))
    empty = Dataset(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        rmse(sol, empty)


def test_rmse_hand_value():
    # one fully observed training row x = 1 with alpha = 2: the kernel is
    # x x0, so test rows x0 = 1 and 1.5 are predicted as 2 and 3
    train = Dataset(np.ones((1, 1)), np.ones((1, 1)), np.zeros(1))
    sol = IrrSolution(
        alpha=np.array([2.0]),
        M=np.zeros((1, 1)),
        N=LiftedTensor(np.zeros((1, 1, 1)), 0.0),
        train=train,
        hp=Hyperparams(lam=1.0, gamma=0.0),
        diagnostics=Diagnostics(1, 0.0, 0, 0.0, True),
    )
    test = Dataset(np.array([[1.0], [1.5]]), np.ones((2, 1)), np.array([1.0, 3.0]))
    assert rmse(sol, test) == pytest.approx(np.sqrt((1.0 + 0.0) / 2))


def test_hyperparams_validation():
    for lam in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="lam"):
            Hyperparams(lam=lam, gamma=1.0)
    for gamma in (-0.5, np.inf, np.nan):
        with pytest.raises(ValueError, match="gamma"):
            Hyperparams(lam=1.0, gamma=gamma)
    assert Hyperparams(lam=1e-300, gamma=0.0).gamma == 0.0


def test_vanishing_lam_rejected():
    """An m*lam lost in rounding against the kernel is an error.

    Not NaN or infinite weights marked converged, a failure inside eigh
    or a run to max_outer; the CLI's default lambdas 2^-12 .. 2^10 still
    solve.
    """
    ds = random_corrupted(np.random.default_rng(0), 40, 4)
    for lam, gamma in [(5e-324, 0.0), (5e-324, 0.5), (1e-300, 0.0), (1e-300, 0.5),
                       (1e-30, 0.5)]:
        with pytest.raises(ValueError, match="lam"):
            solve_irr(ds, Hyperparams(lam, gamma))
    for gamma in (0.0, 0.5):
        for e in range(-12, 11):
            sol = solve_irr(ds, Hyperparams(2.0**e, gamma))
            assert np.isfinite(sol.alpha).all()
            assert np.isfinite(sol.diagnostics.objective)


def test_solver_config_round_trip():
    """Two settable limits; eps_psd is a constant no caller can set."""
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["tol", "max_outer"]
    assert SolverConfig().eps_psd == SolverConfig.eps_psd == 1e-7
    with pytest.raises(TypeError, match="eps_psd"):
        SolverConfig(eps_psd=1e-8)
    text = '{"tol": 1e-4, "max_outer": 33}'
    assert SolverConfig.from_json(text) == SolverConfig(tol=1e-4, max_outer=33)
    assert SolverConfig.from_json('{"tol": 1}').tol == 1.0
    assert SolverConfig.from_json("{}") == SolverConfig()
    assert SolverConfig(max_outer=np.int64(7)).max_outer == 7
    for value in (0, -3, 2.5, 3.0, True, "5", None):
        with pytest.raises(ValueError, match="max_outer"):
            SolverConfig(max_outer=value)
    for value in (0.0, -1e-3, np.inf, np.nan, True, "1e-3"):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=value)


def test_solver_config_from_json_rejects_bad_input():
    for key in ("max_iter", "inner_steps", "eps_psd"):
        with pytest.raises(ValueError, match=f"unknown solver config keys: {key}"):
            SolverConfig.from_json(f'{{"{key}": 5}}')
    for text in ("[1, 2]", "3", '"tol"', "null"):
        with pytest.raises(ValueError, match="JSON object"):
            SolverConfig.from_json(text)
    with pytest.raises(ValueError, match="tol"):
        SolverConfig.from_json('{"tol": null}')
    # no silent rounding or casting: 2.7 is not an iteration count, true
    # is not 1, and neither booleans nor strings are tolerances
    for key, value in (("max_outer", "2.7"), ("max_outer", "true"),
                       ("max_outer", "2.0"), ("tol", "false"), ("tol", '"1e-7"')):
        with pytest.raises(ValueError, match=key):
            SolverConfig.from_json(f'{{"{key}": {value}}}')
    for text in ('{"tol": NaN}', '{"tol": 1e999}', '{"tol": Infinity}'):
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig.from_json(text)


def test_empty_train_rejected():
    ds = Dataset(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError):
        solve_irr(ds, Hyperparams(lam=1.0, gamma=1.0))


def test_schur_epigraph_equivalence(rng):
    """Block-matrix PSD test agrees with the closed-form threshold."""
    for _ in range(20):
        m = int(rng.integers(2, 8))
        B = rng.standard_normal((m, m))
        K = B @ B.T
        y = rng.standard_normal(m)
        lam = float(rng.uniform(0.1, 2.0))
        A = K + m * lam * np.eye(m)
        t_star = float(y @ np.linalg.solve(A, y))
        delta = 1e-3 * max(1.0, t_star)
        for t, expect in ((t_star + delta, True), (t_star - delta, False)):
            block = np.zeros((m + 1, m + 1))
            block[:m, :m] = A
            block[:m, m] = y
            block[m, :m] = y
            block[m, m] = t
            is_psd = float(np.linalg.eigvalsh(block)[0]) >= -1e-8
            assert is_psd == expect
