import tracemalloc

import numpy as np
import pytest

from imputed_ridge import (
    Dataset,
    Diagnostics,
    Hyperparams,
    IrrSolution,
    LiftedTensor,
    SolverConfig,
    build_km,
    build_kmn,
    corrupt_independent,
    predict_batch,
    range_basis,
    relaxed_core,
    ridge_weights,
    rmse,
    solve_irr,
)
from imputed_ridge.solver import _core_solve, _master, _primal_alpha, _Rows
from tests.conftest import random_corrupted
from tests.master_reference import flat_master, flat_row

STRONG = SolverConfig(tol=1e-6, max_outer=60, inner_steps=1500)


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
    assert sol.diagnostics.converged


def test_gamma_zero_collapses_to_zero_fill(rng):
    ds = random_corrupted(rng, 18, 4)
    hp = Hyperparams(lam=0.3, gamma=0.0)
    sol = solve_irr(ds, hp)
    alpha = dense_alpha(ds.X @ ds.X.T, ds.y, hp.lam)
    np.testing.assert_allclose(sol.alpha, alpha, atol=1e-8)
    assert np.all(sol.M == 0.0)
    np.testing.assert_allclose(
        predict_batch(sol, ds), (ds.X @ ds.X.T) @ alpha, atol=1e-6
    )


def test_solution_invariants(rng):
    for _ in range(8):
        m = int(rng.integers(6, 20))
        d = int(rng.integers(2, 5))
        ds = random_corrupted(rng, m, d)
        gam = float(2.0 ** rng.uniform(-2, 1))
        lam = float(2.0 ** rng.uniform(-4, 1))
        sol = solve_irr(ds, Hyperparams(lam=lam, gamma=gam), STRONG)
        assert np.linalg.norm(sol.M) <= gam + 1e-9
        assert sol.N.norm <= gam * gam + 1e-9
        K = build_kmn(ds, sol.M, sol.N)
        lam_min = float(np.linalg.eigvalsh(K)[0])
        assert lam_min >= -1e-7 - 1e-9 * abs(K).max()
        if lam_min >= 0:
            B = float(np.abs(ds.y).max())
            assert np.linalg.norm(sol.alpha) <= B / (lam * np.sqrt(m)) + 1e-6


def test_objective_never_worse_than_zero_map(rng):
    """M = N = 0 is always feasible, so the solver cannot end above it."""
    for _ in range(5):
        ds = random_corrupted(rng, 12, 3)
        lam = 0.4
        sol = solve_irr(ds, Hyperparams(lam=lam, gamma=0.8), STRONG)
        alpha0 = dense_alpha(ds.X @ ds.X.T, ds.y, lam)
        assert sol.diagnostics.objective <= float(ds.y @ alpha0) + 1e-9


def test_relaxation_soundness_small(rng):
    """Solver objective must not exceed the exact objective of any
    feasible M; ten instances with twenty probes each."""
    for _ in range(10):
        m = int(rng.integers(5, 12))
        d = int(rng.integers(2, 4))
        ds = random_corrupted(rng, m, d, beta=float(rng.uniform(0.3, 0.9)))
        lam = float(2.0 ** rng.uniform(-4, 1))
        gam = float(2.0 ** rng.uniform(-2, 1))
        sol = solve_irr(ds, Hyperparams(lam=lam, gamma=gam), STRONG)
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


def test_wide_basis_refit_repeatable_and_psd():
    """Basis width d(1+a) = 272 just below m = 280, many Schur cuts.

    Two fits in one process agree bit for bit, and the returned relaxed
    kernel is PSD within eps_psd plus rounding.
    """
    ds, hp = _wide_basis_case()
    s1 = solve_irr(ds, hp)
    s2 = solve_irr(ds, hp)
    assert s1.diagnostics == s2.diagnostics
    assert s1.diagnostics.cuts >= 1
    np.testing.assert_array_equal(s1.alpha, s2.alpha)
    K = build_kmn(ds, s1.M, s1.N)
    floor = -SolverConfig().eps_psd - 1e-9 * np.abs(K).max()
    assert np.linalg.eigvalsh(K)[0] >= floor


def test_solutions_lie_in_schur_set():
    """Every returned (M, N) lies in C: N_k - M_k M_k' >= -eps_psd.

    On the wide-basis case and rc cases at two budgets; each solve took
    Schur cuts, so its iterates left C on the way.
    """
    eps = SolverConfig().eps_psd
    cases = [_wide_basis_case()] + [
        (random_corrupted(np.random.default_rng(seed), 60, 5), Hyperparams(lam, gamma))
        for seed, lam, gamma in ((0, 2.0**-8, 1.0), (2, 2.0**-6, 2.0**-2))
    ]
    for ds, hp in cases:
        sol = solve_irr(ds, hp)
        assert sol.diagnostics.cuts >= 1
        W = sol.N.slices - np.einsum("rk,sk->krs", sol.M, sol.M)
        assert np.linalg.eigvalsh(W)[:, 0].min() >= -eps


def test_default_solve_agrees_with_tight_reference():
    """Default solves converge, within 3e-3 of a tight reference.

    rc m=60, d=5, seeds 0-7 on a 2 x 2 grid of lam and gamma: every
    default solve reports converged, and its objective is at most
    (1 + 3e-3) times that of a tol=1e-6 solve with longer limits.
    """
    tight = SolverConfig(tol=1e-6, max_outer=1500, inner_steps=2000)
    for seed in range(8):
        ds = random_corrupted(np.random.default_rng(seed), 60, 5)
        for lam in (2.0**-8, 2.0**-6):
            for gamma in (2.0**-2, 1.0):
                hp = Hyperparams(lam, gamma)
                got = solve_irr(ds, hp).diagnostics
                ref = solve_irr(ds, hp, tight).diagnostics
                assert got.converged, (seed, lam, gamma)
                assert got.objective <= (1.0 + 3e-3) * ref.objective, (seed, lam, gamma)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: master value is not a lower bound")
def test_reported_bound_below_a_point_of_c():
    """objective - gap, the master value, is at most any point of C.

    The tight solve's objective is that of a point of C it evaluated,
    so a sound lower bound lies at or below it.  Here the default solve
    stops converged with its bound above it.
    """
    ds = random_corrupted(np.random.default_rng(1), 60, 5)
    hp = Hyperparams(2.0**-8, 2.0**-6)
    got = solve_irr(ds, hp).diagnostics
    tight = SolverConfig(tol=1e-6, max_outer=2000, inner_steps=3000)
    ref = solve_irr(ds, hp, tight).diagnostics
    assert got.objective - got.gap <= ref.objective


def test_factored_path_matches_dense():
    """The solver's factored ridge solve against the m x m one it replaces.

    Three shapes: a basis narrower than m (m=200, d=5), a square one
    (m=60, d=8, beta 0.6, where c = 72 > m) and X = 0 (rank 0).  At
    random in-budget points of the Schur set C, N_k = M_k M_k' + P_k
    with P_k PSD (zero for an exact lift): the kernel is PSD, the r x r
    solve of T + m*lam*I matches a dense solve of K + m*lam*I, and the
    d x d primal solve of _primal_alpha matches the dense one on the
    imputed rows.  On the rank-0 case a full solve is plain ridge on the
    zero-filled rows.
    """
    Z0 = np.ones((12, 3))
    Z0[::3, 0] = 0.0
    Z0[1::4, 2] = 0.0
    cases = [
        random_corrupted(np.random.default_rng(5), 200, 5),
        # how many of the 72 columns are independent depends on the
        # mask; this draw's span is all of R^60
        random_corrupted(np.random.default_rng(4), 60, 8, beta=0.6),
        Dataset(np.zeros((12, 3)), Z0, np.linspace(-1.0, 1.0, 12)),
    ]
    rng = np.random.default_rng(5)
    lam, gamma = 2.0**-2, 1.5
    ranks = []
    for ds in cases:
        m, d, y = ds.m, ds.d, ds.y
        mlam = m * lam
        Zb = 1.0 - ds.Z
        active = np.flatnonzero(Zb.any(axis=0))
        Q, R = range_basis(ds.X, Zb, active)
        ranks.append(Q.shape[1])
        for trial in range(8):
            G = rng.standard_normal((d, d))
            M = G * (gamma * rng.random() / np.linalg.norm(G))
            P = rng.standard_normal((d, d, d)) * (trial % 2)
            S = np.einsum("rk,sk->krs", M, M) + P @ P.transpose(0, 2, 1)
            t2 = min(1.0, gamma**2 / np.sqrt((S * S).sum()))
            M, S = M * np.sqrt(t2), S * t2
            K = build_kmn(ds, M, LiftedTensor(S, gamma**2))
            scale = max(np.abs(K).max(), 1.0)
            assert np.linalg.eigvalsh(K)[0] >= -1e-12 * scale
            T = relaxed_core(R, M, S[active], active)
            alpha = _core_solve(Q, T, y, mlam)
            dense = np.linalg.solve(K + mlam * np.eye(m), y)
            assert np.linalg.norm(alpha - dense) <= 1e-9 * np.linalg.norm(dense)
            # the primal solve on the imputed rows is the exact kernel's
            Ximp = ds.X + Zb * (ds.X @ M)
            exact = dense_alpha(build_km(ds, M), y, lam)
            primal = _primal_alpha(Ximp, y, mlam)
            assert np.linalg.norm(primal - exact) <= 1e-9 * np.linalg.norm(exact)
    assert ranks[0] < 200 and ranks[1] == 60 and ranks[2] == 0
    ds, hp = cases[2], Hyperparams(lam=0.5, gamma=1.0)
    sol = solve_irr(ds, hp)
    np.testing.assert_allclose(sol.alpha, ds.y / (ds.m * hp.lam))
    assert sol.diagnostics.objective == pytest.approx(ds.y @ ds.y / (ds.m * hp.lam))
    assert sol.diagnostics.converged
    np.testing.assert_array_equal(sol.M, 0.0)


def _recorded_rows(monkeypatch, ds, hp):
    """(const, s, V, cut) of every row a solve adds to its model, in order."""
    added = []
    add = _Rows.add

    def record(self, const, s, V, cut):
        added.append((const, s, V, cut))
        add(self, const, s, V, cut)

    with monkeypatch.context() as mp:
        mp.setattr(_Rows, "add", record)
        solve_irr(ds, hp)
    return added


class _BothMasters:
    """The plane-coordinate master and the flat reference on the same rows."""

    def __init__(self, d, a, gamma):
        self.rows = _Rows(d, a)
        self.dM = d * a
        self.gamma = gamma
        self.planes, self.cuts = [], []
        self.x = np.zeros(self.dM + a * d * d)

    def add(self, const, s, V, cut):
        self.rows.add(const, s, V, cut)
        (self.cuts if cut else self.planes).append((const, flat_row(s, V)))

    def run(self):
        """Both masters from the current iterate; returns new and reference.

        The new side is (M[:, active], N[active], value) as solve_irr
        rebuilds it, the reference its flat x split the same way.
        """
        rows, dM, gamma = self.rows, self.dM, self.gamma
        rows.cM, rows.cN, val = _master(rows, gamma, 500, 1e-7)
        Ma, Ns = rows.iterate(gamma)
        A0 = np.array([c for c, _ in self.planes])
        CA = np.array([r for _, r in self.planes])
        C0 = np.array([c for c, _ in self.cuts])
        CC = np.array([r for _, r in self.cuts]).reshape(len(self.cuts), self.x.size)
        self.x, ref_val = flat_master(self.x, A0, CA, C0, CC, gamma, 500, 1e-7, dM)
        return (Ma.ravel(), Ns.ravel(), val), (self.x[:dM], self.x[dM:], ref_val)

    def cut_values(self, xM, xN):
        return np.array([c + r @ np.concatenate([xM, xN]) for c, r in self.cuts])


def _assert_same_master(new, ref, gamma):
    Ma, Ns, val = new
    for got, want in zip(new, ref):
        scale = max(np.linalg.norm(want), 1e-300)
        assert np.linalg.norm(np.subtract(got, want)) <= 1e-10 * scale
    assert np.isfinite(val)
    assert np.linalg.norm(Ma) <= gamma  # inside both balls, no slack
    assert np.linalg.norm(Ns) <= gamma * gamma


@pytest.mark.parametrize(
    "case, m, d, lam, gamma",
    [
        ("planes", 40, 5, 2.0**-5, 1.0),
        ("planes+cuts", 40, 5, 2.0**-5, 1.0),
        ("small budget", 60, 4, 2.0**-4, 2.0**-7),
    ],
)
def test_master_matches_flat_reference(monkeypatch, case, m, d, lam, gamma):
    """The master in plane coordinates against the flat-variable loop.

    Seeded inputs: the rows a solve adds, planes only or planes and
    cuts.  At gamma = 2^-7 the N ball shrinks the iterate by about
    gamma on every one of the 500 steps, far below the smallest double,
    so the plane-coordinate loop must fold its lazy scale back in time.
    Both masters run from zero on the first half of the rows and again,
    warm, after the rest are added.
    """
    ds = random_corrupted(np.random.default_rng(1), m, d)
    added = _recorded_rows(monkeypatch, ds, Hyperparams(lam, gamma))
    if case == "planes":
        added = [row for row in added if not row[3]]
    a = added[0][1].size
    both = _BothMasters(d, a, gamma)
    half = max(1, len(added) // 2)
    for i, row in enumerate(added):
        both.add(*row)
        if i + 1 in (half, len(added)) and both.planes:
            new, ref = both.run()
            _assert_same_master(new, ref, gamma)
    assert (len(both.cuts) > 0) == (case != "planes")
    if case == "planes+cuts":
        # the cuts bind: without them the master ends outside one
        free = _BothMasters(d, a, gamma)
        for row in added:
            if not row[3]:
                free.add(*row)
        (xM, xN, _), _ = free.run()
        assert both.cut_values(xM, xN).min() < -1e-7


def test_capped_run_reports_not_converged():
    """Diagnostics.converged is the tol test, not a gap within slack.

    Capped one iteration before it converges, the run's gap is already
    within ten times the tolerance, which once counted as converged.
    """
    ds = random_corrupted(np.random.default_rng(0), 30, 4)
    hp = Hyperparams(2.0**-3, 1.0)
    full = solve_irr(ds, hp).diagnostics
    assert full.converged
    cfg = SolverConfig(max_outer=full.iterations - 1)
    capped = solve_irr(ds, hp, cfg).diagnostics
    assert capped.iterations == cfg.max_outer
    assert cfg.tol < capped.gap / abs(capped.objective) <= 10.0 * cfg.tol
    assert not capped.converged


def test_solve_allocates_no_m_by_m_matrix():
    """A solve at m=3000 peaks below a quarter of one m x m float64 matrix.

    Correlated features make the solve take Schur cuts, so the
    separation and the move back into C run as well as the ridge solves.
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
    assert sol.diagnostics.cuts >= 1
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
        N=LiftedTensor.zeros(1),
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
    text = '{"tol": 1e-4, "max_outer": 33, "inner_steps": 77, "eps_psd": 1e-8}'
    cfg = SolverConfig(tol=1e-4, max_outer=33, inner_steps=77, eps_psd=1e-8)
    assert SolverConfig.from_json(text) == cfg
    assert SolverConfig.from_json('{"tol": 1}').tol == 1.0
    assert SolverConfig.from_json("{}") == SolverConfig()
    assert SolverConfig(max_outer=np.int64(7)).max_outer == 7
    for name in ("max_outer", "inner_steps"):
        for value in (0, -3, 2.5, 3.0, True, "5", None):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: value})
    for name in ("tol", "eps_psd"):
        for value in (0.0, -1e-3, np.inf, np.nan, True, "1e-3"):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: value})


def test_solver_config_from_json_rejects_bad_input():
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig.from_json('{"max_iter": 5}')
    for text in ("[1, 2]", "3", '"tol"', "null"):
        with pytest.raises(ValueError, match="JSON object"):
            SolverConfig.from_json(text)
    with pytest.raises(ValueError, match="tol"):
        SolverConfig.from_json('{"tol": null}')
    # no silent rounding or casting: 2.7 is not an iteration count, true
    # is not 1, and neither booleans nor strings are tolerances
    for key, value in (("max_outer", "2.7"), ("inner_steps", "true"),
                       ("max_outer", "2.0"), ("tol", "false"), ("eps_psd", '"1e-7"')):
        with pytest.raises(ValueError, match=key):
            SolverConfig.from_json(f'{{"{key}": {value}}}')
    for text in ('{"tol": NaN}', '{"tol": 1e999}', '{"eps_psd": Infinity}'):
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
