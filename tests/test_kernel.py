import numpy as np
import pytest

from imputed_ridge import (
    Dataset,
    LiftedTensor,
    build_km,
    build_kmn,
    corrupt_independent,
    lift,
    range_basis,
    relaxed_core,
)
from imputed_ridge.kernel import _basis, _block_rows, quad_factors, relaxed_apply
from imputed_ridge.solver import _Rows
from tests.conftest import random_corrupted
from tests.master_reference import assert_rows_match, flat_row


def random_lifted(rng, d, scale=0.5):
    slices = rng.standard_normal((d, d, d)) * scale
    slices = 0.5 * (slices + slices.transpose(0, 2, 1))
    norm = float(np.sqrt((slices**2).sum()))
    return LiftedTensor(slices, norm + 1e-9)


def test_lift_outer_products():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    N = lift(M)
    np.testing.assert_allclose(N.slices[0], np.outer([1.0, 3.0], [1.0, 3.0]))
    np.testing.assert_allclose(N.slices[1], np.outer([2.0, 4.0], [2.0, 4.0]))
    assert N.gamma2 == pytest.approx(np.linalg.norm(M) ** 2)


def test_lift_consistency(rng):
    """The lifted kernel at N = lift(M) equals the exact kernel."""
    for _ in range(20):
        m = int(rng.integers(3, 15))
        d = int(rng.integers(2, 6))
        ds = random_corrupted(rng, m, d)
        M = rng.standard_normal((d, d))
        exact = build_km(ds, M)
        relaxed = build_kmn(ds, M, lift(M))
        np.testing.assert_allclose(relaxed, exact, atol=1e-9)


def test_relaxation_gap_is_schur_complement_sum(rng):
    """K(M, N) - K_exact(M) = sum_k D_k X (N_k - M_k M_k') X' D_k.

    D_k = diag(Zb[:, k]) and M_k is column k of M, so the relaxed
    kernel is PSD wherever every N_k - M_k M_k' is, whatever the data.
    """
    for _ in range(20):
        m = int(rng.integers(3, 15))
        d = int(rng.integers(2, 6))
        ds = random_corrupted(rng, m, d)
        M, N = rng.standard_normal((d, d)), random_lifted(rng, d)
        Zb = 1.0 - ds.Z
        DX = [Zb[:, [k]] * ds.X for k in range(d)]
        want = sum(DX[k] @ (N.slices[k] - np.outer(M[:, k], M[:, k])) @ DX[k].T
                   for k in range(d))
        got = build_kmn(ds, M, N) - build_km(ds, M)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


def test_kernel_affine_in_m_and_n(rng):
    """K(M, N) - K(M, 0) - K(0, N) + K(0, 0) vanishes."""
    ds = random_corrupted(rng, 10, 3)
    d = 3
    M = rng.standard_normal((d, d))
    N = random_lifted(rng, d)
    Z0 = LiftedTensor.zeros(d)
    M0 = np.zeros((d, d))
    lhs = (
        build_kmn(ds, M, N)
        - build_kmn(ds, M, Z0)
        - build_kmn(ds, M0, N)
        + build_kmn(ds, M0, Z0)
    )
    np.testing.assert_allclose(lhs, 0.0, atol=1e-10)


def test_build_kmn_matches_entry_formula(rng):
    """Each entry of build_kmn against the module docstring's K[i, j]."""
    d = 3
    # every feature is masked in some row, and rows mask 0, 1 or 2 features
    Z = np.array([[1, 1, 1], [0, 1, 1], [1, 0, 1], [1, 1, 0], [0, 0, 1], [1, 0, 0]], float)
    ds = Dataset(rng.random((6, d)) * Z, Z, np.zeros(6))
    M, N = rng.standard_normal((d, d)), random_lifted(rng, d)
    K = build_kmn(ds, M, N)
    X, Zb = ds.X, 1.0 - ds.Z
    for i in range(ds.m):
        for j in range(ds.m):
            want = (
                X[i] @ X[j]
                + X[i] @ M @ np.diag(Zb[i]) @ X[j]
                + X[i] @ np.diag(Zb[j]) @ M.T @ X[j]
                + sum(Zb[i, k] * Zb[j, k] * (X[i] @ N.slices[k] @ X[j]) for k in range(d))
            )
            assert K[i, j] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_relaxed_apply_is_cross_block_of_core(rng):
    """K(test, train) alpha equals the cross block of F S F' on the stacked rows.

    Test rows mask the columns no training row masks, and M has nonzero
    entries in those columns, so the M term the training side never
    activates is exercised.  The slices are not symmetric: both forms
    use their symmetric part.
    """
    for _ in range(50):
        m, n = int(rng.integers(3, 12)), int(rng.integers(1, 8))
        d = int(rng.integers(3, 6))
        train = random_corrupted(rng, m, d, observed=[0, 1])
        Z0 = random_corrupted(rng, n, d, beta=0.9).Z
        Z0[0, :2] = 0.0
        X0 = rng.random((n, d)) * Z0
        M, N = rng.standard_normal((d, d)), rng.standard_normal((d, d, d))
        alpha = rng.standard_normal(m)
        got = relaxed_apply(train.X, 1.0 - train.Z, M, N, alpha, X0, Z0)

        X = np.concatenate([train.X, X0])
        Zb = 1.0 - np.concatenate([train.Z, Z0])
        active = np.flatnonzero(Zb.any(axis=0))
        K = relaxed_core(_basis(X, Zb, active), M, N[active], active)
        want = K[m:, :m] @ alpha
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


def test_relaxed_apply_block_boundaries(rng):
    """Row counts around the block size give the cross block of the core.

    relaxed_apply walks X0 in blocks of _block_rows(d) rows, so a batch
    one row short of a block, exactly one, one over and two plus a
    partial one must all match the whole-matrix reference, and an empty
    batch gives an empty float64 vector.
    """
    m = 7
    for d in (1, 3, 16):
        B = _block_rows(d)
        train = random_corrupted(rng, m, d)
        M, N = rng.standard_normal((d, d)), rng.standard_normal((d, d, d))
        alpha = rng.standard_normal(m)
        for n in (0, 1, B - 1, B, B + 1, 2 * B + 3):
            test = random_corrupted(rng, n, d, beta=0.7)
            got = relaxed_apply(train.X, 1.0 - train.Z, M, N, alpha, test.X, test.Z)
            assert got.shape == (n,) and got.dtype == np.float64
            if n == 0:
                continue
            # the core's cross block, 256 test rows at a time stacked
            # under the training rows, so no n x n matrix is formed
            X = np.concatenate([train.X, test.X])
            Zb = 1.0 - np.concatenate([train.Z, test.Z])
            active = np.flatnonzero(Zb.any(axis=0))
            F = _basis(X, Zb, active)
            want = np.empty(n)
            for i in range(0, n, 256):
                rows = np.r_[0:m, m + i : m + min(n, i + 256)]
                K = relaxed_core(F[rows], M, N[active], active)
                want[i : i + 256] = K[m:, :m] @ alpha
            np.testing.assert_allclose(
                got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max())
            )


def test_kernel_zero_point_is_gram(rng):
    ds = random_corrupted(rng, 8, 3)
    K = build_kmn(ds, np.zeros((3, 3)), LiftedTensor.zeros(3))
    np.testing.assert_allclose(K, ds.X @ ds.X.T, atol=1e-12)


def test_quad_factors_reproduce_quadratic(rng):
    for _ in range(10):
        m = int(rng.integers(4, 12))
        d = int(rng.integers(2, 5))
        ds = random_corrupted(rng, m, d)
        a = rng.standard_normal(m)
        M = rng.standard_normal((d, d))
        N = random_lifted(rng, d)
        const, s, V = quad_factors(ds.X, 1.0 - ds.Z, a)
        val = const
        for k in range(d):
            val += 2.0 * s[k] * (M[:, k] @ V[:, k])
            val += V[:, k] @ N.slices[k] @ V[:, k]
        direct = a @ build_kmn(ds, M, N) @ a
        assert val == pytest.approx(direct, abs=1e-9 * max(1.0, abs(direct)))


def test_gradient_matches_finite_differences(rng):
    """Central differences on alpha' K alpha, entry by entry.

    The analytic side is the (s, V) form the master step uses:
    quad_factors' pair on the active features gives the gradient
    2 s_k V[:, k] in M[:, k] and V[:, k] V[:, k]' in N_k (flat_row
    builds it here).  Columns of M and slices of N for features with no
    masked entry do not enter K at all.  The Grams solver._Rows keeps
    for these rows, and the iterate it rebuilds, must be those of
    exactly these rows.
    """
    h = 1e-6
    for _ in range(10):
        m = int(rng.integers(4, 10))
        d = int(rng.integers(2, 4))
        ds = random_corrupted(rng, m, d, observed=[d - 1])
        Zb = 1.0 - ds.Z
        active = np.flatnonzero(Zb.any(axis=0))
        inactive = np.flatnonzero(~Zb.any(axis=0))
        alphas = rng.standard_normal((3, m))
        rows = _Rows(d, active.size)
        flats = []
        for alpha in alphas:
            _, s, V = quad_factors(ds.X, Zb, alpha)
            rows.add(0.0, s[active], V[:, active], cut=False)
            flats.append(flat_row(s[active], V[:, active]))
        alpha, row = alphas[0], flats[0]

        def f(M, slices):
            N = LiftedTensor(slices, float(np.sqrt((slices**2).sum())) + 1e-9)
            return float(alpha @ build_kmn(ds, M, N) @ alpha)

        M0 = rng.standard_normal((d, d))
        S0 = rng.standard_normal((d, d, d))
        fd_M = np.zeros((d, d))
        for i in range(d):
            for j in range(d):
                Mp, Mm = M0.copy(), M0.copy()
                Mp[i, j] += h
                Mm[i, j] -= h
                fd_M[i, j] = (f(Mp, S0) - f(Mm, S0)) / (2 * h)
        fd_N = np.zeros((d, d, d))
        for k in range(d):
            for i in range(d):
                for j in range(d):
                    Sp, Sm = S0.copy(), S0.copy()
                    Sp[k, i, j] += h
                    Sm[k, i, j] -= h
                    fd_N[k, i, j] = (f(M0, Sp) - f(M0, Sm)) / (2 * h)
        assert inactive.size >= 1
        np.testing.assert_array_equal(fd_M[:, inactive], 0.0)
        np.testing.assert_array_equal(fd_N[inactive], 0.0)
        dM = d * active.size
        for fd, an in ((fd_M[:, active].ravel(), row[:dM]),
                       (fd_N[active].ravel(), row[dM:])):
            rel = np.linalg.norm(fd - an) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-4
        assert_rows_match(rows, flats, dM, rng)


def test_min_eig_low_rank_psd_reports_zero(rng):
    # rank-deficient PSD matrix B B' with the factors taken by
    # range_basis from the raw factor B (no active columns): the core
    # is R R' and the nullspace supplies an exact zero
    B = rng.standard_normal((30, 4))
    Q, R = range_basis(B, np.zeros_like(B), [])
    assert Q.shape == (30, 4) and R.shape == (4, 4)
    np.testing.assert_allclose(Q @ R, B, atol=1e-12)
    T = relaxed_core(R, np.zeros((4, 4)), np.zeros((0, 4, 4)), [])
    np.testing.assert_allclose(Q @ T @ Q.T, B @ B.T, atol=1e-10)
    # the core is PSD and the kernel vanishes on the complement of span Q,
    # which gives B B' its 26 zero eigenvalues
    assert np.linalg.eigvalsh(T)[0] >= 0.0
    np.testing.assert_allclose((np.eye(30) - Q @ Q.T) @ (B @ B.T), 0.0, atol=1e-10)


def test_range_basis_holds_relaxed_kernel(rng):
    # 30 rows leave a complement to span B; the 4-row mask with one
    # missing entry per feature makes span B all of R^4
    Z4 = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    X4 = rng.random((4, 3))
    for ds in (random_corrupted(rng, 30, 3), Dataset(X4 * Z4, Z4, np.zeros(4))):
        m = ds.m
        Zb = 1.0 - ds.Z
        active = np.flatnonzero(Zb.any(axis=0))
        Q, R = range_basis(ds.X, Zb, active)
        np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-12)
        B = np.concatenate([ds.X] + [Zb[:, [k]] * ds.X for k in active], axis=1)
        np.testing.assert_allclose(Q @ R, B, atol=1e-12)
        M, N = rng.standard_normal((3, 3)), random_lifted(rng, 3)
        K = build_kmn(ds, M, N)
        P = Q @ Q.T
        np.testing.assert_allclose(P @ K @ P, K, atol=1e-9 * np.abs(K).max())
        T = relaxed_core(R, M, N.slices[active], active)
        np.testing.assert_allclose(Q @ T @ Q.T, K, atol=1e-12 * np.abs(K).max())
        # K's spectrum is T's plus a zero for each dimension outside span Q
        r = Q.shape[1]
        assert (r == m) == (m == 4)
        want = np.sort(np.concatenate([np.linalg.eigvalsh(T), np.zeros(m - r)]))
        np.testing.assert_allclose(np.linalg.eigvalsh(K), want, atol=1e-9 * np.abs(K).max())


def test_range_basis_duplicate_blocks(rng):
    # feature 0 is missing in every row, so its block Zb[:, 0] * X is X
    # itself: B repeats d columns, and the basis holds its range whether
    # or not r comes out at the rank
    m, d = 30, 4
    X = rng.random((m, d))
    Z = corrupt_independent(X, 0.6, 7)
    Z[:, 0] = 0.0
    ds = Dataset(X * Z, Z, rng.uniform(-1.0, 1.0, m))
    Zb = 1.0 - ds.Z
    active = np.flatnonzero(Zb.any(axis=0))
    B = _basis(ds.X, Zb, active)
    np.testing.assert_array_equal(B[:, d : 2 * d], ds.X)
    assert np.linalg.matrix_rank(B) < B.shape[1] - d  # beyond the zero columns
    Q, R = range_basis(ds.X, Zb, active)
    assert Q.shape[1] <= B.shape[1] and R.shape == (Q.shape[1], B.shape[1])
    np.testing.assert_allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-12)
    np.testing.assert_allclose(Q @ R, B, atol=1e-12)
    M, N = rng.standard_normal((d, d)), random_lifted(rng, d)
    K = build_kmn(ds, M, N)
    T = relaxed_core(R, M, N.slices[active], active)
    np.testing.assert_allclose(Q @ T @ Q.T, K, atol=1e-12 * np.abs(K).max())


def test_lifted_tensor_budget():
    with pytest.raises(ValueError):
        LiftedTensor(np.ones((2, 2, 2)), gamma2=1.0)
    t = LiftedTensor(0.5 * np.ones((2, 2, 2)), gamma2=2.0)
    assert t.norm == pytest.approx(np.sqrt(2.0))
