import numpy as np
import pytest

from imputed_ridge import Dataset, LiftedTensor, corrupt_independent, impute_dataset
from imputed_ridge.kernel import (
    RelaxedRidge,
    _block_rows,
    quad_factors,
    quad_value,
    relaxed_apply,
    schur_factor,
    schur_l,
    schur_lt,
)
from tests.conftest import flat_row, random_corrupted
from tests.reference import build_km, build_kmn, lift


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
    Z0 = LiftedTensor(np.zeros((d, d, d)), 0.0)
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


def test_relaxed_apply_is_cross_block_of_kmn(rng):
    """K(test, train) alpha equals the cross block of build_kmn on the stacked rows.

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

        rows = Dataset(np.concatenate([train.X, X0]), np.concatenate([train.Z, Z0]),
                       np.zeros(m + n))
        want = build_kmn(rows, M, LiftedTensor(N, 1e9))[m:, :m] @ alpha
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


def test_relaxed_apply_block_boundaries(rng):
    """Row counts around the block size give the cross block of build_kmn.

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
            # build_kmn's cross block, 256 test rows at a time stacked
            # under the training rows, so no n x n matrix is formed
            want = np.empty(n)
            for i in range(0, n, 256):
                j = min(n, i + 256)
                rows = Dataset(np.concatenate([train.X, test.X[i:j]]),
                               np.concatenate([train.Z, test.Z[i:j]]), np.zeros(m + j - i))
                K = build_kmn(rows, M, LiftedTensor(N, 1e9))
                want[i:j] = K[m:, :m] @ alpha
            np.testing.assert_allclose(
                got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max())
            )


def test_kernel_zero_point_is_gram(rng):
    ds = random_corrupted(rng, 8, 3)
    K = build_kmn(ds, np.zeros((3, 3)), LiftedTensor(np.zeros((3, 3, 3)), 0.0))
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
        quad = const + quad_value(s, V, M, N.slices)
        assert quad == pytest.approx(direct, abs=1e-9 * max(1.0, abs(direct)))


def test_gradient_matches_finite_differences(rng):
    """Central differences on alpha' K alpha, entry by entry.

    The analytic side is the (s, V) form the solver's line search and
    linear step use: quad_factors' pair on the active features gives the
    gradient 2 s_k V[:, k] in M[:, k] and V[:, k] V[:, k]' in N_k
    (flat_row builds it here).  Columns of M and slices of N for
    features with no masked entry do not enter K at all.
    """
    h = 1e-6
    for _ in range(10):
        m = int(rng.integers(4, 10))
        d = int(rng.integers(2, 4))
        ds = random_corrupted(rng, m, d, observed=[d - 1])
        Zb = 1.0 - ds.Z
        active = np.flatnonzero(Zb.any(axis=0))
        inactive = np.flatnonzero(~Zb.any(axis=0))
        alpha = rng.standard_normal(m)
        _, s, V = quad_factors(ds.X, Zb, alpha)
        row = flat_row(s[active], V[:, active])

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


def _point_of_c(rng, d, active, rank):
    """(M, N) with N_k = M_k M_k' + R_k R_k' on the active features.

    R_k is d x d with its last rank columns random, the rest zero, so
    rank 0 is the exact lift, where N_k - M_k M_k' is 0 bit for bit.
    """
    M = rng.standard_normal((d, d))
    roots = rng.standard_normal((active.size, d, d))
    roots[:, :, : d - rank] = 0.0
    N = np.zeros((d, d, d))
    N[active] = np.einsum("rj,sj->jrs", M[:, active], M[:, active])
    N[active] += roots @ roots.transpose(0, 2, 1)
    return M, LiftedTensor(N, float(np.linalg.norm(N)) + 1.0)


def _dense_l(F, active):
    """The factor L of schur_factor as a matrix: L times the identity."""
    a, d, w = F.shape
    return schur_l(F, active, np.eye(d + a * (w - 1)))


def test_schur_factor_holds_relaxed_kernel(rng):
    """B L L' B' is the relaxed kernel at points of C, B L starts with
    the imputed rows, and schur_lt multiplies by L'.

    Five data shapes: 30 rows, a 4-row mask with one missing entry per
    feature, feature 0 missing in every row (its block Zb[:, 0] * X is X
    itself, so B repeats d columns and B'B is singular), X = 0, and
    nothing missing (B = X, L = I, K = X X' of rank 4 in 30 rows).
    The B that RelaxedRidge buys equals the block list bit for bit, and
    its Phi = B L built from X and the masks matches B L.  N_k - M_k M_k'
    has rank 0 (the exact lift), 1 or d, and L keeps exactly that many
    root columns per block.
    """
    Z4 = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    Zdup = corrupt_independent(rng.random((30, 4)), 0.6, 7)
    Zdup[:, 0] = 0.0
    Z0 = np.ones((12, 3))
    Z0[::3, 0] = Z0[1::4, 2] = 0.0
    cases = [
        random_corrupted(rng, 30, 3),
        Dataset(rng.random((4, 3)) * Z4, Z4, np.zeros(4)),
        Dataset(rng.random((30, 4)) * Zdup, Zdup, np.zeros(30)),
        Dataset(np.zeros((12, 3)), Z0, np.zeros(12)),
        Dataset(rng.random((30, 4)), np.ones((30, 4)), np.zeros(30)),
    ]
    for ds in cases:
        d = ds.d
        Zb = 1.0 - ds.Z
        active = np.flatnonzero(Zb.any(axis=0))
        obj = RelaxedRidge(ds.X, Zb, ds.y, 1.0)
        obj._gram()
        B = obj.B
        blocks = [ds.X] + [Zb[:, [k]] * ds.X for k in active]
        np.testing.assert_array_equal(B, np.concatenate(blocks, axis=1))
        for rank in (0, 1, d):
            M, N = _point_of_c(rng, d, active, rank)
            F = schur_factor(M[:, active], N.slices[active])
            L = _dense_l(F, active)
            assert L.shape == (B.shape[1], d + rank * active.size)
            Y = rng.standard_normal((B.shape[1], 3))
            np.testing.assert_allclose(schur_lt(F, active, Y), L.T @ Y, rtol=0, atol=1e-12)
            Phi = B @ L
            np.testing.assert_allclose(obj._phi(F), Phi, rtol=0, atol=1e-12)
            K = build_kmn(ds, M, N)
            tol = 1e-11 * max(np.abs(K).max(), 1.0)
            np.testing.assert_allclose(Phi @ Phi.T, K, rtol=0, atol=tol)
            np.testing.assert_allclose(
                Phi[:, :d], impute_dataset(M, ds.X, ds.Z), rtol=0, atol=1e-12
            )


def test_rented_and_bought_ridge_steps_agree(rng):
    """RelaxedRidge's two products give one ridge step: Phi = B L built
    from X and the masks (renting) and L'GL through G = B'B (bought, here
    by calling the private builder) agree on f, alpha, quad_factors and
    the curvature to 1e-12 relative.

    Feature 1 has nothing masked, so it is not active; N_k - M_k M_k'
    has rank 0 (the exact lift), 1 or d; the direction is random.
    """
    ds = random_corrupted(rng, 40, 4, observed=(1,))
    Zb = 1.0 - ds.Z
    active = np.flatnonzero(Zb.any(axis=0))
    assert 1 not in active and active.size == 3

    def rel(got, want):
        return np.linalg.norm(np.subtract(got, want)) / np.linalg.norm(want)

    for rank in (0, 1, ds.d):
        M, N = _point_of_c(rng, ds.d, active, rank)
        Ma, Ns = M[:, active], N.slices[active]
        Dm = rng.standard_normal(Ma.shape)
        Dn = rng.standard_normal(Ns.shape)
        Dn += Dn.transpose(0, 2, 1)
        rented, bought = (RelaxedRidge(ds.X, Zb, ds.y, 4.0) for _ in range(2))
        bought._gram()
        f, alpha, fac, quad = rented.ridge(Ma, Ns)
        f_b, alpha_b, fac_b, quad_b = bought.ridge(Ma, Ns)
        assert rented.G is None and fac[2] is not None and fac_b[2] is None
        assert f == pytest.approx(f_b, rel=1e-12, abs=0)
        for got, want in zip((alpha, *quad), (alpha_b, *quad_b)):
            assert rel(got, want) <= 1e-12, rank
        curv = rented.curvature(fac, *quad[1:], Dm, Dn)
        curv_b = bought.curvature(fac_b, *quad_b[1:], Dm, Dn)
        assert curv == pytest.approx(curv_b, rel=1e-12, abs=0)


def test_schur_factor_drops_negligible_roots(rng):
    """A root column at or below 1e-12 of the largest ||N_k||_F is zeroed,
    and leading columns that no block keeps are left out.

    N_k = M_k M_k' + U_k diag(w_k) U_k' with chosen eigenvalues w_k and
    random orthonormal U_k, so the root columns' squared norms are the
    w_k, which eigh gives in ascending order.  Eigenvalue 0 is in both
    blocks and its column is left out; block 1's 1e-12 sits below the
    threshold, about 4.5e-12 here (||N_0||_F is about 4.5), and its
    column is zeroed, while block 0 keeps its 0.25 and block 1 its
    9e-12, so both blocks keep two columns of L.
    """
    d, active = 3, np.array([0, 2])
    Ma = rng.standard_normal((d, 2))
    w = np.array([[0.0, 0.25, 4.0], [0.0, 1e-12, 9e-12]])  # 4: the largest
    U = np.linalg.qr(rng.standard_normal((2, d, d)))[0]
    Ns = np.einsum("rk,sk->krs", Ma, Ma) + (U * w[:, None, :]) @ U.transpose(0, 2, 1)
    F = schur_factor(Ma, Ns)
    assert F.shape == (2, d, 3)
    np.testing.assert_array_equal(F[1, :, 1], 0.0)
    sq = np.einsum("jsi,jsi->ji", F[:, :, 1:], F[:, :, 1:])
    np.testing.assert_allclose(sq, [[0.25, 4.0], [0.0, 9e-12]], rtol=1e-3, atol=0)
    want = np.zeros((3 * d, d + 4))
    want[:d, :d] = np.eye(d)
    want[d : 2 * d, 0] = Ma[:, 0]
    want[2 * d :, 2] = Ma[:, 1]
    want[d : 2 * d, d : d + 2] = F[0, :, 1:]
    want[2 * d :, d + 3] = F[1, :, 2]
    np.testing.assert_array_equal(_dense_l(F, active), want)


def test_schur_factor_exact_lift_has_no_root_columns():
    """At an exact lift formed as N_k = t^2 M_k M_k' against Ma = t M, every
    W_k is eigh's rounding alone; F keeps no root column (width 1), as
    the keep test's floor is relative to the scale of N.  A floor
    relative to the largest root alone kept three columns here, with
    entries up to about 3e-9."""
    rng = np.random.default_rng(5)
    d, t = 5, 0.37
    G0 = rng.standard_normal((d, d))
    M = G0 * (1.5 * rng.random() / np.linalg.norm(G0))
    F = schur_factor(t * M, t * t * np.einsum("rk,sk->krs", M, M))
    assert F.shape == (d, d, 1)
    np.testing.assert_array_equal(F[:, :, 0], (t * M).T)


def test_lifted_tensor_budget():
    with pytest.raises(ValueError):
        LiftedTensor(np.ones((2, 2, 2)), gamma2=1.0)
    t = LiftedTensor(0.5 * np.ones((2, 2, 2)), gamma2=2.0)
    assert t.norm == pytest.approx(np.sqrt(2.0))
