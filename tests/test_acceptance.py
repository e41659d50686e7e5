"""Acceptance gate: one test per release criterion, run with -v for a
pass/fail line apiece.

Criteria 1 through 6 are properties of the solver and the theory module
and always run.  Criteria 7 through 10 reproduce published benchmark
orderings on real datasets; they carry the `slow` marker and skip with
preparation instructions when a dataset is absent.  For those, the hard
assertions are orderings and margins only.  Absolute RMSE levels are
checked against soft bands and reported as warnings when off, never as
failures: the reference implementation's solver and seeds are not
available, so exact levels are not reproducible in principle.
"""

import os
import pathlib
import time
import warnings

import numpy as np
import pytest

from imputed_ridge.bench import ExperimentSpec, run_experiment, run_onevsall
from imputed_ridge.corruption import (
    CorruptionKind,
    CorruptionSpec,
    corrupt_independent,
)
from imputed_ridge.dataset import Dataset
from imputed_ridge.kernel import LiftedTensor, build_km, build_kmn, lift, quad_factors
from imputed_ridge.solver import Hyperparams, SolverConfig, predict_batch, solve_irr
from imputed_ridge.theory import BoundInputs, empirical_rademacher, rademacher_bound

from conftest import flat_row, random_corrupted


def _data_file(name):
    root = os.environ.get("IRR_DATA_DIR")
    if root is None:
        root = pathlib.Path(__file__).resolve().parent.parent / "data"
    return pathlib.Path(root) / name


def _require(name, recipe):
    path = _data_file(name)
    if not path.exists():
        pytest.skip(f"{path} not found; to prepare it: {recipe}")
    return str(path)


def _soft_band(label, value, center, width):
    """Warn (never fail) when a reproduced level leaves its band."""
    if abs(value - center) > width:
        warnings.warn(
            f"{label}: got {value:.4f}, outside {center}±{width}"
            " (reported, not failed)",
            stacklevel=2,
        )


# -- 1 ---------------------------------------------------------------------


def test_criterion_01_relaxation_soundness():
    """Solver objective never exceeds the exact objective of any feasible map.

    100 random small instances; for each, 200 maps drawn from the gamma
    ball are evaluated exactly and must all sit above the solver's
    reported optimum (slack >= -1e-6).  Budget: 2 minutes.
    """
    rng = np.random.default_rng(123)
    cfg = SolverConfig(tol=1e-6, max_outer=60)
    t0 = time.perf_counter()
    worst = np.inf
    for _ in range(100):
        m = int(rng.integers(5, 13))
        d = int(rng.integers(2, 5))
        X = rng.random((m, d))
        y = rng.uniform(-1.0, 1.0, m)
        Z = corrupt_independent(X, float(rng.uniform(0.3, 0.9)), int(rng.integers(1e6)))
        ds = Dataset(X * Z, Z, y)
        lam = float(2.0 ** rng.uniform(-6, 2))
        gam = float(2.0 ** rng.uniform(-3, 1))
        sol = solve_irr(ds, Hyperparams(lam=lam, gamma=gam), cfg)
        eye = m * lam * np.eye(m)
        for _ in range(200):
            G = rng.standard_normal((d, d))
            r = gam * rng.random() ** (1.0 / (d * d))
            Mr = G * (r / np.linalg.norm(G))
            val = float(ds.y @ np.linalg.solve(build_km(ds, Mr) + eye, ds.y))
            worst = min(worst, val - sol.diagnostics.objective)
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: worst slack {worst:.3e}, {elapsed:.1f}s")
    assert worst >= -1e-6
    assert elapsed < 120.0


# -- 2 ---------------------------------------------------------------------


def test_criterion_02_lift_consistency():
    """Relaxed kernel at the lift of M equals the exact kernel at M.

    Entrywise agreement within 1e-9 on 100 random instances, under 10 s.
    """
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(4, 16))
        d = int(rng.integers(2, 7))
        ds = random_corrupted(rng, m, d, beta=float(rng.uniform(0.3, 0.9)))
        M = rng.standard_normal((d, d)) * float(rng.uniform(0.1, 2.0))
        diff = np.abs(build_kmn(ds, M, lift(M)) - build_km(ds, M)).max()
        worst = max(worst, float(diff))
    elapsed = time.perf_counter() - t0
    print(f"criterion 2: worst entrywise diff {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


# -- 3 ---------------------------------------------------------------------


def test_criterion_03_gradient_check():
    """Analytic gradient of a' K a matches central finite differences.

    Relative error below 1e-4 on 50 random instances, under 30 s.  The
    map is affine, so the gradient is checked at a random base point.
    The analytic side is the (s, V) form the solver's line search and
    linear step use: quad_factors' pair on the active features, with
    gradient 2 s_k V[:, k] in M[:, k] and V[:, k] V[:, k]' in N_k
    (flat_row builds it here).  Columns of M and slices of N for
    features with no masked entry must have zero differences.
    """
    rng = np.random.default_rng(11)
    h = 1e-6
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(4, 10))
        d = int(rng.integers(2, 5))
        ds = random_corrupted(rng, m, d, beta=0.7, observed=[0])
        Zb = 1.0 - ds.Z
        active = np.flatnonzero(Zb.any(axis=0))
        inactive = np.flatnonzero(~Zb.any(axis=0))
        alpha = rng.standard_normal(m)
        _, s, V = quad_factors(ds.X, Zb, alpha)
        row = flat_row(s[active], V[:, active])

        M0 = rng.standard_normal((d, d)) * 0.4
        N0 = rng.standard_normal((d, d, d)) * 0.4
        N0 = (N0 + N0.transpose(0, 2, 1)) / 2.0

        def phi(M, slices):
            K = build_kmn(ds, M, LiftedTensor(slices, 1e6))
            return float(alpha @ K @ alpha)

        fd_M = np.zeros((d, d))
        for i in range(d):
            for k in range(d):
                Mp, Mm = M0.copy(), M0.copy()
                Mp[i, k] += h
                Mm[i, k] -= h
                fd_M[i, k] = (phi(Mp, N0) - phi(Mm, N0)) / (2 * h)
        fd_N = np.zeros((d, d, d))
        for k in range(d):
            for i in range(d):
                for j in range(d):
                    Np, Nm = N0.copy(), N0.copy()
                    Np[k, i, j] += h
                    Nm[k, i, j] -= h
                    fd_N[k, i, j] = (phi(M0, Np) - phi(M0, Nm)) / (2 * h)

        assert inactive.size >= 1
        assert np.all(fd_M[:, inactive] == 0.0) and np.all(fd_N[inactive] == 0.0)
        fd = np.concatenate([fd_M[:, active].ravel(), fd_N[active].ravel()])
        rel = np.linalg.norm(fd - row) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, float(rel))
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: worst relative error {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


# -- 4 ---------------------------------------------------------------------


def test_criterion_04_schur_epigraph():
    """Epigraph PSD test agrees with t >= y'(K + m lam I)^{-1} y.

    100 random PSD kernels; for each, points just above and just below
    the threshold must classify correctly at tolerance 1e-8.
    """
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = int(rng.integers(3, 13))
        A = rng.standard_normal((m, m))
        S = A @ A.T + m * float(rng.uniform(0.1, 2.0)) * np.eye(m)
        y = rng.uniform(-1.0, 1.0, m)
        t_star = float(y @ np.linalg.solve(S, y))
        delta = 1e-3 * max(1.0, t_star)

        def block(t):
            top = np.concatenate([S, y[:, None]], axis=1)
            bot = np.concatenate([y[None, :], [[t]]], axis=1)
            return np.concatenate([top, bot], axis=0)

        above = float(np.linalg.eigvalsh(block(t_star + delta)).min())
        below = float(np.linalg.eigvalsh(block(t_star - delta)).min())
        assert above >= -1e-8
        assert below < -1e-8


# -- 5 ---------------------------------------------------------------------


def test_criterion_05_ridge_collapse():
    """Fully observed data or gamma = 0 reduce the solver to plain ridge.

    Predictions agree with the closed-form baseline within 1e-6 on ten
    instances of each degenerate case.
    """
    rng = np.random.default_rng(29)
    for _ in range(10):
        m, d = int(rng.integers(8, 20)), int(rng.integers(2, 6))
        X = rng.random((m, d))
        y = rng.uniform(-1.0, 1.0, m)
        lam = float(2.0 ** rng.uniform(-4, 2))
        ds = Dataset(X, np.ones_like(X), y)
        sol = solve_irr(ds, Hyperparams(lam=lam, gamma=1.0))
        alpha = np.linalg.solve(X @ X.T + m * lam * np.eye(m), y)
        Xt = rng.random((8, d))
        test = Dataset(Xt, np.ones_like(Xt), np.zeros(8))
        np.testing.assert_allclose(
            predict_batch(sol, test), Xt @ X.T @ alpha, atol=1e-6
        )

    for _ in range(10):
        m, d = int(rng.integers(8, 20)), int(rng.integers(2, 6))
        ds = random_corrupted(rng, m, d, beta=0.7)
        lam = float(2.0 ** rng.uniform(-4, 2))
        sol = solve_irr(ds, Hyperparams(lam=lam, gamma=0.0))
        alpha = np.linalg.solve(ds.X @ ds.X.T + m * lam * np.eye(m), ds.y)
        Xt = rng.random((8, d))
        Zt = corrupt_independent(Xt, 0.7, int(rng.integers(1e6)))
        test = Dataset(Xt * Zt, Zt, np.zeros(8))
        np.testing.assert_allclose(
            predict_batch(sol, test), test.X @ ds.X.T @ alpha, atol=1e-6
        )


# -- 6 ---------------------------------------------------------------------


def test_criterion_06_bound_dominance():
    """Empirical Rademacher estimates never exceed the closed-form bound.

    Zero violations over 50 random configurations, under 2 minutes.
    """
    rng = np.random.default_rng(37)
    t0 = time.perf_counter()
    worst = -np.inf
    for j in range(50):
        m = int(rng.integers(10, 61))
        d = int(rng.integers(2, 6))
        ds = random_corrupted(rng, m, d, beta=float(rng.uniform(0.3, 0.9)))
        hp = Hyperparams(
            lam=float(2.0 ** rng.uniform(-4, 2)), gamma=float(2.0 ** rng.uniform(-3, 1))
        )
        b = BoundInputs.from_dataset(ds, hp)
        emp = empirical_rademacher(ds, hp, b.B, seed=j)
        worst = max(worst, emp - rademacher_bound(b))
        assert emp <= rademacher_bound(b)
    elapsed = time.perf_counter() - t0
    print(f"criterion 6: worst margin {worst:.3e}, {elapsed:.1f}s")
    assert elapsed < 120.0


# -- 7..10 -----------------------------------------------------------------

ABALONE_RECIPE = (
    "download abalone.data from the UCI repository, drop the first"
    " (categorical sex) column, keep the 7 numeric measurements with the"
    " ring count as the final label column, and save it comma-separated"
    " as data/abalone.csv (no header)"
)

THYROID_RECIPE = (
    "build a numeric table from the UCI thyroid 'sick' file: keep the"
    " continuous measurement columns (age, TSH, T3, TT4, T4U, FTI) with"
    " their native '?' tokens, map the class to 0/1 as the final label"
    " column, and save it comma-separated as data/thyroid.csv (no header)"
)


@pytest.mark.slow
def test_criterion_07_abalone_independent():
    """Independent corruption at observed fraction 0.62 on abalone.

    Hard: IRR mean RMSE <= mean-imputation + 0.003, and IRR beats
    zero-imputation in every trial.  Soft (warn only): IRR near 0.183,
    uncorrupted ridge near 0.158.
    """
    path = _require("abalone.csv", ABALONE_RECIPE)
    spec = ExperimentSpec(
        dataset_path=path,
        corruption=CorruptionSpec(CorruptionKind.INDEPENDENT, beta=0.5, seed=0),
        target_fraction=0.62,
        train_size=1000,
        trials=5,
    )
    t0 = time.perf_counter()
    report = run_experiment(spec)
    print(f"criterion 7: {time.perf_counter() - t0:.0f}s")
    for name, res in report.methods.items():
        print(f"  {name}: {res.rmse_mean:.4f}±{res.rmse_std:.4f}")
    irr = report.methods["irr"]
    assert irr.rmse_mean <= report.methods["mean"].rmse_mean + 0.003
    zero = report.methods["zero"]
    assert all(a < b for a, b in zip(irr.per_trial, zero.per_trial))
    _soft_band("abalone irr", irr.rmse_mean, 0.183, 0.02)
    _soft_band("abalone nocorr", report.methods["nocorr"].rmse_mean, 0.158, 0.01)


@pytest.mark.slow
def test_criterion_08_abalone_dependent():
    """Value-dependent corruption at observed fraction 0.61 on abalone.

    Hard: IRR mean RMSE beats mean-imputation by at least 0.005.
    """
    path = _require("abalone.csv", ABALONE_RECIPE)
    spec = ExperimentSpec(
        dataset_path=path,
        corruption=CorruptionSpec(CorruptionKind.DEPENDENT, beta=0.5, seed=0),
        target_fraction=0.61,
        train_size=1000,
        trials=5,
    )
    t0 = time.perf_counter()
    report = run_experiment(spec)
    print(f"criterion 8: {time.perf_counter() - t0:.0f}s")
    for name, res in report.methods.items():
        print(f"  {name}: {res.rmse_mean:.4f}±{res.rmse_std:.4f}")
    irr, mean = report.methods["irr"], report.methods["mean"]
    assert mean.rmse_mean - irr.rmse_mean >= 0.005
    _soft_band("abalone dependent irr", irr.rmse_mean, 0.167, 0.02)
    _soft_band("abalone dependent mean", mean.rmse_mean, 0.180, 0.02)


@pytest.mark.slow
def test_criterion_09_thyroid_native():
    """Native missingness: IRR beats both mean and regression imputation."""
    path = _require("thyroid.csv", THYROID_RECIPE)
    spec = ExperimentSpec(
        dataset_path=path,
        corruption="native",
        train_size=1000,
        trials=5,
        methods=("zero", "mean", "ind", "irr"),
    )
    t0 = time.perf_counter()
    report = run_experiment(spec)
    print(f"criterion 9: {time.perf_counter() - t0:.0f}s")
    for name, res in report.methods.items():
        print(f"  {name}: {res.rmse_mean:.4f}±{res.rmse_std:.4f}")
    irr = report.methods["irr"].rmse_mean
    assert irr < report.methods["mean"].rmse_mean
    assert irr < report.methods["ind"].rmse_mean
    _soft_band("thyroid irr", irr, 0.521, 0.02)
    _soft_band("thyroid mean", report.methods["mean"].rmse_mean, 0.528, 0.02)
    _soft_band("thyroid ind", report.methods["ind"].rmse_mean, 0.531, 0.02)


@pytest.mark.slow
def test_criterion_10_digits_column_ordering(tmp_path):
    """Column-block corruption, 3-vs-all digits: IRR beats zero-fill by 0.01.

    Runs on data/optdigits.csv when present; otherwise the bundled
    scikit-learn copy of the same handwritten-digit data is written to a
    CSV.  Budget trims, per the runtime allowance: two trials, a
    reduced exponent grid shared by both methods, and tuning tolerance
    3e-3 (the asserted margin is an order of magnitude larger).
    """
    path = _data_file("optdigits.csv")
    if path.exists():
        path = str(path)
    else:
        sklearn_datasets = pytest.importorskip(
            "sklearn.datasets",
            reason="optdigits.csv not found and scikit-learn unavailable;"
            " save the digit bitmaps as 64 comma-separated integer columns"
            " plus the digit label as data/optdigits.csv (no header)",
        )
        dig = sklearn_datasets.load_digits()
        path = tmp_path / "optdigits.csv"
        with open(path, "w") as fh:
            for row, label in zip(dig.data, dig.target):
                cells = ",".join(str(int(v)) for v in row)
                fh.write(f"{cells},{int(label)}\n")
        path = str(path)
    spec = ExperimentSpec(
        dataset_path=path,
        corruption=CorruptionSpec(
            CorruptionKind.COLUMN_BLOCK, block_size=8, eligible_blocks=(2, 3, 4), seed=0
        ),
        train_size=1000,
        trials=2,
        methods=("zero", "irr"),
        grid=tuple(range(-8, 7, 2)),
        solver=SolverConfig(tol=3e-3, max_outer=60),
    )
    t0 = time.perf_counter()
    report = run_onevsall(spec, 3)
    print(f"criterion 10: {time.perf_counter() - t0:.0f}s")
    for name, res in report.methods.items():
        print(f"  {name}: {res.rmse_mean:.4f}±{res.rmse_std:.4f}")
    irr, zero = report.methods["irr"], report.methods["zero"]
    assert zero.rmse_mean - irr.rmse_mean >= 0.01
    _soft_band("digits irr", irr.rmse_mean, 0.426, 0.02)
    _soft_band("digits zero", zero.rmse_mean, 0.450, 0.02)
