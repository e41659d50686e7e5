import json
import types
from dataclasses import replace

import numpy as np
import pytest

from imputed_ridge import (
    CorruptionKind,
    CorruptionSpec,
    ExperimentSpec,
    SolverConfig,
    corrupt_independent,
    load_csv,
    normalize,
    run_experiment,
    run_onevsall,
    split,
    sweep_fraction,
)
from imputed_ridge import bench
from imputed_ridge.bench import (
    canonical_methods,
    derive_seed,
    write_report_tsv,
    write_sweep_tsv,
)

SMALL_GRID = (-6, -4, -2, 0)
FAST = SolverConfig(tol=1e-2, max_outer=40)


@pytest.fixture(scope="module")
def linear_csv(tmp_path_factory):
    """Fully observed regression data with linear signal plus noise."""
    rng = np.random.default_rng(99)
    m, d = 140, 4
    X = rng.random((m, d))
    w = np.array([1.5, -2.0, 0.5, 1.0])
    y = X @ w + 0.05 * rng.standard_normal(m)
    path = tmp_path_factory.mktemp("data") / "linear.csv"
    with open(path, "w") as fh:
        for i in range(m):
            fh.write(",".join(f"{v:.8f}" for v in X[i]) + f",{y[i]:.8f}\n")
    return str(path)


@pytest.fixture(scope="module")
def native_csv(tmp_path_factory):
    rng = np.random.default_rng(5)
    m, d = 90, 3
    X = rng.random((m, d))
    y = X.sum(axis=1)
    path = tmp_path_factory.mktemp("data") / "native.csv"
    with open(path, "w") as fh:
        for i in range(m):
            cells = [f"{v:.6f}" for v in X[i]]
            if rng.random() < 0.4:
                cells[int(rng.integers(d))] = "?"
            fh.write(",".join(cells) + f",{y[i]:.6f}\n")
    return str(path)


@pytest.fixture(scope="module")
def digits_csv(tmp_path_factory):
    """Tiny multi-class stand-in: 4 features, labels 0..9 in the last column."""
    rng = np.random.default_rng(17)
    m, d = 160, 4
    X = rng.random((m, d))
    labels = rng.integers(0, 10, size=m)
    path = tmp_path_factory.mktemp("data") / "digits.csv"
    with open(path, "w") as fh:
        for i in range(m):
            fh.write(",".join(f"{v:.6f}" for v in X[i]) + f",{labels[i]}\n")
    return str(path)


def base_spec(path, **kw):
    kw.setdefault("corruption", CorruptionSpec(CorruptionKind.INDEPENDENT, beta=0.6))
    kw.setdefault("train_size", 60)
    kw.setdefault("trials", 2)
    kw.setdefault("grid", SMALL_GRID)
    kw.setdefault("solver", FAST)
    return ExperimentSpec(dataset_path=path, **kw)


def test_derive_seed_stable_and_distinct():
    a = derive_seed(0, 0, 0)
    assert a == derive_seed(0, 0, 0)
    assert len({derive_seed(0, t, p) for t in range(3) for p in range(4)}) == 12


def test_canonical_methods():
    assert canonical_methods(["independent", "IRR", "zero"]) == ("ind", "irr", "zero")
    assert canonical_methods(["zero", "zero"]) == ("zero",)
    with pytest.raises(ValueError, match="unknown method"):
        canonical_methods(["ridge"])
    with pytest.raises(ValueError):
        canonical_methods([])


def test_spec_validation(linear_csv):
    with pytest.raises(ValueError):
        base_spec(linear_csv, trials=0)
    with pytest.raises(ValueError):
        base_spec(linear_csv, grid=())
    with pytest.raises(ValueError, match="grid repeats an exponent"):
        base_spec(linear_csv, grid=(-2, -2, 0))
    with pytest.raises(ValueError):
        base_spec(linear_csv, corruption="typo")
    with pytest.raises(ValueError):
        base_spec(linear_csv, target_fraction=1.5)


def test_run_experiment_report_shape(linear_csv):
    spec = base_spec(linear_csv, target_fraction=0.7)
    report = run_experiment(spec)
    assert set(report.methods) == {"zero", "mean", "ind", "irr", "nocorr"}
    assert report.n_rows == 140 and report.n_features == 4
    assert report.beta is not None
    assert abs(report.fraction_mean - 0.7) < 0.15  # five-mask calibration noise
    for name, res in report.methods.items():
        assert len(res.per_trial) == 2
        assert np.isfinite(res.rmse_mean) and res.rmse_mean >= 0.0
        assert res.best_lambda > 0.0
        if name == "irr":
            assert res.best_gamma is not None
        else:
            assert res.best_gamma is None
    assert report.cells_scored > 0
    assert report.spec == spec
    obj = json.loads(report.to_json())
    assert obj["grid"] == {"exponents": list(SMALL_GRID), "irr_mode": "pruned"}
    assert obj["fraction_remaining"]["mean"] == pytest.approx(report.fraction_mean)


def test_run_experiment_reproducible(linear_csv):
    spec = base_spec(linear_csv, methods=("zero", "irr"), target_fraction=0.75)
    r1 = run_experiment(spec).to_obj()
    r2 = run_experiment(spec).to_obj()
    r1.pop("runtime_seconds")
    r2.pop("runtime_seconds")
    assert r1 == r2


def test_beta_zero_makes_zero_equal_nocorr(linear_csv):
    """With no deletions the corrupted folds equal the clean ones, so
    zero-imputation and the uncorrupted reference coincide."""
    spec = base_spec(
        linear_csv,
        corruption=CorruptionSpec(CorruptionKind.INDEPENDENT, beta=0.0),
        methods=("zero", "nocorr"),
    )
    report = run_experiment(spec)
    assert report.fraction_mean == 1.0
    np.testing.assert_allclose(
        report.methods["zero"].per_trial, report.methods["nocorr"].per_trial, atol=1e-12
    )


def test_ridge_baselines_match_normal_equations(linear_csv):
    """zero and nocorr against ridge refitted from the documented folds.

    Each trial's split and training/test masks come from derive_seed
    (purposes 0, 1 and 2); every grid exponent is fitted by a dense
    solve of the d x d normal equations.  The reported lambda must be
    the argmin of the mean test RMSE, and per_trial its values.
    """
    grid = tuple(range(-12, 11, 2))
    spec = base_spec(linear_csv, methods=("zero", "nocorr"), trials=3, grid=grid)
    report = run_experiment(spec)
    ds = normalize(load_csv(linear_csv))
    beta = spec.corruption.beta
    curves = {"zero": [], "nocorr": []}
    for t in range(spec.trials):
        tr, te = split(ds, spec.train_size, derive_seed(spec.master_seed, t, 0))
        Ztr = corrupt_independent(tr.X, beta, derive_seed(spec.master_seed, t, 1))
        Zte = corrupt_independent(te.X, beta, derive_seed(spec.master_seed, t, 2))
        folds = {"zero": (tr.X * Ztr, te.X * Zte), "nocorr": (tr.X, te.X)}
        for name, (Xtr, Xte) in folds.items():
            m, d = Xtr.shape
            curve = {}
            for e in grid:
                A = Xtr.T @ Xtr + m * 2.0**e * np.eye(d)
                w = np.linalg.solve(A, Xtr.T @ tr.y)
                curve[e] = float(np.sqrt(np.mean((te.y - Xte @ w) ** 2)))
            curves[name].append(curve)
    for name, per in curves.items():
        res = report.methods[name]
        best = min(grid, key=lambda e: np.mean([c[e] for c in per]))
        assert res.best_lambda == 2.0**best
        np.testing.assert_allclose(res.per_trial, [c[best] for c in per], rtol=0, atol=1e-10)


def test_native_missingness(native_csv):
    spec = base_spec(
        native_csv, corruption="native", train_size=50, methods=("zero", "mean", "nocorr")
    )
    report = run_experiment(spec)
    assert report.beta is None
    assert report.fraction_mean < 1.0
    assert "nocorr" not in report.methods
    assert any("nocorr unavailable" in n for n in report.notes)


def test_artificial_corruption_rejects_native_missing(native_csv):
    spec = base_spec(native_csv, train_size=50, methods=("zero",))
    with pytest.raises(ValueError, match="fully observed"):
        run_experiment(spec)


def test_column_corruption_ignores_target_fraction(linear_csv):
    spec = base_spec(
        linear_csv,
        corruption=CorruptionSpec(
            CorruptionKind.COLUMN_BLOCK, block_size=2, eligible_blocks=(0, 1), seed=3
        ),
        target_fraction=0.9,
        methods=("zero",),
    )
    report = run_experiment(spec)
    assert report.beta is None
    assert any("ignored" in n for n in report.notes)
    assert report.fraction_mean == pytest.approx(0.5)  # 2 of 4 features per row


def test_report_bounds_attached(linear_csv):
    spec = base_spec(linear_csv, methods=("irr",), report_bounds=True)
    report = run_experiment(spec)
    assert report.bounds is not None
    assert report.bounds["rademacher_bound"] > 0.0
    assert report.bounds["generalization_gap_delta_0.05"] > 0.0

    spec = base_spec(linear_csv, methods=("zero",), report_bounds=True)
    report = run_experiment(spec)
    assert report.bounds is None
    assert any("bounds skipped" in n for n in report.notes)


def test_sweep_fraction_rows(linear_csv):
    spec = base_spec(linear_csv, methods=("zero", "mean"))
    rows = sweep_fraction(spec, [0.9, 0.7])
    assert len(rows) == 4
    fracs = {r[0] for r in rows}
    assert fracs == {0.9, 0.7}
    for _, method, mean, std in rows:
        assert method in ("zero", "mean")
        assert np.isfinite(mean) and std >= 0.0
    with pytest.raises(ValueError):
        sweep_fraction(spec, [0.0])
    with pytest.raises(ValueError, match="at least one"):
        sweep_fraction(spec, [])


def test_sweep_fraction_loads_once(linear_csv, monkeypatch):
    """A sweep reads and normalizes the CSV once, and each fraction's rows
    are those of its own run_experiment."""
    spec = base_spec(linear_csv, methods=("zero", "irr"), trials=1)
    fractions = [0.9, 0.75, 0.6]
    want = [(f, name, res.rmse_mean, res.rmse_std)
            for f in fractions
            for name, res in run_experiment(replace(spec, target_fraction=f)).methods.items()]
    loads = []

    def counted(*args):
        loads.append(args)
        return load_csv(*args)

    monkeypatch.setattr(bench, "load_csv", counted)
    assert sweep_fraction(spec, fractions) == want
    assert len(loads) == 1
    loads.clear()
    with pytest.raises(ValueError, match="fractions"):
        sweep_fraction(spec, [0.9, 1.5])
    assert loads == []


def test_onevsall_validation(digits_csv, tmp_path):
    spec = base_spec(digits_csv, methods=("zero",))
    with pytest.raises(ValueError):
        run_onevsall(spec, 12)

    # only labels 0 and 1 present: asking for 7 must fail, as must a
    # single-class file where every row is the requested digit
    rng = np.random.default_rng(1)
    two = tmp_path / "two.csv"
    with open(two, "w") as fh:
        for i in range(30):
            fh.write(f"{rng.random():.5f},{rng.random():.5f},{i % 2}\n")
    with pytest.raises(ValueError, match="absent"):
        run_onevsall(base_spec(str(two), methods=("zero",)), 7)

    mono = tmp_path / "mono.csv"
    with open(mono, "w") as fh:
        for _ in range(30):
            fh.write(f"{rng.random():.5f},{rng.random():.5f},4\n")
    with pytest.raises(ValueError, match="every row"):
        run_onevsall(base_spec(str(mono), methods=("zero",)), 4)

    # a valid digit under any corruption but column blocks is an error,
    # not a silent switch to the digit blocks
    with pytest.raises(ValueError, match="needs column corruption, got independent"):
        run_onevsall(spec, 3)


def test_onevsall_runs_with_custom_blocks(digits_csv):
    cspec = CorruptionSpec(
        CorruptionKind.COLUMN_BLOCK, block_size=2, eligible_blocks=(1,), seed=2
    )
    spec = base_spec(
        digits_csv,
        corruption=cspec,
        methods=("zero", "irr"),
        train_size=70,
        trials=2,
    )
    report = run_onevsall(spec, 3)
    assert report.fraction_mean == pytest.approx(0.5)
    assert set(report.methods) == {"zero", "irr"}
    assert report.spec.corruption.kind is CorruptionKind.COLUMN_BLOCK


def test_full_grid_scores_every_cell(linear_csv):
    spec = base_spec(linear_csv, methods=("irr",), grid=(-3, -2, -1))
    full = run_experiment(replace(spec, full_grid=True))
    assert full.cells_scored == 9 * spec.trials
    assert json.loads(full.to_json())["grid"]["irr_mode"] == "full"
    pruned = run_experiment(spec)
    assert pruned.cells_scored < full.cells_scored
    # the full grid's cells are a superset of the pruned ones
    assert full.methods["irr"].rmse_mean <= pruned.methods["irr"].rmse_mean


def test_write_report_tsv(linear_csv, tmp_path):
    spec = base_spec(linear_csv, methods=("zero", "irr"))
    report = run_experiment(spec)
    path = tmp_path / "table.tsv"
    write_report_tsv(report, path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split("\t")
    row = lines[1].split("\t")
    assert header == [
        "dataset", "corruption", "fraction",
        "zero-imp", "mean-imp", "ind-imp", "IRR", "no corr",
    ]
    assert row[1] == "independent"
    assert "±" in row[3] and "±" in row[6]
    assert row[4] == "-" and row[5] == "-" and row[7] == "-"


def test_write_sweep_tsv(tmp_path):
    rows = [(0.9, "zero", 0.1234567, 0.01), (0.7, "irr", 0.2, 0.0)]
    path = tmp_path / "sweep.tsv"
    write_sweep_tsv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "fraction\tmethod\trmse_mean\trmse_std"
    assert lines[1].startswith("0.9\tzero\t0.123457")
    assert len(lines) == 3


def test_experiment_calls_through_bench_attributes(linear_csv, monkeypatch):
    """IRR solves and predictions, and the baseline fits, go through the
    names the bench module binds, one solve and one prediction per cell
    and trial, one fit per trial and ridge method."""
    solves, preds, means, maps = [], [], [], []

    def counted(name, log):
        real = getattr(bench, name)

        def call(*args, **kwargs):
            assert not kwargs
            out = real(*args)
            log.append((args, out))
            return out

        monkeypatch.setattr(bench, name, call)

    counted("solve_irr", solves)
    counted("predict_batch", preds)
    counted("fit_mean", means)
    counted("fit_independent", maps)
    spec = base_spec(linear_csv, methods=("mean", "ind", "irr"))
    report = run_experiment(spec)

    ridge_cells = 2 * len(spec.grid) * spec.trials
    assert len(solves) == report.cells_scored - ridge_cells > 0
    assert len(preds) == len(solves)
    for (args, sol), (pargs, _) in zip(solves, preds):
        train, hp, cfg = args
        assert train.m == spec.train_size and cfg is spec.solver
        assert np.log2(hp.lam) in spec.grid and np.log2(hp.gamma) in spec.grid
        sol_arg, test = pargs
        assert sol_arg is sol and test.m == report.n_rows - spec.train_size
    assert len(means) == len(maps) == spec.trials


@pytest.mark.parametrize("full_grid", [False, True])
def test_ties_pick_first_cell(linear_csv, monkeypatch, full_grid):
    """Equal RMSE in every cell: each method reports its first cell in
    evaluation order, the first grid exponent (and the first coarse cell)."""
    sol = types.SimpleNamespace(diagnostics=types.SimpleNamespace(converged=True))
    monkeypatch.setattr(bench, "solve_irr", lambda train, hp, cfg: sol)
    monkeypatch.setattr(bench, "predict_batch", lambda s, test: np.zeros(test.m))
    monkeypatch.setattr(bench, "ridge_weights", lambda X, y, lam: np.zeros(X.shape[1]))
    grid = (-2, 0, -6, -4)  # neither ascending nor descending
    spec = base_spec(linear_csv, grid=grid, full_grid=full_grid)
    report = run_experiment(spec)
    rmses = {res.rmse_mean for res in report.methods.values()}
    assert len(rmses) == 1
    for name, res in report.methods.items():
        assert res.best_lambda == 2.0**-2, name
        assert res.best_gamma == (2.0**-2 if name == "irr" else None), name


@pytest.mark.parametrize(
    "attr, method, where",
    [
        ("solve_irr", "irr", "trial 0, method irr, lambda=2^-6, gamma=2^-6"),
        ("predict_batch", "irr", "trial 0, method irr, lambda=2^-6, gamma=2^-6"),
        ("ridge_weights", "zero", "trial 0, method zero"),
        ("fit_mean", "mean", "trial 0, method mean"),
        ("fit_independent", "ind", "trial 0, method ind"),
    ],
)
def test_failure_names_trial_method_and_cell(linear_csv, monkeypatch, attr, method, where):
    def fail(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(bench, attr, fail)
    with pytest.raises(RuntimeError) as info:
        run_experiment(base_spec(linear_csv, methods=(method,)))
    assert str(info.value) == f"{where}: boom"
    assert isinstance(info.value.__cause__, ValueError)


def test_pruned_search_refines_around_best_coarse_cell(linear_csv, monkeypatch):
    """Test RMSE is the distance from (2^-2, 2^-1): the coarse stage finds
    (2^-3, 2^0), and only the refinement around it reaches the optimum."""
    def solve(train, hp, cfg):
        return types.SimpleNamespace(hp=hp, diagnostics=types.SimpleNamespace(converged=True))

    def predict(sol, test):
        le, ge = np.log2(sol.hp.lam), np.log2(sol.hp.gamma)
        return test.y + abs(le + 2) + abs(ge + 1)

    monkeypatch.setattr(bench, "solve_irr", solve)
    monkeypatch.setattr(bench, "predict_batch", predict)
    spec = base_spec(linear_csv, methods=("irr",), grid=tuple(range(-6, 1)))
    report = run_experiment(spec)
    res = report.methods["irr"]
    assert (res.best_lambda, res.best_gamma) == (2.0**-2, 2.0**-1)
    assert res.per_trial == (0.0, 0.0)
    # 9 coarse cells, then 5 unscored neighbours of (-3, 0) inside the grid
    assert report.cells_scored == 14 * spec.trials
