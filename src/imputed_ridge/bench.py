"""Benchmark harness: trials, corruption, grid search, method comparison.

One experiment is: load and normalize a dataset, calibrate the deletion
rate to a target observed fraction if asked, then over independent
trials split off a training fold, corrupt both folds, fit every method
across a hyperparameter grid, and report each method at its best grid
point by mean test RMSE across trials.  Tuning on the test fold is the
reported protocol of the results being reproduced, kept as-is on
purpose; it is not a recommended practice.

Every method is an affine fill followed by ridge (``impute_dataset``;
nocorr reads the clean folds, irr learns its map with the regressor).
A method is a list of grid cells plus a scorer of one trial at one
cell, and reports the first cell with the lowest mean test RMSE.

All randomness is derived from the master seed through named
subsequences, so a report is a pure function of its ExperimentSpec
(runtime aside).
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import corruption as corr
from .corruption import CorruptionKind, CorruptionSpec, calibrate_beta
from .dataset import Dataset, load_csv, normalize, split
from .imputation import fit_independent, fit_mean, impute_dataset
from .solver import Hyperparams, SolverConfig, predict_batch, ridge_weights, solve_irr
from .theory import BoundInputs, generalization_gap, rademacher_bound

METHODS = ("zero", "mean", "ind", "irr", "nocorr")
_ALIASES = {"independent": "ind", "no-corr": "nocorr", "nocorruption": "nocorr"}

# purposes for derived seeds
_SPLIT, _TRAIN_MASK, _TEST_MASK, _CALIBRATE = 0, 1, 2, 3


def derive_seed(master_seed, trial, purpose) -> int:
    """Stable sub-seed from (master, trial, purpose)."""
    ss = np.random.SeedSequence([int(master_seed), int(trial), int(purpose)])
    return int(ss.generate_state(1)[0])


def canonical_methods(names) -> tuple:
    out = []
    for name in names:
        key = _ALIASES.get(str(name).strip().lower(), str(name).strip().lower())
        if key not in METHODS:
            raise ValueError(f"unknown method {name!r}; choose from {METHODS}")
        if key not in out:
            out.append(key)
    if not out:
        raise ValueError("no methods selected")
    return tuple(out)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a benchmark run depends on."""

    dataset_path: str
    label_column: object = -1
    corruption: object = "native"  # CorruptionSpec or the string "native"
    target_fraction: float | None = None
    train_size: int = 1000
    trials: int = 5
    methods: tuple = METHODS
    grid: tuple = tuple(range(-12, 11))
    master_seed: int = 0
    full_grid: bool = False
    report_bounds: bool = False
    has_header: bool = False
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        object.__setattr__(self, "methods", canonical_methods(self.methods))
        object.__setattr__(self, "grid", tuple(int(g) for g in self.grid))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not self.grid:
            raise ValueError("grid must be nonempty")
        if len(set(self.grid)) < len(self.grid):
            # a repeated exponent would re-solve its cells and count them twice
            raise ValueError(f"grid repeats an exponent: {self.grid}")
        if self.corruption != "native" and not isinstance(self.corruption, CorruptionSpec):
            raise ValueError("corruption must be a CorruptionSpec or 'native'")
        if self.target_fraction is not None and not 0.0 < self.target_fraction <= 1.0:
            raise ValueError("target_fraction must be in (0, 1]")


@dataclass(frozen=True)
class MethodResult:
    rmse_mean: float
    rmse_std: float
    best_lambda: float
    best_gamma: float | None
    per_trial: tuple
    notes: tuple = ()

    def to_obj(self):
        return {
            "rmse_mean": self.rmse_mean,
            "rmse_std": self.rmse_std,
            "best_lambda": self.best_lambda,
            "best_gamma": self.best_gamma,
            "per_trial": list(self.per_trial),
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class ExperimentReport:
    """Results of one run of ``spec``, the spec the protocol actually ran."""

    spec: ExperimentSpec
    n_rows: int
    n_features: int
    beta: float | None
    fraction_mean: float
    fraction_std: float
    methods: dict
    notes: tuple
    cells_scored: int
    cells_flagged: int
    bounds: dict | None
    runtime_seconds: float

    def to_obj(self):
        spec, corruption = self.spec, self.spec.corruption
        if isinstance(corruption, CorruptionSpec):
            cobj = {
                "kind": corruption.kind.value,
                "beta": corruption.beta,
                "seed": corruption.seed,
            }
            if corruption.kind is CorruptionKind.COLUMN_BLOCK:
                cobj["block_size"] = corruption.block_size
                cobj["eligible_blocks"] = list(corruption.eligible_blocks)
        else:
            cobj = "native"
        return {
            "dataset": str(spec.dataset_path),
            "n_rows": self.n_rows,
            "n_features": self.n_features,
            "corruption": cobj,
            "beta": self.beta,
            "target_fraction": spec.target_fraction,
            "fraction_remaining": {"mean": self.fraction_mean, "std": self.fraction_std},
            "train_size": spec.train_size,
            "trials": spec.trials,
            "master_seed": spec.master_seed,
            "grid": {
                "exponents": list(spec.grid),
                "irr_mode": "full" if spec.full_grid else "pruned",
            },
            "methods": {k: v.to_obj() for k, v in self.methods.items()},
            "notes": list(self.notes),
            "cells": {"scored": self.cells_scored, "flagged": self.cells_flagged},
            "bounds": self.bounds,
            "runtime_seconds": self.runtime_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2)


@dataclass
class _Trial:
    train_clean: Dataset
    test_clean: Dataset
    train: Dataset
    test: Dataset
    fraction: float


def _corrupt_fold(fold: Dataset, cspec: CorruptionSpec, beta, seed) -> Dataset:
    eff = replace(cspec, beta=beta if beta is not None else cspec.beta, seed=seed)
    Z = corr.apply(eff, fold.X)
    return replace(fold, X=fold.X * Z, Z=Z)


def _prepare_trials(ds, spec, beta):
    out = []
    for t in range(spec.trials):
        tr, te = split(ds, spec.train_size, derive_seed(spec.master_seed, t, _SPLIT))
        if spec.corruption == "native":
            tr_c, te_c = tr, te
        else:
            tr_c = _corrupt_fold(
                tr, spec.corruption, beta, derive_seed(spec.master_seed, t, _TRAIN_MASK)
            )
            te_c = _corrupt_fold(
                te, spec.corruption, beta, derive_seed(spec.master_seed, t, _TEST_MASK)
            )
        out.append(_Trial(tr, te, tr_c, te_c, float(tr_c.Z.sum() / tr_c.Z.size)))
    return out


def _rmse(y, pred):
    resid = y - pred
    return float(np.sqrt((resid @ resid) / y.shape[0]))


def _ridge_scorer(name, trials):
    """Scorer of the ridge method ``name``: test RMSE of trial t at cell (e,).

    Each trial's folds are filled once and reused at every lambda = 2^e.
    nocorr sees the clean folds; zero, mean and ind fill the corrupted
    folds through the affine map (M, b) fitted on the training fold.
    """

    @functools.cache
    def folds(t):
        trial = trials[t]
        if name == "nocorr":
            return trial.train_clean.X, trial.test_clean.X
        M, b = np.zeros((trial.train.d, trial.train.d)), 0.0
        if name == "mean":
            b = fit_mean(trial.train)
        elif name == "ind":
            M = fit_independent(trial.train)
        return tuple(impute_dataset(M, f.X, f.Z, b) for f in (trial.train, trial.test))

    def score(t, cell):
        Xtr, Xte = folds(t)
        w = ridge_weights(Xtr, trials[t].train.y, 2.0 ** cell[0])
        return _rmse(trials[t].test.y, Xte @ w), True

    return score


def _irr_score(trials, cfg, t, cell):
    """Test RMSE of trial t at cell (lambda exponent, gamma exponent)."""
    trial = trials[t]
    sol = solve_irr(trial.train, Hyperparams(lam=2.0 ** cell[0], gamma=2.0 ** cell[1]), cfg)
    return _rmse(trial.test.y, predict_batch(sol, trial.test)), sol.diagnostics.converged


def _coarse_pairs(grid):
    coarse = grid[::3]
    return [(le, ge) for le in coarse for ge in coarse]


def _refine_pairs(grid, center, done):
    le0, ge0 = center
    near = [(le, ge) for le in (le0 - 1, le0, le0 + 1) for ge in (ge0 - 1, ge0, ge0 + 1)]
    return [(le, ge) for le, ge in near if le in grid and ge in grid and (le, ge) not in done]


def _std(values):
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return 0.0
    return float(np.std(arr, ddof=1))


def _score_cells(name, cells, score, n_trials, results, flags):
    """Score each cell on every trial into results[cell], a list of
    (rmse, converged) pairs, and append each solve's converged flag to flags."""
    for cell in cells:
        per = []
        for t in range(n_trials):
            try:
                per.append(score(t, cell))
            except Exception as exc:
                where = f"trial {t}, method {name}"
                if len(cell) == 2:
                    where += f", lambda=2^{cell[0]}, gamma=2^{cell[1]}"
                raise RuntimeError(f"{where}: {exc}") from exc
        results[cell] = per
        flags += [ok for _, ok in per]


def _best(results):
    """The first cell with the lowest mean RMSE, in evaluation order."""
    return min(results, key=lambda c: float(np.mean([r for r, _ in results[c]])))


def _run_method(name, spec, trials, flags):
    """Score one method's grid cells and report its best one.

    A ridge method's cells are the grid exponents.  IRR's are the
    coarse pairs and then the pairs around the best of them, or the full
    grid with ``spec.full_grid``.  Each solve's converged flag is
    appended to flags.
    """
    results = {}
    if name != "irr":
        score = _ridge_scorer(name, trials)
        cells = [(e,) for e in spec.grid]
    else:
        score = functools.partial(_irr_score, trials, spec.solver)
        if spec.full_grid:
            cells = [(le, ge) for le in spec.grid for ge in spec.grid]
        else:
            cells = _coarse_pairs(spec.grid)
    _score_cells(name, cells, score, len(trials), results, flags)
    if name == "irr" and not spec.full_grid:
        cells = _refine_pairs(spec.grid, _best(results), set(results))
        _score_cells(name, cells, score, len(trials), results, flags)

    best = _best(results)
    per_trial = tuple(r for r, _ in results[best])
    notes = []
    bad_total = sum(not ok for per in results.values() for _, ok in per)
    if bad_total:
        total = sum(len(per) for per in results.values())
        notes.append(f"{bad_total} of {total} solves non-converged")
    bad_best = sum(not ok for _, ok in results[best])
    if bad_best:
        notes.append(f"{bad_best} non-converged at the selected grid point")
    return MethodResult(
        rmse_mean=float(np.mean(per_trial)),
        rmse_std=_std(per_trial),
        best_lambda=2.0 ** best[0],
        best_gamma=2.0 ** best[1] if len(best) == 2 else None,
        per_trial=per_trial,
        notes=tuple(notes),
    )


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run the full protocol and aggregate a report; see the module doc."""
    ds = normalize(load_csv(spec.dataset_path, spec.label_column, spec.has_header))
    return _run_on_dataset(spec, ds)


def _run_on_dataset(spec: ExperimentSpec, ds: Dataset) -> ExperimentReport:
    t_start = time.perf_counter()
    notes = []

    if spec.corruption != "native" and not np.all(ds.Z == 1.0):
        raise ValueError(
            "artificial corruption needs a fully observed dataset; "
            "this one already has missing entries"
        )

    beta = None
    if isinstance(spec.corruption, CorruptionSpec):
        if spec.corruption.kind is CorruptionKind.COLUMN_BLOCK:
            if spec.target_fraction is not None:
                notes.append("target_fraction ignored: column corruption has no rate")
        elif spec.target_fraction is not None:
            beta = calibrate_beta(
                ds.X,
                spec.corruption.kind,
                spec.target_fraction,
                derive_seed(spec.master_seed, 0, _CALIBRATE),
            )
            notes.append(
                f"beta calibrated to {beta:.6f} for fraction {spec.target_fraction}"
            )
        else:
            beta = spec.corruption.beta
    elif spec.target_fraction is not None:
        notes.append("target_fraction ignored for native missingness")

    trials = _prepare_trials(ds, spec, beta)
    fractions = [t.fraction for t in trials]

    methods = {}
    flags = []
    for name in spec.methods:
        if name == "nocorr" and spec.corruption == "native":
            notes.append("nocorr unavailable: native missingness has no uncorrupted view")
        else:
            methods[name] = _run_method(name, spec, trials, flags)

    bounds = None
    if spec.report_bounds:
        if "irr" in methods:
            hp = Hyperparams(
                lam=methods["irr"].best_lambda, gamma=methods["irr"].best_gamma
            )
            b = BoundInputs.from_dataset(trials[0].train, hp)
            bounds = {
                "B": b.B,
                "R": b.R,
                "gamma": b.gamma,
                "lambda": b.lam,
                "rademacher_bound": rademacher_bound(b),
                "generalization_gap_delta_0.05": generalization_gap(b, 0.05),
            }
        else:
            notes.append("bounds skipped: irr not among the methods")

    return ExperimentReport(
        spec=spec,
        n_rows=ds.m,
        n_features=ds.d,
        beta=beta,
        fraction_mean=float(np.mean(fractions)),
        fraction_std=_std(fractions),
        methods=methods,
        notes=tuple(notes),
        cells_scored=len(flags),
        cells_flagged=flags.count(False),
        bounds=bounds,
        runtime_seconds=time.perf_counter() - t_start,
    )


def sweep_fraction(spec: ExperimentSpec, fractions):
    """Run the experiment once per target fraction; rows for plotting.

    Returns (fraction, method, rmse_mean, rmse_std) tuples, recalibrating
    beta for each fraction.  The dataset is loaded and normalized once,
    after every fraction is checked.  Raises ValueError for an empty list
    or a fraction outside (0, 1].
    """
    fractions = list(fractions)
    if not fractions:
        raise ValueError("fractions must list at least one observed fraction")
    for f in fractions:
        if not 0.0 < f <= 1.0:
            raise ValueError(f"fractions must lie in (0, 1], got {f}")
    ds = normalize(load_csv(spec.dataset_path, spec.label_column, spec.has_header))
    rows = []
    for f in map(float, fractions):
        report = _run_on_dataset(replace(spec, target_fraction=f), ds)
        for name, res in report.methods.items():
            rows.append((f, name, res.rmse_mean, res.rmse_std))
    return rows


def run_onevsall(spec: ExperimentSpec, digit: int) -> ExperimentReport:
    """One-vs-all digit regression with column corruption.

    Labels become +1 for the chosen digit and -1 otherwise (bypassing
    label normalization); features are normalized as usual; corruption
    is the spec's column-block process (``irr digits`` passes the
    strided blocks over the central image columns).  Raises ValueError
    for a digit outside 0..9, a digit absent from or filling every row,
    and a spec without column corruption.
    """
    if not 0 <= int(digit) <= 9:
        raise ValueError(f"digit must be 0..9, got {digit}")
    digit = int(digit)

    raw = load_csv(spec.dataset_path, spec.label_column, spec.has_header)
    hit = raw.y == float(digit)
    if not hit.any():
        raise ValueError(f"digit {digit} absent from the data; labels would be all -1")
    if hit.all():
        raise ValueError(f"every row is digit {digit}; labels would be all +1")
    cspec = spec.corruption
    if not (isinstance(cspec, CorruptionSpec) and cspec.kind is CorruptionKind.COLUMN_BLOCK):
        kind = cspec.kind.value if isinstance(cspec, CorruptionSpec) else cspec
        raise ValueError(f"one-vs-all needs column corruption, got {kind}")

    ds = normalize(raw)
    ds = replace(ds, y=np.where(hit, 1.0, -1.0))
    spec = replace(spec, target_fraction=None)
    return _run_on_dataset(spec, ds)


_TSV_COLUMNS = (("zero", "zero-imp"), ("mean", "mean-imp"), ("ind", "ind-imp"),
                ("irr", "IRR"), ("nocorr", "no corr"))


def _cell(res):
    if res is None:
        return "-"
    return f"{res.rmse_mean:.3f}±{res.rmse_std:.3f}"


def write_report_tsv(report: ExperimentReport, path):
    """One-row table of mean RMSE with std per method."""
    header = ["dataset", "corruption", "fraction"]
    header += [label for _, label in _TSV_COLUMNS]
    corruption = report.spec.corruption
    kind = corruption.kind.value if isinstance(corruption, CorruptionSpec) else "native"
    row = [
        str(report.spec.dataset_path),
        kind,
        f"{report.fraction_mean:.3f}±{report.fraction_std:.3f}",
    ]
    row += [_cell(report.methods.get(key)) for key, _ in _TSV_COLUMNS]
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        fh.write("\t".join(row) + "\n")


def write_sweep_tsv(rows, path):
    """Plot-ready long-format table: fraction, method, rmse_mean, rmse_std."""
    with open(path, "w") as fh:
        fh.write("fraction\tmethod\trmse_mean\trmse_std\n")
        for frac, method, mean, std in rows:
            fh.write(f"{frac:.6g}\t{method}\t{mean:.6f}\t{std:.6f}\n")
