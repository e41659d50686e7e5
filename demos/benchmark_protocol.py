#!/usr/bin/env python3
"""Run the full benchmark protocol on a synthetic table.

Writes a small regression CSV, runs the seeded trial protocol
(calibrate the deletion rate, corrupt train and test folds, tune each
method on a log2 grid, score RMSE), and prints the report plus the
derived capacity numbers.  The same spec run twice must reproduce the
numbers exactly; the script checks that too and exits nonzero if not.

Takes about fifteen seconds.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from imputed_ridge import (
    CorruptionKind,
    CorruptionSpec,
    ExperimentSpec,
    SolverConfig,
    run_experiment,
)
from imputed_ridge.bench import write_report_tsv


def write_table(path, m=320, d=5, seed=2):
    rng = np.random.default_rng(seed)
    latent = rng.random((m, 2))
    X = latent @ rng.random((2, d)) + 0.2 * rng.random((m, d))
    y = X @ rng.uniform(-2.0, 2.0, d) + 0.05 * rng.standard_normal(m)
    with open(path, "w") as fh:
        for i in range(m):
            cells = ",".join(f"{v:.8f}" for v in X[i])
            fh.write(f"{cells},{y[i]:.8f}\n")


def main():
    with tempfile.TemporaryDirectory(prefix="irr-demo-") as tmp:
        run(Path(tmp))


def run(workdir):
    csv = workdir / "synthetic.csv"
    write_table(csv)

    spec = ExperimentSpec(
        dataset_path=str(csv),
        corruption=CorruptionSpec(CorruptionKind.INDEPENDENT, beta=0.0, seed=0),
        target_fraction=0.7,
        train_size=220,
        trials=3,
        grid=tuple(range(-10, 3)),
        report_bounds=True,
        solver=SolverConfig(tol=1e-3, max_outer=80),
    )
    report = run_experiment(spec)

    print(f"observed fraction {report.fraction_mean:.3f}±{report.fraction_std:.3f}")
    print(f"{'method':8s} {'rmse':>16s}   tuned at")
    for name, res in report.methods.items():
        hp = f"lambda=2^{int(np.log2(res.best_lambda)):d}"
        if res.best_gamma is not None:
            hp += f", gamma=2^{int(np.log2(res.best_gamma)):d}"
        print(f"{name:8s} {res.rmse_mean:8.4f}±{res.rmse_std:.4f}   {hp}")
    for note in report.notes:
        print(f"note: {note}")
    if report.bounds:
        print("capacity at the winning irr point:")
        for key, val in report.bounds.items():
            print(f"  {key} = {val:.6g}")

    out = workdir / "report.tsv"
    write_report_tsv(report, out)
    print(f"\nTSV row:\n{out.read_text()}")

    again = run_experiment(spec)
    a, b = report.to_obj(), again.to_obj()
    a.pop("runtime_seconds"), b.pop("runtime_seconds")
    same = json.dumps(a) == json.dumps(b)
    print(f"rerun reproduces the report exactly: {same}")
    if not same:
        raise SystemExit("the rerun changed the report")


if __name__ == "__main__":
    main()
