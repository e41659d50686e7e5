"""Fast self-test of the benchmark: toy workloads, then broken outputs.

    python3 perfbench/selftest.py

Runs every workload at toy size through the same code as a real run,
untraced and traced, and requires every operation to pass its checks.
Then hands the checks deliberately broken outputs (alpha perturbed, M
scaled outside the gamma ball, an indefinite N, predictions shifted, a
report with a wrong per-trial RMSE or a lost ordering) and requires
each to be rejected.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import PINNED_THREADS  # noqa: E402  (stdlib only, safe before numpy)

os.environ.update(PINNED_THREADS)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

TOY = {
    "tall": dict(sources=2, train=150, test=60, batch=2_000),
    "cuts": dict(sources=2, train=60, test=40, d=6, batch=2_000),
    "grid": dict(sources=2, rows=160, train=100, trials=2, grid=tuple(range(-6, 1)),
                 batch=2_000),
}
# the metric names the benchmark declares, by trace flag
DECLARED = {trace: {m["name"] for m in json.loads(
    (workloads.ROOT / "BENCHMARK.json").read_text())[key]}
    for trace, key in ((False, "end_to_end"), (True, "per_layer"))}


def expect(cond, what, failures):
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        failures.append(what)


def toy_runs(workdir, failures):
    for name, toy in TOY.items():
        workloads.WORKLOADS[name].update(toy)
        for trace in (False, True):
            wd = workdir / f"{name}-{int(trace)}"
            wd.mkdir()
            workloads.make_inputs(name, 5, wd)
            res = workloads.run(name, wd, time.perf_counter(), trace)
            expect(res["failed"] == 0 and res["correct"] and res["attempted"] > 0,
                   f"{name} trace={int(trace)}: {res['attempted']} operations, none failed"
                   + "".join(f"\n      {e}" for e in res["errors"]), failures)
            expect(set(res["metrics"]) == DECLARED[trace],
                   f"{name} trace={int(trace)}: exactly the declared metrics", failures)
    return workdir / "grid-0"


def broken_fits(failures):
    """A toy fit, then each broken variant of its outputs."""
    from imputed_ridge import Dataset, solver

    rng = np.random.default_rng(0)
    X = rng.random((40, 4))
    Z = (rng.random((40, 4)) > 0.3).astype(float)
    train = Dataset(X * Z, Z, X @ rng.standard_normal(4))
    test = Dataset(X[:10] * Z[:10], Z[:10], train.y[:10])
    hp, cfg = solver.Hyperparams(lam=0.1, gamma=1.0), solver.SolverConfig()
    sol = solver.solve_irr(train, hp, cfg)
    pred = solver.predict_batch(sol, test)

    def fit_failures(alpha=sol.alpha, M=sol.M, N=sol.N.slices, objective=None):
        obj = sol.diagnostics.objective if objective is None else objective
        bad, _, _, _ = checks.check_fit(train.X, train.Z, train.y, hp.lam, hp.gamma, alpha, M,
                                     N, obj, True, cfg.eps_psd, cfg.tol,
                                     np.random.default_rng(1))
        return bad

    def pred_failures(p):
        return checks.check_predictions(train.X, train.Z, sol.alpha, sol.M, sol.N.slices,
                                        test.X, test.Z, p, np.random.default_rng(1))

    expect(not fit_failures(), "the unbroken fit passes", failures)
    expect(not pred_failures(pred), "the unbroken predictions pass", failures)
    expect(bool(fit_failures(alpha=sol.alpha * (1 + 1e-4))), "alpha perturbed is rejected",
           failures)
    G = rng.standard_normal((4, 4))
    expect(bool(fit_failures(M=G * (1.5 * hp.gamma / np.linalg.norm(G)))),
           "M scaled outside the gamma ball is rejected", failures)
    N_bad = -np.repeat(np.eye(4)[None], 4, axis=0) * 0.4
    expect(any("eigenvalue" in b for b in fit_failures(N=N_bad)),
           "an indefinite relaxed kernel is rejected", failures)
    expect(bool(fit_failures(objective=sol.diagnostics.objective * 0.5)),
           "an objective below what alpha gives is rejected", failures)
    expect(bool(pred_failures(pred + 1e-6)), "predictions shifted are rejected", failures)


def broken_reports(grid_dir, failures):
    spec = workloads.WORKLOADS["grid"]
    # report.json is the last source's report
    table = json.loads((grid_dir / "manifest.json").read_text())["tables"][-1]
    report = json.loads((grid_dir / "report.json").read_text())
    raw = np.loadtxt(grid_dir / table["csv"], delimiter=",", ndmin=2)

    def report_failures(rep):
        return checks.check_report(rep, raw[:, :-1], raw[:, -1], table["corruption_seed"],
                                   spec["train"], spec["trials"], spec["grid"])

    expect(not report_failures(report), "the unbroken report passes", failures)
    rep = copy.deepcopy(report)
    rep["methods"]["zero"]["per_trial"][0] += 1e-6
    rep["methods"]["zero"]["rmse_mean"] = float(np.mean(rep["methods"]["zero"]["per_trial"]))
    expect(bool(report_failures(rep)), "a wrong per-trial RMSE is rejected", failures)
    rep = copy.deepcopy(report)
    rep["methods"]["irr"]["rmse_mean"] = rep["methods"]["zero"]["rmse_mean"]
    rep["methods"]["irr"]["per_trial"] = rep["methods"]["zero"]["per_trial"]
    expect(bool(report_failures(rep)), "irr not beating zero fill is rejected", failures)
    rep = copy.deepcopy(report)
    rep["methods"]["nocorr"] = copy.deepcopy(rep["methods"]["mean"])
    expect(bool(report_failures(rep)), "nocorr not beating the rest is rejected", failures)
    rep = copy.deepcopy(report)
    rep["methods"]["mean"]["per_trial"] = rep["methods"]["mean"]["per_trial"][:1]
    expect(bool(report_failures(rep)), "a missing trial is rejected", failures)


def main():
    failures = []
    workdir = workloads.ROOT / ".perfbench_runs" / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        grid_dir = toy_runs(workdir, failures)
        broken_fits(failures)
        broken_reports(grid_dir, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
