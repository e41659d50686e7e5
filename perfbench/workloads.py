"""One workload in one process: set-up, one timed round, checks, metrics.

Started by perfbench/run.py, never imported by the program:

    python3 perfbench/workloads.py setup WORKLOAD WORKDIR T_SPAWN
    python3 perfbench/workloads.py run WORKLOAD WORKDIR T_SPAWN TRACE

WORKDIR holds the tables written by ``make_inputs`` and a manifest.
T_SPAWN is the launcher's time.perf_counter() just before it started
this process (the clock is system-wide), so set-up time counts the
interpreter start and every import.  ``setup`` stops after set-up and
prints {"setup_s": ...}; ``run`` runs one round and prints one JSON
result line.

A workload is a panel of problems, one per data source.  A round runs
every operation on every problem once: on tall and cuts one fit and
one predict_batch on a large batch, on grid one ``irr bench``
experiment and one predict_batch per trial model it selects.  The
number of cutting-plane iterations a problem needs ranges from a few
to a hundred with the draw, so metrics are means over the panel; its
outer iterations vary by 6 to 8% from seed to seed.
The checks that build m x m matrices run after the round, once peak
RSS has been read, so that the peak is the program's.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Each source has its own population (loadings, label weights) and
# deletion rates, fixed by the workload like a list of datasets; the
# run seed draws every source's rows, noise and split.
WORKLOADS = {
    # m well above the basis width d(1+a) <= 30: the low-rank PSD path,
    # where the m x m assembly, ridge solves and polish dominate
    "tall": dict(id=1, sources=12, train=1000, test=500, d=5, beta=0.6,
                 lam=2.0**-3, gamma=4.0, batch=250_000),
    # basis width 16(1+a) above m/2 = 145, and m above the dense
    # eigensolver cutoff (256): the dense path, one ARPACK run per cut
    "cuts": dict(id=2, sources=26, train=290, test=300, d=16, beta=0.6,
                 lam=2.0**-5, gamma=2.0**-3, batch=250_000),
    # the paper's protocol through the CLI with value-dependent
    # corruption; lambda stays at or above 2^-7, below which solves run
    # to max_outer and the run time follows a handful of them
    "grid": dict(id=3, sources=9, rows=320, train=160, d=6, trials=1,
                 grid=tuple(range(-7, 1)), fraction=0.75, batch=500_000),
}


def make_inputs(workload, seed, workdir):
    """Write the workload's tables for this seed; return the manifest."""
    import gen

    spec = WORKLOADS[workload]
    wid = spec["id"]
    rows = spec["rows"] if workload == "grid" else spec["train"] + spec["test"]
    tables = []
    for j in range(spec["sources"]):
        X, y = gen.latent_table(gen.sub_seed(wid, j), gen.sub_seed(seed, wid, j),
                                rows, spec["d"])
        name = f"source{j}.csv"
        gen.write_csv(Path(workdir) / name, X, y)
        tables.append({"csv": name,
                       "corruption_seed": gen.sub_seed(wid, j, 1) % 2**31,
                       "split_seed": gen.sub_seed(seed, wid, j, 1)})
    manifest = {"workload": workload, "seed": seed, "tables": tables}
    (Path(workdir) / "manifest.json").write_text(json.dumps(manifest))
    return manifest


# --- set-up ----------------------------------------------------------------

def _import_program():
    """Import imputed_ridge from this checkout's src/, nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import imputed_ridge

    if Path(imputed_ridge.__file__).resolve().parent.parent != src.resolve():
        raise RuntimeError(f"imputed_ridge imported from {imputed_ridge.__file__}, "
                           f"not from {src}")
    return imputed_ridge


def set_up(workload, workdir):
    """Everything before the first timed operation; returns the problems."""
    ir = _import_program()
    from imputed_ridge import cli, corruption, dataset  # noqa: F401  (cli: grid's entry)

    spec = WORKLOADS[workload]
    manifest = json.loads((Path(workdir) / "manifest.json").read_text())
    if workload == "grid":
        return manifest, []
    problems = []
    for t in manifest["tables"]:
        ds = dataset.normalize(dataset.load_csv(str(Path(workdir) / t["csv"])))
        cspec = corruption.CorruptionSpec(corruption.CorruptionKind.INDEPENDENT,
                                          beta=spec["beta"], seed=t["corruption_seed"])
        Z = corruption.apply(cspec, ds.X)
        problems.append(dataset.split(ir.Dataset(ds.X * Z, Z, ds.y), spec["train"],
                                      t["split_seed"]))
    return manifest, problems


# --- header ----------------------------------------------------------------

def _blas_threads():
    """Thread count reported by each loaded OpenBLAS, by library file name."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def header_info():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# --- rounds ----------------------------------------------------------------

class Record:
    """Counts and per-problem results gathered over a run's round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0              # operations whose output failed a check
        self.errors = []
        self.fit_times = []
        self.op_times = []          # one per problem: fit+predict, or experiment
        self.predict_rates = []     # rows per second, one per predict_batch call
        self.ratio = {}             # problem -> objective ratio
        self.rmse = {}              # problem -> held-out RMSE
        self.fits = 0
        self.indefinite = 0         # fits whose kernel misses the unscaled eps_psd
        self.floors = []            # the scaled PSD floor each fit was checked at
        self.iterations = 0         # outer iterations over all fits checked
        self.methods = {}           # grid: source -> {method: rmse_mean}

    def fail(self, messages, wrong=True):
        self.failed += 1
        self.wrong += wrong
        self.errors += messages

    def check_fit(self, label, train, sol, cfg, seed):
        """Run the fit checks; return (failure messages, objective ratio)."""
        import numpy as np
        import checks

        bad, ratio, floor, meets = checks.check_fit(
            train.X, train.Z, train.y, sol.hp.lam, sol.hp.gamma, sol.alpha, sol.M,
            sol.N.slices, sol.diagnostics.objective, sol.diagnostics.converged,
            cfg.eps_psd, cfg.tol, np.random.default_rng(seed))
        self.fits += 1
        self.indefinite += not meets
        self.floors.append(floor)
        self.iterations += sol.diagnostics.iterations
        return [f"{label}: {b}" for b in bad], ratio

    @staticmethod
    def check_predict(label, sol, batch, pred, seed):
        """Run the prediction checks; return failure messages."""
        import numpy as np
        import checks

        bad = checks.check_predictions(sol.train.X, sol.train.Z, sol.alpha, sol.M,
                                       sol.N.slices, batch.X, batch.Z, pred,
                                       np.random.default_rng(seed))
        return [f"{label}: {b}" for b in bad]


def _large_batch(ir, test, rows):
    """The test fold repeated to at least `rows` rows."""
    import numpy as np

    reps = -(-rows // test.m)
    return ir.Dataset(np.tile(test.X, (reps, 1)), np.tile(test.Z, (reps, 1)),
                      np.tile(test.y, reps))


def _timed_predict(ir, solver, sol, test, spec, rec, label):
    """One predict_batch operation on a large batch; returns (predictions, seconds).

    Its check recomputes a few sampled rows (an m x 64 kernel), small
    enough to run at once.
    """
    batch = _large_batch(ir, test, spec["batch"])
    rec.attempted += 1
    try:
        t0 = time.perf_counter()
        pred = solver.predict_batch(sol, batch)
        dt = time.perf_counter() - t0
    except Exception as exc:  # an operation that raises is a failed operation
        rec.fail([f"{label} predict: {exc!r}"], wrong=False)
        return None, 0.0
    rec.predict_rates.append(batch.m / dt)
    bad = rec.check_predict(f"{label} predict", sol, batch, pred, seed=batch.m)
    if bad:
        rec.fail(bad)
    return pred, dt


def _check_panel_fit(rec, cfg, j, train, sol):
    bad, ratio = rec.check_fit(f"problem {j} fit", train, sol, cfg, seed=j)
    if bad:
        rec.fail(bad)
    rec.ratio[j] = ratio


def _panel_round(ir, problems, spec, tracer, rec):
    """One fit and one large predict_batch per problem.

    Returns the fit checks, for the caller to run after reading peak RSS.
    """
    import numpy as np
    from imputed_ridge import solver

    hp = solver.Hyperparams(lam=spec["lam"], gamma=spec["gamma"])
    cfg = solver.SolverConfig()
    pending = []
    for j, (train, test) in enumerate(problems):
        label = f"problem {j}"
        tracer.op += 1
        rec.attempted += 1
        try:
            t0 = time.perf_counter()
            sol = solver.solve_irr(train, hp, cfg)
            fit_s = time.perf_counter() - t0
        except Exception as exc:
            rec.fail([f"{label} fit: {exc!r}"], wrong=False)
            continue
        rec.fit_times.append(fit_s)
        pred, predict_s = _timed_predict(ir, solver, sol, test, spec, rec, label)
        rec.op_times.append(fit_s + predict_s)
        if pred is not None:
            r = test.y - pred[: test.m]
            rec.rmse[j] = float(np.sqrt(r @ r / test.m))
        pending.append(functools.partial(_check_panel_fit, rec, cfg, j, train, sol))
    return pending


def _grid_args(t, spec, workdir):
    g = ",".join(str(e) for e in spec["grid"])
    return ["bench", "--data", str(Path(workdir) / t["csv"]), "--corruption", "dependent",
            "--target-fraction", str(spec["fraction"]), "--train-size", str(spec["train"]),
            "--trials", str(spec["trials"]), f"--grid={g}",
            "--seed", str(t["corruption_seed"]), "--out", str(Path(workdir) / "report.json")]


def _check_experiment(rec, cfg, spec, workdir, j, t, report, fits, preds):
    """The report and every IRR solve of one experiment."""
    import numpy as np
    import checks

    label = f"source {j}"
    raw = np.loadtxt(Path(workdir) / t["csv"], delimiter=",", ndmin=2)
    bad = [f"{label} report: {b}" for b in checks.check_report(
        report, raw[:, :-1], raw[:, -1], t["corruption_seed"], spec["train"],
        spec["trials"], spec["grid"])]
    ratios = []
    for n, ((train, *_), sol) in enumerate(fits):
        sub = f"{label} solve {n} (lambda={sol.hp.lam:g}, gamma={sol.hp.gamma:g})"
        fit_bad, ratio = rec.check_fit(sub, train, sol, cfg, seed=n)
        test, pred = preds[id(sol)]
        bad += fit_bad + rec.check_predict(f"{sub} predict", sol, test, pred, seed=n)
        ratios.append(ratio)
    if bad:
        rec.fail(bad)
    rec.ratio[j] = statistics.mean(ratios)


def _grid_round(ir, manifest, spec, workdir, tracer, rec):
    """One irr bench experiment per source, then predicts with its chosen models.

    Returns the experiments' checks, for the caller to run after reading
    peak RSS.
    """
    from imputed_ridge import cli, solver

    cfg = solver.SolverConfig()
    pending = []
    for j, t in enumerate(manifest["tables"]):
        label = f"source {j}"
        tracer.op += 1
        rec.attempted += 1
        first_call = len(tracer.calls)
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(_grid_args(t, spec, workdir))
        experiment_s = time.perf_counter() - t0
        if code != 0:
            rec.fail([f"{label}: irr bench exited with {code}"], wrong=False)
            continue
        rec.op_times.append(experiment_s)
        report = json.loads((Path(workdir) / "report.json").read_text())
        calls = [(tracer.spans[i], a, o) for i, a, o in tracer.calls[first_call:]]
        fits = [(a, o) for span, a, o in calls if span[0] == "solver.solve_irr"]
        preds = {id(a[0]): (a[1], o) for span, a, o in calls if span[0] == "solver.predict"}
        rec.fit_times += [span[2] - span[1] for span, _, _ in calls
                          if span[0] == "solver.solve_irr"]
        best = report["methods"]["irr"]
        rec.rmse[j] = best["rmse_mean"]
        rec.methods[j] = {k: v["rmse_mean"] for k, v in report["methods"].items()}
        pending.append(functools.partial(_check_experiment, rec, cfg, spec, workdir, j, t,
                                         report, fits, preds))

        chosen = [o for _, o in fits
                  if (o.hp.lam, o.hp.gamma) == (best["best_lambda"], best["best_gamma"])]
        for sol in chosen:
            _timed_predict(ir, solver, sol, preds[id(sol)][0], spec, rec,
                           f"{label} chosen model")
    return pending


# --- tracing ---------------------------------------------------------------

SOLVER_WRAPS = [
    ("imputed_ridge.solver", "assemble_relaxed", "kernel.assemble", False),
    ("imputed_ridge.solver", "min_eigpair", "kernel.min_eigpair", False),
    ("imputed_ridge.solver", "_shifted_solve", "solver.ridge", False),
    ("imputed_ridge.solver", "_master", "solver.master", False),
    ("imputed_ridge.solver", "_polish", "solver.polish", False),
]


def _wraps(workload):
    """(module, attribute, span name, keep arguments and result) per boundary."""
    if workload == "grid":
        return SOLVER_WRAPS + [
            ("imputed_ridge.bench", "solve_irr", "solver.solve_irr", True),
            ("imputed_ridge.bench", "predict_batch", "solver.predict", True),
            ("imputed_ridge.solver", "predict_batch", "solver.predict", False),
            ("imputed_ridge.cli", "run_experiment", "bench.experiment", False),
            ("imputed_ridge.bench", "load_csv", "dataset.load", False),
            ("imputed_ridge.bench", "normalize", "dataset.load", False),
            ("imputed_ridge.bench", "calibrate_beta", "corruption.calibrate", False),
            ("imputed_ridge.bench", "fit_mean", "bench.baseline", False),
            ("imputed_ridge.bench", "fit_independent", "bench.baseline", False),
            ("imputed_ridge.bench", "ridge_alpha", "bench.baseline", False),
        ]
    return SOLVER_WRAPS + [
        ("imputed_ridge.solver", "solve_irr", "solver.solve_irr", True),
        ("imputed_ridge.solver", "predict_batch", "solver.predict", False),
    ]


def _tracer(wraps):
    from spans import Tracer

    tracer = Tracer()
    for module, attr, name, keep in wraps:
        tracer.wrap(module, attr, name, keep_result=keep)
    return tracer


def _layer_metrics(tracer, load_s, indefinite):
    """Per-layer metrics of the traced round, from its spans."""
    tot = tracer.totals()
    diags = [o.diagnostics for i, _, o in tracer.calls
             if tracer.spans[i][0] == "solver.solve_irr"]
    iters = sum(d.iterations for d in diags)
    cuts = sum(d.cuts for d in diags)
    experiment = tot["bench.experiment"][1]
    return {
        "kernel.assemble_s": (tot["kernel.assemble"][1], "s"),
        "kernel.assemble_calls": (tot["kernel.assemble"][0], "count"),
        "kernel.min_eigpair_s": (tot["kernel.min_eigpair"][1], "s"),
        "kernel.min_eigpair_calls": (tot["kernel.min_eigpair"][0], "count"),
        "solver.ridge_s": (tot["solver.ridge"][1], "s"),
        "solver.ridge_calls": (tot["solver.ridge"][0], "count"),
        "solver.master_s": (tot["solver.master"][1], "s"),
        "solver.master_calls": (tot["solver.master"][0], "count"),
        "solver.polish_s": (tot["solver.polish"][1], "s"),
        "solver.self_s": (tot["solver.solve_irr"][2], "s"),
        "solver.outer_iters": (iters, "count"),
        "solver.cuts": (cuts, "count"),
        "solver.feasible_share": ((iters - cuts) / iters if iters else 0.0, "ratio"),
        "solver.nonconverged": (sum(not d.converged for d in diags), "count"),
        "solver.indefinite_results": (indefinite, "count"),
        "solver.predict_s": (tot["solver.predict"][1], "s"),
        "bench.irr_cells": (len(diags) if experiment else 0.0, "count"),
        "bench.cells_per_s": (len(diags) / experiment if experiment else 0.0, "1/s"),
        "bench.baseline_s": (tot["bench.baseline"][1], "s"),
        "corruption.calibrate_s": (tot["corruption.calibrate"][1], "s"),
        "dataset.load_s": (tot["dataset.load"][1] if load_s is None else load_s, "s"),
    }


# --- a run -----------------------------------------------------------------

def run(workload, workdir, t_spawn, trace):
    import resource

    load_s = None
    if trace and workload != "grid":
        # tall and cuts load their tables during set-up: trace the loader there
        _import_program()
        load_tracer = _tracer([("imputed_ridge.dataset", "load_csv", "dataset.load", False),
                               ("imputed_ridge.dataset", "normalize", "dataset.load", False)])
        manifest, problems = set_up(workload, workdir)
        load_tracer.close()
        load_s = load_tracer.totals()["dataset.load"][1]
    else:
        manifest, problems = set_up(workload, workdir)
    setup_s = time.perf_counter() - t_spawn

    import imputed_ridge as ir

    spec = WORKLOADS[workload]
    rec = Record()
    # Untraced, only what grid's checks read is wrapped: its solves and
    # predictions (two clock reads per call).
    wraps = _wraps(workload)
    tracer = _tracer(wraps if trace else [w for w in wraps if workload == "grid" and w[3]])
    if workload == "grid":
        pending = _grid_round(ir, manifest, spec, workdir, tracer, rec)
    else:
        pending = _panel_round(ir, problems, spec, tracer, rec)
    tracer.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for check in pending:
        check()
    if not rec.fit_times or not rec.op_times or not rec.predict_rates:
        raise RuntimeError("no operation completed: " + "; ".join(rec.errors[:5]))

    timings = {"fit_s": statistics.mean(rec.fit_times),
               "experiment_s": statistics.mean(rec.op_times)}
    result = {"attempted": rec.attempted, "failed": rec.failed, "correct": rec.wrong == 0,
              "errors": rec.errors[:20], "fits": rec.fits, "indefinite": rec.indefinite,
              "floors": [min(rec.floors), max(rec.floors)], "iterations": rec.iterations,
              "methods": {k: statistics.mean(m[k] for m in rec.methods.values())
                          for k in next(iter(rec.methods.values()), {})},
              "header": header_info(), "timings": timings}
    if trace:
        metrics = _layer_metrics(tracer, load_s, rec.indefinite)
        result["absent"] = tracer.absent
        tracer.dump(Path(workdir) / "spans.jsonl")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "fit_s": (timings["fit_s"], "s"),
            "experiment_s": (timings["experiment_s"], "s"),
            "predict_rows_per_s": (statistics.median(rec.predict_rates), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "objective_ratio": (statistics.mean(rec.ratio.values()), "ratio"),
            "heldout_rmse": (statistics.mean(rec.rmse.values()), "rmse"),
        }
    result["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    return result


def main(argv):
    sys.path.insert(0, str(HERE))
    mode, workload, workdir, t_spawn = argv[0], argv[1], argv[2], float(argv[3])
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    if mode == "setup":
        set_up(workload, workdir)
        print(json.dumps({"setup_s": time.perf_counter() - t_spawn}))
        return 0
    print(json.dumps(run(workload, workdir, t_spawn, bool(int(argv[4])))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
