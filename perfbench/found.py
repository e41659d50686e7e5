"""Reproduce the faults the benchmark ran into, on its own generator.

    python3 perfbench/found.py arpack      # min_eigpair's ARPACK runs at m=1000, d=32
    python3 perfbench/found.py maxouter    # dense-path solves that take 150+ cuts
    python3 perfbench/found.py repeat      # one cuts problem fitted three times
    python3 perfbench/found.py indefinite  # cuts fits whose kernel is below -eps_psd

Each prints what it measured; none is part of a benchmark run.  BLAS
runs on one thread, as in the benchmark.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from run import PINNED_THREADS  # noqa: E402  (stdlib only, safe before numpy)

os.environ.update(PINNED_THREADS)

import numpy as np  # noqa: E402

import gen  # noqa: E402
from imputed_ridge import Dataset, kernel, solver  # noqa: E402
from imputed_ridge.corruption import corrupt_independent  # noqa: E402


def problem(m, d, seed=0, beta=0.6):
    """A latent-factor table, min-max scaled, independently corrupted."""
    X, y = gen.latent_table(gen.sub_seed(99, d), gen.sub_seed(seed, m, d), m, d)
    X = (X - X.min(axis=0)) / (X.max(axis=0) - X.min(axis=0))
    y = (y - y.min()) / (y.max() - y.min())
    Z = corrupt_independent(X, beta, gen.sub_seed(seed, 1))
    return Dataset(X * Z, Z, y)


def arpack():
    calls = []
    eigsh = kernel.eigsh

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            out = eigsh(*args, **kwargs)
        except kernel.ArpackNoConvergence:
            calls.append((time.perf_counter() - t0, True))
            raise
        calls.append((time.perf_counter() - t0, False))
        return out

    kernel.eigsh = timed
    train = problem(1000, 32)
    t0 = time.perf_counter()
    sol = solver.solve_irr(train, solver.Hyperparams(2.0**-3, 1.0),
                           solver.SolverConfig(max_outer=12))
    fit = time.perf_counter() - t0
    kernel.eigsh = eigsh
    failed = [t for t, raised in calls if raised]
    print(f"fit (max_outer=12): {fit:.1f} s, {sol.diagnostics.iterations} iterations, "
          f"{sol.diagnostics.cuts} cuts")
    print(f"eigsh calls: {len(calls)}, {sum(t for t, _ in calls):.1f} s in total; "
          f"{len(failed)} raised ArpackNoConvergence after "
          f"{np.mean(failed) if failed else 0:.2f} s each on average")
    K = kernel.build_kmn(train, sol.M, sol.N).K
    t0 = time.perf_counter()
    np.linalg.eigvalsh(K)
    print(f"one dense eigvalsh of a {K.shape[0]}x{K.shape[0]} kernel: "
          f"{time.perf_counter() - t0:.2f} s")


def maxouter():
    for m, d, lam_exp, gamma in ((320, 20, -3, 1.0), (320, 20, -5, 1.0), (500, 16, -3, 2.0)):
        t0 = time.perf_counter()
        sol = solver.solve_irr(problem(m, d), solver.Hyperparams(2.0**lam_exp, gamma))
        diag = sol.diagnostics
        print(f"m={m}, d={d}, lambda=2^{lam_exp}, gamma={gamma:g}: "
              f"{time.perf_counter() - t0:.1f} s, {diag.iterations} iterations, "
              f"{diag.cuts} cuts, gap {diag.gap:.3g}, converged {diag.converged}",
              flush=True)


def _cuts_problems(seed):
    import shutil
    import workloads

    workdir = workloads.ROOT / ".perfbench_runs" / f"found-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workloads.make_inputs("cuts", seed, workdir)
        _, problems = workloads.set_up("cuts", workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spec = workloads.WORKLOADS["cuts"]
    return problems, solver.Hyperparams(spec["lam"], spec["gamma"])


def repeat():
    problems, hp = _cuts_problems(1)
    for j, (train, _) in enumerate(problems):
        runs = [solver.solve_irr(train, hp).diagnostics for _ in range(3)]
        print(f"cuts seed 1 problem {j}: iterations {[r.iterations for r in runs]}, "
              f"objectives {[f'{r.objective:.12g}' for r in runs]}")


def indefinite():
    import checks

    problems, hp = _cuts_problems(1)
    eps = solver.SolverConfig().eps_psd
    for j, (train, _) in enumerate(problems):
        sol = solver.solve_irr(train, hp)
        K = checks.relaxed_gram(train.X, train.Z, train.X, train.Z, sol.M, sol.N.slices)
        low = float(np.linalg.eigvalsh(0.5 * (K + K.T))[0])
        print(f"cuts seed 1 problem {j}: min eigenvalue {low:.3g}"
              + ("  below -eps_psd" if low < -eps else ""))


if __name__ == "__main__":
    cases = {"arpack": arpack, "maxouter": maxouter, "repeat": repeat,
             "indefinite": indefinite}
    if len(sys.argv) != 2 or sys.argv[1] not in cases:
        raise SystemExit(f"usage: found.py {{{','.join(cases)}}}")
    cases[sys.argv[1]]()
