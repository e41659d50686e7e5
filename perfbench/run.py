"""Benchmark of imputed_ridge over three workloads: tall, cuts and grid.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload tall --seed 3 --trace 0
    python3 perfbench/run.py --workload grid --trace 1   # per-layer metrics

Run it from anywhere; it builds nothing and imports the package from
src/ of the checkout it sits in.  Each workload runs in processes of
its own, with BLAS pinned to one thread.  A run is one round of the
workload, a fixed amount of work (about 25 s on tall and grid, 40 s on
cuts on a 2-vCPU VM); --seconds is accepted for the common benchmark
interface and changes nothing.  A traced run is preceded by an untraced
one on the same inputs, its reference for the tracing overhead.
Inputs are written under .perfbench_runs/ and removed afterwards; a
traced run keeps its spans there as JSON lines.  The last line of
output is one JSON object: {"correct", "attempted", "failed",
"metrics"} for one workload and trace flag, or
{"workloads": {"<name> trace=<0|1>": that object}} for several.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
WORKLOADS = ("tall", "cuts", "grid")
# Processes that only set up, this many before the run and as many after;
# setup_s is the median of theirs and the run's own.
SETUP_PROBES = 2
RUN_BUDGET = 170.0  # seconds for all processes of one workload
# On a 2-vCPU host, OpenBLAS's default of two threads made fits slower
# and less steady than one thread (see README); every process runs with one.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def _child(args, deadline):
    """Run workloads.py with args after the spawn time; return its last JSON line."""
    t_spawn = time.perf_counter()
    timeout = max(1.0, deadline - t_spawn)
    cmd = [sys.executable, str(HERE / "workloads.py"), args[0], args[1], args[2],
           repr(t_spawn), *args[3:]]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(args[:2])} timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args[:2])} exited with {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _setup_probes(name, workdir, deadline):
    return [_child(["setup", name, str(workdir)], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]


def run_workload(name, seed, traces):
    """One untraced run, then a traced one if asked, on one set of inputs.

    Returns {trace flag: result}.  The untraced run gets set-up probes
    only when its own result is wanted (False in traces).
    """
    import workloads

    deadline = time.perf_counter() + RUN_BUDGET
    workdir = RUNS / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    results = {}
    try:
        workloads.make_inputs(name, seed, workdir)
        probes = False in traces
        before = _setup_probes(name, workdir, deadline) if probes else []
        res = _child(["run", name, str(workdir), "0"], deadline)
        after = _setup_probes(name, workdir, deadline) if probes else []
        setups = before + [res["metrics"]["setup_s"]["value"]] + after
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
        res["setups"] = setups
        results[False] = res
        if True in traces:
            results[True] = _child(["run", name, str(workdir), "1"], deadline)
            shutil.move(str(workdir / "spans.jsonl"), RUNS / f"{name}-seed{seed}.spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS.rmdir()  # only when no spans were kept there
    return results


def print_block(name, seed, trace, res, reference, commit):
    """The run header, notes and metrics of one result; reference is the untraced one."""
    h = res["header"]
    threads = ", ".join(f"{k} {v}" for k, v in h["blas_threads"].items()) or "none found"
    print(f"# workload {name}: seed {seed}, trace {int(trace)}")
    print(f"# host: {h['cores']} cores ({h['usable_cores']} usable); BLAS {h['blas']}, "
          f"threads: {threads}")
    print(f"# python {h['python']}, numpy {h['numpy']}, scipy {h['scipy']}; commit {commit}")
    print(f"# operations attempted {res['attempted']}, failed {res['failed']}, "
          f"correct {res['correct']}")
    if res["methods"]:
        print("# test RMSE by method, mean over sources: "
              + ", ".join(f"{k} {v:.4f}" for k, v in res["methods"].items()))
    for err in res["errors"]:
        print(f"# failure: {err}")
    lo, hi = res["floors"]
    print(f"# fits: {res['fits']}, with {res['iterations']} outer iterations; "
          f"{res['indefinite']} returned a relaxed kernel with an eigenvalue below "
          f"-eps_psd; the PSD check's floor (eps_psd x largest row sum) was "
          f"{lo:.3g} to {hi:.3g}")
    if trace:
        for key, traced in res["timings"].items():
            untraced = reference["timings"][key]
            print(f"# tracing overhead: {key} {traced:.4f} s traced vs {untraced:.4f} s "
                  f"untraced on the same inputs ({traced / untraced - 1.0:+.1%})")
        for absent in res["absent"]:
            print(f"# absent (not traced): {absent}")
    else:
        print("# setup_s is the median of " + ", ".join(f"{s:.4f}" for s in res["setups"]))
    for key, m in res["metrics"].items():
        print(f"{name:5s} {key:26s} {m['value']:14.6g} {m['unit']}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="one workload; default: all three in turn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="accepted and ignored: a run is one round of fixed work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics, 1: per-layer metrics (after an untraced "
                        "reference run); default: 0 for one workload, both for all")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "imputed_ridge" / "__init__.py").is_file():
        print(f"error: no imputed_ridge package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)  # before this process or a child loads numpy
    sys.path.insert(0, str(HERE))
    commit = _commit()

    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.trace is not None:
        traces = [bool(args.trace)]
    else:
        traces = [False] if args.workload else [False, True]
    results = {}
    try:
        for name in names:
            runs = run_workload(name, args.seed, traces)
            for trace in traces:
                print_block(name, args.seed, trace, runs[trace], runs[False], commit)
                results[f"{name} trace={int(trace)}"] = {
                    k: runs[trace][k] for k in ("correct", "attempted", "failed", "metrics")}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps({"workloads": results}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
