"""Command-line front end for the benchmark harness."""

from __future__ import annotations

import argparse
import sys

from .bench import (
    METHODS,
    ExperimentSpec,
    run_experiment,
    run_onevsall,
    sweep_fraction,
    write_report_tsv,
    write_sweep_tsv,
)
from .corruption import CorruptionKind, CorruptionSpec
from .solver import SolverConfig


def _label_col(text):
    try:
        return int(text)
    except ValueError:
        return text


def _int_list(text):
    return tuple(int(p) for p in text.split(",") if p.strip())


def _float_list(text):
    return [float(p) for p in text.split(",") if p.strip()]


def _add_corruption(p):
    p.add_argument("--corruption", default="independent",
                   choices=["independent", "dependent", "column", "native"])
    p.add_argument("--beta", type=float, default=None, help="deletion rate parameter")
    p.add_argument("--target-fraction", type=float, default=None,
                   help="calibrate beta to hit this observed fraction")


def _add_common(p):
    p.add_argument("--data", required=True, help="CSV file of features and a label column")
    p.add_argument("--label-col", type=_label_col, default=-1,
                   help="label column index or (with --has-header) name; default last")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--block-size", type=int, default=8)
    p.add_argument("--eligible-blocks", type=_int_list, default=(2, 3, 4))
    p.add_argument("--train-size", type=int, default=1000)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--methods", default=",".join(METHODS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=_int_list, default=tuple(range(-12, 11)),
                   help="log2 exponents for the lambda (and gamma) grid")
    p.add_argument("--full-grid", action="store_true",
                   help="exhaustive lambda x gamma sweep instead of coarse-to-fine")
    p.add_argument("--report-bounds", action="store_true",
                   help="attach capacity-bound values at the winning IRR point")
    p.add_argument("--solver-config", default=None,
                   help="JSON file of solver limits: tol, max_outer")


def _spec_from_args(args) -> ExperimentSpec:
    if args.corruption == "native":
        cspec = "native"
    else:
        kind = CorruptionKind(args.corruption)
        beta = args.beta if args.beta is not None else 0.0
        if kind is not CorruptionKind.COLUMN_BLOCK:
            if args.beta is None and args.target_fraction is None:
                raise ValueError(
                    f"{args.corruption} corruption needs --beta or --target-fraction"
                )
            cspec = CorruptionSpec(kind, beta=beta, seed=args.seed)
        else:
            cspec = CorruptionSpec(
                kind,
                block_size=args.block_size,
                eligible_blocks=args.eligible_blocks,
                seed=args.seed,
            )
    solver = SolverConfig()
    if args.solver_config:
        with open(args.solver_config) as fh:
            solver = SolverConfig.from_json(fh.read())
    return ExperimentSpec(
        dataset_path=args.data,
        label_column=args.label_col,
        corruption=cspec,
        target_fraction=args.target_fraction,
        train_size=args.train_size,
        trials=args.trials,
        methods=tuple(args.methods.split(",")),
        grid=args.grid,
        master_seed=args.seed,
        full_grid=args.full_grid,
        report_bounds=args.report_bounds,
        has_header=args.has_header,
        solver=solver,
    )


def _write_report(report, args):
    """Write the JSON report to --out and the optional TSV to --tsv; print a summary."""
    with open(args.out, "w") as fh:
        fh.write(report.to_json())
    if args.tsv:
        write_report_tsv(report, args.tsv)
    frac = f"{report.fraction_mean:.3f}±{report.fraction_std:.3f}"
    print(f"{report.spec.dataset_path}: fraction remaining {frac}")
    for name, res in report.methods.items():
        hp = f"lambda={res.best_lambda:g}"
        if res.best_gamma is not None:
            hp += f", gamma={res.best_gamma:g}"
        print(f"  {name:7s} rmse {res.rmse_mean:.4f}±{res.rmse_std:.4f}  ({hp})")
        for note in res.notes:
            print(f"          note: {note}")
    for note in report.notes:
        print(f"  note: {note}")
    print(f"  runtime: {report.runtime_seconds:.1f}s")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="irr",
        description="Ridge regression with learned imputation of missing features",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("bench", help="one corruption setting, full method table")
    _add_corruption(p_bench)
    _add_common(p_bench)
    p_bench.add_argument("--out", required=True, help="JSON report path")
    p_bench.add_argument("--tsv", default=None, help="also write a one-row TSV table")

    p_sweep = sub.add_parser("sweep", help="repeat bench across observed fractions")
    _add_corruption(p_sweep)
    _add_common(p_sweep)
    p_sweep.add_argument("--fractions", type=_float_list, required=True)
    p_sweep.add_argument("--out", required=True, help="TSV plot-data path")

    p_dig = sub.add_parser("digits", help="one-vs-all digit task with column corruption")
    _add_common(p_dig)
    # column corruption only: --corruption, --beta and --target-fraction
    # are not options of digits, so argparse rejects them
    p_dig.set_defaults(corruption="column", beta=None, target_fraction=None)
    p_dig.add_argument("--digit", type=int, required=True)
    p_dig.add_argument("--out", required=True, help="JSON report path")
    p_dig.add_argument("--tsv", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "bench":
            spec = _spec_from_args(args)
            _write_report(run_experiment(spec), args)
        elif args.command == "sweep":
            # each row recalibrates to its own fraction, so a missing
            # --beta just needs any placeholder target
            if args.beta is None and args.target_fraction is None:
                args.target_fraction = 1.0
            spec = _spec_from_args(args)
            rows = sweep_fraction(spec, args.fractions)
            write_sweep_tsv(rows, args.out)
            for frac, method, mean, std in rows:
                print(f"fraction {frac:g}  {method:7s} rmse {mean:.4f}±{std:.4f}")
        else:
            spec = _spec_from_args(args)
            _write_report(run_onevsall(spec, args.digit), args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
