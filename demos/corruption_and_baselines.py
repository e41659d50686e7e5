#!/usr/bin/env python3
"""Walk through the three deletion processes and the baseline repairs.

A small synthetic table is corrupted three ways (feature-independent
deletion, value-dependent deletion, and strided column blocks), the
deletion rate is calibrated to hit a target observed fraction, and the
zero / mean / per-feature-regression baselines, each an affine fill
(M, b), are fit on the corrupted view and compared against the truth
they never saw.

Run it directly; it prints everything and takes about a second.
"""

import numpy as np

from imputed_ridge import (
    CorruptionKind,
    CorruptionSpec,
    Dataset,
    calibrate_beta,
    fit_independent,
    fit_mean,
    impute_dataset,
)
from imputed_ridge.corruption import apply as corrupt


def main():
    rng = np.random.default_rng(4)
    m, d = 400, 6
    # features carry enough cross-correlation that regression repair
    # has something to work with
    base = rng.random((m, 2))
    X = np.clip(base @ rng.random((2, d)) + 0.15 * rng.random((m, d)), 0.0, 1.0)
    y = X @ rng.uniform(-1.0, 1.0, d)

    print("== deletion processes ==")
    for kind in (CorruptionKind.INDEPENDENT, CorruptionKind.DEPENDENT):
        spec = CorruptionSpec(kind, beta=0.6, seed=11)
        Z = corrupt(spec, X)
        print(f"{kind.value:12s} observed fraction {Z.mean():.3f}")
    block = CorruptionSpec(
        CorruptionKind.COLUMN_BLOCK, block_size=2, eligible_blocks=(0, 1), seed=11
    )
    Zb = corrupt(block, X)
    print(f"{'column':12s} observed fraction {Zb.mean():.3f} (exact by construction)")

    print("\n== calibration ==")
    for target in (0.85, 0.7, 0.55):
        beta = calibrate_beta(X, CorruptionKind.INDEPENDENT, target, seed=11)
        Z = corrupt(CorruptionSpec(CorruptionKind.INDEPENDENT, beta=beta, seed=99), X)
        print(f"target {target:.2f} -> beta {beta:.3f} -> fraction {Z.mean():.3f}")

    print("\n== baseline repairs ==")
    spec = CorruptionSpec(CorruptionKind.INDEPENDENT, beta=0.6, seed=21)
    Z = corrupt(spec, X)
    ds = Dataset(X * Z, Z, y)
    missing = Z == 0
    zero = np.zeros((d, d))
    for name, M, b in (
        ("zero", zero, 0.0),
        ("mean", zero, fit_mean(ds)),
        ("ind", fit_independent(ds), 0.0),
    ):
        repaired = impute_dataset(M, ds.X, ds.Z, b)
        err = np.sqrt(((repaired - X)[missing] ** 2).mean())
        print(f"{name:5s} rmse on deleted entries {err:.4f}")

    # a one-row call fills that row exactly as the whole matrix does
    M = fit_independent(ds)
    one = impute_dataset(M, ds.X[:1], ds.Z[:1])[0]
    same = np.allclose(one, impute_dataset(M, ds.X, ds.Z)[0])
    print(f"one-row fill matches the matrix fill: {same}")


if __name__ == "__main__":
    main()
