"""Artificial feature-deletion processes.

Each process takes a fully observed feature matrix and returns an
observation mask of the same shape.  Masks are drawn from a seeded
generator, so a (seed, shape) pair always yields the same mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

# how close calibrate_beta's averaged observed fraction must come to the target
TOL = 0.01


class CorruptionKind(Enum):
    INDEPENDENT = "independent"
    DEPENDENT = "dependent"
    COLUMN_BLOCK = "column"


@dataclass(frozen=True)
class CorruptionSpec:
    """Description of one corruption process."""

    kind: CorruptionKind
    beta: float = 0.0
    block_size: int = 0
    eligible_blocks: tuple = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", CorruptionKind(self.kind))
        object.__setattr__(self, "eligible_blocks", tuple(self.eligible_blocks))
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.kind is CorruptionKind.COLUMN_BLOCK and self.block_size <= 0:
            raise ValueError("column corruption needs a positive block_size")


def corrupt_independent(X, beta, seed):
    """Feature-independent deletion.

    One rate p_k ~ U[0, beta] is drawn per feature, then each entry of
    column k is deleted independently with probability p_k.  Only the
    shape of X matters; the expected fraction remaining is 1 - beta/2.
    Draw order is fixed: rates first, then the per-entry uniforms.
    """
    X = np.asarray(X, dtype=float)
    m, d = X.shape
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, beta, size=d)
    u = rng.random((m, d))
    return (u >= p).astype(float)


def corrupt_dependent(X, beta, seed):
    """Value-dependent deletion.

    Each feature draws a threshold tau_k ~ U[0, 1] and a direction
    sign_k in {-1, +1}; an entry is deleted with probability beta iff
    sign_k * (x - tau_k) > 0.  Requires features already scaled to
    [0, 1], otherwise thresholds would miss the data's range.  Draw
    order is fixed: thresholds, then uniforms for the directions
    (sign_k = -1 below 0.5), then the per-entry uniforms.
    """
    X = np.asarray(X, dtype=float)
    m, d = X.shape
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if X.min() < -1e-9 or X.max() > 1.0 + 1e-9:
        raise ValueError(
            "dependent corruption needs features in [0, 1]; normalize first"
        )
    rng = np.random.default_rng(seed)
    tau = rng.uniform(0.0, 1.0, size=d)
    sign = np.where(rng.random(d) < 0.5, -1.0, 1.0)
    u = rng.random((m, d))
    exceeds = sign * (X - tau) > 0.0
    return np.where(exceeds & (u < beta), 0.0, 1.0)


def corrupt_column_block(X, block_size, eligible_blocks, seed):
    """Structured deletion of one strided column group per row.

    With d features laid out row-major as an image of ``block_size``
    pixel rows, block b collects feature indices {b, b + n_blocks,
    b + 2*n_blocks, ...}, i.e. one image column.  Each sample picks one
    eligible block uniformly and loses exactly those features.
    """
    X = np.asarray(X, dtype=float)
    m, d = X.shape
    if block_size <= 0 or d % block_size != 0:
        raise ValueError(f"block_size {block_size} must divide d={d}")
    n_blocks = d // block_size
    eligible = np.asarray(sorted(set(int(b) for b in eligible_blocks)), dtype=int)
    if eligible.size == 0:
        raise ValueError("eligible_blocks is empty")
    if eligible.min() < 0 or eligible.max() >= n_blocks:
        raise ValueError(
            f"eligible blocks must lie in [0, {n_blocks}), got {eligible.tolist()}"
        )
    rng = np.random.default_rng(seed)
    choice = eligible[rng.integers(0, eligible.size, size=m)]
    # block b covers indices b, b + n_blocks, ..., b + (block_size-1)*n_blocks
    offsets = np.arange(block_size) * n_blocks
    cols = choice[:, None] + offsets[None, :]
    Z = np.ones((m, d))
    Z[np.arange(m)[:, None], cols] = 0.0
    return Z


def apply(spec: CorruptionSpec, X) -> np.ndarray:
    """Dispatch a CorruptionSpec to the matching process."""
    if spec.kind is CorruptionKind.INDEPENDENT:
        return corrupt_independent(X, spec.beta, spec.seed)
    if spec.kind is CorruptionKind.DEPENDENT:
        return corrupt_dependent(X, spec.beta, spec.seed)
    return corrupt_column_block(X, spec.block_size, spec.eligible_blocks, spec.seed)


def calibrate_beta(X, kind, target_fraction, seed):
    """Find beta so the expected observed fraction hits a target within TOL.

    Bisection on beta with common random numbers: the same five mask
    seeds are reused at every trial point, which makes the averaged
    observed fraction monotone in beta and the search well posed.
    Raises if the target is outside what the process can reach.
    """
    kind = CorruptionKind(kind)
    if kind is CorruptionKind.COLUMN_BLOCK:
        raise ValueError("column corruption has no beta to calibrate")
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError(f"target fraction must be in (0, 1], got {target_fraction}")

    corrupt = (
        corrupt_independent if kind is CorruptionKind.INDEPENDENT else corrupt_dependent
    )
    sub_seeds = np.random.SeedSequence(seed).generate_state(5)

    def observed(beta):
        fracs = [corrupt(X, beta, int(s)).mean() for s in sub_seeds]
        return float(np.mean(fracs))

    if abs(1.0 - target_fraction) <= TOL:
        return 0.0
    floor = observed(1.0)
    if target_fraction < floor - TOL:
        raise ValueError(
            f"target fraction {target_fraction} below process floor {floor:.3f}"
        )
    if abs(floor - target_fraction) <= TOL:
        return 1.0

    # observed() is monotone decreasing in beta under common random numbers
    lo, hi = 0.0, 1.0
    mid = 0.5
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        frac = observed(mid)
        if abs(frac - target_fraction) <= TOL:
            break
        if frac > target_fraction:
            lo = mid
        else:
            hi = mid
    return mid
