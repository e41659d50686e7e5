"""Capacity bounds for the relaxed predictor class.

The hypothesis class is every dual predictor built from a kernel in
the relaxed family with budgets ||M||_F <= gamma, joint slice norm
<= gamma^2, and dual weights bounded through the ridge solve.  Its
Rademacher complexity admits a closed form in the problem constants:

    B  bound on |y_i|            (caps ||alpha|| at B / (lam sqrt(m)))
    R  bound on ||x_i||
    gamma  imputation budget
    lam    ridge weight
    d, m   dimension and sample count

and the deviation bound follows from it by a standard concentration
argument.  ``empirical_rademacher`` estimates the same quantity by
direct simulation so the closed form can be checked against data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .kernel import relaxed_apply
from .solver import Hyperparams


@dataclass(frozen=True)
class BoundInputs:
    B: float
    R: float
    gamma: float
    lam: float
    d: int
    m: int

    def __post_init__(self):
        if self.B < 0 or self.R < 0 or self.gamma < 0:
            raise ValueError("B, R, gamma must be nonnegative")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.d < 1 or self.m < 1:
            raise ValueError("d and m must be positive")

    @classmethod
    def from_dataset(cls, ds: Dataset, hp: Hyperparams) -> "BoundInputs":
        """Measure B and R from the sample itself, as the bound assumes."""
        B = float(np.abs(ds.y).max()) if ds.m else 0.0
        R = float(np.sqrt((ds.X * ds.X).sum(axis=1).max())) if ds.m else 0.0
        return cls(B=B, R=R, gamma=hp.gamma, lam=hp.lam, d=ds.d, m=ds.m)


def rademacher_bound(b: BoundInputs) -> float:
    """Closed-form complexity bound for the relaxed class.

    (1 + gamma + (gamma + gamma^2) sqrt(d)) * B R^2 / (lam sqrt(m)).
    """
    lead = 1.0 + b.gamma + (b.gamma + b.gamma**2) * np.sqrt(b.d)
    return float(lead * b.B * b.R**2 / (b.lam * np.sqrt(b.m)))


def generalization_gap(b: BoundInputs, delta: float) -> float:
    """High-probability train/test deviation at confidence 1 - delta.

    With c = B R^2 (1 + gamma)^2 / lam:
        c * ( c sqrt(d / m) + sqrt(8 ln(2 / delta) / m) ).
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    c = b.B * b.R**2 * (1.0 + b.gamma) ** 2 / b.lam
    return float(c * (c * np.sqrt(b.d / b.m) + np.sqrt(8.0 * np.log(2.0 / delta) / b.m)))


def _unit(rng, shape):
    g = rng.standard_normal(shape)
    norm = np.sqrt((g * g).sum())
    if norm == 0.0:
        g = np.zeros(shape)
        g.flat[0] = 1.0
        return g
    return g / norm


def empirical_rademacher(ds: Dataset, hp: Hyperparams, B, n_sigma=64, n_hyp=96, seed=0):
    """Monte Carlo estimate of the class's Rademacher complexity.

    Draws sign vectors sigma and random hypotheses on the boundaries of
    the budget balls (dual weights at radius B / (lam sqrt(m)), map at
    radius gamma, slices at radius gamma^2), then averages the maximum
    correlation max_h |sigma . h(X)| / m over sigma.  Hypotheses cycle
    through four families: dual weights alone, with the map, with the
    slices, and with both, so every term of the kernel is exercised.
    The estimate must stay below rademacher_bound for matching inputs.
    Each h(X) = K(M, N) alpha comes from kernel.relaxed_apply on the
    sample's own rows, so no m x m kernel is formed.
    """
    if ds.m == 0:
        raise ValueError("empty dataset")
    if n_sigma < 1 or n_hyp < 1:
        raise ValueError("n_sigma and n_hyp must be positive")
    m, d = ds.m, ds.d
    gamma, lam = hp.gamma, hp.lam
    radius_a = B / (lam * np.sqrt(m))
    rng = np.random.default_rng(seed)

    X, Zb = ds.X, 1.0 - ds.Z
    H = np.empty((n_hyp, m))
    for j in range(n_hyp):
        mode = j % 4
        alpha = radius_a * _unit(rng, m)
        M = gamma * _unit(rng, (d, d)) if mode in (1, 3) else np.zeros((d, d))
        # the kernel sees only the slices' symmetric part
        slices = gamma**2 * _unit(rng, (d, d, d)) if mode in (2, 3) else np.zeros((d, d, d))
        H[j] = relaxed_apply(X, Zb, M, slices, alpha, X, ds.Z)

    signs = np.where(rng.random((n_sigma, m)) < 0.5, -1.0, 1.0)
    corr = np.abs(signs @ H.T) / m
    return float(corr.max(axis=1).mean())
