"""Seeded latent-factor tables for the benchmark.

Every row is a noisy linear image of a few latent factors, so the
features are correlated and a masked feature can be predicted from the
observed ones: the regime where a learned imputation map should beat
zero fill.  The label is a linear function of the clean features plus
noise.  Tables are written as plain CSV (features, then the label) and
reach the program only through its own loader.

A table has two seeds.  The source seed fixes the population (factor
loadings and label weights), like a fixed real dataset; the row seed
draws the rows and the noise from it.
"""

from __future__ import annotations

import numpy as np

RANK = 3             # latent factors per table
FEATURE_NOISE = 0.3  # per-entry noise on top of the factor image
LABEL_NOISE = 0.1


def sub_seed(*key: int) -> int:
    """A stable 32-bit seed derived from a tuple of integers."""
    return int(np.random.SeedSequence([int(k) for k in key]).generate_state(1)[0])


def latent_table(source_seed: int, row_seed: int, rows: int, d: int):
    """(X, y) with X = F L + noise and y = (F L) w + noise."""
    pop = np.random.default_rng(source_seed)
    loadings = pop.standard_normal((RANK, d))
    weights = pop.standard_normal(d)
    rng = np.random.default_rng(row_seed)
    clean = rng.standard_normal((rows, RANK)) @ loadings
    X = clean + FEATURE_NOISE * rng.standard_normal((rows, d))
    y = clean @ weights + LABEL_NOISE * rng.standard_normal(rows)
    return X, y


def write_csv(path, X, y) -> None:
    """Features then label, no header, full precision."""
    np.savetxt(path, np.column_stack([X, y]), delimiter=",", fmt="%.17g")
