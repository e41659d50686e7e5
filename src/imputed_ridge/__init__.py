"""Ridge regression that is robust to missing features.

A linear imputation map is trained jointly with the regressor through
a convex relaxation of the imputed-data kernel; baselines, corruption
simulators, capacity bounds, and a reproducible benchmark harness
round out the package.
"""

from .dataset import (
    CsvFormatError,
    Dataset,
    load_csv,
    normalize,
    split,
)
from .corruption import (
    CorruptionKind,
    CorruptionSpec,
    calibrate_beta,
    corrupt_column_block,
    corrupt_dependent,
    corrupt_independent,
)
from .imputation import (
    fit_independent,
    fit_mean,
    impute_dataset,
)
from .kernel import LiftedTensor
from .solver import (
    Diagnostics,
    Hyperparams,
    IrrSolution,
    SolverConfig,
    predict_batch,
    ridge_weights,
    rmse,
    solve_irr,
)
from .theory import (
    BoundInputs,
    empirical_rademacher,
    generalization_gap,
    rademacher_bound,
)
from .bench import (
    ExperimentReport,
    ExperimentSpec,
    MethodResult,
    run_experiment,
    run_onevsall,
    sweep_fraction,
)

__version__ = "0.1.0"
