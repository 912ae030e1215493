"""choqfuse: score-level decision fusion with Choquet integrals.

Builds Sugeno lambda-fuzzy measures from singleton densities, fuses
per-matcher similarity scores with the Choquet integral (or classical
rules: mean, product, min, max, weighted sum, AND/OR/majority vote),
evaluates fused scores with FAR/FRR curves and the equal error rate,
and learns the measure densities with a real-coded genetic algorithm
that minimizes EER on labeled client/impostor data.
"""

from .aggregate import (
    FusionRule,
    RULE_TAGS,
    SortedScores,
    choquet_fuse,
    choquet_fuse_batch,
    rule_fuse_batch,
)
from .data import (
    DataFormatError,
    LabeledScoreSet,
    load_csv,
    normalize_minmax,
    synthetic_csv_path,
    synthetic_dataset,
    write_csv,
)
from .ga import (
    GaConfig,
    GenerationRecord,
    Population,
    evolve,
    population_fitness,
)
from .measures import (
    ConvergenceError,
    LambdaMeasure,
    TableMeasure,
    lambda_tables,
    solve_lambda,
    solve_lambda_batch,
)
from .metrics import (
    EvalReport,
    evaluate_scores,
    sweep_errors,
    write_roc_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DataFormatError",
    "EvalReport",
    "FusionRule",
    "GaConfig",
    "GenerationRecord",
    "LabeledScoreSet",
    "LambdaMeasure",
    "Population",
    "RULE_TAGS",
    "SortedScores",
    "TableMeasure",
    "choquet_fuse",
    "choquet_fuse_batch",
    "evaluate_scores",
    "evolve",
    "lambda_tables",
    "load_csv",
    "normalize_minmax",
    "population_fitness",
    "rule_fuse_batch",
    "solve_lambda",
    "solve_lambda_batch",
    "sweep_errors",
    "synthetic_csv_path",
    "synthetic_dataset",
    "write_csv",
    "write_roc_csv",
]
