"""Sparse subspace clustering via greedy self-expression, with per-point
dictionary budgets selected from the data's neighborhood structure."""

from .adaptive import (
    KArray,
    compute_k_array,
    gram_matrix,
    neighborhood_scores,
)
from .data import (
    DataMatrix,
    Labels,
    SyntheticSpec,
    add_gaussian_noise,
    blend_gaussian_noise,
    generate_synthetic,
    load_csv,
    normalize_columns,
    save_csv,
    save_labels,
)
from .experiment import (
    ExperimentConfig,
    ExperimentError,
    SweepSpec,
    compare,
    load_dataset,
    run_sweep,
    run_trials,
)
from .metrics import (
    MetricsReport,
    accuracy,
    connectivity,
    sea_ratio,
    subspace_preserving_error,
    subspace_preserving_rate,
)
from .omp import CoefMatrix, omp_solve, ssc_omp, ssc_omp_adaptive
from .spectral import (
    AffinityMatrix,
    build_affinity,
    normalized_laplacian,
    spectral_cluster,
)

__version__ = "0.1.0"

__all__ = [
    "AffinityMatrix",
    "CoefMatrix",
    "DataMatrix",
    "ExperimentConfig",
    "ExperimentError",
    "KArray",
    "Labels",
    "MetricsReport",
    "SweepSpec",
    "SyntheticSpec",
    "accuracy",
    "add_gaussian_noise",
    "blend_gaussian_noise",
    "build_affinity",
    "compare",
    "compute_k_array",
    "connectivity",
    "generate_synthetic",
    "gram_matrix",
    "load_csv",
    "load_dataset",
    "neighborhood_scores",
    "normalize_columns",
    "normalized_laplacian",
    "omp_solve",
    "run_sweep",
    "run_trials",
    "save_csv",
    "save_labels",
    "sea_ratio",
    "spectral_cluster",
    "ssc_omp",
    "ssc_omp_adaptive",
    "subspace_preserving_error",
    "subspace_preserving_rate",
    "__version__",
]
