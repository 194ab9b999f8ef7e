"""Zero-shot recognition with adaptive semantic feature-space adjustment.

A tied-weight encoder-decoder mapping between visual and semantic
feature spaces is solved in closed form through a generalized
Lyapunov/Sylvester equation; seen and unseen class prototypes are then
iteratively adjusted, and instances of never-seen classes are classified
by nearest-prototype cosine ranking.
"""

from .adjustment import (
    adjust_seen,
    adjust_unseen,
    cosine_similarity,
    knn_seen,
)
from .data import (
    LabeledDataset,
    PrototypeTable,
    SynthSpec,
    load_labels,
    load_matrix,
    load_prototypes,
    save_labels,
    save_matrix,
    save_prototypes,
    split,
    synthesize,
)
from .errors import ConfigError, DataError, SolverError
from .inference import EvalReport, evaluate, predict, skewness, sweep_k
from .linalg import SylvesterSystem, solve_sylvester, sym_eig
from .mapping import (
    HyperParams,
    MappingModel,
    assemble_system,
    class_centroids,
    class_mean_map,
    expand_per_instance,
    objective,
    objective_gradient,
    solve_weights,
)
from .trainer import (
    BenchmarkResult,
    IterationRecord,
    TrainingTrace,
    benchmark_training,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkResult",
    "ConfigError",
    "DataError",
    "EvalReport",
    "HyperParams",
    "IterationRecord",
    "LabeledDataset",
    "MappingModel",
    "PrototypeTable",
    "SolverError",
    "SylvesterSystem",
    "SynthSpec",
    "TrainingTrace",
    "adjust_seen",
    "adjust_unseen",
    "assemble_system",
    "benchmark_training",
    "class_centroids",
    "class_mean_map",
    "cosine_similarity",
    "evaluate",
    "expand_per_instance",
    "knn_seen",
    "load_labels",
    "load_matrix",
    "load_prototypes",
    "objective",
    "objective_gradient",
    "predict",
    "save_labels",
    "save_matrix",
    "save_prototypes",
    "skewness",
    "solve_sylvester",
    "solve_weights",
    "split",
    "sweep_k",
    "sym_eig",
    "synthesize",
    "train",
]
