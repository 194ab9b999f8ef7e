"""Zero-shot recognition with adaptive semantic feature-space adjustment.

A tied-weight encoder-decoder mapping between visual and semantic
feature spaces is solved in closed form through a generalized
Lyapunov/Sylvester equation; seen and unseen class prototypes are then
iteratively adjusted, and instances of never-seen classes are classified
by nearest-prototype cosine ranking.

The package exports the pipeline; the lower-level functions (class
statistics, the objective, the solver's building blocks) live in their
modules: :mod:`zsadjust.mapping`, :mod:`zsadjust.linalg`,
:mod:`zsadjust.adjustment` and :mod:`zsadjust.inference`.
"""

from .adjustment import adjust_seen, adjust_unseen
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
from .inference import EvalReport, evaluate, predict, sweep_k
from .linalg import SylvesterSystem, solve_sylvester
from .mapping import HyperParams, MappingModel
from .trainer import IterationRecord, TrainingTrace, benchmark_training, train

__version__ = "0.1.0"

__all__ = [
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
    "benchmark_training",
    "evaluate",
    "load_labels",
    "load_matrix",
    "load_prototypes",
    "predict",
    "save_labels",
    "save_matrix",
    "save_prototypes",
    "solve_sylvester",
    "split",
    "sweep_k",
    "synthesize",
    "train",
]
