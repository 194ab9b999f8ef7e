"""Zero-shot recognition with adaptive semantic feature-space adjustment.

The package exports the pipeline; lower-level functions live in
:mod:`zsadjust.mapping`, :mod:`zsadjust.linalg`, :mod:`zsadjust.adjustment`,
:mod:`zsadjust.trainer` and :mod:`zsadjust.inference`.
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
