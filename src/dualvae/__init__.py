"""Dual disentangled variational autoencoders for implicit-feedback recommendation."""

from .data import DatasetSplit, InteractionMatrix, ingest, make_batches, split
from .errors import (CheckpointError, ConfigError, ContractError, DataError,
                     DomainError, DualVaeError, NumericError, ShapeError)
from .evaluation import evaluate_ranking
from .model import ModelParams, Snapshot
from .synth import aspect_recovery_score, generate
from .tensor import Parameter, RngState, Tape, Tensor
from .trainer import Adam, Checkpoint, TrainConfig, fit, load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "Adam", "Checkpoint", "CheckpointError", "ConfigError", "ContractError",
    "DataError", "DatasetSplit", "DomainError", "DualVaeError", "InteractionMatrix",
    "ModelParams", "NumericError", "Parameter", "RngState", "ShapeError", "Snapshot",
    "Tape", "Tensor", "TrainConfig", "aspect_recovery_score", "evaluate_ranking",
    "fit", "generate", "ingest", "load_checkpoint", "make_batches", "save_checkpoint",
    "split",
]
