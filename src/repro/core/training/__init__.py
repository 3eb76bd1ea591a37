"""Training utilities: Trainer, early stopping, metrics, adapters."""

from repro.core.training.metrics import mae, rmse, accuracy, pixel_accuracy
from repro.core.training.early_stopping import EarlyStopping
from repro.core.training.adapters import (
    periodical_batch,
    sequential_batch,
    classification_batch,
    classification_with_features_batch,
    segmentation_batch,
)
from repro.core.training.trainer import Trainer, TrainingResult

__all__ = [
    "mae",
    "rmse",
    "accuracy",
    "pixel_accuracy",
    "EarlyStopping",
    "Trainer",
    "TrainingResult",
    "periodical_batch",
    "sequential_batch",
    "classification_batch",
    "classification_with_features_batch",
    "segmentation_batch",
]
