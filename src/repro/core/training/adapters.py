"""Batch adapters: map DataLoader batches to (model inputs, target).

Each model family consumes a different representation, so the
:class:`~repro.core.training.trainer.Trainer` takes an adapter that
turns a collated batch into ``(inputs_tuple, target_tensor)``.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor


def periodical_batch(batch: dict):
    """Periodical dict batches -> ST-ResNet/DeepSTN+/PeriodicalCNN
    inputs."""
    inputs = (
        Tensor(batch["x_closeness"]),
        Tensor(batch["x_period"]),
        Tensor(batch["x_trend"]),
    )
    return inputs, Tensor(batch["y_data"])


def sequential_batch(batch: tuple):
    """(history, prediction) batches -> ConvLSTM inputs.  A length-1
    prediction window is squeezed to one frame."""
    x, y = batch
    y = np.asarray(y)
    if y.ndim == 5 and y.shape[1] == 1:
        y = y[:, 0]
    return (Tensor(x),), Tensor(y)


def classification_batch(batch: tuple):
    """(image, label) batches."""
    x, y = batch
    return (Tensor(x),), Tensor(np.asarray(y, dtype=np.int64))


def classification_with_features_batch(batch: tuple):
    """(image, label, features) batches (DeepSAT-V2)."""
    x, y, features = batch
    return (
        (Tensor(x), Tensor(features)),
        Tensor(np.asarray(y, dtype=np.int64)),
    )


def segmentation_batch(batch: tuple):
    """(image, mask) batches."""
    x, y = batch
    return (Tensor(x),), Tensor(np.asarray(y, dtype=np.int64))
