"""Trainer, early stopping, metrics, adapters."""

import numpy as np
import pytest

from repro.core.training import (
    EarlyStopping,
    Trainer,
    accuracy,
    classification_batch,
    classification_with_features_batch,
    mae,
    periodical_batch,
    pixel_accuracy,
    rmse,
    segmentation_batch,
    sequential_batch,
)
from repro.data import DataLoader
from repro.nn import Linear, MSELoss
from repro.optim import Adam
from repro.tensor import Tensor


class TestMetrics:
    def test_mae_rmse(self):
        pred = np.array([1.0, 3.0])
        target = np.array([0.0, 0.0])
        assert mae(pred, target) == pytest.approx(2.0)
        assert rmse(pred, target) == pytest.approx(np.sqrt(5.0))

    def test_metrics_accept_tensors(self):
        assert mae(Tensor([2.0]), Tensor([0.0])) == pytest.approx(2.0)

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 1, 1])
        assert accuracy(logits, labels) == pytest.approx(2 / 3)

    def test_pixel_accuracy(self):
        logits = np.zeros((1, 2, 2, 2))
        logits[0, 1, 0, :] = 5.0  # predict class 1 on the first row
        masks = np.array([[[1, 1], [0, 0]]])
        assert pixel_accuracy(logits, masks) == pytest.approx(1.0)


class TestEarlyStopping:
    def test_stops_after_patience(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.step(1.0)
        assert not stopper.step(1.1)
        assert stopper.step(1.2)
        assert stopper.stopped

    def test_improvement_resets(self):
        stopper = EarlyStopping(patience=2)
        stopper.step(1.0)
        stopper.step(1.1)
        assert not stopper.step(0.9)  # improved
        assert not stopper.step(1.0)
        assert stopper.step(1.0)

    def test_min_delta(self):
        stopper = EarlyStopping(patience=1, min_delta=0.5)
        stopper.step(1.0)
        assert stopper.step(0.8)  # not enough improvement

    def test_max_mode(self):
        stopper = EarlyStopping(patience=1, mode="max")
        stopper.step(0.5)
        assert not stopper.step(0.9)
        assert stopper.step(0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)
        with pytest.raises(ValueError):
            EarlyStopping(mode="middle")


class TestAdapters:
    def test_periodical(self, rng):
        batch = {
            "x_closeness": rng.random((2, 6, 4, 4)),
            "x_period": rng.random((2, 4, 4, 4)),
            "x_trend": rng.random((2, 2, 4, 4)),
            "y_data": rng.random((2, 2, 4, 4)),
            "t_index": np.array([5, 6]),
        }
        inputs, target = periodical_batch(batch)
        assert len(inputs) == 3
        assert target.shape == (2, 2, 4, 4)

    def test_sequential_squeezes_single_prediction(self, rng):
        x = rng.random((2, 5, 1, 4, 4))
        y = rng.random((2, 1, 1, 4, 4))
        (xt,), yt = sequential_batch((x, y))
        assert xt.shape == (2, 5, 1, 4, 4)
        assert yt.shape == (2, 1, 4, 4)

    def test_sequential_keeps_multi_prediction(self, rng):
        y = rng.random((2, 3, 1, 4, 4))
        _, yt = sequential_batch((rng.random((2, 5, 1, 4, 4)), y))
        assert yt.shape == (2, 3, 1, 4, 4)

    def test_classification(self, rng):
        (x,), y = classification_batch((rng.random((2, 3, 4, 4)), [1, 0]))
        assert y.dtype == np.int64

    def test_classification_with_features(self, rng):
        (x, f), y = classification_with_features_batch(
            (rng.random((2, 3, 4, 4)), [1, 0], rng.random((2, 5)))
        )
        assert f.shape == (2, 5)

    def test_segmentation(self, rng):
        (x,), y = segmentation_batch(
            (rng.random((2, 3, 4, 4)), rng.integers(0, 2, (2, 4, 4)))
        )
        assert y.dtype == np.int64


def _regression_setup(rng, n=64):
    x = rng.random((n, 3)).astype(np.float32)
    w = np.array([[1.0], [-2.0], [0.5]], dtype=np.float32)
    y = x @ w
    ds = list(zip(x, y))
    loader = DataLoader(ds, batch_size=16, shuffle=True, rng=0)
    model = Linear(3, 1, rng=0)
    adapter = lambda batch: ((Tensor(batch[0]),), Tensor(batch[1]))
    return model, loader, adapter


class TestTrainer:
    def test_incremental_reduces_loss(self, rng):
        model, loader, adapter = _regression_setup(rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.02), MSELoss(), adapter)
        result = trainer.fit(loader, epochs=10)
        assert result.train_losses[-1] < result.train_losses[0] / 5

    def test_cumulative_mode(self, rng):
        model, loader, adapter = _regression_setup(rng)
        trainer = Trainer(
            model, Adam(model.parameters(), lr=0.1), MSELoss(), adapter,
            training_mode="cumulative",
        )
        result = trainer.fit(loader, epochs=5)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_invalid_mode(self, rng):
        model, loader, adapter = _regression_setup(rng)
        with pytest.raises(ValueError):
            Trainer(model, Adam(model.parameters()), MSELoss(), adapter,
                    training_mode="batchwise")

    def test_early_stopping_triggers(self, rng):
        model, loader, adapter = _regression_setup(rng)
        trainer = Trainer(
            model, Adam(model.parameters(), lr=1e-8), MSELoss(), adapter
        )
        result = trainer.fit(
            loader, loader, epochs=50,
            early_stopping=EarlyStopping(patience=2, min_delta=1.0),
        )
        assert result.stopped_early
        assert result.epochs_run < 50

    def test_evaluate_reports_metrics(self, rng):
        model, loader, adapter = _regression_setup(rng)
        trainer = Trainer(model, Adam(model.parameters()), MSELoss(), adapter)
        out = trainer.evaluate(loader, {"mae": mae})
        assert set(out) == {"mae", "loss"}

    def test_evaluate_does_not_touch_grads(self, rng):
        model, loader, adapter = _regression_setup(rng)
        trainer = Trainer(model, Adam(model.parameters()), MSELoss(), adapter)
        trainer.evaluate(loader)
        assert all(p.grad is None for p in model.parameters())

    def test_result_bookkeeping(self, rng):
        model, loader, adapter = _regression_setup(rng)
        trainer = Trainer(model, Adam(model.parameters()), MSELoss(), adapter)
        result = trainer.fit(loader, loader, epochs=3)
        assert result.epochs_run == 3
        assert len(result.val_losses) == 3
        assert len(result.epoch_seconds) == 3
        assert result.mean_epoch_seconds > 0

    def test_eval_sets_eval_mode(self, rng):
        from repro import nn

        drop = nn.Dropout(0.5)
        net = nn.Sequential(Linear(3, 1, rng=0), drop)
        loader = DataLoader(
            list(zip(
                rng.random((8, 3)).astype(np.float32),
                rng.random((8, 1)).astype(np.float32),
            )),
            batch_size=4,
        )
        adapter = lambda batch: ((Tensor(batch[0]),), Tensor(batch[1]))
        trainer = Trainer(net, Adam(net.parameters()), MSELoss(), adapter)
        trainer.evaluate(loader)
        assert not drop.training
        trainer.train_epoch(loader)
        assert drop.training
