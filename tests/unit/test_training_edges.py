"""Coverage sweep: Trainer.evaluate metric-dict edge cases and
EarlyStopping boundary behavior (mode="max", exact min_delta)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.training import EarlyStopping, Trainer
from repro.core.training.metrics import mae, rmse
from repro.data import DataLoader
from repro.nn import Linear, MSELoss
from repro.optim import Adam
from repro.tensor import Tensor


def _setup(rng, n=32):
    x = rng.random((n, 3)).astype(np.float32)
    y = (x @ np.array([[1.0], [-2.0], [0.5]], dtype=np.float32))
    loader = DataLoader(list(zip(x, y)), batch_size=8, shuffle=False)
    model = Linear(3, 1, rng=0)
    adapter = lambda batch: ((Tensor(batch[0]),), Tensor(batch[1]))
    trainer = Trainer(model, Adam(model.parameters()), MSELoss(), adapter)
    return trainer, loader


class TestEvaluateEdgeCases:
    def test_default_metrics_is_loss_only(self, rng):
        trainer, loader = _setup(rng)
        out = trainer.evaluate(loader)
        assert set(out) == {"loss"}
        assert out["loss"] >= 0.0

    def test_empty_metrics_dict(self, rng):
        trainer, loader = _setup(rng)
        out = trainer.evaluate(loader, {})
        assert set(out) == {"loss"}

    def test_metrics_dict_not_mutated(self, rng):
        trainer, loader = _setup(rng)
        metrics = {"mae": mae, "rmse": rmse}
        out = trainer.evaluate(loader, metrics)
        assert set(metrics) == {"mae", "rmse"}  # caller's dict untouched
        assert set(out) == {"mae", "rmse", "loss"}

    def test_metric_named_loss_is_overwritten_by_mean_loss(self, rng):
        # "loss" is a reserved output key: a metric with that name is
        # computed but then replaced by the mean criterion loss.
        trainer, loader = _setup(rng)
        sentinel = lambda pred, target: 123456.0
        out = trainer.evaluate(loader, {"loss": sentinel})
        assert out["loss"] != 123456.0

    def test_empty_loader_returns_zero_means(self, rng):
        trainer, _ = _setup(rng)
        out = trainer.evaluate([], {"mae": mae})
        assert out == {"mae": 0.0, "loss": 0.0}

    def test_metric_values_are_batch_means(self, rng):
        trainer, loader = _setup(rng)
        out = trainer.evaluate(loader, {"mae": mae})
        # Recompute by hand over the same loader.
        total, batches = 0.0, 0
        for bx, by in loader:
            pred = trainer.model(Tensor(bx))
            total += mae(pred, Tensor(by))
            batches += 1
        assert out["mae"] == pytest.approx(total / batches)

    def test_evaluate_leaves_model_in_eval_mode(self, rng):
        trainer, loader = _setup(rng)
        trainer.evaluate(loader)
        assert not trainer.model.training


class TestEarlyStoppingBoundaries:
    def test_max_mode_improvement_tracks_best(self):
        stopper = EarlyStopping(patience=2, mode="max")
        assert stopper.step(0.5) is False
        assert stopper.best == 0.5
        assert stopper.step(0.7) is False
        assert stopper.best == 0.7

    def test_max_mode_stops_on_plateau(self):
        stopper = EarlyStopping(patience=2, mode="max")
        steps = [stopper.step(v) for v in (0.9, 0.95, 0.93, 0.94)]
        assert steps == [False, False, False, True]
        assert stopper.stopped

    def test_exact_min_delta_is_not_improvement_min_mode(self):
        stopper = EarlyStopping(patience=1, min_delta=0.1)
        stopper.step(1.0)
        # 0.9 == best - min_delta exactly: strict comparison, no improvement.
        assert stopper.step(0.9) is True

    def test_just_past_min_delta_is_improvement_min_mode(self):
        stopper = EarlyStopping(patience=1, min_delta=0.1)
        stopper.step(1.0)
        assert stopper.step(0.89) is False
        assert stopper.best == 0.89

    def test_exact_min_delta_is_not_improvement_max_mode(self):
        stopper = EarlyStopping(patience=1, min_delta=0.1, mode="max")
        stopper.step(1.0)
        assert stopper.step(1.1) is True

    def test_just_past_min_delta_is_improvement_max_mode(self):
        stopper = EarlyStopping(patience=1, min_delta=0.1, mode="max")
        stopper.step(1.0)
        assert stopper.step(1.11) is False
        assert stopper.best == 1.11

    def test_bad_epoch_counter_resets_on_improvement(self):
        stopper = EarlyStopping(patience=2)
        for value, expected in (
            (1.0, False),
            (1.5, False),  # bad 1
            (0.5, False),  # improvement resets
            (0.6, False),  # bad 1
            (0.7, True),   # bad 2 -> stop
        ):
            assert stopper.step(value) is expected

    def test_stopped_latches(self):
        stopper = EarlyStopping(patience=1)
        stopper.step(1.0)
        assert stopper.step(2.0) is True
        # Even a later improvement does not un-stop.
        assert stopper.step(0.1) is True
