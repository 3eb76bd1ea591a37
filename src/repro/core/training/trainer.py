"""The training loop.

Supports both update schedules the paper describes (Section III-A2):
*incremental* (weights step after every batch — the paper's default)
and *cumulative* (gradients accumulate across the epoch and step once).
Validation-driven early stopping mirrors Section V-C.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.core.training.early_stopping import EarlyStopping
from repro.tensor import no_grad


@dataclass
class TrainingResult:
    """What a fit() run produced."""

    train_losses: list = field(default_factory=list)
    val_losses: list = field(default_factory=list)
    epochs_run: int = 0
    stopped_early: bool = False
    epoch_seconds: list = field(default_factory=list)

    @property
    def mean_epoch_seconds(self) -> float:
        if not self.epoch_seconds:
            return float("nan")
        return sum(self.epoch_seconds) / len(self.epoch_seconds)


class Trainer:
    """Generic trainer over any model + adapter pair.

    Every step runs ``loss.backward(free_graph=True)``: each
    intermediate activation, gradient and closure is released during
    the backward walk, bounding peak memory at roughly one live layer
    instead of the whole unrolled graph.

    Parameters
    ----------
    model, optimizer, loss_fn:
        The usual trio.
    batch_adapter:
        Maps a collated batch to ``(inputs_tuple, target)`` — see
        :mod:`repro.core.training.adapters`.
    training_mode:
        ``"incremental"`` (step per batch) or ``"cumulative"``
        (step per epoch).
    """

    def __init__(
        self,
        model,
        optimizer,
        loss_fn,
        batch_adapter,
        training_mode: str = "incremental",
        grad_clip: float | None = None,
    ):
        if training_mode not in ("incremental", "cumulative"):
            raise ValueError(
                f"training_mode must be 'incremental' or 'cumulative', "
                f"got {training_mode!r}"
            )
        if grad_clip is not None and grad_clip <= 0:
            raise ValueError(f"grad_clip must be positive, got {grad_clip}")
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn
        self.batch_adapter = batch_adapter
        self.training_mode = training_mode
        self.grad_clip = grad_clip
        self._trace_session = None

    def _ensure_trace_session(self):
        """The session for the trainer's *current* model and loss
        function; reassigning either retires the old session, whose
        tape recorded the old one."""
        session = self._trace_session
        if session is not None and (
            session.model is not self.model
            or session.loss_fn is not self.loss_fn
        ):
            session.close()
            session = None
        if session is None:
            from repro.tensor.trace import TraceSession

            session = self._trace_session = TraceSession(self.model, self.loss_fn)
        return session

    def _global_grad_norm(self) -> float:
        """Global L2 norm over all parameter gradients."""
        import numpy as np

        total = 0.0
        for param in self.model.parameters():
            if param.grad is not None:
                total += float((param.grad.astype(np.float64) ** 2).sum())
        return total**0.5

    def _clip_gradients(self) -> None:
        """Scale all gradients so their global L2 norm is at most
        ``grad_clip`` — the standard guard against the divergence
        spikes saturating heads (tanh) provoke under Adam.

        The norm (computed anyway for clipping) is recorded into the
        ``trainer.grad_norm`` histogram; no extra passes are made when
        clipping is off."""
        from repro import obs

        norm = self._global_grad_norm()
        obs.registry.histogram("trainer.grad_norm").observe(norm)
        if norm > self.grad_clip:
            scale = self.grad_clip / norm
            for param in self.model.parameters():
                if param.grad is not None:
                    param.grad *= scale

    # ------------------------------------------------------------------
    def train_epoch(self, loader, trace: bool = False) -> float:
        """One pass over the loader; returns mean batch loss.

        ``trace=True`` routes each batch through a
        :class:`~repro.tensor.trace.TraceSession`: the first step is
        recorded, matching steps re-run the recorded ops, and any
        guard condition falls back to the ordinary eager step with
        identical numbers (see :mod:`repro.tensor.trace`)."""
        self.model.train()
        session = self._ensure_trace_session() if trace else None
        total, batches = 0.0, 0
        if self.training_mode == "cumulative":
            self.optimizer.zero_grad()
        for batch in loader:
            inputs, target = self.batch_adapter(batch)
            if session is not None:
                if self.training_mode == "incremental":
                    self.optimizer.zero_grad()
                loss_value = session.step(inputs, target)
                if self.training_mode == "incremental":
                    if self.grad_clip is not None:
                        self._clip_gradients()
                    self.optimizer.step()
                total += loss_value
            else:
                output = self.model(*inputs)
                loss = self.loss_fn(output, target)
                if self.training_mode == "incremental":
                    self.optimizer.zero_grad()
                    loss.backward(free_graph=True)
                    if self.grad_clip is not None:
                        self._clip_gradients()
                    self.optimizer.step()
                else:
                    loss.backward(free_graph=True)
                total += loss.item()
            batches += 1
        if self.training_mode == "cumulative" and batches:
            if self.grad_clip is not None:
                self._clip_gradients()
            self.optimizer.step()
        return total / max(batches, 1)

    def evaluate(self, loader, metrics: dict | None = None) -> dict:
        """Mean loss (key ``"loss"``) plus any named metrics over a
        loader, without touching gradients."""
        self.model.eval()
        metrics = metrics or {}
        sums = {name: 0.0 for name in metrics}
        loss_total, batches = 0.0, 0
        with no_grad():
            for batch in loader:
                inputs, target = self.batch_adapter(batch)
                output = self.model(*inputs)
                loss_total += self.loss_fn(output, target).item()
                for name, fn in metrics.items():
                    sums[name] += fn(output, target)
                batches += 1
        result = {name: value / max(batches, 1) for name, value in sums.items()}
        result["loss"] = loss_total / max(batches, 1)
        return result

    def fit(
        self,
        train_loader,
        val_loader=None,
        epochs: int = 10,
        early_stopping: EarlyStopping | None = None,
        verbose: bool = False,
        trace: bool | None = None,
    ) -> TrainingResult:
        """Train for up to ``epochs``, optionally early-stopping on
        validation loss.

        ``trace=True`` records the first training step and replays the
        recorded ops on every later step with a matching input
        signature — see :mod:`repro.tensor.trace` for the guard
        conditions that fall back to eager.  ``trace=None`` (default)
        reads the ``REPRO_TRACE`` environment variable ("1" enables),
        so CI lanes can force the traced path without code changes."""
        from repro import obs

        if trace is None:
            trace = os.environ.get("REPRO_TRACE", "") not in ("", "0")
        result = TrainingResult()
        for epoch in range(epochs):
            with obs.tracer.span("trainer.epoch") as span:
                started = time.perf_counter()
                train_loss = self.train_epoch(train_loader, trace=trace)
                elapsed = time.perf_counter() - started
            span.set("epoch", epoch + 1)
            span.set("train_loss", train_loss)
            obs.registry.histogram("trainer.epoch_seconds").observe(elapsed)
            obs.registry.histogram("trainer.train_loss").observe(train_loss)
            result.epoch_seconds.append(elapsed)
            result.train_losses.append(train_loss)
            result.epochs_run = epoch + 1
            if val_loader is not None:
                val_loss = self.evaluate(val_loader)["loss"]
                result.val_losses.append(val_loss)
                if verbose:
                    print(
                        f"epoch {epoch + 1}: train={train_loss:.5f} "
                        f"val={val_loss:.5f}"
                    )
                if early_stopping is not None and early_stopping.step(val_loss):
                    result.stopped_early = True
                    break
            elif verbose:
                print(f"epoch {epoch + 1}: train={train_loss:.5f}")
        return result
