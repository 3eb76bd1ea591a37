"""``grid_train`` — Table VII grid leg: one training epoch each of
ConvLSTM, ST-ResNet, and ConvLSTM under the trace fuser.

Why: ``tensor``/``nn``/``optim`` do all the work; the dataset is in
memory so loader wait is ~0 and the engine is idle.  The third epoch
is the only end-to-end cover of ``tensor/trace.py``.  Inputs are the
``Temperature`` dataset's generator and representation settings with
the field seeded from ``--seed`` (``Temperature`` itself pins its seed
and caches to disk).
"""

from __future__ import annotations

import time

from harness import (
    Workload,
    eager_compute,
    require,
    step_metrics,
    train_steps,
)
from repro.core.datasets.grid import CustomGridDataset
from repro.core.datasets.synth import generate_weather_tensor
from repro.core.training import Trainer
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid_forecasting import (
    build_grid_model,
    make_grid_loaders,
)
from repro.nn import MSELoss
from repro.optim import Adam
from repro.tensor import TraceSession

NUM_STEPS = 1000
SMOKE_STEPS = 200  # the periodical representation needs > 168 steps
GRID = (12, 24)
TEMPERATURE_SEED = 201

# (leg tag, model name, traced)
LEGS = (
    ("convlstm", "ConvLSTM", False),
    ("st_resnet", "ST-ResNet", False),
    ("convlstm_traced", "ConvLSTM", True),
)


class GridTrain(Workload):
    name = "grid_train"
    min_passes = 3
    item_unit = "samples"

    def generate(self) -> None:
        steps = NUM_STEPS if self.scale >= 1 else SMOKE_STEPS
        self.config = ExperimentConfig(
            seeds=1, grid_steps=steps, num_images=0, num_seg_images=0,
            max_epochs=1,
        )
        self.tensor = generate_weather_tensor(
            num_steps=steps, height=GRID[0], width=GRID[1], channels=1,
            steps_per_day=24, seed=TEMPERATURE_SEED + self.seed,
        )
        self.reference = None  # losses of the first pass

    def _leg(self, model_name: str):
        """Fresh same-seed dataset view, loader, model and optimizer."""
        dataset = CustomGridDataset(
            self.tensor, steps_per_period=24, steps_per_trend=24 * 7
        )
        loader, _, _ = make_grid_loaders(
            dataset, model_name, self.config, self.seed
        )
        model, adapter, lr, _ = build_grid_model(
            model_name, dataset.num_channels, dataset.grid_height,
            dataset.grid_width, self.config, rng=self.seed,
        )
        return loader, model, adapter, Adam(model.parameters(), lr=lr)

    def run_pass(self) -> dict:
        losses, legs, samples = {}, {}, 0
        for tag, model_name, traced in LEGS:
            loader, model, adapter, optimizer = self._leg(model_name)
            trainer = Trainer(model, optimizer, MSELoss(), adapter)
            started = time.perf_counter()
            losses[tag] = trainer.train_epoch(loader, trace=traced)
            legs[f"training.epoch_s.{tag}"] = time.perf_counter() - started
            samples += len(loader.dataset)
        self.items_per_pass = samples
        return {"losses": losses, "legs": legs}

    def check(self, result: dict) -> None:
        losses = result["losses"]
        require(
            losses["convlstm_traced"] == losses["convlstm"],
            "traced ConvLSTM epoch loss is not bit-identical to eager: "
            f"{losses['convlstm_traced']!r} vs {losses['convlstm']!r}",
        )
        if self.reference is None:
            self.reference = losses
        require(
            losses == self.reference,
            f"epoch losses changed across passes: {losses} vs {self.reference}",
        )

    def traced_pass(self, tr) -> dict:
        losses = {}
        with tr.span("grid_train.pass", "bench"):
            for tag, model_name, traced in LEGS:
                with tr.span(f"training.leg_build.{tag}", "core.training"):
                    loader, model, adapter, optimizer = self._leg(model_name)
                    model.train()
                    loss_fn = MSELoss()
                if traced:
                    session = TraceSession(model, loss_fn)

                    def compute(inputs, target, session=session, tag=tag):
                        with tr.span(f"tensor.trace_step.{tag}", "tensor"):
                            return session.step(inputs, target)

                else:
                    compute = eager_compute(tr, tag, model, loss_fn)
                losses[tag] = train_steps(
                    tr, tag, loader, adapter,
                    optimizer.zero_grad, compute, optimizer.step,
                )
                if traced:
                    self.trace_stats = session.stats()
                    session.close()
        return {"losses": losses}

    def layer_metrics(self, ctx) -> dict:
        tr = ctx.tr
        steps = tr.select("tensor.trace_step")
        return {
            **ctx.legs,  # training.epoch_s.*, untraced
            **step_metrics(tr, "convlstm"),
            **step_metrics(tr, "st_resnet"),
            "data.loader_wait_s.grid": tr.total("data.loader_wait"),
            "tensor.trace_capture_s": steps[0]["end"] - steps[0]["start"],
            "tensor.trace_replay_share": self.trace_stats["replays"] / len(steps),
            "tensor.pool_hit_rate": ctx.pool_hit_rate,
        }
