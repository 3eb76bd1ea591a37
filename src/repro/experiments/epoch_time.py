"""Table VII: training time of every model for a single epoch.

Grid models train on the Temperature dataset, classifiers on EuroSAT,
segmentation models on 38-Cloud — matching the paper's assignments.
Each row also carries where its one timed epoch went: the deltas of
the ``tensor.op_*`` counters (:func:`repro.obs.op_span`) across it.
"""

from __future__ import annotations

import time

from repro import obs
from repro.core.datasets.grid import Temperature
from repro.core.training import Trainer
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid_forecasting import (
    build_grid_model,
    make_grid_loaders,
)
from repro.experiments.raster_tasks import (
    classification_trainer,
    segmentation_trainer,
)
from repro.experiments.tables import format_columns
from repro.nn import MSELoss
from repro.optim import Adam

GRID_ROWS = ("Periodical CNN", "ConvLSTM", "ST-ResNet", "DeepSTN+")
CLS_ROWS = ("DeepSAT V2", "SatCNN")
SEG_ROWS = ("FCN", "UNet", "UNet++")
#: (dataset, application, models) of each Table VII block.
TABLE7 = (
    ("Temperature", "Prediction", GRID_ROWS),
    ("EuroSAT", "Classification", CLS_ROWS),
    ("38-Cloud", "Segmentation", SEG_ROWS),
)


def _grid_trainer(model_name: str, root: str, config: ExperimentConfig, seed: int):
    """A grid model's trainer on Temperature, and its training loader."""
    dataset = Temperature(
        root, num_steps=config.grid_steps, grid_shape=config.weather_grid
    )
    train_loader, _, _ = make_grid_loaders(dataset, model_name, config, seed)
    model, adapter, lr, _ = build_grid_model(
        model_name,
        dataset.num_channels,
        dataset.grid_height,
        dataset.grid_width,
        config,
        rng=seed,
    )
    trainer = Trainer(model, Adam(model.parameters(), lr=lr), MSELoss(), adapter)
    return trainer, train_loader


def _op_counters() -> dict:
    """The ``tensor.op_s.*`` / ``tensor.op_calls.*`` counters now."""
    return {
        name: value for name, value in obs.registry.snapshot()["counters"].items()
        if name.startswith(("tensor.op_s.", "tensor.op_calls."))
    }


def timed_epoch(
    model_name: str, root: str, config: ExperimentConfig, seed: int = 0
) -> tuple[float, dict]:
    """One training epoch of a Table VII model on its dataset: its wall
    seconds and ``{op: {"calls", "seconds"}}``, the op counters' deltas
    across that epoch."""
    if model_name in GRID_ROWS:
        trainer, train_loader = _grid_trainer(model_name, root, config, seed)
    elif model_name in CLS_ROWS:
        trainer, train_loader, _ = classification_trainer(
            "EuroSAT", model_name, root, config, seed
        )
    else:
        trainer, train_loader, _ = segmentation_trainer(
            model_name, root, config, seed
        )
    before = _op_counters()
    started = time.perf_counter()
    trainer.train_epoch(train_loader)
    seconds = time.perf_counter() - started
    ops: dict[str, dict] = {}
    for name, value in _op_counters().items():
        delta = value - before.get(name, 0)
        if delta:
            kind, op = name[len("tensor."):].split(".", 1)
            ops.setdefault(op, {"calls": 0, "seconds": 0.0})[
                "calls" if kind == "op_calls" else "seconds"
            ] = delta
    return seconds, ops


def run_table7(root: str, config: ExperimentConfig) -> list[dict]:
    """Every Table VII row: (dataset, application, model, seconds) and
    the per-op counter deltas of the timed epoch."""
    rows = []
    for dataset, application, models in TABLE7:
        for model_name in models:
            seconds, ops = timed_epoch(model_name, root, config)
            rows.append({
                "dataset": dataset,
                "application": application,
                "model": model_name,
                "epoch_seconds": seconds,
                "ops": ops,
            })
    return rows


def format_table7(rows: list[dict]) -> str:
    return format_columns(
        "Table VII: Training Time of Various Models for a Single Epoch",
        (
            ("Dataset", -12, lambda r: r["dataset"]),
            ("Application", -15, lambda r: r["application"]),
            ("Model", -15, lambda r: r["model"]),
            ("Seconds", 9, lambda r: f"{r['epoch_seconds']:.3f}"),
        ),
        rows,
    )


def _top_op(row: dict) -> str:
    if not row["ops"]:
        return "-"
    name, op = max(row["ops"].items(), key=lambda kv: (kv[1]["seconds"], kv[0]))
    return f"{name} ({op['seconds'] * 1e3:.1f} ms)"


def format_op_breakdown(rows: list[dict]) -> str:
    """Where each timed epoch went: the op counters' seconds and calls,
    their share of the epoch, and the op with the most seconds."""

    def op_seconds(r):
        return sum(op["seconds"] for op in r["ops"].values())

    return format_columns(
        "Table VII ops: op counters across each timed epoch",
        (
            ("Model", -15, lambda r: r["model"]),
            ("op_s", 7, lambda r: f"{op_seconds(r):.3f}"),
            ("share", 6, lambda r: f"{op_seconds(r) / r['epoch_seconds']:.2f}"),
            ("calls", 7, lambda r: str(sum(op["calls"] for op in r["ops"].values()))),
            ("top op", -19, _top_op),
        ),
        rows,
    )
