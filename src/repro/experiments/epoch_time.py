"""Table VII: training time of every model for a single epoch.

Grid models train on the Temperature dataset, classifiers on EuroSAT,
segmentation models on 38-Cloud — matching the paper's assignments.
The models of a block are timed against each other by the protocol of
:mod:`repro.experiments.timing`, one epoch per arm.  Each row also
carries where its timed epochs went: the deltas of the ``tensor.op_*``
counters (:func:`repro.obs.op_span`) across each, averaged.
"""

from __future__ import annotations

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
from repro.experiments.timing import K, interleaved
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


def epoch_arm(
    model_name: str, root: str, config: ExperimentConfig, deltas: list, seed: int = 0
):
    """A zero-argument arm: one training epoch of a Table VII model on
    its dataset, appending the op counters' deltas across it to
    ``deltas``."""
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

    def epoch():
        before = obs.op_totals()
        trainer.train_epoch(train_loader)
        deltas.append({
            op: tuple(a - b for a, b in zip(now, before.get(op, (0.0, 0))))
            for op, now in obs.op_totals().items()
        })

    return epoch


def run_table7(root: str, config: ExperimentConfig) -> dict:
    """Each block's models timed against each other: a row per model
    under ``"epochs"`` (min-of-k seconds; ``ops`` per timed epoch, as
    ``{op: {"calls", "seconds"}}``), each block's timing under
    ``"timing"``."""
    rows, timing = [], {}
    for dataset, application, models in TABLE7:
        deltas = {name: [] for name in models}
        block = timing[dataset] = interleaved({
            name: epoch_arm(name, root, config, deltas[name]) for name in models
        })
        for name in models:
            timed = deltas[name][1:]  # [0] is the warm-up's
            ops = {
                op: {"calls": sum(d[op][1] for d in timed) / K,
                     "seconds": sum(d[op][0] for d in timed) / K}
                for op, (_, calls) in timed[0].items() if calls
            }
            rows.append({
                "dataset": dataset,
                "application": application,
                "model": name,
                "epoch_seconds": block["min"][name],
                "ops": ops,
                "op_share": sum(op["seconds"] for op in ops.values())
                / (sum(block["seconds"][name]) / K),
            })
    return {"epochs": rows, "timing": timing}


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
    """Where a timed epoch went: the op counters' seconds and calls,
    their share of the mean epoch, and the op with the most seconds."""

    return format_columns(
        "Table VII ops: op counters across each timed epoch",
        (
            ("Model", -15, lambda r: r["model"]),
            ("op_s", 7,
             lambda r: f"{sum(op['seconds'] for op in r['ops'].values()):.3f}"),
            ("share", 6, lambda r: f"{r['op_share']:.2f}"),
            ("calls", 7, lambda r: f"{sum(op['calls'] for op in r['ops'].values()):.0f}"),
            ("top op", -19, _top_op),
        ),
        rows,
    )
