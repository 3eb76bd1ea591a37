"""Table VII: training time of every model for a single epoch.

Grid models train on the Temperature dataset, classifiers on EuroSAT,
segmentation models on 38-Cloud — matching the paper's assignments.
"""

from __future__ import annotations

import time

from repro.core.datasets.grid import Temperature
from repro.core.training import Trainer
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid_forecasting import (
    build_grid_model,
    make_grid_loaders,
)
from repro.experiments.raster_tasks import (
    run_classification,
    run_segmentation,
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


def epoch_seconds(
    model_name: str, root: str, config: ExperimentConfig, seed: int = 0,
    profiler=None,
) -> float:
    """One training epoch of a Table VII model on its dataset."""
    if model_name in GRID_ROWS:
        trainer, train_loader = _grid_trainer(model_name, root, config, seed)
        if profiler is not None:
            return trainer.fit(
                train_loader, epochs=1, profiler=profiler
            ).mean_epoch_seconds
        started = time.perf_counter()
        trainer.train_epoch(train_loader)
        return time.perf_counter() - started
    if model_name in CLS_ROWS:
        cell = run_classification(
            "EuroSAT", model_name, root, config, seed=seed, epochs=1,
            profiler=profiler,
        )
    else:
        cell = run_segmentation(
            model_name, root, config, seed=seed, epochs=1, profiler=profiler
        )
    return cell["mean_epoch_seconds"]


def _profiled_breakdown(profiler, top: int = 12) -> dict:
    """Per-model summary of a finished profiler: the ``top`` module
    paths by self time plus run totals."""
    averages = profiler.key_averages()
    rows = sorted(
        averages.as_dicts(), key=lambda r: (-r["self_s"], r["name"])
    )
    return {
        "total_flops": profiler.total_flops(),
        "total_param_bytes": averages.total_param_bytes,
        "events": len(profiler.events),
        "dropped_events": profiler.dropped_events,
        "top_modules": rows[:top],
    }


def profile_table7(
    root: str, config: ExperimentConfig, seed: int = 0, top: int = 12
) -> dict:
    """One short profiled epoch per Table VII model.

    Returns ``{model_name: breakdown}`` where each breakdown carries
    analytic FLOPs, parameter bytes, and the top module paths by self
    time — the attribution layer behind the Table VII timings.  A
    wait/warmup/active schedule keeps only steady-state steps, so the
    breakdown is free of first-batch warmup skew.
    """
    from repro.obs.profiler import Profiler, schedule

    breakdowns: dict[str, dict] = {}
    for _dataset, _application, models in TABLE7:
        for model_name in models:
            profiler = Profiler(
                schedule=schedule(wait=1, warmup=1, active=3, repeat=1)
            )
            epoch_seconds(model_name, root, config, seed, profiler=profiler)
            breakdowns[model_name] = _profiled_breakdown(profiler, top=top)
    return breakdowns


def run_table7(root: str, config: ExperimentConfig) -> list[dict]:
    """Every Table VII row: (dataset, application, model, seconds)."""
    return [
        {
            "dataset": dataset,
            "application": application,
            "model": model_name,
            "epoch_seconds": epoch_seconds(model_name, root, config),
        }
        for dataset, application, models in TABLE7
        for model_name in models
    ]


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


def _top_entry(summary: dict) -> str:
    if not summary["top_modules"]:
        return "-"
    top = summary["top_modules"][0]
    return f"{top['name']} ({top['self_s'] * 1e3:.1f} ms)"


def format_profiles(breakdowns: dict) -> str:
    """One line per profiled model: FLOPs, parameter bytes and the
    entry with the most self time (see :func:`profile_table7`)."""
    return format_columns(
        "Table VII profile: steady-state steps of one scheduled epoch",
        (
            ("Model", -15, lambda kv: kv[0]),
            ("MFLOPs", 10, lambda kv: f"{kv[1]['total_flops'] / 1e6:.1f}"),
            ("param_MB", 9, lambda kv: f"{kv[1]['total_param_bytes'] / 1e6:.2f}"),
            ("events", 7, lambda kv: str(kv[1]["events"])),
            ("top self-time entry", -19, lambda kv: _top_entry(kv[1])),
        ),
        breakdowns.items(),
    )
