"""Shared runner for the Table IV (traffic) and Table V (weather)
experiments: train each grid model on each dataset over several seeds
and report MAE/RMSE mean +- max deviation, in raw data units."""

from __future__ import annotations

import numpy as np

from repro.core.datasets.base import GridDataset
from repro.core.models.grid import (
    ConvLSTMModel,
    DeepSTNPlus,
    PeriodicalCNN,
    STResNet,
)
from repro.core.training import (
    EarlyStopping,
    Trainer,
    mae,
    periodical_batch,
    rmse,
    sequential_batch,
)
from repro.data import DataLoader, sequential_split
from repro.experiments.config import ExperimentConfig
from repro.nn import MSELoss
from repro.optim import Adam

GRID_MODELS = ("Periodical CNN", "ConvLSTM", "ST-ResNet", "DeepSTN+")


def build_grid_model(
    name: str,
    channels: int,
    height: int,
    width: int,
    config: ExperimentConfig,
    rng: int,
):
    """Instantiate one of the four grid models with bench hyper-
    parameters.  Returns (model, adapter, learning_rate, max_epochs)."""
    lc, lp, lt = config.len_closeness, config.len_period, config.len_trend
    if name == "Periodical CNN":
        model = PeriodicalCNN(lc, lp, lt, channels, rng=rng)
        return model, periodical_batch, 2e-3, min(config.max_epochs, 12)
    if name == "ConvLSTM":
        model = ConvLSTMModel(channels, (12,), rng=rng)
        return model, sequential_batch, 2e-3, min(config.max_epochs, 10)
    if name == "ST-ResNet":
        model = STResNet(
            lc, lp, lt, channels, height, width,
            nb_residual_units=2, nb_filters=12, rng=rng,
        )
        return model, periodical_batch, 2e-3, min(config.max_epochs, 22)
    if name == "DeepSTN+":
        model = DeepSTNPlus(
            lc, lp, lt, channels,
            grid_height=height, grid_width=width,
            nb_filters=32, nb_blocks=2, rng=rng,
        )
        return model, periodical_batch, 2e-3, config.max_epochs
    raise ValueError(f"unknown grid model {name!r}")


def make_grid_loaders(
    dataset: GridDataset,
    model_name: str,
    config: ExperimentConfig,
    seed: int,
):
    """Split a grid dataset by time (80/10/10) and build loaders with
    the representation the model consumes."""
    if model_name == "ConvLSTM":
        dataset.set_sequential_representation(config.history_length, 1)
    else:
        dataset.set_periodical_representation(
            config.len_closeness, config.len_period, config.len_trend
        )
    train, val, test = sequential_split(dataset, [0.8, 0.1, 0.1])
    train_loader = DataLoader(
        train, batch_size=config.batch_size, shuffle=True, rng=seed
    )
    val_loader = DataLoader(val, batch_size=config.batch_size)
    test_loader = DataLoader(test, batch_size=config.batch_size)
    return train_loader, val_loader, test_loader


def run_one(
    dataset_factory,
    model_name: str,
    config: ExperimentConfig,
    seed: int,
) -> dict:
    """Train one (dataset, model, seed) cell; returns raw-unit metrics."""
    dataset = dataset_factory()
    train_loader, val_loader, test_loader = make_grid_loaders(
        dataset, model_name, config, seed
    )
    model, adapter, lr, epochs = build_grid_model(
        model_name,
        dataset.num_channels,
        dataset.grid_height,
        dataset.grid_width,
        config,
        rng=seed,
    )
    trainer = Trainer(
        model,
        Adam(model.parameters(), lr=lr),
        MSELoss(),
        adapter,
        grad_clip=1.0,
    )
    fit = trainer.fit(
        train_loader,
        val_loader,
        epochs=epochs,
        early_stopping=EarlyStopping(patience=config.patience),
    )
    evaluation = trainer.evaluate(test_loader, {"mae": mae, "rmse": rmse})
    scale = dataset.scale
    return {
        "model": model_name,
        "seed": seed,
        "mae": evaluation["mae"] * scale,
        "rmse": evaluation["rmse"] * scale,
        "epochs": fit.epochs_run,
        "mean_epoch_seconds": fit.mean_epoch_seconds,
    }


def run_matrix(
    dataset_factories: dict,
    config: ExperimentConfig,
    models=GRID_MODELS,
) -> list[dict]:
    """The full table: every dataset x model x seed cell, aggregated.

    Returns a list of row dicts with keys dataset, model, mae_mean,
    mae_dev, rmse_mean, rmse_dev.
    """
    rows = []
    for dataset_name, factory in dataset_factories.items():
        for model_name in models:
            cells = [
                run_one(factory, model_name, config, seed)
                for seed in range(config.seeds)
            ]
            maes = np.array([c["mae"] for c in cells])
            rmses = np.array([c["rmse"] for c in cells])
            rows.append(
                {
                    "dataset": dataset_name,
                    "model": model_name,
                    "mae_mean": float(maes.mean()),
                    "mae_dev": float(np.abs(maes - maes.mean()).max()),
                    "rmse_mean": float(rmses.mean()),
                    "rmse_dev": float(np.abs(rmses - rmses.mean()).max()),
                    "mean_epoch_seconds": float(
                        np.mean([c["mean_epoch_seconds"] for c in cells])
                    ),
                }
            )
    return rows


def format_table(rows: list[dict], title: str) -> str:
    """Render rows in the paper's Table IV/V layout."""
    lines = [title, "=" * len(title)]
    datasets = []
    for row in rows:
        if row["dataset"] not in datasets:
            datasets.append(row["dataset"])
    for dataset in datasets:
        lines.append(f"\n{dataset}")
        for metric in ("mae", "rmse"):
            cells = []
            for row in rows:
                if row["dataset"] != dataset:
                    continue
                cells.append(
                    f"{row['model']}: "
                    f"{row[f'{metric}_mean']:.4f}±{row[f'{metric}_dev']:.4f}"
                )
            lines.append(f"  {metric.upper():5s} " + " | ".join(cells))
    return "\n".join(lines)
