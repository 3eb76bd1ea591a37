"""Runners for Table VI (classification & segmentation accuracy) and
the classification/segmentation rows of Table VII (epoch time)."""

from __future__ import annotations

import numpy as np

from repro.core.datasets.raster import Cloud38, EuroSAT, SAT6
from repro.core.models.raster import (
    FCN,
    DeepSatV2,
    SatCNN,
    UNet,
    UNetPlusPlus,
)
from repro.core.training import (
    Trainer,
    accuracy,
    classification_batch,
    classification_with_features_batch,
    pixel_accuracy,
    segmentation_batch,
)
from repro.data import DataLoader, random_split
from repro.experiments.config import ExperimentConfig
from repro.experiments.tables import format_columns
from repro.nn import CrossEntropyLoss
from repro.optim import Adam


def run_classification(
    dataset_name: str,
    model_name: str,
    root: str,
    config: ExperimentConfig,
    seed: int,
    epochs: int | None = None,
    profiler=None,
) -> dict:
    """Train one classifier cell; returns accuracy and timing."""
    dataset_cls = {"EuroSAT": EuroSAT, "SAT6": SAT6}[dataset_name]
    with_features = model_name == "DeepSAT V2"
    image_shape = (
        config.cls_image_shape if dataset_name == "EuroSAT" else None
    )
    dataset = dataset_cls(
        root,
        num_images=config.num_images,
        image_shape=image_shape,
        include_additional_features=with_features,
    )
    train, test = random_split(dataset, [0.8, 0.2], rng=seed)
    train_loader = DataLoader(
        train, batch_size=config.batch_size, shuffle=True, rng=seed
    )
    test_loader = DataLoader(test, batch_size=config.batch_size)

    h, w = dataset.image_height, dataset.image_width
    num_classes = dataset.num_classes
    if model_name == "DeepSAT V2":
        model = DeepSatV2(
            dataset.num_bands, h, w, num_classes,
            num_filtered_features=dataset.num_features, rng=seed,
        )
        adapter = classification_with_features_batch
    elif model_name == "SatCNN":
        model = SatCNN(dataset.num_bands, h, w, num_classes, rng=seed)
        adapter = classification_batch
    else:
        raise ValueError(f"unknown classification model {model_name!r}")

    trainer = Trainer(
        model, Adam(model.parameters(), lr=1e-3), CrossEntropyLoss(), adapter
    )
    fit = trainer.fit(
        train_loader,
        epochs=epochs or min(config.max_epochs, 12),
        profiler=profiler,
    )
    evaluation = trainer.evaluate(test_loader, {"accuracy": accuracy})
    return {
        "dataset": dataset_name,
        "model": model_name,
        "seed": seed,
        "accuracy": evaluation["accuracy"],
        "mean_epoch_seconds": fit.mean_epoch_seconds,
    }


def run_segmentation(
    model_name: str,
    root: str,
    config: ExperimentConfig,
    seed: int,
    epochs: int | None = None,
    profiler=None,
) -> dict:
    """Train one segmentation cell on 38-Cloud; returns pixel accuracy."""
    dataset = Cloud38(
        root,
        num_images=config.num_seg_images,
        image_shape=config.seg_image_shape,
    )
    train, test = random_split(dataset, [0.8, 0.2], rng=seed)
    train_loader = DataLoader(train, batch_size=8, shuffle=True, rng=seed)
    test_loader = DataLoader(test, batch_size=8)

    builders = {"FCN": FCN, "UNet": UNet, "UNet++": UNetPlusPlus}
    if model_name not in builders:
        raise ValueError(f"unknown segmentation model {model_name!r}")
    model = builders[model_name](dataset.num_bands, dataset.num_classes, rng=seed)
    trainer = Trainer(
        model,
        Adam(model.parameters(), lr=2e-3),
        CrossEntropyLoss(),
        segmentation_batch,
    )
    fit = trainer.fit(
        train_loader,
        epochs=epochs or min(config.max_epochs, 15),
        profiler=profiler,
    )
    evaluation = trainer.evaluate(test_loader, {"accuracy": pixel_accuracy})
    return {
        "dataset": "38-Cloud",
        "model": model_name,
        "seed": seed,
        "accuracy": evaluation["accuracy"],
        "mean_epoch_seconds": fit.mean_epoch_seconds,
    }


def aggregate_accuracy(cells: list[dict]) -> dict:
    """Mean accuracy +- max deviation over seeds."""
    accs = np.array([c["accuracy"] for c in cells])
    return {
        "dataset": cells[0]["dataset"],
        "model": cells[0]["model"],
        "accuracy_mean": float(accs.mean()),
        "accuracy_dev": float(np.abs(accs - accs.mean()).max()),
        "mean_epoch_seconds": float(
            np.mean([c["mean_epoch_seconds"] for c in cells])
        ),
    }


def format_accuracy_table(rows: list[dict]) -> str:
    """Render the Table VI layout."""
    return format_columns(
        "Table VI: Accuracy of Raster Models",
        (
            ("Model", -12, lambda r: r["model"]),
            ("Dataset", -10, lambda r: r["dataset"]),
            ("Accuracy", 18, lambda r: f"{r['accuracy_mean'] * 100:.3f}"
                                       f"±{r['accuracy_dev'] * 100:.3f}%"),
        ),
        rows,
    )
