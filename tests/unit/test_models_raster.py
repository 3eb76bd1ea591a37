"""Raster models: shapes, validation, gradient flow, tiny-overfit."""

import numpy as np
import pytest

from repro.core.models.raster import (
    FCN,
    DeepSatV2,
    SatCNN,
    UNet,
    UNetPlusPlus,
)
from repro.nn import CrossEntropyLoss
from repro.optim import Adam
from repro.tensor import Tensor


@pytest.fixture
def images(rng):
    return Tensor(rng.random((6, 4, 16, 16), dtype=np.float32))


def _overfit_classifier(model, forward, labels, steps=50):
    opt = Adam(model.parameters(), lr=3e-3)
    loss_fn = CrossEntropyLoss()
    for _ in range(steps):
        loss = loss_fn(forward(), labels)
        opt.zero_grad()
        loss.backward()
        opt.step()
    return forward().data.argmax(axis=1)


class TestSatCNN:
    def test_logit_shape(self, images):
        model = SatCNN(4, 16, 16, num_classes=5, rng=0)
        assert model(images).shape == (6, 5)

    def test_requires_divisible_dims(self):
        with pytest.raises(ValueError, match="divisible"):
            SatCNN(4, 18, 16, num_classes=5)

    def test_class_count_validation(self):
        with pytest.raises(ValueError):
            SatCNN(4, 16, 16, num_classes=0)

    def test_overfits(self, images, rng):
        labels = rng.integers(0, 3, 6)
        model = SatCNN(4, 16, 16, num_classes=3, base_filters=8, rng=0)
        model.eval()  # freeze batchnorm stats for a deterministic check
        model.train()
        preds = _overfit_classifier(model, lambda: model(images), labels)
        assert (preds == labels).mean() == 1.0

    def test_eval_mode_deterministic(self, images):
        model = SatCNN(4, 16, 16, num_classes=3, rng=0)
        model.eval()
        a = model(images).data
        b = model(images).data
        np.testing.assert_allclose(a, b)


class TestDeepSatV2:
    def test_with_features(self, images, rng):
        feats = Tensor(rng.random((6, 9), dtype=np.float32))
        model = DeepSatV2(4, 16, 16, 5, num_filtered_features=9, rng=0)
        assert model(images, feats).shape == (6, 5)

    def test_without_features(self, images):
        model = DeepSatV2(4, 16, 16, 5, num_filtered_features=0, rng=0)
        assert model(images).shape == (6, 5)

    def test_features_required_when_configured(self, images):
        model = DeepSatV2(4, 16, 16, 5, num_filtered_features=9, rng=0)
        with pytest.raises(ValueError, match="feature"):
            model(images)

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError, match="even"):
            DeepSatV2(4, 15, 16, 5)

    def test_features_affect_output(self, images, rng):
        model = DeepSatV2(4, 16, 16, 5, num_filtered_features=3, rng=0)
        model.eval()
        f1 = Tensor(np.zeros((6, 3), dtype=np.float32))
        f2 = Tensor(np.ones((6, 3), dtype=np.float32))
        assert not np.allclose(model(images, f1).data, model(images, f2).data)

    def test_shallower_than_satcnn(self):
        deep = SatCNN(4, 16, 16, 5, base_filters=16)
        shallow = DeepSatV2(4, 16, 16, 5, base_filters=16)
        deep_convs = sum(
            1 for _, m in deep.named_modules() if m.__class__.__name__ == "Conv2d"
        )
        shallow_convs = sum(
            1 for _, m in shallow.named_modules()
            if m.__class__.__name__ == "Conv2d"
        )
        assert shallow_convs < deep_convs


class TestSegmentationModels:
    @pytest.mark.parametrize("cls", [FCN, UNet, UNetPlusPlus])
    def test_pixel_logits_shape(self, cls, images):
        model = cls(4, num_classes=2, rng=0)
        out = model(images)
        assert out.shape == (6, 2, 16, 16)

    @pytest.mark.parametrize("cls", [FCN, UNet, UNetPlusPlus])
    def test_dims_divisible_by_four(self, cls, rng):
        model = cls(4, num_classes=2, rng=0)
        with pytest.raises(ValueError):
            model(Tensor(rng.random((1, 4, 10, 12), dtype=np.float32)))

    @pytest.mark.parametrize("cls", [FCN, UNet, UNetPlusPlus])
    def test_gradients_reach_all_params(self, cls, images):
        model = cls(4, num_classes=2, rng=0)
        model(images).sum().backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_unetpp_has_more_parameters_than_unet(self):
        unet = UNet(4, 2, base_filters=12)
        unetpp = UNetPlusPlus(4, 2, base_filters=12)
        assert unetpp.num_parameters() > unet.num_parameters()

    def test_unet_learns_trivial_mask(self, rng):
        # Segment "bright" pixels: learnable in a few steps.
        x = rng.random((4, 1, 8, 8)).astype(np.float32)
        masks = (x[:, 0] > 0.5).astype(np.int64)
        model = UNet(1, 2, base_filters=8, rng=0)
        opt = Adam(model.parameters(), lr=5e-3)
        loss_fn = CrossEntropyLoss()
        for _ in range(60):
            loss = loss_fn(model(Tensor(x)), masks)
            opt.zero_grad()
            loss.backward()
            opt.step()
        preds = model(Tensor(x)).data.argmax(axis=1)
        assert (preds == masks).mean() > 0.95
