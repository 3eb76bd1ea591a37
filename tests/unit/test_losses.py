"""Loss functions vs manual references, with gradient checks."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.tensor import Tensor

from tests.conftest import assert_grad_close, numeric_gradient


class TestMSE:
    def test_value(self):
        loss = nn.MSELoss()(Tensor([1.0, 2.0]), Tensor([3.0, 2.0]))
        assert loss.item() == pytest.approx(2.0)

    def test_accepts_numpy_target(self):
        loss = nn.MSELoss()(Tensor([1.0]), np.array([2.0], dtype=np.float32))
        assert loss.item() == pytest.approx(1.0)

    def test_grad(self):
        pred = Tensor([1.0, 2.0], requires_grad=True)
        nn.MSELoss()(pred, Tensor([0.0, 0.0])).backward()
        np.testing.assert_allclose(pred.grad, [1.0, 2.0])


class TestCrossEntropy:
    def test_matches_manual(self, rng):
        logits = rng.random((4, 5)).astype(np.float32)
        labels = np.array([0, 2, 4, 1])
        loss = nn.CrossEntropyLoss()(Tensor(logits), labels).item()
        # Manual: -log softmax picked.
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        manual = -logp[np.arange(4), labels].mean()
        assert loss == pytest.approx(manual, rel=1e-5)

    def test_perfect_prediction_low_loss(self):
        logits = np.full((2, 3), -20.0, dtype=np.float32)
        logits[0, 1] = 20.0
        logits[1, 0] = 20.0
        loss = nn.CrossEntropyLoss()(Tensor(logits), np.array([1, 0]))
        assert loss.item() < 1e-4

    def test_gradcheck(self, rng):
        logits = Tensor(rng.random((3, 4)).astype(np.float32), requires_grad=True)
        labels = np.array([1, 0, 3])

        def fn():
            return nn.CrossEntropyLoss()(logits, labels)

        fn().backward()
        assert_grad_close(logits.grad, numeric_gradient(fn, logits))

    def test_segmentation_logits(self, rng):
        logits = Tensor(
            rng.random((2, 3, 4, 4)).astype(np.float32), requires_grad=True
        )
        masks = rng.integers(0, 3, (2, 4, 4))
        loss = nn.CrossEntropyLoss()(logits, masks)
        loss.backward()
        assert logits.grad.shape == logits.shape
        assert loss.item() > 0

    def test_numerical_stability_large_logits(self):
        logits = Tensor(np.array([[1000.0, -1000.0]], dtype=np.float32))
        loss = nn.CrossEntropyLoss()(logits, np.array([0]))
        assert np.isfinite(loss.item())

    # -1 used to score the last class, 1.5 truncated to 1, NaN became
    # INT64_MIN and 3 of 3 classes raised a bare IndexError.
    BAD_TARGETS = [-1, 1.5, np.nan, 3]

    @pytest.mark.parametrize("bad", BAD_TARGETS)
    def test_rejects_a_target_that_is_not_a_class_index(self, rng, bad):
        logits = Tensor(rng.random((3, 3)).astype(np.float32))
        with pytest.raises(ValueError, match="class indices"):
            F.cross_entropy(logits, np.array([0.0, bad, 2.0]))

    @pytest.mark.parametrize("bad", BAD_TARGETS)
    def test_rejects_a_mask_pixel_that_is_not_a_class_index(self, rng, bad):
        logits = Tensor(rng.random((2, 3, 4, 4)).astype(np.float32))
        masks = rng.integers(0, 3, (2, 4, 4)).astype(np.float64)
        masks[1, 2, 3] = bad
        with pytest.raises(ValueError, match="class indices"):
            nn.CrossEntropyLoss()(logits, masks)

    def test_whole_float_targets_equal_integer_targets(self, rng):
        logits = Tensor(rng.random((2, 3, 4, 4)).astype(np.float32))
        masks = rng.integers(0, 3, (2, 4, 4))
        expected = F.cross_entropy(logits, masks).data
        got = F.cross_entropy(logits, masks.astype(np.float32)).data
        assert got.tobytes() == expected.tobytes()

    def test_unsupported_rank(self, rng):
        with pytest.raises(ValueError):
            nn.CrossEntropyLoss()(
                Tensor(rng.random((2, 3, 4)).astype(np.float32)),
                np.zeros((2, 4), dtype=np.int64),
            )


class TestFunctionalExtras:
    def test_log_softmax_consistent(self, rng):
        x = Tensor(rng.random((3, 4)).astype(np.float32))
        e = np.exp(x.data)
        np.testing.assert_allclose(
            F.log_softmax(x).data,
            np.log(e / e.sum(axis=-1, keepdims=True)),
            rtol=1e-4, atol=1e-6,
        )
