"""Loss modules."""

from __future__ import annotations

from repro.nn import functional as F
from repro.nn.module import Module


class MSELoss(Module):
    """Mean squared error."""

    def forward(self, pred, target):
        return F.mse_loss(pred, target)


class CrossEntropyLoss(Module):
    """Softmax cross entropy over class logits (axis 1)."""

    def forward(self, logits, target):
        return F.cross_entropy(logits, target)
