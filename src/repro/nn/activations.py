"""Activation layers."""

from __future__ import annotations

from repro.nn.module import Module


class ReLU(Module):
    def forward(self, x):
        return x.relu()
