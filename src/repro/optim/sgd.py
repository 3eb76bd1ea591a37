"""Stochastic gradient descent with optional momentum.

:class:`~repro.optim.optimizer.Optimizer` picks the flat or the
per-parameter step; both produce the bits of
``tests/tensor_oracle.py::oracle_sgd_step``.
"""

from __future__ import annotations

import numpy as np

from repro.optim.optimizer import Optimizer


class SGD(Optimizer):
    """SGD update: ``p -= lr * (momentum_buffer or grad)``."""

    _span = "optim.sgd.step"

    def __init__(self, params, lr: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        if momentum:
            self._vel_flat, self._vel = self._zero_state()

    def _step_flat(self) -> None:
        P, G, T = self._buf.flat, self._g_flat, self._scratch
        if self.weight_decay:
            np.multiply(P, self.weight_decay, out=T)
            np.add(G, T, out=G)
        if self.momentum:
            Vel = self._vel_flat
            np.multiply(Vel, self.momentum, out=Vel)
            np.add(Vel, G, out=Vel)
            np.multiply(Vel, self.lr, out=T)
        else:
            np.multiply(G, self.lr, out=T)
        np.subtract(P, T, out=P)

    def _step_partial(self) -> None:
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                vel = self._vel[i]
                vel[...] = self.momentum * vel + grad
                grad = vel
            param.data[...] = param.data - self.lr * grad
