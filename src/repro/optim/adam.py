"""Adam optimizer (Kingma & Ba, 2015) — the optimizer used for every
experiment in the paper.

:class:`~repro.optim.optimizer.Optimizer` picks the step.  The flat one
holds parameter data, first and second moments each in a single array
and is ~14 full-buffer ufuncs with ``out=``, instead of a Python loop
allocating five temporaries per parameter; both steps produce the bits
of ``tests/tensor_oracle.py::oracle_adam_step`` (pinned by
``tests/property/test_property_fused.py``).
"""

from __future__ import annotations

import numpy as np

from repro.optim.optimizer import Optimizer


class Adam(Optimizer):
    """Adam with bias-corrected first/second moment estimates."""

    _span = "optim.adam.step"

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._t = 0
        self._m_flat, self._m = self._zero_state()
        self._v_flat, self._v = self._zero_state()

    def step(self) -> None:
        self._t += 1
        super().step()

    def _step_flat(self) -> None:
        """Whole-model update as full-buffer ufuncs.

        Every line reproduces one sub-expression of the per-parameter
        step in the same evaluation order (IEEE multiplication commutes, so
        ``out * scalar`` matches ``scalar * out`` bitwise).
        """
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        P, G = self._buf.flat, self._g_flat
        M, V, T = self._m_flat, self._v_flat, self._scratch
        if self.weight_decay:
            np.multiply(P, self.weight_decay, out=T)
            np.add(G, T, out=G)
        # m = b1*m + (1-b1)*grad
        np.multiply(M, b1, out=M)
        np.multiply(G, 1 - b1, out=T)
        np.add(M, T, out=M)
        # v = b2*v + ((1-b2)*grad)*grad
        np.multiply(V, b2, out=V)
        np.multiply(G, 1 - b2, out=T)
        np.multiply(T, G, out=T)
        np.add(V, T, out=V)
        # p -= (lr * (m/bias1)) / (sqrt(v/bias2) + eps)
        np.divide(M, bias1, out=T)
        np.multiply(T, self.lr, out=T)
        np.divide(V, bias2, out=G)  # G is free scratch from here on
        np.sqrt(G, out=G)
        np.add(G, self.eps, out=G)
        np.divide(T, G, out=T)
        np.subtract(P, T, out=P)

    def _step_partial(self) -> None:
        """In-place per-parameter update, used when some gradients are
        missing (those parameters are skipped and their moments left
        untouched) or the parameters' dtypes differ."""
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for i, param in enumerate(self.params):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m, v = self._m[i], self._v[i]
            m[...] = b1 * m + (1 - b1) * grad
            v[...] = b2 * v + (1 - b2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data[...] = param.data - self.lr * m_hat / (
                np.sqrt(v_hat) + self.eps
            )
