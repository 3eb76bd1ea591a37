"""Adam optimizer (Kingma & Ba, 2015) — the optimizer used for every
experiment in the paper.

Parameters that share a dtype are re-bound as views of one contiguous
buffer (:class:`repro.optim.flat.FlatParamBuffer`), with the first and
second moments in two more.  A step whose every gradient is present
then runs ``_step_flat`` — the whole update as ~14 full-buffer ufuncs
with ``out=``, instead of a Python loop allocating five temporaries
per parameter; any other step — a missing gradient, mixed dtypes —
runs ``_step_partial``, which updates each parameter in place.  Both
write into the arrays ``param.data`` already names, so a step never
rebinds or re-types a parameter, and both produce the bits of
``tests/tensor_oracle.py::oracle_adam_step`` (pinned by
``tests/property/test_property_fused.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.obs import op_span
from repro.optim.flat import FlatParamBuffer


class Adam:
    """Adam with bias-corrected first/second moment estimates."""

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        # Checked before any parameter is re-bound: a NaN lr or a beta
        # of 1 makes every parameter non-finite on the first step.
        if not (math.isfinite(lr) and lr > 0):
            raise ValueError(f"lr must be finite and positive, got {lr!r}")
        for name, beta in zip(("beta1", "beta2"), betas):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {beta!r}")
        for name, value in (("eps", eps), ("weight_decay", weight_decay)):
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._t = 0
        try:
            buf = self._buf = FlatParamBuffer(self.params)
        except TypeError:  # mixed dtypes: every step is per-parameter
            self._buf = None
        else:
            self._g_flat = np.empty(buf.size, dtype=buf.dtype)
            self._scratch = np.empty(buf.size, dtype=buf.dtype)
        self._m_flat, self._m = self._zero_state()
        self._v_flat, self._v = self._zero_state()

    def _zero_state(self):
        """Zeroed per-parameter state as ``(flat, per_param)``: views
        of one flat array beside the flat parameter buffer, or (mixed
        dtypes, ``flat`` is None) an array per parameter."""
        buf = self._buf
        if buf is None:
            return None, [np.zeros_like(p.data) for p in self.params]
        flat = np.zeros(buf.size, dtype=buf.dtype)
        return flat, [buf.view(flat, i) for i in range(len(self.params))]

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        self._t += 1
        buf = self._buf
        if buf is not None and not buf.views_intact():
            # A caller rebound some param.data — re-adopt it.
            buf.reflatten()
        with op_span("optim.adam.step"):
            if buf is not None and buf.gather_grads(self._g_flat):
                self._step_flat()
            else:
                self._step_partial()

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
