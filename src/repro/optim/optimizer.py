"""Optimizer base class: the parameter list and the choice of step.

Parameters that share a dtype are re-bound as views of one contiguous
buffer (:class:`repro.optim.flat.FlatParamBuffer`).  A step whose
every gradient is present then runs the subclass's ``_step_flat`` — the
whole update as full-buffer ufuncs with ``out=``; any other step — a
missing gradient, mixed dtypes — runs ``_step_partial``, which updates
each parameter in place.  Both write into the arrays ``param.data``
already names, so a step never rebinds or re-types a parameter.
"""

from __future__ import annotations

import numpy as np

from repro.obs.profiler import op_span
from repro.optim.flat import FlatParamBuffer


class Optimizer:
    """Holds a parameter list and applies gradient updates."""

    _span = "optim.step"

    def __init__(self, params, lr: float):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        try:
            buf = self._buf = FlatParamBuffer(self.params)
        except TypeError:  # mixed dtypes: every step is per-parameter
            self._buf = None
        else:
            self._g_flat = np.empty(buf.size, dtype=buf.dtype)
            self._scratch = np.empty(buf.size, dtype=buf.dtype)

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
        buf = self._buf
        if buf is not None and not buf.views_intact():
            # load_state_dict rebound some param.data — re-adopt it.
            buf.reflatten()
        with op_span(self._span):
            if buf is not None and buf.gather_grads(self._g_flat):
                self._step_flat()
            else:
                self._step_partial()
