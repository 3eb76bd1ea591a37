"""Flat-buffer parameter storage for whole-model optimizer steps.

:class:`FlatParamBuffer` re-materializes a parameter list as views of
one contiguous buffer so an optimizer can run its whole update as a
handful of full-buffer ufuncs (``out=`` in-place) instead of a Python
loop over dozens of small arrays.  The parameters keep their public
shape — each ``param.data`` becomes a reshaped view into the flat
buffer, which every tensor op reads transparently.

Bit-identity: the optimizer updates are elementwise, so applying the
same scalar/array expression over the concatenated buffer produces
exactly the bits the per-parameter loop would — provided the flat
step reproduces the per-parameter expression order operation for
operation (pinned by ``tests/property/test_property_fused.py``).

Assigning a fresh array to ``param.data`` after the optimizer was
built (nothing in the library does; a caller seeding weights may)
would silently detach the parameter from the buffer.
:meth:`views_intact` detects that (``data.base is buffer``) and
:meth:`reflatten` re-adopts the new values before the next step.
"""

from __future__ import annotations

import numpy as np


class FlatParamBuffer:
    """Owns a contiguous buffer backing every parameter in ``params``."""

    def __init__(self, params):
        self.params = list(params)
        if not self.params:
            raise ValueError("FlatParamBuffer needs at least one parameter")
        self.dtype = self.params[0].data.dtype
        if any(p.data.dtype != self.dtype for p in self.params):
            raise TypeError("parameters must share one dtype to be flattened")
        self.slices = []
        offset = 0
        for p in self.params:
            size = int(p.data.size)
            self.slices.append((offset, offset + size, p.data.shape))
            offset += size
        self.size = offset
        self.flat = np.empty(self.size, dtype=self.dtype)
        self.reflatten()

    def reflatten(self) -> None:
        """Copy current parameter values in and rebind views."""
        for p, (start, stop, shape) in zip(self.params, self.slices):
            self.flat[start:stop] = p.data.reshape(-1)
            p.data = self.flat[start:stop].reshape(shape)

    def views_intact(self) -> bool:
        """True while every ``param.data`` still aliases the buffer."""
        return all(p.data.base is self.flat for p in self.params)

    def gather_grads(self, out: np.ndarray) -> bool:
        """Copy every parameter gradient into ``out`` (flat, same dtype).

        Returns False (leaving ``out`` unspecified) if any gradient is
        missing — callers then take the per-parameter path, which
        skips parameters whose ``grad is None``.
        """
        for p in self.params:
            if p.grad is None:
                return False
        for p, (start, stop, _) in zip(self.params, self.slices):
            np.copyto(out[start:stop], p.grad.reshape(-1), casting="same_kind")
        return True

    def view(self, flat_array: np.ndarray, index: int) -> np.ndarray:
        """The slice of ``flat_array`` shaped like parameter ``index``."""
        start, stop, shape = self.slices[index]
        return flat_array[start:stop].reshape(shape)
