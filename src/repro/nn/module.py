"""The :class:`Module` base class and :class:`Parameter`.

Attribute assignment auto-registers parameters and sub-modules, so
``parameters()`` sees the whole tree — the same convention as
``torch.nn.Module``.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is a trainable leaf of a module."""

    def __init__(self, data, dtype=np.float32):
        super().__init__(np.asarray(data, dtype=dtype), requires_grad=True)


class Module:
    """Base class for all neural network layers and models."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = ""):
        """Yield ``(qualified_name, Parameter)`` over the module tree."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self):
        """Yield all parameters in the module tree."""
        for _, param in self.named_parameters():
            yield param

    def named_modules(self, prefix: str = "", memo: set | None = None):
        """Yield ``(qualified_path, module)`` over the tree, visiting
        each module instance once (a shared submodule is reported at
        its first path only).  The root's path is ``""``."""
        if memo is None:
            memo = set()
        if id(self) in memo:
            return
        memo.add(id(self))
        yield prefix, self
        for name, module in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from module.named_modules(child_prefix, memo)

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects Dropout/BatchNorm)."""
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        child_lines = [
            f"  ({name}): {module!r}".replace("\n", "\n  ")
            for name, module in self._modules.items()
        ]
        head = self.__class__.__name__
        if not child_lines:
            return f"{head}()"
        return head + "(\n" + "\n".join(child_lines) + "\n)"
