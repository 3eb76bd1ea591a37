"""The :class:`Module` base class and :class:`Parameter`.

Attribute assignment auto-registers parameters and sub-modules, so
``parameters()`` sees the whole tree — the same convention as
``torch.nn.Module``.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict

import numpy as np

from repro.tensor import Tensor


class RemovableHandle:
    """Handle returned by ``register_forward_*_hook``; ``remove()``
    unregisters the hook (idempotent — removing twice is a no-op)."""

    __slots__ = ("_hooks", "id")
    _ids = itertools.count()

    def __init__(self, hooks: dict):
        self._hooks = hooks
        self.id = next(RemovableHandle._ids)

    def remove(self) -> None:
        self._hooks.pop(self.id, None)


class Parameter(Tensor):
    """A tensor that is a trainable leaf of a module."""

    def __init__(self, data, dtype=np.float32):
        super().__init__(np.asarray(data, dtype=dtype), requires_grad=True)


class Module:
    """Base class for all neural network layers and models."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_forward_pre_hooks", OrderedDict())
        object.__setattr__(self, "_forward_hooks", OrderedDict())
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
    # Hooks
    # ------------------------------------------------------------------
    def register_forward_pre_hook(self, hook) -> RemovableHandle:
        """Run ``hook(module, args)`` before every ``forward``.

        Returning a non-``None`` value replaces the positional
        arguments (a single value is wrapped into a 1-tuple).  Hooks
        run in registration order.
        """
        handle = RemovableHandle(self._forward_pre_hooks)
        self._forward_pre_hooks[handle.id] = hook
        return handle

    def register_forward_hook(self, hook) -> RemovableHandle:
        """Run ``hook(module, args, output)`` after every ``forward``.

        Returning a non-``None`` value replaces the output.  Hooks run
        in registration order.
        """
        handle = RemovableHandle(self._forward_hooks)
        self._forward_hooks[handle.id] = hook
        return handle

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        if not (self._forward_pre_hooks or self._forward_hooks):
            return self.forward(*args, **kwargs)
        for hook in tuple(self._forward_pre_hooks.values()):
            result = hook(self, args)
            if result is not None:
                args = result if isinstance(result, tuple) else (result,)
        output = self.forward(*args, **kwargs)
        for hook in tuple(self._forward_hooks.values()):
            result = hook(self, args, output)
            if result is not None:
                output = result
        return output

    def __repr__(self) -> str:
        child_lines = [
            f"  ({name}): {module!r}".replace("\n", "\n  ")
            for name, module in self._modules.items()
        ]
        head = self.__class__.__name__
        if not child_lines:
            return f"{head}()"
        return head + "(\n" + "\n".join(child_lines) + "\n)"
