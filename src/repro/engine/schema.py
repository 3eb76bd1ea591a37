"""Schemas: ordered named fields with numpy dtypes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Field:
    """A named column with a numpy dtype (``object`` for mixed/str)."""

    name: str
    dtype: np.dtype

    def __repr__(self):
        return f"Field({self.name!r}, {np.dtype(self.dtype).name})"


class Schema:
    """An ordered collection of fields."""

    def __init__(self, fields):
        self.fields = [
            f if isinstance(f, Field) else Field(f[0], np.dtype(f[1]))
            for f in fields
        ]
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names: {names}")
        self._by_name = {f.name: f for f in self.fields}

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def __getitem__(self, name: str) -> Field:
        if name not in self._by_name:
            raise KeyError(
                f"column {name!r} not found; available: {self.names}"
            )
        return self._by_name[name]

    def __repr__(self):
        inner = ", ".join(f"{f.name}: {np.dtype(f.dtype).name}" for f in self.fields)
        return f"Schema({inner})"
