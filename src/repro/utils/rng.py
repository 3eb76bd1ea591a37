"""Deterministic random number management.

Everything stochastic in the library takes either an explicit seed or a
``numpy.random.Generator``.  ``derive_seed`` produces stable sub-seeds
from a parent seed and a string label so that independent components
(weight init, data generation, shuffling) do not share streams.
"""

from __future__ import annotations

import zlib

import numpy as np

# numpy loads its random subpackage on first attribute access; every
# generator handed out here needs it, so it loads with this module
# rather than inside the first seeded call.
import numpy.random  # noqa: F401

def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a stable 32-bit sub-seed from a parent seed and a label.

    The derivation is a CRC mix, chosen because it is deterministic
    across platforms and Python versions (unlike ``hash``).
    """
    mixed = zlib.crc32(label.encode("utf-8"), parent_seed & 0xFFFFFFFF)
    return mixed & 0x7FFFFFFF


def default_rng(seed=None, label: str | None = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Parameters
    ----------
    seed:
        ``None`` (seed 0), an int, or an existing
        ``Generator`` (returned unchanged, label ignored).
    label:
        Optional component label mixed into the seed via
        :func:`derive_seed` so sibling components get distinct streams.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    base = 0 if seed is None else int(seed)
    if label is not None:
        base = derive_seed(base, label)
    return np.random.default_rng(base)
