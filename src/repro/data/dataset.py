"""Dataset base classes and splitting helpers."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import default_rng
from repro.utils.validation import check_non_negative


class Dataset:
    """Map-style dataset: implement ``__len__`` and ``__getitem__``.

    GeoTorchAI-style datasets in :mod:`repro.core.datasets` extend this
    class, so they compose with :class:`repro.data.DataLoader` exactly
    as PyTorch datasets compose with ``torch.utils.data.DataLoader``.
    """

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int):
        raise NotImplementedError


class Subset(Dataset):
    """A view of a dataset restricted to the given indices."""

    def __init__(self, dataset: Dataset, indices):
        self.dataset = dataset
        self.indices = list(indices)

    def __len__(self):
        return len(self.indices)

    def __getitem__(self, index):
        return self.dataset[self.indices[index]]


def random_split(dataset: Dataset, lengths, rng=None):
    """Randomly partition a dataset into subsets of the given lengths.

    ``lengths`` may be absolute counts (summing to ``len(dataset)``) or
    fractions summing to 1.0.
    """
    n = len(dataset)
    check_non_negative(min(lengths, default=0), "lengths")
    if all(isinstance(x, float) for x in lengths):
        if abs(sum(lengths) - 1.0) > 1e-6:
            raise ValueError("fractional lengths must sum to 1.0")
        counts = [int(np.floor(frac * n)) for frac in lengths]
        counts[-1] = n - sum(counts[:-1])
    else:
        counts = [int(x) for x in lengths]
        if sum(counts) != n:
            raise ValueError(
                f"lengths sum to {sum(counts)} but dataset has {n} items"
            )
    gen = default_rng(rng, label="random_split")
    perm = gen.permutation(n)
    subsets = []
    offset = 0
    for count in counts:
        subsets.append(Subset(dataset, perm[offset : offset + count].tolist()))
        offset += count
    return subsets


def sequential_split(dataset: Dataset, fractions):
    """Split a dataset *in temporal order* (no shuffling).

    The paper splits spatiotemporal data by time: first 80% train, next
    10% validation, last 10% test.  Shuffled splits would leak future
    data into training, so grid benches use this helper instead.
    """
    n = len(dataset)
    check_non_negative(min(fractions, default=0), "fractions")
    if abs(sum(fractions) - 1.0) > 1e-6:
        raise ValueError("fractions must sum to 1.0")
    counts = [int(np.floor(frac * n)) for frac in fractions]
    counts[-1] = n - sum(counts[:-1])
    subsets = []
    offset = 0
    for count in counts:
        subsets.append(Subset(dataset, range(offset, offset + count)))
        offset += count
    return subsets
