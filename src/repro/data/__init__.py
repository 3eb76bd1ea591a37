"""Dataset and DataLoader abstractions (mirrors ``torch.utils.data``)."""

from repro.data.dataset import Dataset, random_split, sequential_split
from repro.data.dataloader import DataLoader

__all__ = [
    "Dataset",
    "random_split",
    "sequential_split",
    "DataLoader",
]
