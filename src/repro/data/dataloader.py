"""Batch iteration over datasets.

Each yielded batch is metered (``dataloader.batches`` /
``dataloader.samples`` counters and a ``dataloader.batch_fetch_seconds``
histogram, mirroring the converter's ``converter.*`` naming) and
traced as a ``dataloader.batch`` span, so a run can tell a data-bound
epoch from a compute-bound one.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.dataset import Dataset
from repro.utils.rng import default_rng
from repro.utils.validation import check_positive


def default_collate(samples):
    """Stack a list of samples into batched arrays.

    Handles samples that are arrays, scalars, tuples of arrays, or
    dicts of arrays (the periodical grid representation yields dicts).
    """
    first = samples[0]
    if isinstance(first, dict):
        return {key: default_collate([s[key] for s in samples]) for key in first}
    if isinstance(first, (tuple, list)):
        return tuple(
            default_collate([s[i] for s in samples]) for i in range(len(first))
        )
    return np.stack([np.asarray(s) for s in samples], axis=0)


class DataLoader:
    """Iterate a dataset in (optionally shuffled) fixed-size batches."""

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int = 1,
        shuffle: bool = False,
        drop_last: bool = False,
        collate_fn=default_collate,
        rng=None,
    ):
        check_positive(batch_size, "batch_size")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.collate_fn = collate_fn
        self._rng = default_rng(rng, label="dataloader")

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self):
        from repro import obs

        n = len(self.dataset)
        order = (
            self._rng.permutation(n) if self.shuffle else np.arange(n)
        )
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            if self.drop_last and len(idx) < self.batch_size:
                return
            metered = obs.enabled()
            if metered:
                fetch_started = time.perf_counter()
            # The tracer span carries the fetch into the active trace
            # (e.g. under trainer.epoch).
            with obs.tracer.span("dataloader.batch") as tspan:
                batch = self.collate_fn([self.dataset[int(i)] for i in idx])
                tspan.add("samples", len(idx))
            if metered:
                elapsed = time.perf_counter() - fetch_started
                obs.registry.counter("dataloader.batches").inc()
                obs.registry.counter("dataloader.samples").inc(len(idx))
                obs.registry.histogram(
                    "dataloader.batch_fetch_seconds"
                ).observe(elapsed)
            yield batch
