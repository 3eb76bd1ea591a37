"""Dataset containers, splitting, and the DataLoader."""

import numpy as np
import pytest

from repro import obs
from repro.data import DataLoader, Dataset, random_split, sequential_split
from repro.data.dataloader import default_collate
from repro.data.dataset import Subset


class TestSubsetAndSplits:
    def test_subset_indexing(self):
        ds = np.arange(10)
        sub = Subset(ds, [9, 0, 5])
        assert [sub[i] for i in range(3)] == [9, 0, 5]

    def test_random_split_counts(self):
        ds = np.arange(10)
        a, b = random_split(ds, [7, 3], rng=0)
        assert len(a) == 7 and len(b) == 3

    def test_random_split_fractions(self):
        ds = np.arange(10)
        a, b = random_split(ds, [0.8, 0.2], rng=0)
        assert len(a) == 8 and len(b) == 2

    def test_random_split_partition_is_disjoint_cover(self):
        ds = np.arange(20)
        parts = random_split(ds, [10, 5, 5], rng=1)
        seen = sorted(x for part in parts for x in (part[i] for i in range(len(part))))
        assert seen == list(range(20))

    def test_random_split_deterministic(self):
        ds = np.arange(10)
        a1, _ = random_split(ds, [5, 5], rng=42)
        a2, _ = random_split(ds, [5, 5], rng=42)
        assert [a1[i] for i in range(5)] == [a2[i] for i in range(5)]

    def test_random_split_bad_lengths(self):
        ds = np.arange(10)
        with pytest.raises(ValueError):
            random_split(ds, [5, 6])
        with pytest.raises(ValueError):
            random_split(ds, [0.5, 0.6])

    def test_negative_lengths_rejected(self):
        # [1.5, -0.5] sums to 1 and used to give subsets of 9 and 0 items.
        ds = np.arange(9)
        for lengths in ([1.5, -0.5], [12, -3]):
            with pytest.raises(ValueError, match="lengths must be non-negative"):
                random_split(ds, lengths, rng=0)
        with pytest.raises(ValueError, match="fractions must be non-negative"):
            sequential_split(ds, [1.5, -0.5])

    def test_sequential_split_preserves_order(self):
        ds = np.arange(10)
        a, b, c = sequential_split(ds, [0.8, 0.1, 0.1])
        assert [a[i] for i in range(len(a))] == list(range(8))
        assert b[0] == 8 and c[0] == 9

    def test_sequential_split_fraction_check(self):
        with pytest.raises(ValueError):
            sequential_split(np.arange(4), [0.5, 0.2])


class TestCollate:
    def test_arrays(self):
        out = default_collate([np.ones(2), np.zeros(2)])
        assert out.shape == (2, 2)

    def test_tuples(self):
        out = default_collate([(np.ones(2), 1), (np.zeros(2), 0)])
        assert out[0].shape == (2, 2)
        assert out[1].tolist() == [1, 0]

    def test_dicts(self):
        samples = [{"x": np.ones(3), "y": 1}, {"x": np.zeros(3), "y": 2}]
        out = default_collate(samples)
        assert out["x"].shape == (2, 3)
        assert out["y"].tolist() == [1, 2]

    def test_nested(self):
        samples = [{"pair": (np.ones(1), np.zeros(1))}] * 2
        out = default_collate(samples)
        assert out["pair"][0].shape == (2, 1)


class TestDataLoader:
    def test_batch_shapes(self):
        ds = list(zip(np.arange(10), np.arange(10)))
        loader = DataLoader(ds, batch_size=4)
        batches = list(loader)
        assert [len(b[0]) for b in batches] == [4, 4, 2]
        assert len(loader) == 3

    def test_drop_last(self):
        ds = np.arange(10)
        loader = DataLoader(ds, batch_size=4, drop_last=True)
        assert [len(b) for b in loader] == [4, 4]
        assert len(loader) == 2

    def test_no_shuffle_order(self):
        ds = np.arange(6)
        loader = DataLoader(ds, batch_size=3)
        first = next(iter(loader))
        assert first.tolist() == [0, 1, 2]

    def test_shuffle_changes_order_but_covers_all(self):
        ds = np.arange(32)
        loader = DataLoader(ds, batch_size=32, shuffle=True, rng=0)
        batch = next(iter(loader))
        assert sorted(batch.tolist()) == list(range(32))
        assert batch.tolist() != list(range(32))

    def test_shuffle_reshuffles_each_epoch(self):
        ds = np.arange(16)
        loader = DataLoader(ds, batch_size=16, shuffle=True, rng=0)
        first = next(iter(loader)).tolist()
        second = next(iter(loader)).tolist()
        assert first != second

    def test_custom_collate(self):
        ds = np.arange(4)
        loader = DataLoader(ds, batch_size=2, collate_fn=lambda xs: sum(xs))
        assert [b for b in loader] == [1, 5]

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(np.arange(3), batch_size=0)

    def test_dataset_protocol_abstract(self):
        base = Dataset()
        with pytest.raises(NotImplementedError):
            len(base)
        with pytest.raises(NotImplementedError):
            base[0]


class TestDataLoaderMetrics:
    @staticmethod
    def loader():
        rng = np.random.default_rng(0)
        images = rng.normal(size=(12, 1, 8, 8)).astype(np.float32)
        labels = rng.integers(0, 3, 12)
        return DataLoader(list(zip(images, labels)), batch_size=4)

    def test_dataloader_metrics_recorded(self):
        obs.reset()
        list(self.loader())
        snap = obs.registry.snapshot()
        assert snap["counters"]["dataloader.batches"] == 3
        assert snap["counters"]["dataloader.samples"] == 12
        hist = snap["histograms"]["dataloader.batch_fetch_seconds"]
        assert hist["count"] == 3

    def test_dataloader_metrics_disabled_noop(self):
        obs.reset()
        with obs.disabled():
            list(self.loader())
        snap = obs.registry.snapshot()
        assert snap["counters"].get("dataloader.batches", 0) == 0
