"""Row Transformer: formatted partitions -> batched tensors."""

from __future__ import annotations

import numpy as np

from repro.core.converter.df_formatter import FrameOrderError
from repro.core.converter.specs import SpatiotemporalSpec
from repro.engine.dataframe import DataFrame
from repro.tensor import Tensor


class RowTransformer:
    """Streams a formatted DataFrame as fixed-size training batches.

    Iterating yields tuples of :class:`Tensor`; per-sample
    ``transform`` runs on the x array before batching (the
    "transformation spec" role Petastorm plays in the paper).  At no
    point is more than one partition plus one pending batch (plus the
    optional shuffle buffer) resident.

    ``shuffle_buffer`` enables Petastorm-style approximate shuffling:
    samples pass through a fixed-size reservoir and leave it in random
    order, decorrelating batches from partition order without a
    global shuffle.  A spatiotemporal spec takes no shuffle: its
    frames are sliced out of the formatter's per-partition blocks and
    paired in time order.
    """

    def __init__(
        self,
        formatted_df: DataFrame,
        batch_size: int = 32,
        transform=None,
        spec=None,
        shuffle_buffer: int = 0,
        rng=None,
    ):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if shuffle_buffer < 0:
            raise ValueError("shuffle_buffer must be >= 0")
        if shuffle_buffer and isinstance(spec, SpatiotemporalSpec):
            raise ValueError(
                "shuffle_buffer must be 0 for a spatiotemporal spec: its "
                "frames are paired in time order"
            )
        self.df = formatted_df
        self.batch_size = batch_size
        self.transform = transform
        self.spec = spec
        self.shuffle_buffer = shuffle_buffer
        from repro.utils.rng import default_rng

        self._rng = default_rng(rng, label="row_transformer")

    def __iter__(self):
        if isinstance(self.spec, SpatiotemporalSpec):
            source = self._iter_spatiotemporal()
        else:
            source = self._iter_samples()
        from repro import obs

        if not obs.enabled():
            yield from source
            return
        batches = obs.registry.counter("converter.batches")
        samples = obs.registry.counter("converter.samples")
        for batch in source:
            batches.inc()
            samples.inc(len(batch[0].data))
            yield batch

    def _raw_samples(self):
        for part in self.df.iter_partitions():
            xs = part.columns["__x"]
            ys = part.columns["__y"]
            fs = part.columns.get("__f")
            for i in range(part.num_rows):
                x = xs[i]
                if self.transform is not None:
                    x = self.transform(x)
                yield (x, ys[i]) if fs is None else (x, ys[i], fs[i])

    def _shuffled_samples(self):
        from repro import obs

        occupancy = obs.registry.histogram("converter.shuffle_buffer_occupancy")
        buffer: list[tuple] = []
        for sample in self._raw_samples():
            buffer.append(sample)
            if len(buffer) > self.shuffle_buffer:
                # Observed at emission: how full the reservoir ran
                # (per-emit, but bounded by the sample count and
                # no-op when the obs layer is disabled).
                occupancy.observe(len(buffer))
                index = int(self._rng.integers(len(buffer)))
                buffer[index], buffer[-1] = buffer[-1], buffer[index]
                yield buffer.pop()
        occupancy.observe(len(buffer))
        self._rng.shuffle(buffer)
        yield from buffer

    def _iter_samples(self):
        source = (
            self._shuffled_samples()
            if self.shuffle_buffer
            else self._raw_samples()
        )
        pending: list[tuple] = []
        for sample in source:
            pending.append(sample)
            if len(pending) == self.batch_size:
                yield self._collate(pending)
                pending = []
        if pending:
            yield self._collate(pending)

    def _iter_spatiotemporal(self):
        """Pair frame ``i`` with frame ``i + lead`` across partition
        boundaries, slicing each partition's frame block into batches.

        ``frames`` holds what is not yet emitted as an x, the ``lead``
        frames after it and the last frame seen, which is held back: a
        step that continues into the next partition is folded into it
        (the cells that partition wrote overwrite, as in one ordered
        partition).  A partition starting before it raises
        :class:`FrameOrderError`."""
        lead, size = self.spec.lead_time, self.batch_size
        frames, last = None, None
        for part in self.df.iter_partitions():
            steps, block = part.columns["__t"], part.columns["__x"]
            if not len(steps):
                continue
            if last is not None and steps[0] < last:
                raise FrameOrderError()
            if steps[0] == last:
                np.copyto(frames[-1], block[0], where=part.columns["__w"][0])
                block = block[1:]
            fresh = frames is None
            frames = block if fresh else np.concatenate([frames, block])
            last = steps[-1]
            # Whole batches of pairs whose frames are all complete.
            ready = (len(frames) - 1 - lead) // size * size
            if ready > 0:
                yield from self._frame_batches(frames[: ready + lead])
                frames = frames[ready:]
            if fresh:
                frames = frames.copy()  # never write into a partition
        if frames is not None:
            yield from self._frame_batches(frames)

    def _frame_batches(self, frames):
        """Batches of ``(frames[i], frames[i + lead])``; ``transform``
        runs on each x frame."""
        lead = self.spec.lead_time
        for start in range(0, len(frames) - lead, self.batch_size):
            xs = frames[start : min(start + self.batch_size, len(frames) - lead)]
            ys = frames[start + lead : start + lead + len(xs)]
            if self.transform is None:
                xs = xs.copy()
            else:
                xs = np.stack([np.asarray(self.transform(x)) for x in xs])
            yield Tensor(xs), Tensor(ys.copy())

    @staticmethod
    def _collate(samples: list[tuple]) -> tuple:
        width = len(samples[0])
        return tuple(
            Tensor(np.stack([np.asarray(s[j]) for s in samples]))
            for j in range(width)
        )
