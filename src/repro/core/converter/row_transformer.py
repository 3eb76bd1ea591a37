"""Row Transformer: formatted partitions -> batched tensors."""

from __future__ import annotations

import numpy as np

from repro.core.converter.df_formatter import FrameOrderError
from repro.core.converter.specs import SpatiotemporalSpec
from repro.data.dataloader import default_collate
from repro.engine.dataframe import DataFrame
from repro.tensor import Tensor
from repro.utils.rng import default_rng


class RowTransformer:
    """Streams a formatted DataFrame as fixed-size training batches.

    Iterating yields tuples of :class:`Tensor` (dicts for a periodical
    window plan); per-sample ``transform`` runs on the x array before
    batching (the "transformation spec" role Petastorm plays in the
    paper).  At no point is more than one partition plus one pending
    batch (plus the optional shuffle buffer) resident: for a
    spatiotemporal spec, one partition + plan span + one batch.

    ``shuffle_buffer`` enables Petastorm-style approximate shuffling:
    samples pass through a fixed-size reservoir and leave it in random
    order, decorrelating batches from partition order without a
    global shuffle.  A spatiotemporal spec takes no shuffle, and a
    ``transform`` only with the basic plan, whose x is one frame.
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
        if isinstance(spec, SpatiotemporalSpec) and (
            shuffle_buffer or transform is not None and spec.window.kind != "basic"
        ):
            raise ValueError(
                "a spatiotemporal spec cuts samples in time order, so "
                "shuffle_buffer must be 0, and a transform (run on each x "
                f"frame) needs the basic window plan, not {spec.window.kind}"
            )
        self.df = formatted_df
        self.batch_size = batch_size
        self.transform = transform
        self.spec = spec
        self.shuffle_buffer = shuffle_buffer
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
            samples.inc(len(batch["y_data"] if isinstance(batch, dict) else batch[0]))
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
        source = self._shuffled_samples() if self.shuffle_buffer else self._raw_samples()
        pending: list[tuple] = []
        for sample in source:
            pending.append(sample)
            if len(pending) == self.batch_size:
                yield self._tensors(default_collate(pending))
                pending = []
        if pending:
            yield self._tensors(default_collate(pending))

    def _iter_spatiotemporal(self):
        """Cut the timeline through the spec's window plan: frame t is
        step t from step 0, an absent step a zero frame, and a row
        before step 0 is dropped, as in ``STManager.get_st_grid_array``.
        ``frames`` holds the plan's span plus one batch from step
        ``base`` on; a step past its end completes every frame held, so
        a batch is cut and the buffer slides on.  The last step read is
        held back: a step that continues into the next partition is
        folded into it (the cells that partition wrote overwrite, as in
        one ordered partition), and one that starts before it raises
        :class:`FrameOrderError`."""
        spec, size, span = self.spec, self.batch_size, self.spec.window.span
        shape = (span + size, len(spec.value_columns), spec.partitions_y, spec.partitions_x)
        frames = np.zeros(shape, dtype=np.float32)
        base, last = 0, -np.inf
        for part in self.df.iter_partitions():
            steps, block = part.columns["__t"], part.columns["__x"]
            if not len(steps):
                continue
            if steps[0] < last:
                raise FrameOrderError()
            if steps[0] == last >= 0:
                np.copyto(frames[last - base], block[0], where=part.columns["__w"][0])
            fresh = steps.searchsorted(max(last, -1), "right")
            steps, block, last = steps[fresh:], block[fresh:], steps[-1]
            while len(steps):
                fits = steps.searchsorted(base + len(frames))
                frames[steps[:fits] - base] = block[:fits]
                steps, block = steps[fits:], block[fits:]
                if len(steps):
                    yield self._window_batch(frames, size, base)
                    frames[:span], frames[span:] = frames[size:], 0
                    base += size
        held = max(last + 1 - base, 0)
        spec.window.check(base + held)
        if held > span:
            yield self._window_batch(frames, held - span, base)

    def _window_batch(self, frames, count, origin):
        """The first ``count`` samples of ``frames`` (step ``origin``
        on); ``transform`` runs on each basic x frame."""
        batch = self.spec.window.item(frames, np.arange(count), origin)
        if self.transform is not None:
            batch = np.stack([np.asarray(self.transform(x)) for x in batch[0]]), batch[1]
        return self._tensors(batch)

    @staticmethod
    def _tensors(batch):
        if isinstance(batch, dict):
            return {key: Tensor(value) for key, value in batch.items()}
        return tuple(Tensor(value) for value in batch)
