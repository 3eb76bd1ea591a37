"""The batch recompute a stream's incremental state is held to.

A :class:`~repro.engine.streaming.Stream` keeps no history, so the
tests keep it: :class:`RecordingStream` appends each batch to the
stream and, when the stream accepted it, records the batch coerced to
the schema exactly as the stream coerced it.  :meth:`recompute` is
the batch ``group_by(...).agg(...)`` over those batches through
``Session.from_partitions``, one partition per appended batch, so its
partial merges run in the order the incremental state ran them and
the two compare bit for bit.
"""

from __future__ import annotations

from repro.engine import DataFrame, Session


class RecordingStream:
    """A stream plus the coerced batches it accepted, in order."""

    def __init__(self, stream):
        self.stream = stream
        self.batches: list = []

    def aggregate(self, keys, specs):
        return self.stream.aggregate(keys, specs)

    def append(self, data) -> dict:
        part = self.stream._coerce(data)
        stats = self.stream.append(data)
        self.batches.append(part)
        return stats

    def recompute(self, live) -> DataFrame:
        """What ``live`` (an aggregation of this stream) maintains,
        computed in one batch over the recorded history, one partition
        per appended batch."""
        factories = [lambda part=part: part for part in self.batches]
        frame = Session().from_partitions(factories, self.stream.schema)
        return frame.group_by(*live.group_keys).agg(*live.specs)
