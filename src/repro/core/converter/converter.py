"""One-call DFtoTorch conversion."""

from __future__ import annotations

from repro.core.converter.df_formatter import DFFormatter
from repro.core.converter.row_transformer import RowTransformer
from repro.engine.dataframe import DataFrame


class DFToTorchConverter:
    """End-to-end DataFrame -> batched tensors.

    >>> converter = DFToTorchConverter(spec)          # doctest: +SKIP
    >>> for x, y in converter.convert(df, batch_size=32):
    ...     loss = criterion(model(x), y)
    """

    def __init__(self, spec):
        self.spec = spec
        self._formatter = DFFormatter(spec)

    def format(self, df: DataFrame) -> DataFrame:
        """Run only the (lazy) DF Formatter stage."""
        return self._formatter.format(df)

    def convert(self, df: DataFrame, batch_size: int = 32, **options) -> RowTransformer:
        """Return a re-iterable stream of training batches; ``options``
        are :class:`RowTransformer`'s ``transform``, ``shuffle_buffer``
        and ``rng`` (a spatiotemporal spec, whose samples stay in time
        order, takes no shuffle and a transform only with the basic
        window plan)."""
        formatted = self._formatter.format(df)
        return RowTransformer(formatted, batch_size, spec=self.spec, **options)
