"""DFtoTorch Converter: preprocessed DataFrames -> training batches.

The paper's Section III-C module, in two stages (Figure 7):

- :class:`DFFormatter` — a *distributed* map that turns each DataFrame
  row into the array layout the eventual tensor needs, without
  collecting the DataFrame anywhere;
- :class:`RowTransformer` — streams the formatted partitions and emits
  fixed-size batches of :class:`~repro.tensor.Tensor`, applying
  user transformations on the way (Petastorm's role).

Spatiotemporal rows must arrive in time order — ``group_by(time,
cell)`` emits them so — and a cell id must lie inside the grid; the
converter checks both and raises :class:`FrameOrderError` (a
``ValueError``) or ``ValueError`` instead of sorting or wrapping.

:class:`DFToTorchConverter` wires the two together behind one call.
"""

from repro.core.converter.specs import (
    ClassificationSpec,
    SpatiotemporalSpec,
)
from repro.core.converter.df_formatter import DFFormatter, FrameOrderError
from repro.core.converter.row_transformer import RowTransformer
from repro.core.converter.converter import DFToTorchConverter

__all__ = [
    "ClassificationSpec",
    "SpatiotemporalSpec",
    "DFFormatter",
    "FrameOrderError",
    "RowTransformer",
    "DFToTorchConverter",
]
