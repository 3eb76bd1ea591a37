"""Raster imagery models (classification + segmentation)."""

from repro.core.models.raster.sat_cnn import SatCNN
from repro.core.models.raster.deepsat_v2 import DeepSatV2
from repro.core.models.raster.fcn import FCN
from repro.core.models.raster.unet import UNet
from repro.core.models.raster.unetpp import UNetPlusPlus

__all__ = ["SatCNN", "DeepSatV2", "FCN", "UNet", "UNetPlusPlus"]
