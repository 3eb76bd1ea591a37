"""Neural network layers built on :mod:`repro.tensor`.

API modeled on ``torch.nn``: layers are :class:`Module` subclasses
holding :class:`Parameter` leaves; calling a module runs ``forward``.
"""

from repro.nn.module import Module, Parameter
from repro.nn.container import Sequential, ModuleList
from repro.nn.linear import Linear
from repro.nn.conv import Conv2d, ConvTranspose2d
from repro.nn.pooling import MaxPool2d, GlobalAvgPool2d
from repro.nn.activations import ReLU
from repro.nn.normalization import BatchNorm2d
from repro.nn.dropout import Dropout
from repro.nn.recurrent import ConvLSTM
from repro.nn.loss import MSELoss, CrossEntropyLoss
from repro.nn import functional

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "ModuleList",
    "Linear",
    "Conv2d",
    "ConvTranspose2d",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "ReLU",
    "BatchNorm2d",
    "Dropout",
    "ConvLSTM",
    "MSELoss",
    "CrossEntropyLoss",
    "functional",
]
