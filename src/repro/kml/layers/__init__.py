"""Neural-network layers shipped with the KML reproduction."""

from .base import Layer, Parameter
from .linear import Linear
from .activations import ReLU, Sigmoid, Tanh
from .softmax import Softmax
from .dropout import Dropout

__all__ = [
    "Layer",
    "Parameter",
    "Linear",
    "Sigmoid",
    "ReLU",
    "Tanh",
    "Softmax",
    "Dropout",
]
