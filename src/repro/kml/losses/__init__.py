"""Loss functions shipped with the KML reproduction."""

from .base import Loss
from .cross_entropy import CrossEntropyLoss
from .mse import MSELoss
from .binary_cross_entropy import BinaryCrossEntropyLoss

__all__ = [
    "Loss",
    "CrossEntropyLoss",
    "MSELoss",
    "BinaryCrossEntropyLoss",
]
