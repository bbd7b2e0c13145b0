"""KML core: the from-scratch machine-learning library.

This package reproduces the ML half of the paper -- matrices over three
element types, approximated transcendental math, layers and losses with
hand-written forward/backward passes, reverse-mode autodiff, SGD with
momentum, decision trees, metrics, and the KML model file format --
plus what the use cases share: the sweep that studies a knob, the
3-layer classifier recipe and the UCB1 feedback tuner.
"""

from .matrix import Matrix, DTYPES
from .network import Sequential
from .layers import Layer, Parameter, Linear, Sigmoid, ReLU, Tanh, Softmax, Dropout
from .losses import Loss, CrossEntropyLoss, MSELoss, BinaryCrossEntropyLoss
from .optimizers import Optimizer, SGD
from .decision_tree import DecisionTreeClassifier
from .classifier import NeuralClassifier
from .bandit import UCB1Tuner
from .study import Sweep, sweep
from .metrics import (
    accuracy_score,
    classification_report,
    confusion_matrix,
    precision_recall_f1,
    k_fold_cross_validate,
    KFoldResult,
)
from .model_io import (
    save_model,
    load_model,
    dump_model,
    parse_model,
    ModelFormatError,
)
from .quantize import QuantizedLinear, quantize_model

__all__ = [
    "Matrix",
    "DTYPES",
    "Sequential",
    "Layer",
    "Parameter",
    "Linear",
    "Sigmoid",
    "ReLU",
    "Tanh",
    "Softmax",
    "Dropout",
    "Loss",
    "CrossEntropyLoss",
    "MSELoss",
    "BinaryCrossEntropyLoss",
    "Optimizer",
    "SGD",
    "DecisionTreeClassifier",
    "NeuralClassifier",
    "UCB1Tuner",
    "Sweep",
    "sweep",
    "accuracy_score",
    "classification_report",
    "confusion_matrix",
    "precision_recall_f1",
    "k_fold_cross_validate",
    "KFoldResult",
    "save_model",
    "load_model",
    "dump_model",
    "parse_model",
    "ModelFormatError",
    "QuantizedLinear",
    "quantize_model",
]
