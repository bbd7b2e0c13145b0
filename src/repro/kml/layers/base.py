"""Layer abstraction: the extensibility contract of KML.

Per the paper (section 2, *Extensibility*), adding a component to KML
requires exactly three functions: (i) building/initializing the layer,
(ii) forward propagation for inference, and (iii) backward propagation
for training.  :class:`Layer` encodes that contract; every concrete
layer in :mod:`repro.kml.layers` implements it and nothing more.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..matrix import Kernels, Matrix

__all__ = ["Parameter", "Layer"]


class Parameter:
    """A trainable matrix together with its accumulated gradient.

    ``grad`` is an accumulator written in place: the parameter allocates
    its buffer once, layers add each backward pass into it
    (:meth:`accumulate`) and :meth:`zero_grad` refills it with zeros;
    :meth:`store` does both at once.  An optimizer may hand the
    parameter a view of its own flat buffer to accumulate into instead
    (:meth:`adopt_grad`).  Hold a copy, not ``grad`` itself, to keep a
    gradient across steps.  A matrix a caller assigns to ``grad`` is
    never written: the next accumulation rebinds ``grad`` to a new sum
    and the next ``zero_grad`` to the parameter's own buffer.  ``value``
    is the reverse: optimizers rebind it and never write it in place.
    """

    __slots__ = ("name", "value", "grad", "_own_grad")

    def __init__(self, name: str, value: Matrix):
        self.name = name
        self.value = value
        self._own_grad: Optional[Matrix] = None
        self.zero_grad()

    def zero_grad(self) -> None:
        own, value = self._own_grad, self.value
        if own is None or own.shape != value.shape or own.dtype != value.dtype:
            rows, cols = value.shape
            own = self._own_grad = Matrix.zeros(rows, cols, dtype=value.dtype)
        else:
            own.raw.fill(0)
        self.grad = own

    def accumulate(self, delta: np.ndarray, kernels: Kernels) -> None:
        """Add the raw, encoded gradient ``delta`` into ``grad``.

        ``kernels`` is the table of the parameter's dtype.
        """
        grad = self.grad
        if grad is self._own_grad:
            kernels.add_into(grad.raw, delta)
        else:
            self.grad = grad + Matrix.from_raw(delta, kernels.dtype)

    def store(self, delta: np.ndarray, kernels: Kernels) -> None:
        """:meth:`zero_grad` then :meth:`accumulate` ``delta``, as one store."""
        own = self._own_grad
        raw = own.raw
        # ``is not``: a numpy dtype is one shared object per type, and a
        # false alarm only costs a reallocation.
        if raw.dtype is not delta.dtype or raw.shape != delta.shape:
            self.zero_grad()
            own = self._own_grad
            raw = own.raw
        kernels.store(raw, delta)
        self.grad = own

    def adopt_grad(self, buffer: Matrix) -> None:
        """Accumulate into ``buffer`` from now on, keeping the gradient.

        ``buffer`` has the value's shape and dtype; it takes over the
        parameter's own buffer, and ``grad`` if that is the own buffer.
        """
        own = self._own_grad
        if own.shape == buffer.shape and own.dtype == buffer.dtype:
            buffer.raw[...] = own.raw
        if self.grad is own:
            self.grad = buffer
        self._own_grad = buffer

    @property
    def nbytes(self) -> int:
        """Bytes held by the parameter value and its gradient buffer."""
        return self.value.nbytes + self.grad.nbytes

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Layer:
    """Base class for differentiable components.

    Subclasses implement :meth:`forward` and :meth:`backward`;
    construction is the "build and initialize" step.  ``backward``
    receives the gradient of the loss w.r.t. this layer's output and
    must (a) accumulate gradients into its parameters and (b) return
    the gradient w.r.t. its input so the chain continues.
    """

    #: short type tag used by the model file format
    kind: str = "layer"

    def __init__(self, name: Optional[str] = None):
        self.name = name or type(self).__name__.lower()
        self.training = True

    def forward(self, x: Matrix) -> Matrix:
        raise NotImplementedError

    def backward(self, grad_output: Matrix) -> Matrix:
        raise NotImplementedError

    def infer(self, x: Matrix) -> Matrix:
        """Forward pass for inference only: eval semantics, no caching.

        Unlike :meth:`forward`, ``infer`` must not write any layer
        state (cached activations, dropout masks), so a prediction
        between a training step's forward and backward passes never
        disturbs the activations that step cached.  The base
        implementation falls back to :meth:`forward` -- correct only
        for layers whose forward is already pure; stateful layers
        override it.
        """
        return self.forward(x)

    def parameters(self) -> List[Parameter]:
        """Trainable parameters; stateless layers return an empty list."""
        return []

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> None:
        self.training = True

    def eval(self) -> None:
        self.training = False

    @property
    def nbytes(self) -> int:
        """Approximate persistent memory of this layer (parameters)."""
        return sum(p.nbytes for p in self.parameters())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
