"""Parameter optimizers: SGD with momentum, the paper's choice.

The readahead network trains with SGD, learning rate 0.01 and momentum
0.99 (HotStorage '21, section 4).  Other optimizers plug in by
subclassing :class:`Optimizer` and implementing ``step``.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .layers.base import Parameter
from .matrix import _NUMPY_DTYPES, _view, kernels, observe_alloc

__all__ = ["Optimizer", "SGD"]

#: Each parameter's slice of a flat buffer starts on this many bytes, the
#: alignment its own allocation would have had, so a matmul over a view
#: takes the same BLAS path as one over a separate array.
_ALIGN = 16


class Optimizer:
    """Base optimizer: holds parameters, applies ``step``, clears grads."""

    def __init__(self, parameters: Iterable[Parameter]):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer needs at least one parameter")

    def step(self) -> None:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()


class _Group:
    """The parameters of one dtype, laid out end to end in flat buffers.

    ``grad`` and ``velocity`` are flat; each parameter accumulates into
    a view of ``grad`` made once, and after a step its value is a view
    of ``values``, the flat array the step made.  The kernels and the
    encoded ``lr``/``momentum`` are what ``Matrix`` arithmetic applies
    for the dtype, so the step computes the same values as the formula
    applied parameter by parameter.
    """

    __slots__ = (
        "params", "kernels", "lr", "momentum", "spans",
        "grad", "grad_views", "velocity", "values", "bound",
    )

    def __init__(self, params: List[Parameter], lr: float, momentum: float):
        self.params = params
        dtype = params[0].value.dtype
        self.kernels = k = kernels(dtype)
        self.lr = k.encode(lr)
        self.momentum = k.encode(momentum) if momentum > 0.0 else None
        align = _ALIGN // np.dtype(_NUMPY_DTYPES[dtype]).itemsize
        self.spans = []
        size = 0
        for param in params:
            rows, cols = shape = param.value.shape
            self.spans.append((slice(size, size + rows * cols), shape))
            size += -(-rows * cols // align) * align
        self.grad = np.zeros(size, dtype=_NUMPY_DTYPES[dtype])
        observe_alloc(self.grad)
        self.velocity = np.zeros_like(self.grad)
        self.grad_views = self._views(self.grad)
        for param, view in zip(params, self.grad_views):
            param.adopt_grad(view)
        # Gathered at the first step: the values are the callers' arrays.
        self.values = None
        self.bound = [None] * len(params)

    def _views(self, flat: np.ndarray) -> list:
        """A matrix per parameter: its view of ``flat``."""
        dtype = self.kernels.dtype
        return [_view(flat[span].reshape(shape), dtype) for span, shape in self.spans]

    def _gather(self, matrices) -> np.ndarray:
        """A flat copy of ``matrices``, one per parameter, in the layout."""
        flat = np.zeros_like(self.grad)
        for (span, shape), param, m in zip(self.spans, self.params, matrices):
            if m.shape != shape or m.dtype != self.kernels.dtype:
                raise ValueError(
                    f"{param.name}: expected a {self.kernels.dtype} {shape} "
                    f"matrix, got {m.dtype} {m.shape}"
                )
            flat[span] = m.raw.reshape(-1)
        return flat

    def step(self) -> None:
        k, params = self.kernels, self.params
        grad, values = self.grad, self.values
        for param, grad_view, bound in zip(params, self.grad_views, self.bound):
            if param.grad is not grad_view:
                grad = None
            if param.value is not bound:
                values = None
        if grad is None:
            grad = self._gather([param.grad for param in params])
        if values is None:
            values = self._gather([param.value for param in params])
        update = grad
        if self.momentum is not None:
            update = self.velocity = k.add(k.mul(self.velocity, self.momentum), grad)
        values = self.values = k.sub(values, k.mul(update, self.lr))
        observe_alloc(values)
        self.bound = bound = self._views(values)
        for param, value in zip(params, bound):
            param.value = value


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum.

    ``v <- momentum * v + grad;  w <- w - lr * v`` -- the Sutskever et
    al. formulation cited by the paper.

    The step runs once per dtype over flat buffers: the parameters'
    gradients, velocities and values each laid end to end, so a step is
    four kernel calls however many parameters there are.  Each
    parameter's gradient buffer becomes a view of the optimizer's flat
    one at construction; a gradient a caller assigns instead is copied
    in at the step.  Each new ``param.value`` is a view of the step's
    new flat array: rebound, never written in place, because callers
    may hold the old value.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
    ):
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.lr = lr
        self.momentum = momentum
        by_dtype = {}
        for param in self.parameters:
            by_dtype.setdefault(param.value.dtype, []).append(param)
        self._groups = [_Group(group, lr, momentum) for group in by_dtype.values()]

    def step(self) -> None:
        for group in self._groups:
            group.step()
