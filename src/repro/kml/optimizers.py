"""Parameter optimizers: SGD with momentum, the paper's choice.

The readahead network trains with SGD, learning rate 0.01 and momentum
0.99 (HotStorage '21, section 4).  Other optimizers plug in by
subclassing :class:`Optimizer` and implementing ``step``.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .layers.base import Parameter
from .matrix import _wrap, kernels

__all__ = ["Optimizer", "SGD"]


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


class _Slot:
    """One parameter's kernel table, encoded scalars and velocity.

    The kernels and scalars are exactly what ``Matrix`` arithmetic
    applies for the parameter's dtype, so the step computes the same
    values without wrapping each intermediate.
    """

    __slots__ = ("param", "kernels", "momentum", "lr", "velocity")

    def __init__(self, param: Parameter, lr: float, momentum: float):
        self.param = param
        self.kernels = k = kernels(param.value.dtype)
        self.momentum, self.lr = k.encode(momentum), k.encode(lr)
        self.velocity = np.zeros_like(param.value.raw)


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum.

    ``v <- momentum * v + grad;  w <- w - lr * v`` -- the Sutskever et
    al. formulation cited by the paper.

    The step runs on the raw buffers, with each parameter's kernels and
    encoded ``lr``/``momentum`` resolved once, at construction; only the
    new ``param.value`` is wrapped.  It is rebound, never written in
    place, because callers may hold the old value.
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
        self._slots = [_Slot(param, lr, momentum) for param in self.parameters]

    def step(self) -> None:
        use_momentum = self.momentum > 0.0
        for slot in self._slots:
            param, k = slot.param, slot.kernels
            update = param.grad.raw
            if use_momentum:
                update = k.add(k.mul(slot.velocity, slot.momentum), update)
                slot.velocity = update
            new_value = k.sub(param.value.raw, k.mul(update, slot.lr))
            param.value = _wrap(new_value, k.dtype)
