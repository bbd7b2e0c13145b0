"""Parameter optimizers: SGD with momentum, the paper's choice.

The readahead network trains with SGD, learning rate 0.01 and momentum
0.99 (HotStorage '21, section 4).  Other optimizers plug in by
subclassing :class:`Optimizer` and implementing ``step``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from .layers.base import Parameter
from .matrix import Matrix

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


class SGD(Optimizer):
    """Stochastic gradient descent with classical momentum.

    ``v <- momentum * v + grad;  w <- w - lr * v`` -- the Sutskever et
    al. formulation cited by the paper.
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
        self._velocity: Dict[int, Matrix] = {}

    def step(self) -> None:
        for param in self.parameters:
            grad = param.grad
            if self.momentum > 0.0:
                vel = self._velocity.get(id(param))
                if vel is None:
                    vel = Matrix.zeros(grad.rows, grad.cols, dtype=grad.dtype)
                vel = vel * self.momentum + grad
                self._velocity[id(param)] = vel
                update = vel
            else:
                update = grad
            param.value = param.value - update * self.lr

