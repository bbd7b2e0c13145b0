"""Reverse-mode automatic differentiation over a computation DAG.

The paper computes gradients "using reverse mode automatic
differentiation (e.g., back-propagation)" over a DAG of operations.
The layer classes hand-fuse their backward passes for speed; this
module provides the general tape so that (a) arbitrary DAGs -- not just
chains -- can be differentiated, and (b) the hand-written layer
backwards can be *verified* against it (see tests/kml/test_autodiff.py).

Usage::

    x = Tensor(np.ones((2, 3)), requires_grad=True)
    y = (x @ w + b).sigmoid().sum()
    y.backward()
    x.grad  # dL/dx
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from . import mathops

__all__ = ["Tensor", "sigmoid", "relu", "tanh", "softmax_cross_entropy"]


class Tensor:
    """A node in the computation DAG: a value, a gradient, and parents."""

    def __init__(
        self,
        value,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents = _parents
        self._backward: Callable[[], None] = lambda: None

    # ------------------------------------------------------------------

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into self.grad, un-broadcasting where needed."""
        # Sum out broadcast dimensions so grad.shape == value.shape.
        while grad.ndim > self.value.ndim:
            grad = grad.sum(axis=0)
        for axis, size in enumerate(self.value.shape):
            if size == 1 and grad.shape[axis] != 1:
                grad = grad.sum(axis=axis, keepdims=True)
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad = self.grad + grad

    def backward(self) -> None:
        """Reverse-topological traversal from this (scalar) node."""
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: List[Tensor] = []
        visited = set()

        def visit(node: "Tensor") -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                visit(parent)
            topo.append(node)

        visit(self)
        self.grad = np.ones_like(self.value)
        for node in reversed(topo):
            node._backward()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    @staticmethod
    def _lift(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out = Tensor(
            self.value + other.value,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def _backward():
            if self.requires_grad:
                self._accumulate(out.grad)
            if other.requires_grad:
                other._accumulate(out.grad)

        out._backward = _backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out = Tensor(
            self.value * other.value,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def _backward():
            if self.requires_grad:
                self._accumulate(out.grad * other.value)
            if other.requires_grad:
                other._accumulate(out.grad * self.value)

        out._backward = _backward
        return out

    __rmul__ = __mul__

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        out = Tensor(
            self.value @ other.value,
            requires_grad=self.requires_grad or other.requires_grad,
            _parents=(self, other),
        )

        def _backward():
            if self.requires_grad:
                self._accumulate(out.grad @ other.value.T)
            if other.requires_grad:
                other._accumulate(self.value.T @ out.grad)

        out._backward = _backward
        return out

    def sum(self) -> "Tensor":
        out = Tensor(
            np.array([[self.value.sum()]]),
            requires_grad=self.requires_grad,
            _parents=(self,),
        )

        def _backward():
            if self.requires_grad:
                scale = np.asarray(out.grad).reshape(-1)[0]
                self._accumulate(np.full_like(self.value, scale))

        out._backward = _backward
        return out

    def mean(self) -> "Tensor":
        return self.sum() * (1.0 / self.value.size)

    def sigmoid(self) -> "Tensor":
        return sigmoid(self)

    def relu(self) -> "Tensor":
        return relu(self)

    def tanh(self) -> "Tensor":
        return tanh(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape}, requires_grad={self.requires_grad})"


def _unary(parent: Tensor, value: np.ndarray, local_grad: np.ndarray) -> Tensor:
    out = Tensor(value, requires_grad=parent.requires_grad, _parents=(parent,))

    def _backward():
        if parent.requires_grad:
            parent._accumulate(out.grad * local_grad)

    out._backward = _backward
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = mathops.kml_sigmoid(x.value)
    return _unary(x, s, s * (1.0 - s))


def relu(x: Tensor) -> Tensor:
    mask = (x.value > 0).astype(np.float64)
    return _unary(x, x.value * mask, mask)


def tanh(x: Tensor) -> Tensor:
    t = mathops.kml_tanh(x.value)
    return _unary(x, t, 1.0 - t * t)


def softmax_cross_entropy(logits: Tensor, onehot: np.ndarray) -> Tensor:
    """Fused softmax-CE node returning a scalar mean loss."""
    onehot = np.asarray(onehot, dtype=np.float64)
    if onehot.shape != logits.value.shape:
        raise ValueError(
            f"one-hot shape {onehot.shape} != logits {logits.value.shape}"
        )
    probs, log_probs = mathops.kml_softmax_and_log(logits.value, axis=1)
    n = logits.value.shape[0]
    loss_value = -np.sum(onehot * log_probs) / n
    out = Tensor(
        np.array([[loss_value]]),
        requires_grad=logits.requires_grad,
        _parents=(logits,),
    )

    def _backward():
        if logits.requires_grad:
            scale = np.asarray(out.grad).reshape(-1)[0]
            logits._accumulate(scale * (probs - onehot) / n)

    out._backward = _backward
    return out
