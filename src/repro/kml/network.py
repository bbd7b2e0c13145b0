"""Model container: a chain computation graph traversed for inference.

KML builds a DAG of layers and traverses it for inference, propagating
each layer's output to its successors; gradients flow back along the
reverse topological order (HotStorage '21, section 2).  The prototype
supports *chain* graphs processed serially -- :class:`Sequential` is
exactly that.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, List, Optional

import numpy as np

from .layers.base import Layer, Parameter
from .losses.base import Loss
from .matrix import Matrix
from .optimizers import Optimizer

__all__ = ["Sequential"]

#: The hooks that count and time forward (``forward``/``infer``) and
#: ``backward`` traversals (see repro.hooks).
HOOK_SLOTS = {
    "network.forward": "_forward_hook",
    "network.backward": "_backward_hook",
}
_forward_hook = _backward_hook = None


class Sequential:
    """A serially-processed chain of layers with train/predict helpers."""

    def __init__(self, layers: Optional[Iterable[Layer]] = None, name: str = "model"):
        self.name = name
        self.layers: List[Layer] = list(layers or [])

    def add(self, layer: Layer) -> "Sequential":
        """Append a layer; returns self for chaining."""
        self.layers.append(layer)
        return self

    # ------------------------------------------------------------------
    # Forward / backward traversal
    # ------------------------------------------------------------------

    def forward(self, x: Matrix) -> Matrix:
        """Traverse the chain, feeding each output to the next layer."""
        hook = _forward_hook
        t0 = 0.0
        if hook is not None:
            hook.calls = n = hook.calls + 1
            if not n & hook.mask:
                t0 = time.perf_counter()
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        if t0:
            hook.hist.observe(time.perf_counter() - t0)
        return out

    __call__ = forward

    def infer(self, x: Matrix) -> Matrix:
        """Inference-only traversal: eval semantics, no shared-state writes.

        Uses each layer's :meth:`~repro.kml.layers.base.Layer.infer`, so
        nothing is cached for a later ``backward()`` and dropout is off:
        a prediction never disturbs a training step's cached
        activations.  Counted and timed by the forward pass hook.
        """
        hook = _forward_hook
        t0 = 0.0
        if hook is not None:
            hook.calls = n = hook.calls + 1
            if not n & hook.mask:
                t0 = time.perf_counter()
        out = x
        for layer in self.layers:
            out = layer.infer(out)
        if t0:
            hook.hist.observe(time.perf_counter() - t0)
        return out

    def backward(self, grad_output: Matrix) -> Matrix:
        """Propagate gradients in reverse layer order."""
        hook = _backward_hook
        t0 = 0.0
        if hook is not None:
            hook.calls = n = hook.calls + 1
            if not n & hook.mask:
                t0 = time.perf_counter()
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        if t0:
            hook.hist.observe(time.perf_counter() - t0)
        return grad

    # ------------------------------------------------------------------
    # Parameters and modes
    # ------------------------------------------------------------------

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def train(self) -> None:
        for layer in self.layers:
            layer.train()

    def eval(self) -> None:
        for layer in self.layers:
            layer.eval()

    @property
    def num_parameters(self) -> int:
        return sum(p.value.rows * p.value.cols for p in self.parameters())

    @property
    def nbytes(self) -> int:
        """Persistent model memory (parameter values + gradient buffers)."""
        return sum(layer.nbytes for layer in self.layers)

    # ------------------------------------------------------------------
    # Training helpers
    # ------------------------------------------------------------------

    def _infer_dtype(self, dtype: Optional[str]) -> str:
        """Resolve the input dtype: explicit > first parameter > float32."""
        if dtype is not None:
            return dtype
        for layer in self.layers:
            for param in layer.parameters():
                return param.value.dtype
        return "float32"

    def train_step(
        self, x: Matrix, target, loss_fn: Loss, optimizer: Optimizer
    ) -> float:
        """One SGD iteration: forward, loss, backward, parameter update.

        Raises ``ValueError`` when the loss is not finite (a NaN or
        infinite input, say), before any gradient is computed: the
        parameters, their gradients and the optimizer state are left as
        they were, where one such step would otherwise spread NaN into
        every weight, and with momentum into every later step.
        """
        prediction = self.forward(x)
        loss = loss_fn.forward(prediction, target)
        if not math.isfinite(loss):
            raise ValueError(f"training loss is {loss}; the step was not applied")
        self.zero_grad()
        self.backward(loss_fn.backward())
        optimizer.step()
        return loss

    def fit(
        self,
        x: np.ndarray,
        labels,
        loss_fn: Loss,
        optimizer: Optimizer,
        epochs: int = 10,
        batch_size: int = 32,
        rng: Optional[np.random.Generator] = None,
        dtype: Optional[str] = None,
        shuffle: bool = True,
    ) -> List[float]:
        """Mini-batch training loop; returns the mean loss per epoch.

        ``labels`` may be integer class labels (for classification
        losses) or a 2-D float array (for regression losses).  The
        input dtype defaults to the model's parameter dtype.  Raises
        ``ValueError`` on no samples, ``epochs <= 0`` or
        ``batch_size <= 0``, and (from :meth:`train_step`) on a batch
        whose loss is not finite.
        """
        dtype = self._infer_dtype(dtype)
        x = np.asarray(x, dtype=np.float64)
        labels = np.asarray(labels)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if len(x) == 0:
            raise ValueError("x has no samples")
        if len(labels) != len(x):
            raise ValueError(f"{len(labels)} labels for {len(x)} samples")
        if epochs <= 0:
            raise ValueError(f"epochs must be positive, got {epochs}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        rng = rng or np.random.default_rng()
        self.train()
        history: List[float] = []
        indices = np.arange(len(x))
        for _ in range(epochs):
            if shuffle:
                rng.shuffle(indices)
            epoch_losses = []
            for start in range(0, len(x), batch_size):
                batch = indices[start : start + batch_size]
                xb = Matrix(x[batch], dtype=dtype)
                yb = labels[batch]
                if yb.ndim > 1:
                    yb = Matrix(yb, dtype=dtype)
                epoch_losses.append(self.train_step(xb, yb, loss_fn, optimizer))
            history.append(float(np.mean(epoch_losses)))
        return history

    # ------------------------------------------------------------------
    # Inference helpers
    # ------------------------------------------------------------------

    def predict(self, x, dtype: Optional[str] = None) -> Matrix:
        """Inference pass (eval semantics); accepts arrays or a Matrix.

        Runs through :meth:`infer`, which writes no layer state -- no
        train/eval mode flipping, no cached activations -- so a
        prediction never disturbs a training step's cached activations.
        """
        dtype = self._infer_dtype(dtype)
        inp = x if isinstance(x, Matrix) else Matrix(np.asarray(x), dtype=dtype)
        return self.infer(inp)

    def predict_classes(self, x, dtype: Optional[str] = None) -> np.ndarray:
        """Argmax class predictions for a batch."""
        return self.predict(x, dtype=dtype).argmax(axis=1)

    def accuracy(self, x, labels, dtype: Optional[str] = None) -> float:
        """Fraction of rows whose argmax matches ``labels``."""
        predicted = self.predict_classes(x, dtype=dtype)
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if len(labels) != len(predicted):
            raise ValueError(f"{len(labels)} labels for {len(predicted)} rows")
        return float(np.mean(predicted == labels))

    def summary(self) -> str:
        """Human-readable architecture listing."""
        lines = [f"Sequential {self.name!r}:"]
        for i, layer in enumerate(self.layers):
            lines.append(f"  [{i}] {layer!r}")
        lines.append(
            f"  parameters: {self.num_parameters} ({self.nbytes} bytes incl. grads)"
        )
        return "\n".join(lines)
