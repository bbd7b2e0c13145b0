"""Model container: a chain computation graph traversed for inference.

KML builds a DAG of layers and traverses it for inference, propagating
each layer's output to its successors; gradients flow back along the
reverse topological order (HotStorage '21, section 2).  The prototype
supports *chain* graphs processed serially -- :class:`Sequential` is
exactly that.

``infer``/``predict``/``predict_classes`` run each layer's ``infer``.
In fixed32 each ``Linear`` is told the bound its predecessor proved on
its raw inputs -- 2**16 after a ``Sigmoid``, the proved output bound
after a ``Linear`` whose clamps are idle, 2**31 otherwise -- so that
its own clamps can be proved idle (see ``repro.kml.layers.linear``).

``train_step`` (so ``fit``) resolves a chain of exactly ``Linear`` and
``Sigmoid`` layers, as the paper's network is, once into raw kernel
steps (:class:`_Plan`) and runs those in place of each layer's
``forward``/``zero_grad``/``backward``, in every dtype and at every
batch size, computing the same bits.  At this size a call's dispatch
costs more than its arithmetic, so the steps keep only what the values
need: each ``Linear`` runs the layer's own raw step
(``repro.kml.layers.linear.affine``) under the bound carried down the
chain as in ``infer``, each gradient is stored as
``0 + delta`` rather than zeroed and added to, and the first
``Linear``'s input gradient, which no parameter needs, is not computed
(``backward`` still returns it).  The plan is checked on each call by
the identity of the layer list and of each weight and bias ``Matrix``;
any other model, and any call the plan cannot run (another dtype,
width or weight shape), takes the layered path, which raises the same
errors it always did.  The ``matrix.matmul`` hook still sees every
matmul, the ``network.forward``/``network.backward`` hooks count one
traversal per call, and every buffer a step keeps is reported to the
allocation observer.  ``train_step`` writes no layer's cached
activations.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, List, Optional

import numpy as np

from .layers.activations import Sigmoid
from .layers.base import Layer, Parameter
from .layers.linear import INT32_LIMIT, SIGMOID_LIMIT, _MISSHAPEN, Linear, affine
from .losses.base import Loss
from .matrix import Matrix, _view, checked_raw, kernels, observe_alloc
from .optimizers import Optimizer

__all__ = ["Sequential"]

#: The hooks that count and time forward (``forward``/``infer``) and
#: ``backward`` traversals (see repro.hooks).
HOOK_SLOTS = {
    "network.forward": "_forward_hook",
    "network.backward": "_backward_hook",
}
_forward_hook = _backward_hook = None


def _begin(hook) -> float:
    """The hook idiom's start (see repro.hooks): count the call; the
    start time if this call is timed, else 0."""
    if hook is None:
        return 0.0
    hook.calls = n = hook.calls + 1
    return 0.0 if n & hook.mask else time.perf_counter()


class _Plan:
    """A ``Linear``/``Sigmoid`` chain resolved into raw kernel steps.

    ``runnable`` is False when the chain cannot be resolved (another
    layer type or subclass, no ``Linear``, mixed dtypes, widths that do
    not chain).
    """

    __slots__ = ("layers", "runnable", "kernels", "in_features", "first")

    def __init__(self, layers: List[Layer]):
        self.layers = list(layers)
        self.runnable = False
        linears = [layer for layer in layers if type(layer) is Linear]
        if not linears or any(type(layer) not in (Linear, Sigmoid) for layer in layers):
            return
        if any(layer.dtype != linears[0].dtype for layer in linears) or any(
            a.out_features != b.in_features for a, b in zip(linears, linears[1:])
        ):
            return
        self.runnable = True
        self.kernels = kernels(linears[0].dtype)
        self.in_features = linears[0].in_features
        self.first = layers.index(linears[0])

    def ready(self, x: Matrix) -> Optional[list]:
        """Per layer, the ``Linear.resolved`` tuple the steps run on
        ``x`` (``None`` for a ``Sigmoid``), each resolved under the
        bound its predecessor proved, or None if they cannot run it.  A
        call runs exactly the tuples this returned."""
        if not self.runnable:
            return None
        if x.dtype != self.kernels.dtype or x.raw.shape[1] != self.in_features:
            return None
        resolved = []
        limit = INT32_LIMIT
        for layer in self.layers:
            if type(layer) is Sigmoid:
                resolved.append(None)
                limit = SIGMOID_LIMIT
                continue
            done = layer.resolved(limit)
            if done[3] == _MISSHAPEN:
                return None
            resolved.append(done)
            limit = done[6]
        return resolved

    def forward(self, a: np.ndarray, resolved: list, acts: list) -> np.ndarray:
        """The chain on raw input ``a``; ``acts`` receives each step's
        input and then the output, for :meth:`backward`."""
        k = self.kernels
        for done in resolved:
            acts.append(a)
            a = k.sigmoid(a) if done is None else affine(a, done, k)
            observe_alloc(a)
        acts.append(a)
        return a

    def backward(self, g: np.ndarray, resolved: list, acts: list) -> None:
        """Store every parameter's gradient for ``g``, the loss gradient
        of the output of ``forward(..., acts)``, down to the first
        ``Linear``, whose input gradient nothing needs."""
        k = self.kernels
        matmul, mul, sub, one = k.matmul, k.mul, k.sub, k.one
        for i in range(len(resolved) - 1, self.first - 1, -1):
            done = resolved[i]
            if done is None:
                s = acts[i + 1]
                g = mul(mul(g, s), sub(one, s))
            else:
                layer = self.layers[i]
                # Transposes are contiguous copies, as Matrix.T makes them.
                layer.weight.store(matmul(np.ascontiguousarray(acts[i].T), g), k)
                # Storing one row's column sum stores 0 + (g + 0): 0 + g.
                layer.bias.store(g if g.shape[0] == 1 else k.colsum(g), k)
                if i == self.first:
                    return
                g = matmul(g, np.ascontiguousarray(done[0].raw.T))
            observe_alloc(g)


class Sequential:
    """A serially-processed chain of layers with train/predict helpers."""

    def __init__(self, layers: Optional[Iterable[Layer]] = None, name: str = "model"):
        self.name = name
        self.layers: List[Layer] = list(layers or [])
        self._plan: Optional[_Plan] = None

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
        t0 = _begin(hook)
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
        activations.  In fixed32 each ``Linear`` is passed the bound its
        predecessor proved on its output (see the module docstring).
        Counted and timed by the forward pass hook.
        """
        hook = _forward_hook
        t0 = _begin(hook)
        out = x
        if x.dtype == "fixed32":
            limit = INT32_LIMIT
            for layer in self.layers:
                kind = type(layer)
                if kind is Linear:
                    before = layer._resolved
                    out = layer.infer(out, limit)
                    done = layer._resolved
                    # ``resolved`` stores each tuple once, as a new one, so
                    # a tuple there before and after the call is the one
                    # the call ran; otherwise another thread may have
                    # rebound the weights, and only 2**31 is proved.
                    limit = done[6] if done is before else INT32_LIMIT
                else:
                    out = layer.infer(out)
                    limit = SIGMOID_LIMIT if kind is Sigmoid else INT32_LIMIT
        else:
            # The float kernels ignore input bounds: skip the type checks.
            for layer in self.layers:
                out = layer.infer(out)
        if t0:
            hook.hist.observe(time.perf_counter() - t0)
        return out

    def backward(self, grad_output: Matrix) -> Matrix:
        """Propagate gradients in reverse layer order."""
        hook = _backward_hook
        t0 = _begin(hook)
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        if t0:
            hook.hist.observe(time.perf_counter() - t0)
        return grad

    def _plan_for(self, x: Matrix):
        """``(plan, resolved)`` if the resolved plan can run ``x``, else
        ``(None, None)``; the plan is rebuilt when the layer list has
        changed."""
        plan = self._plan
        if plan is None or plan.layers != self.layers:
            plan = self._plan = _Plan(self.layers)
        resolved = plan.ready(x)
        return (plan, resolved) if resolved is not None else (None, None)

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

        A resolved chain runs its plan's steps, with the same hooks and
        the same bits as ``forward``, ``zero_grad`` and ``backward``
        (see the module docstring).

        Raises ``ValueError`` when the loss is not finite (a NaN or
        infinite input, say), before any gradient is computed: the
        parameters, their gradients and the optimizer state are left as
        they were, where one such step would otherwise spread NaN into
        every weight, and with momentum into every later step.
        """
        plan, resolved = self._plan_for(x)
        if plan is None:
            prediction = self.forward(x)
        else:
            acts: list = []
            hook = _forward_hook
            t0 = _begin(hook)
            prediction = _view(plan.forward(x.raw, resolved, acts), x.dtype)
            if t0:
                hook.hist.observe(time.perf_counter() - t0)
        loss = loss_fn.forward(prediction, target)
        if not math.isfinite(loss):
            raise ValueError(f"training loss is {loss}; the step was not applied")
        if plan is None:
            self.zero_grad()
            self.backward(loss_fn.backward())
        else:
            hook = _backward_hook
            t0 = _begin(hook)
            plan.backward(checked_raw(loss_fn.backward(), x.dtype), resolved, acts)
            if t0:
                hook.hist.observe(time.perf_counter() - t0)
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
