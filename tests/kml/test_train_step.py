"""The training step's hot path: raw buffers, counted matmuls, no gradient churn.

The paper's network trains through its resolved plan (see
``repro.kml.network``) and ``SGD``'s flat buffers, on raw buffers
through the dtype's kernel table, so a step never goes through
``Matrix`` operator dispatch, reports each of its matmuls to the
``matrix.matmul`` hook, and stores into gradient buffers made once (the
optimizer's views).  The numerics golden pins that the values are the
same bits as the ``Matrix`` formulas.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.kml import CrossEntropyLoss, Linear, SGD, Sequential
from repro.hooks import HookPlane, detach
from repro.kml import matrix
from repro.kml import network as network_module
from repro.kml.matrix import Matrix
from repro.readahead.model import build_network
from repro.runtime.memory import MemoryAccountant

ROW = np.array([[0.3, -1.2, 0.8, 2.5, -0.1]])
FEATURES = np.array([[30_000.0, 950.0, 830.0, 70.0, 128.0]])
#: (buffers, bytes) one warm single-row step allocates, per dtype.
STEP_TRAFFIC = {"float32": (11, 3952), "fixed32": (14, 4240)}


def _trainer(dtype):
    network = build_network(dtype=dtype, rng=np.random.default_rng(0))
    optimizer = SGD(network.parameters(), lr=0.01, momentum=0.99)
    return network, optimizer, CrossEntropyLoss()


@pytest.fixture
def probe():
    """Hooks counting every matmul and every forward and backward
    traversal (``mask`` 0 also times each), by site name."""
    plane = HookPlane()
    hooks = {}
    for site in ("matrix.matmul", "network.forward", "network.backward"):
        hook = hooks[site] = plane.hook(site)
        hook.hist, hook.mask = SimpleNamespace(observe=lambda s: None), 0
    plane.attach(matrix)
    plane.attach(network_module)
    yield hooks
    detach(matrix)
    detach(network_module)


def _calls(probe):
    calls = {site: hook.calls for site, hook in probe.items()}
    for hook in probe.values():
        hook.calls = 0
    return calls


@pytest.mark.parametrize("dtype", ["float32", "fixed32"])
def test_step_makes_no_operator_dispatch(dtype, monkeypatch):
    network, optimizer, loss_fn = _trainer(dtype)
    x = Matrix(ROW, dtype=dtype)
    network.train_step(x, [2], loss_fn, optimizer)
    calls = []
    original = Matrix._binary

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Matrix, "_binary", counting)
    network.train_step(x, [2], loss_fn, optimizer)
    assert calls == []


@pytest.mark.parametrize("dtype", ["float32", "float64", "fixed32"])
def test_probe_counts_every_matmul(dtype, probe):
    """Pins the kernel calls of the online op: a step or a prediction
    that makes another matmul or traversal fails here, timing aside."""
    network, optimizer, loss_fn = _trainer(dtype)
    network.train_step(Matrix(ROW, dtype=dtype), [2], loss_fn, optimizer)
    # 3 forward, 2 per Linear backward but fc1's input gradient, which no
    # parameter needs and the step does not compute.
    assert _calls(probe) == {"matrix.matmul": 8, "network.forward": 1, "network.backward": 1}

    zscore = Linear(5, 5, dtype=dtype, rng=np.random.default_rng(1))
    model = Sequential([zscore] + network.layers)
    for _ in range(2):  # the second runs the bounds the first resolved
        model.predict_classes(FEATURES, dtype=dtype)
        assert _calls(probe) == {"matrix.matmul": 4, "network.forward": 1, "network.backward": 0}


@pytest.mark.parametrize("dtype", ["float32", "fixed32"])
def test_single_row_step_traffic(dtype):
    """After a warm-up step, a step allocates no gradient buffer.

    What it does allocate, per the allocation observer: forward, one
    result per Linear (the bias is added in place) and an output per
    Sigmoid (5 buffers, 400 B); the loss gradient (16 B); backward, the
    input gradients of fc3, act2, fc2 and act1 (4 buffers, 384 B; fc1's
    is not computed); and one flat array holding the six new parameter
    values (3,152 B).  In fixed32 each Linear keeps one more buffer: fc1
    reads the unbounded input, so its clamps can bind and it keeps its
    int32 matmul result (128 B); fc2 and fc3 read sigmoids, so their
    clamps are idle and they keep the int64 sum they narrow (128 + 32 B).
    """
    network, optimizer, loss_fn = _trainer(dtype)
    x = Matrix(ROW, dtype=dtype)
    network.train_step(x, [2], loss_fn, optimizer)
    grads = [(p.grad, p.grad.raw) for p in network.parameters()]
    acc = MemoryAccountant()
    with acc:
        network.train_step(x, [2], loss_fn, optimizer)
    assert (acc.allocation_count, acc.total_allocated) == STEP_TRAFFIC[dtype]
    for p, (grad, raw) in zip(network.parameters(), grads):
        assert p.grad is grad and p.grad.raw is raw
