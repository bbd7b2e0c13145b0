"""The training step's hot path: raw buffers, counted matmuls, no gradient churn.

``Linear``, ``Sigmoid``, ``CrossEntropyLoss`` and ``SGD`` run a step on
raw buffers through their dtype's kernel table, so a step never goes
through ``Matrix`` operator dispatch, reports each of its matmuls to
the ``matrix.matmul`` hook, and accumulates into gradient buffers each
``Parameter`` allocated once.  The numerics golden pins that the
values are the same bits as the ``Matrix`` formulas.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.kml import CrossEntropyLoss, Linear, SGD, Sequential
from repro.hooks import HookPlane, detach
from repro.kml import matrix
from repro.kml.matrix import Matrix
from repro.readahead.model import build_network
from repro.runtime.memory import MemoryAccountant

ROW = np.array([[0.3, -1.2, 0.8, 2.5, -0.1]])
FEATURES = np.array([[30_000.0, 950.0, 830.0, 70.0, 128.0]])


def _trainer(dtype):
    network = build_network(dtype=dtype, rng=np.random.default_rng(0))
    optimizer = SGD(network.parameters(), lr=0.01, momentum=0.99)
    return network, optimizer, CrossEntropyLoss()


@pytest.fixture
def probe():
    """A matmul hook counting every call (``mask`` 0 also times each)."""
    plane = HookPlane()
    hook = plane.hook("matrix.matmul")
    hook.hist, hook.mask = SimpleNamespace(observe=lambda s: None), 0
    plane.attach(matrix)
    yield hook
    detach(matrix)


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


@pytest.mark.parametrize("dtype", ["float32", "fixed32"])
def test_probe_counts_every_matmul(dtype, probe):
    network, optimizer, loss_fn = _trainer(dtype)
    network.train_step(Matrix(ROW, dtype=dtype), [2], loss_fn, optimizer)
    assert probe.calls == 9  # 3 forward, 2 per Linear backward

    probe.calls = 0
    zscore = Linear(5, 5, dtype=dtype, rng=np.random.default_rng(1))
    Sequential([zscore] + network.layers).predict_classes(FEATURES)
    assert probe.calls == 4


@pytest.mark.parametrize("dtype", ["float32", "fixed32"])
def test_single_row_step_traffic(dtype):
    """After a warm-up step, a step allocates no gradient buffer.

    What it does allocate, per the allocation observer: forward, a
    matmul and a bias-add result per Linear and an output per Sigmoid
    (8 buffers, 608 B); the loss gradient (16 B); backward, one input
    gradient per layer (5 buffers, 404 B); and the six new parameter
    values (3,152 B).
    """
    network, optimizer, loss_fn = _trainer(dtype)
    x = Matrix(ROW, dtype=dtype)
    network.train_step(x, [2], loss_fn, optimizer)
    grads = [(p.grad, p.grad.raw) for p in network.parameters()]
    acc = MemoryAccountant()
    with acc:
        network.train_step(x, [2], loss_fn, optimizer)
    assert acc.allocation_count == 20
    assert acc.total_allocated == 4180
    for p, (grad, raw) in zip(network.parameters(), grads):
        assert p.grad is grad and p.grad.raw is raw
