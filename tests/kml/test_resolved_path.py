"""The resolved Linear/Sigmoid path computes what the layers compute, bit for bit.

``Sequential`` runs a Linear/Sigmoid chain's ``train_step`` as raw
kernel steps, and its ``infer``/``predict`` tell each ``Linear`` the
bound its predecessor proved on its input, which lets fixed32 skip
clamps (see ``repro.kml.network`` and ``repro.kml.layers.linear``).  These tests
build the layered reference themselves -- each layer's ``infer`` with
no bound; ``forward``, ``zero_grad`` and ``backward`` with SGD written
as ``Matrix`` arithmetic -- and compare logits, losses, weights,
velocities and gradients byte for byte: in every dtype, at batch sizes
1 and 32, over multi-step trajectories, on inputs holding NaN, +-inf
and a feature 0 beyond fixed32's 32,767, and with fixed32 weights too
large for the no-saturation bound.  Random fixed32 chains check each
``Linear`` against the saturating kernels on inputs at the bound it was
resolved under.  The engagement guards fail if the paper's network
ever falls back to the layers or the sigmoid leaves its fused loop
silently, or if the benchmark model's fc1 stops skipping its clamps.
"""

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.kml import (
    CrossEntropyLoss, Linear, SGD, Sequential, Sigmoid, Tanh, fixedpoint, load_model, mathops,
)
from repro.kml.layers import Layer
from repro.kml.layers import linear as linear_module
from repro.kml.losses.base import one_hot_array
from repro.kml.matrix import Matrix
from repro.readahead.model import build_network

DTYPES = ("float32", "float64", "fixed32")
#: The deployed float32 model the repository benchmark runs.
BENCHMARK_MODEL = os.path.join(
    os.path.dirname(__file__), "..", "..", "perfbench", "inputs", "readahead_nn.kml"
)
LR = 0.01
MEANS = np.array([30_000.0, 900.0, 800.0, 60.0, 96.0])
STDS = np.array([12_000.0, 300.0, 250.0, 40.0, 48.0])


def deployable(dtype, seed):
    """The paper's network behind a z-score ``Linear(5, 5)``, as deployed."""
    network = build_network(dtype=dtype, rng=np.random.default_rng(seed))
    zscore = Linear(5, 5, dtype=dtype, rng=np.random.default_rng(0), name="zscore")
    zscore.weight.value = Matrix(np.diag(1.0 / STDS), dtype=dtype)
    zscore.bias.value = Matrix((-MEANS / STDS).reshape(1, -1), dtype=dtype)
    return Sequential([zscore] + network.layers)


def in_fixed32(model):
    """A copy of a Linear/Sigmoid chain with its weights in fixed32."""
    layers = []
    for layer in model.layers:
        if type(layer) is Linear:
            copy = Linear(layer.in_features, layer.out_features, dtype="fixed32",
                          rng=np.random.default_rng(0), name=layer.name)
            copy.weight.value = Matrix(layer.weight.value.to_numpy(), dtype="fixed32")
            copy.bias.value = Matrix(layer.bias.value.to_numpy(), dtype="fixed32")
            layer = copy
        layers.append(layer)
    return Sequential(layers)


def layered_infer(model, x):
    """The reference inference: each layer's own ``infer``."""
    out = x
    for layer in model.layers:
        out = layer.infer(out)
    return out


def modes(model):
    """The mode each ``Linear`` of ``model`` last resolved."""
    return [layer._resolved[3] for layer in model.layers if type(layer) is Linear]


def windows(rng, batch, scale):
    """Feature windows around the readahead features' scale."""
    return rng.normal(MEANS, STDS * scale, size=(batch, 5))


def assert_same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def velocity(optimizer, index):
    """Parameter ``index``'s velocity in the optimizer's flat buffer."""
    (group,) = optimizer._groups
    span, shape = group.spans[index]
    return group.velocity[span].reshape(shape)


class Reference:
    """The layered training step, with SGD as Matrix arithmetic."""

    def __init__(self, network, momentum):
        self.network = network
        self.momentum = momentum
        self.loss_fn = CrossEntropyLoss()
        self.velocities = [
            Matrix.zeros(*p.value.shape, dtype=p.value.dtype)
            for p in network.parameters()
        ]

    def step(self, x, labels):
        prediction = self.network.forward(x)
        loss = self.loss_fn.forward(prediction, labels)
        self.network.zero_grad()
        self.network.backward(self.loss_fn.backward())
        for i, p in enumerate(self.network.parameters()):
            update = p.grad
            if self.momentum:
                self.velocities[i] = update = self.velocities[i] * self.momentum + p.grad
            p.value = p.value - update * LR
        return loss


def assert_same_state(network, optimizer, reference):
    for i, (p, q) in enumerate(zip(network.parameters(), reference.network.parameters())):
        assert_same(p.value.raw, q.value.raw)
        assert_same(p.grad.raw, q.grad.raw)
        if reference.momentum:
            assert_same(velocity(optimizer, i), reference.velocities[i].raw)


class TestTraining:
    @given(
        st.sampled_from(DTYPES),
        st.sampled_from([1, 32]),
        st.sampled_from([0.0, 0.99]),
        st.sampled_from([1.0, 1e5]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_trajectory_matches_layers(self, dtype, batch, momentum, scale, seed):
        """Several SGD steps; at scale 1e5, fixed32 inputs saturate
        (beyond 32,767) and so do the sigmoids."""
        network = build_network(dtype=dtype, rng=np.random.default_rng(seed))
        optimizer = SGD(network.parameters(), lr=LR, momentum=momentum)
        loss_fn = CrossEntropyLoss()
        reference = Reference(
            build_network(dtype=dtype, rng=np.random.default_rng(seed)), momentum
        )
        rng = np.random.default_rng(seed + 1)
        for _ in range(4):
            x = rng.normal(0.0, scale, size=(batch, 5))
            # A zero feature makes -0.0 weight gradients, which the
            # layers' zero-then-add turns into 0.0.
            x[:, rng.integers(0, 5)] = 0.0
            x = Matrix(x, dtype=dtype)
            labels = rng.integers(0, 4, size=batch)
            loss = network.train_step(x, labels, loss_fn, optimizer)
            expected = reference.step(x, labels)
            assert np.float64(loss).tobytes() == np.float64(expected).tobytes()
            assert_same_state(network, optimizer, reference)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_new_optimizer_and_an_old_one(self, dtype):
        """A second SGD over the same parameters takes the gradients over;
        the first still steps on them, copied in."""
        network = build_network(dtype=dtype, rng=np.random.default_rng(2))
        reference = Reference(build_network(dtype=dtype, rng=np.random.default_rng(2)), 0.9)
        loss_fn = CrossEntropyLoss()
        rng = np.random.default_rng(3)
        first = SGD(network.parameters(), lr=LR, momentum=0.9)
        x = Matrix(rng.normal(size=(1, 5)), dtype=dtype)
        network.train_step(x, [1], loss_fn, first)
        reference.step(x, [1])
        second = SGD(network.parameters(), lr=LR, momentum=0.9)
        network.train_step(x, [2], loss_fn, second)
        old = reference.velocities
        reference.velocities = [Matrix.zeros(*v.shape, dtype=dtype) for v in old]
        reference.step(x, [2])
        assert_same_state(network, second, reference)
        # The first optimizer steps once more on the second's gradients.
        first.step()
        for i, (p, q) in enumerate(zip(network.parameters(), reference.network.parameters())):
            old[i] = update = old[i] * 0.9 + q.grad
            q.value = q.value - update * LR
            assert_same(p.value.raw, q.value.raw)
            assert_same(velocity(first, i), old[i].raw)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_fit_matches_layers(self, dtype):
        """``fit`` (shuffled batches of 32, the last one short) runs the
        resolved step."""
        rng = np.random.default_rng(4)
        x, y = rng.normal(size=(70, 5)), rng.integers(0, 4, size=70)
        network = build_network(dtype=dtype, rng=np.random.default_rng(5))
        optimizer = SGD(network.parameters(), lr=LR, momentum=0.99)
        history = network.fit(
            x, y, CrossEntropyLoss(), optimizer, epochs=2,
            rng=np.random.default_rng(6), dtype=dtype,
        )
        reference = Reference(build_network(dtype=dtype, rng=np.random.default_rng(5)), 0.99)
        shuffle, indices, expected = np.random.default_rng(6), np.arange(70), []
        for _ in range(2):
            shuffle.shuffle(indices)
            losses = [
                reference.step(Matrix(x[batch], dtype=dtype), y[batch])
                for batch in (indices[start : start + 32] for start in range(0, 70, 32))
            ]
            expected.append(float(np.mean(losses)))
        assert history == expected
        assert_same_state(network, optimizer, reference)


class TestInference:
    @given(
        st.sampled_from(DTYPES),
        st.sampled_from([1, 32]),
        st.sampled_from([1.0, 3.0]),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_logits_match_layers(self, dtype, batch, scale, specials, seed):
        rng = np.random.default_rng(seed)
        x = windows(rng, batch, scale)
        if specials:
            values = [np.nan, np.inf, -np.inf, 62_132.0, -1e12, 1e12]
            cells = rng.integers(0, x.size, size=3)
            x.reshape(-1)[cells] = rng.choice(values, size=3)
        model = deployable(dtype, seed % 1000)
        with np.errstate(all="ignore"):
            got = model.predict(x, dtype=dtype)
            expected = layered_infer(model, Matrix(x, dtype=dtype))
        assert got.dtype == dtype
        assert_same(got.raw, expected.raw)

    def test_fixed32_weights_beyond_the_bound_saturate(self):
        """Weights too large for the bound take the saturating kernels,
        and the clamps bind."""
        model = deployable("fixed32", 7)
        fc2 = model.layers[3]
        big = np.random.default_rng(8).choice([-1.0, 1.0], size=(32, 16)) * 20_000.0
        fc2.weight.value = Matrix(big, dtype="fixed32")
        x = windows(np.random.default_rng(9), 32, 1.0)
        got = model.predict(x, dtype="fixed32")
        assert modes(model)[2:] == [linear_module._SATURATING, linear_module._NARROW]
        expected = layered_infer(model, Matrix(x, dtype="fixed32"))
        assert_same(got.raw, expected.raw)
        fc2_out = layered_infer(Sequential(model.layers[:4]), Matrix(x, dtype="fixed32"))
        assert fc2_out.raw.max() == 2**31 - 1 and fc2_out.raw.min() == -(2**31)

    @pytest.mark.parametrize("excess, mode", [
        (0, linear_module._NARROW),
        (1, linear_module._SATURATING),
    ])
    def test_fixed32_bound_at_its_edge(self, excess, mode):
        """A Linear after a saturated sigmoid (every input exactly 2**16
        raw) outputs ``sum_i W_ij + b_j``, the bound itself: 2**31 - 1
        keeps the clamps idle, one more needs them."""
        bias = 2**20
        total = 2**31 - 1 - bias + excess
        w = np.full((16, 4), total // 16, dtype=np.int32)
        w[0] += total - 16 * (total // 16)
        linear = Linear(16, 4, dtype="fixed32", rng=np.random.default_rng(10))
        linear.weight.value = Matrix.from_raw(w, "fixed32")
        linear.bias.value = Matrix.from_raw(np.full((1, 4), bias, dtype=np.int32), "fixed32")
        model = Sequential([Sigmoid(), linear])
        x = Matrix(np.full((1, 16), 100.0), dtype="fixed32")
        got = model.predict(x)
        assert linear._resolved[3] == mode
        assert_same(got.raw, layered_infer(model, x).raw)
        assert got.raw.tolist() == [[2**31 - 1] * 4]

    def test_rebound_weights_are_used(self):
        model = deployable("fixed32", 11)
        x = windows(np.random.default_rng(12), 4, 1.0)
        model.predict(x, dtype="fixed32")
        fc3 = model.layers[5]
        fc3.weight.value = Matrix(np.full((16, 4), 1e4), dtype="fixed32")
        got = model.predict(x, dtype="fixed32")
        assert fc3._resolved[0] is fc3.weight.value
        assert fc3._resolved[3] == linear_module._SATURATING
        assert_same(got.raw, layered_infer(model, Matrix(x, dtype="fixed32")).raw)

    def test_deployed_model_modes(self):
        """fixed32: the z-score layer clears the any-int32 bound; fc1,
        resolved anew on the first call, clamps under 2**31 there and
        clears the z-score layer's bound from the second call on; fc2
        and fc3 (fed by sigmoids) clear the sigmoid bound."""
        model = deployable("fixed32", 21)
        x = windows(np.random.default_rng(22), 1, 1.0)
        model.predict(x, dtype="fixed32")
        assert modes(model) == [
            linear_module._NARROW, linear_module._SATURATING,
            linear_module._NARROW, linear_module._NARROW,
        ]
        model.predict(x, dtype="fixed32")
        assert modes(model) == 4 * [linear_module._NARROW]


@st.composite
def fixed32_chains(draw):
    """1-4 fixed32 Linears, some followed by a Sigmoid, with raw weights
    and biases up to 2**2 .. 2**22 in magnitude, so that some layers
    prove their clamps idle and some do not.  In each Linear the column
    with the largest absolute weight sum carries the largest absolute
    bias, negative: inputs at minus the bound's sign pattern reach the
    bound exactly."""
    count = draw(st.integers(1, 4))
    widths = [draw(st.integers(1, 6)) for _ in range(count + 1)]
    layers = []
    for i in range(count):
        top = 2 ** draw(st.integers(2, 22))
        ints = st.integers(-top, top)
        w = draw(arrays(np.int64, (widths[i], widths[i + 1]), elements=ints))
        b = draw(arrays(np.int64, (1, widths[i + 1]), elements=ints))
        b[0, np.abs(w).sum(axis=0).argmax()] = -np.abs(b).max()
        linear = Linear(widths[i], widths[i + 1], dtype="fixed32", rng=np.random.default_rng(0))
        linear.weight.value = Matrix.from_raw(w.astype(np.int32), "fixed32")
        linear.bias.value = Matrix.from_raw(b.astype(np.int32), "fixed32")
        layers.append(linear)
        if i < count - 1 and draw(st.booleans()):
            layers.append(Sigmoid())
    return Sequential(layers)


INT32_EDGES = np.array([2**31 - 1, -(2**31), 2**31 - 2, -(2**31) + 1, 0, 1, -1])


class TestChainedBounds:
    """In fixed32 each Linear is resolved under the bound its
    predecessor proved (2**31 first, 2**16 after a Sigmoid, a narrow
    Linear's output bound after it), and every mode gives the saturating
    kernels' bytes on inputs at that bound."""

    @given(fixed32_chains(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_each_linear_under_its_chained_bound(self, model, seed):
        rng = np.random.default_rng(seed)
        x = Matrix.from_raw(
            rng.choice(INT32_EDGES, size=(8, model.layers[0].in_features)).astype(np.int32),
            "fixed32",
        )
        # A Linear resolved anew hands its successor 2**31 on that call:
        # one call per Linear settles the chain.
        for _ in model.layers:
            logits = model.predict(x)
        limit = 2**31
        for layer in model.layers:
            if type(layer) is Sigmoid:
                limit = 2**16
                continue
            w, b = layer.weight.value.raw, layer.bias.value.raw
            column = int(np.abs(w.astype(np.int64)).sum(axis=0).max())
            bound = -(-limit * column // 2**16) + int(np.abs(b.astype(np.int64)).max())
            out_limit = bound if bound < 2**31 else 2**31
            mode = linear_module._NARROW if bound < 2**31 else linear_module._SATURATING
            assert layer._resolved[2:4] == (limit, mode)
            assert layer._resolved[6] == out_limit
            # Each column's sign pattern at plus and minus the bound.
            signs = np.sign(w.T.astype(np.int64))
            rows = np.concatenate([signs * limit, -signs * limit])
            if limit == 2**31:
                rows = np.concatenate(
                    [rows, rng.choice(INT32_EDGES, size=(8, layer.in_features))]
                )
            rows = np.clip(rows, -(2**31), 2**31 - 1).astype(np.int32)
            got = layer.infer(Matrix.from_raw(rows, "fixed32"), limit).raw
            expected = fixedpoint.fx_add(fixedpoint.fx_matmul(rows, w), b)
            assert_same(got, expected)
            assert int(np.abs(expected.astype(np.int64)).max()) <= out_limit
            limit = out_limit
        # The reference resolves every Linear under 2**31: it comes last.
        assert_same(logits.raw, layered_infer(model, x).raw)

    def test_the_benchmark_model_runs_every_linear_narrow(self):
        """Engagement guard: the deployed model's z-score layer proves a
        bound of 348,589,318, under which fc1 proves its own below
        2**31, so every Linear of the fixed32 copy skips its clamps."""
        model = in_fixed32(load_model(BENCHMARK_MODEL))
        x = windows(np.random.default_rng(23), 1, 1.0)
        for _ in range(2):
            got = model.predict(x, dtype="fixed32")
        assert modes(model) == 4 * [linear_module._NARROW]
        zscore, fc1 = model.layers[0], model.layers[1]
        assert zscore._resolved[6] == fc1._resolved[2] == 348_589_318
        assert fc1._resolved[6] < 2**31
        assert_same(got.raw, layered_infer(model, Matrix(x, dtype="fixed32")).raw)

    def test_a_bound_resolved_meanwhile_is_not_passed_on(self, monkeypatch):
        """Another thread may rebind a weight and resolve it between a
        Linear's call and the read of its bound.  The z-score layer runs
        a large weight, under which fc1 must clamp, and the small one is
        resolved in its place before the call returns: fc1 gets 2**31,
        not the small weight's bound."""
        model = in_fixed32(load_model(BENCHMARK_MODEL))
        zscore = model.layers[0]
        small = zscore.weight.value
        large = Matrix(
            np.random.default_rng(24).choice([-1.0, 1.0], size=(5, 5)) * 20_000.0,
            dtype="fixed32",
        )
        x = Matrix(windows(np.random.default_rng(25), 8, 1.0), dtype="fixed32")
        zscore.weight.value = large
        expected = layered_infer(model, x)
        zscore.weight.value = small
        for _ in range(2):
            model.predict(x)
        assert modes(model)[1] == linear_module._NARROW
        infer = Linear.infer

        def infer_then_rebind(layer, *args):
            out = infer(layer, *args)
            if layer is zscore:
                zscore.weight.value = small
                zscore.resolved(2**31)
            return out

        monkeypatch.setattr(Linear, "infer", infer_then_rebind)
        zscore.weight.value = large
        got = model.predict(x)
        assert model.layers[1]._resolved[2] == 2**31
        assert_same(got.raw, expected.raw)


class TestTrainingPlan:
    def test_a_weight_of_another_dtype_raises_as_the_layers_do(self):
        network = build_network(dtype="float32", rng=np.random.default_rng(13))
        optimizer = SGD(network.parameters(), lr=LR)
        x = Matrix(np.zeros((1, 5)), dtype="float32")
        network.train_step(x, [1], CrossEntropyLoss(), optimizer)
        network.layers[2].weight.value = Matrix(np.zeros((32, 16)), dtype="float64")
        with pytest.raises(TypeError, match="dtype mismatch"):
            network.train_step(x, [1], CrossEntropyLoss(), optimizer)

    def test_a_changed_layer_list_is_resolved_again(self):
        """Adding a layer builds a new plan; a layer no plan runs (Tanh)
        sends the step down the layered path, with the same bits."""
        network = build_network(dtype="float32", rng=np.random.default_rng(14))
        reference = Reference(build_network(dtype="float32", rng=np.random.default_rng(14)), 0.9)
        optimizer = SGD(network.parameters(), lr=LR, momentum=0.9)
        loss_fn = CrossEntropyLoss()
        x = Matrix(np.random.default_rng(15).normal(size=(2, 5)), dtype="float32")

        def step(labels):
            loss = network.train_step(x, labels, loss_fn, optimizer)
            assert loss == reference.step(x, labels)
            assert_same_state(network, optimizer, reference)

        step([1, 2])
        plan = network._plan
        network.add(Sigmoid())
        reference.network.add(Sigmoid())
        step([0, 3])
        assert network._plan is not plan and network._plan.runnable
        network.layers[1] = Tanh()
        reference.network.layers[1] = Tanh()
        step([2, 2])
        assert not network._plan.runnable


class TestConcurrentInference:
    def test_predictions_while_weights_are_rebound(self):
        """Readers share one model while a writer swaps the z-score
        layer's and fc2's weights, each between one its bound clears
        and one it does not: every prediction is one of the four
        layered results, never a weight run with another's mode.  Once
        the readers stop, one more prediction under the writer's last
        weights (the z-score layer's large one) equals their layered
        result, with fc1 clamping."""
        model = deployable("fixed32", 18)
        zscore, fc2 = model.layers[0], model.layers[3]
        rng = np.random.default_rng(19)
        choices = [
            (layer.weight.value, Matrix(
                rng.choice([-1.0, 1.0], size=layer.weight.value.shape) * 20_000.0,
                dtype="fixed32",
            ))
            for layer in (zscore, fc2)
        ]
        x = windows(np.random.default_rng(20), 8, 1.0)
        expected = {}
        for z_weight in choices[0]:
            for fc2_weight in choices[1]:
                zscore.weight.value, fc2.weight.value = z_weight, fc2_weight
                expected[id(z_weight), id(fc2_weight)] = layered_infer(
                    model, Matrix(x, dtype="fixed32")
                ).raw.tobytes()
        last = expected[id(choices[0][1]), id(choices[1][1])]
        expected = set(expected.values())
        assert len(expected) == 4
        stop, unexpected, done = threading.Event(), [], []

        def reader():
            while not stop.is_set():
                out = model.predict(x, dtype="fixed32").raw.tobytes()
                if out not in expected:
                    unexpected.append(out)
                done.append(1)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for thread in readers:
                thread.start()
            for i in range(400):
                zscore.weight.value = choices[0][i // 2 % 2]
                fc2.weight.value = choices[1][i % 2]
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10)
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in readers)
        assert done and not unexpected
        # A reader's last call may have stored fc1 under the small weight's
        # bound; this call, after the writer's last rebind, settles it.
        assert zscore.weight.value is choices[0][1] and fc2.weight.value is choices[1][1]
        assert model.predict(x, dtype="fixed32").raw.tobytes() == last
        assert model.layers[1]._resolved[3] == linear_module._SATURATING


class TestSingleRowLoss:
    @given(
        st.lists(
            st.one_of(
                st.floats(-1e4, 1e4),
                st.sampled_from([0.0, -0.0, 1e300, -1e300, np.inf, -np.inf]),
            ),
            min_size=4,
            max_size=4,
        ),
        st.integers(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_batch_formula(self, row, label):
        logits = np.array([row])
        loss_fn = CrossEntropyLoss()
        with np.errstate(all="ignore"):
            loss = loss_fn.forward(Matrix(logits, dtype="float64"), [label])
            grad = loss_fn.backward().raw
            softmax, log_probs = mathops.kml_softmax_and_log(logits, axis=1)
            onehot = one_hot_array([label], 4)
            expected = float(-(onehot * log_probs).sum() / 1)
            expected_grad = (softmax - onehot) / 1
        if np.isnan(expected):
            assert np.isnan(loss)
        else:
            assert np.float64(loss).tobytes() == np.float64(expected).tobytes()
        np.testing.assert_array_equal(grad, expected_grad)

    @given(
        st.lists(st.floats(-1e4, 1e4), min_size=4, max_size=4),
        st.lists(st.floats(-1e16, 1e16), min_size=4, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_any_target_row_matches_the_batch_formula(self, row, weights):
        """Any target weights: numpy sums the products one by one from
        0.0, as the single-row path does."""
        logits, targets = np.array([row]), np.array([weights])
        softmax, loss = mathops.kml_softmax_cross_entropy(logits, targets)
        expected_softmax, log_probs = mathops.kml_softmax_and_log(logits, axis=1)
        expected = float(-(targets * log_probs).sum() / 1)
        assert np.float64(loss).tobytes() == np.float64(expected).tobytes()
        assert_same(softmax, expected_softmax)

    def test_label_rows_are_kept_and_still_validated(self):
        loss_fn = CrossEntropyLoss()
        logits = Matrix([[0.5, -1.0, 2.0, 0.0]], dtype="float32")
        loss_fn.forward(logits, [1])
        row = loss_fn._onehot
        assert not row.flags.writeable
        loss_fn.forward(logits, np.array([1.0]))
        assert loss_fn._onehot is row
        for bad in ([1.7], [4], [-1], [np.nan]):
            with pytest.raises(ValueError):
                loss_fn.forward(logits, bad)


class TestEngagement:
    """The paper's network runs ``predict_classes`` through each layer's
    ``infer`` once and makes no ``forward``/``backward`` call there, and
    makes no layer call at all in ``train_step``: a silent fallback to
    the layered training step fails here.  In the floats a single row's
    16-wide sigmoid takes the fused Python-float loop, and nothing else
    does: the 32-wide one and a batch's stay on arrays, and fixed32
    looks its table up."""

    @pytest.fixture
    def layer_calls(self, monkeypatch):
        calls = []

        def recorded(name, method):
            def record(self, *args):
                calls.append(f"{type(self).__name__}.{name}")
                if method is None:
                    raise AssertionError(f"{type(self).__name__}.{name} was called")
                return method(self, *args)

            return record

        for cls in (Layer, Linear, Sigmoid):
            for name in ("infer", "forward", "backward"):
                method = getattr(cls, name) if name == "infer" else None
                monkeypatch.setattr(cls, name, recorded(name, method))
        return calls

    @pytest.fixture
    def fused_rows(self, monkeypatch):
        """The length of each row the fused sigmoid loop is given."""
        rows = []
        fused = mathops._sigmoid_floats

        def record(xs):
            rows.append(len(xs))
            return fused(xs)

        monkeypatch.setattr(mathops, "_sigmoid_floats", record)
        return rows

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_predict_and_train_step(self, dtype, layer_calls, fused_rows):
        fused = [] if dtype == "fixed32" else [16]
        model = deployable(dtype, 15)
        model.predict_classes(np.array([[30_000.0, 950.0, 830.0, 70.0, 128.0]]), dtype=dtype)
        assert fused_rows == fused
        model.predict_classes(windows(np.random.default_rng(16), 32, 1.0), dtype=dtype)
        assert layer_calls == 2 * [f"{type(layer).__name__}.infer" for layer in model.layers]
        assert fused_rows == fused
        layer_calls.clear()
        fused_rows.clear()
        network = build_network(dtype=dtype, rng=np.random.default_rng(17))
        optimizer = SGD(network.parameters(), lr=LR, momentum=0.99)
        x = Matrix([[0.3, -1.2, 0.8, 2.5, -0.1]], dtype=dtype)
        network.train_step(x, [2], CrossEntropyLoss(), optimizer)
        assert layer_calls == []
        assert fused_rows == fused
