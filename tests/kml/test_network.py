"""Tests for the Sequential model container."""

import warnings

import numpy as np
import pytest

from repro.kml import (
    CrossEntropyLoss,
    Linear,
    MSELoss,
    SGD,
    Sequential,
    Sigmoid,
)
from repro.kml.layers import Dropout, ReLU
from repro.kml.matrix import Matrix
from repro.readahead.model import build_network


def two_layer(rng, dtype="float64"):
    return Sequential(
        [Linear(4, 8, dtype=dtype, rng=rng), Sigmoid(), Linear(8, 2, dtype=dtype, rng=rng)]
    )


class TestForwardBackward:
    def test_forward_chains_layers(self):
        rng = np.random.default_rng(0)
        model = two_layer(rng)
        x = Matrix(rng.normal(size=(3, 4)), dtype="float64")
        manual = model.layers[2].forward(
            model.layers[1].forward(model.layers[0].forward(x))
        )
        assert model.forward(x) == manual

    def test_add_chains(self):
        model = Sequential().add(Linear(2, 2)).add(Sigmoid())
        assert len(model.layers) == 2

    def test_parameters_collects_all(self):
        model = two_layer(np.random.default_rng(0))
        assert len(model.parameters()) == 4  # 2 weights + 2 biases

    def test_num_parameters(self):
        model = two_layer(np.random.default_rng(0))
        assert model.num_parameters == 4 * 8 + 8 + 8 * 2 + 2

    def test_train_eval_propagates(self):
        model = Sequential([Dropout(0.5), Linear(2, 2)])
        model.eval()
        assert all(not layer.training for layer in model.layers)
        model.train()
        assert all(layer.training for layer in model.layers)


class TestTraining:
    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 4))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        model = two_layer(rng)
        opt = SGD(model.parameters(), lr=0.5, momentum=0.9)
        history = model.fit(x, y, CrossEntropyLoss(), opt, epochs=30, rng=rng)
        assert history[-1] < history[0] * 0.5
        assert model.accuracy(x, y) > 0.9

    def test_fit_regression_with_mse(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 4))
        target = x @ rng.normal(size=(4, 2))
        model = Sequential([Linear(4, 2, dtype="float64", rng=rng)])
        opt = SGD(model.parameters(), lr=0.1)
        history = model.fit(
            x, target, MSELoss(), opt, epochs=50, rng=rng, dtype="float64"
        )
        assert history[-1] < 0.01

    def test_fit_validates_shapes(self):
        model = two_layer(np.random.default_rng(0))
        opt = SGD(model.parameters(), lr=0.1)
        with pytest.raises(ValueError):
            model.fit(np.zeros((4, 4)), [0, 1], CrossEntropyLoss(), opt)
        with pytest.raises(ValueError):
            model.fit(np.zeros(4), [0] * 4, CrossEntropyLoss(), opt)

    @pytest.mark.parametrize(
        "x, kwargs, message",
        [
            (np.zeros((0, 4)), {}, "no samples"),
            (np.zeros((4, 4)), {"batch_size": 0}, "batch_size must be positive"),
            (np.zeros((4, 4)), {"epochs": 0}, "epochs must be positive"),
            (np.zeros((4, 4)), {"epochs": -3}, "epochs must be positive"),
        ],
        ids=["no-samples", "batch-size-0", "epochs-0", "epochs-negative"],
    )
    def test_fit_rejects_unusable_arguments(self, x, kwargs, message):
        model = two_layer(np.random.default_rng(0))
        opt = SGD(model.parameters(), lr=0.1)
        before = [p.value.raw.copy() for p in model.parameters()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                model.fit(x, [0] * len(x), CrossEntropyLoss(), opt, **kwargs)
        for p, raw in zip(model.parameters(), before):
            np.testing.assert_array_equal(p.value.raw, raw)

    def test_non_finite_loss_leaves_the_model_untouched(self):
        """A NaN row raises instead of writing NaN into every weight."""
        network = build_network(rng=np.random.default_rng(0))
        opt = SGD(network.parameters(), lr=0.01, momentum=0.99)
        loss_fn = CrossEntropyLoss()
        good = Matrix([[0.3, -1.2, 0.8, 2.5, -0.1]])
        network.train_step(good, [2], loss_fn, opt)

        def state():
            params = network.parameters()
            return (
                [p.value.raw.copy() for p in params]
                + [p.grad.raw.copy() for p in params]
                + [group.velocity.copy() for group in opt._groups]
            )

        before = state()
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not applied"):
            network.train_step(Matrix([[np.nan, 0, 0, 0, 0]]), [2], loss_fn, opt)
        for old, new in zip(before, state()):
            np.testing.assert_array_equal(old, new)
        assert np.isfinite(network.train_step(good, [2], loss_fn, opt))

    def test_deterministic_given_seed(self):
        def train():
            rng = np.random.default_rng(7)
            x = np.random.default_rng(8).normal(size=(50, 4))
            y = (x[:, 0] > 0).astype(int)
            model = two_layer(rng)
            opt = SGD(model.parameters(), lr=0.1)
            model.fit(x, y, CrossEntropyLoss(), opt, epochs=5, rng=rng)
            return model.predict(x).to_numpy()

        np.testing.assert_array_equal(train(), train())

    def test_training_works_with_fixed_point(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 4))
        y = (x[:, 0] > 0).astype(int)
        model = Sequential(
            [Linear(4, 8, dtype="fixed32", rng=rng), Sigmoid(),
             Linear(8, 2, dtype="fixed32", rng=rng)]
        )
        opt = SGD(model.parameters(), lr=0.1, momentum=0.5)
        model.fit(x, y, CrossEntropyLoss(), opt, epochs=20, rng=rng, dtype="fixed32")
        assert model.accuracy(x, y, dtype="fixed32") > 0.8


class TestInference:
    def test_predict_accepts_arrays(self):
        model = two_layer(np.random.default_rng(0))
        out = model.predict(np.zeros((2, 4)), dtype="float64")
        assert out.shape == (2, 2)

    def test_predict_restores_training_mode(self):
        model = Sequential([Dropout(0.5), Linear(2, 2)])
        model.train()
        model.predict(np.zeros((1, 2)))
        assert model.layers[0].training

    def test_predict_classes_shape(self):
        model = two_layer(np.random.default_rng(0))
        classes = model.predict_classes(np.zeros((5, 4)), dtype="float64")
        assert classes.shape == (5,)
        assert set(classes) <= {0, 1}

    def test_accuracy_validates_lengths(self):
        model = two_layer(np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.accuracy(np.zeros((2, 4)), [0])

    def test_summary_mentions_layers(self):
        text = two_layer(np.random.default_rng(0)).summary()
        assert "Linear" in text and "parameters" in text


class TestConcurrentPredict:
    """predict/infer must be safe to call from many threads at once.

    Every caller that resolves a registry snapshot shares its model
    instance; the stateless ``infer`` path must not toggle train/eval
    mode, write activation caches, or apply dropout randomness.
    """

    @staticmethod
    def _stateful_model():
        rng = np.random.default_rng(21)
        model = Sequential(
            [
                Linear(4, 8, dtype="float64", rng=rng),
                ReLU(),
                Dropout(0.5),
                Linear(8, 3, dtype="float64", rng=rng),
            ]
        )
        # Leave the model in *training* mode -- the historical hazard: a
        # predict that toggled modes or applied dropout would be
        # nondeterministic.
        model.forward(Matrix(rng.normal(size=(16, 4)), dtype="float64"))
        return model

    def test_predict_deterministic_with_dropout_in_train_mode(self):
        model = self._stateful_model()
        x = np.random.default_rng(22).normal(size=(6, 4))
        reference = model.predict(x).to_numpy()
        for _ in range(5):
            np.testing.assert_array_equal(model.predict(x).to_numpy(), reference)

    def test_predict_does_not_touch_training_state(self):
        model = self._stateful_model()
        model.forward(Matrix(np.ones((4, 4)), dtype="float64"))
        caches = [getattr(layer, "_cache", None) for layer in model.layers]
        inputs = [getattr(layer, "_input", None) for layer in model.layers]
        model.predict(np.random.default_rng(23).normal(size=(8, 4)))
        assert all(layer.training for layer in model.layers)
        # Backward-pass caches from the last forward are untouched.
        for layer, cache in zip(model.layers, caches):
            assert getattr(layer, "_cache", None) is cache
        for layer, cached_input in zip(model.layers, inputs):
            assert getattr(layer, "_input", None) is cached_input

    def test_concurrent_predict_matches_serial(self):
        import threading

        model = self._stateful_model()
        rng = np.random.default_rng(24)
        inputs = [rng.normal(size=(3, 4)) for _ in range(16)]
        expected = [model.predict(x).to_numpy() for x in inputs]
        errors = []
        barrier = threading.Barrier(8)

        def worker(thread_index):
            try:
                barrier.wait(timeout=10)
                for iteration in range(40):
                    index = (thread_index + iteration) % len(inputs)
                    got = model.predict(inputs[index]).to_numpy()
                    if not np.array_equal(got, expected[index]):
                        errors.append(
                            f"thread {thread_index} iter {iteration}: mismatch"
                        )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(f"thread {thread_index}: {exc!r}")

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not errors, errors[:5]
