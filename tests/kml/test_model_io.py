"""Tests for the KML model file format: round-trips and corruption."""

import struct

import numpy as np
import pytest

from repro.kml import (
    DecisionTreeClassifier,
    Linear,
    ModelFormatError,
    Sequential,
    Sigmoid,
    load_model,
    save_model,
)
from repro.kml.layers import Dropout, ReLU, Softmax, Tanh
from repro.kml.model_io import MAGIC, dump_model, parse_model


@pytest.fixture
def nn_model():
    rng = np.random.default_rng(0)
    return Sequential(
        [
            Linear(5, 8, dtype="float32", rng=rng, name="fc1"),
            Sigmoid(),
            Linear(8, 3, dtype="float32", rng=rng, name="fc2"),
        ],
        name="testnet",
    )


@pytest.fixture
def tree_model():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(100, 3))
    y = (x[:, 0] > 0).astype(int)
    return DecisionTreeClassifier(max_depth=4).fit(x, y)


class TestRoundTrip:
    def test_sequential_predictions_identical(self, nn_model, tmp_path):
        path = str(tmp_path / "model.kml")
        save_model(nn_model, path)
        loaded = load_model(path)
        x = np.random.default_rng(2).normal(size=(10, 5))
        np.testing.assert_array_equal(
            loaded.predict(x).to_numpy(), nn_model.predict(x).to_numpy()
        )
        assert loaded.name == "testnet"
        assert loaded.layers[0].name == "fc1"

    def test_all_stateless_layer_kinds(self, tmp_path):
        rng = np.random.default_rng(3)
        model = Sequential(
            [Linear(2, 2, rng=rng), ReLU(), Tanh(), Softmax(), Dropout(0.3)]
        )
        path = str(tmp_path / "m.kml")
        save_model(model, path)
        loaded = load_model(path)
        kinds = [layer.kind for layer in loaded.layers]
        assert kinds == ["linear", "relu", "tanh", "softmax", "dropout"]
        assert loaded.layers[-1].p == pytest.approx(0.3)

    def test_tree_round_trip(self, tree_model, tmp_path):
        path = str(tmp_path / "tree.kml")
        save_model(tree_model, path)
        loaded = load_model(path)
        x = np.random.default_rng(4).normal(size=(50, 3))
        np.testing.assert_array_equal(loaded.predict(x), tree_model.predict(x))

    def test_float64_dtype_preserved(self, tmp_path):
        model = Sequential([Linear(2, 2, dtype="float64")])
        path = str(tmp_path / "m.kml")
        save_model(model, path)
        assert load_model(path).layers[0].dtype == "float64"

    def test_unsupported_model_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(object(), str(tmp_path / "x.kml"))


class TestCorruption:
    def test_flipped_byte_detected(self, nn_model, tmp_path):
        path = str(tmp_path / "model.kml")
        save_model(nn_model, path)
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(ModelFormatError, match="CRC"):
            load_model(path)

    def test_truncated_file_detected(self, nn_model, tmp_path):
        path = str(tmp_path / "model.kml")
        save_model(nn_model, path)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_tiny_file_rejected(self, tmp_path):
        path = str(tmp_path / "tiny.kml")
        open(path, "wb").write(b"xx")
        with pytest.raises(ModelFormatError, match="too small"):
            load_model(path)

    def test_bad_magic_rejected(self, nn_model, tmp_path):
        path = str(tmp_path / "model.kml")
        save_model(nn_model, path)
        data = bytearray(open(path, "rb").read())
        data[:4] = b"NOPE"
        # Fix the CRC so only the magic check trips.
        import zlib

        body = bytes(data[:-4])
        data[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        open(path, "wb").write(bytes(data))
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_bad_version_rejected(self, nn_model, tmp_path):
        path = str(tmp_path / "model.kml")
        save_model(nn_model, path)
        data = bytearray(open(path, "rb").read())
        struct.pack_into("<I", data, len(MAGIC), 999)
        import zlib

        body = bytes(data[:-4])
        data[-4:] = struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)
        open(path, "wb").write(bytes(data))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_model(str(tmp_path / "absent.kml"))

    def test_unknown_layer_kind_rejected(self, monkeypatch):
        # A checksum-valid image whose layer kind this parser does not
        # know (e.g. a "batchnorm" layer from an older writer).
        from repro.kml import model_io
        from repro.kml.layers import Layer

        class BatchNorm(Layer):
            kind = "batchnorm"

        with monkeypatch.context() as m:
            m.setitem(model_io._STATELESS_LAYERS, "batchnorm", BatchNorm)
            data = dump_model(Sequential([BatchNorm()]))
        with pytest.raises(ModelFormatError, match="unknown layer kind"):
            parse_model(data)


class TestBitIdenticalReserialization:
    """dump -> parse -> dump must reproduce the exact byte image.

    Byte-identity is what the registry's checksums and the dedupe story
    rest on: if re-serializing a parsed model could shuffle bytes, two
    loads of the same version would disagree about its identity.
    """

    @staticmethod
    def _layer_zoo(dtype):
        """One model exercising every serializable layer kind."""
        rng = np.random.default_rng(11)
        return Sequential(
            [
                Linear(6, 8, dtype=dtype, rng=rng, name="fc1"),
                ReLU(),
                Sigmoid(),
                Tanh(),
                Dropout(0.25),
                Linear(8, 4, dtype=dtype, rng=rng, name="fc2"),
                Softmax(),
            ],
            name="zoo",
        )

    @pytest.mark.parametrize("dtype", ["float32", "float64", "fixed32"])
    def test_layer_zoo_reserializes_bit_identical(self, dtype):
        model = self._layer_zoo(dtype)
        data = dump_model(model)
        assert dump_model(parse_model(data)) == data

    @pytest.mark.parametrize("dtype", ["float32", "float64", "fixed32"])
    def test_layer_zoo_double_round_trip_stable(self, dtype):
        data = dump_model(self._layer_zoo(dtype))
        once = dump_model(parse_model(data))
        assert dump_model(parse_model(once)) == once

    @pytest.mark.parametrize("dtype", ["float32", "float64", "fixed32"])
    def test_layer_zoo_predictions_survive_round_trip(self, dtype):
        model = self._layer_zoo(dtype)
        model.eval()
        loaded = parse_model(dump_model(model))
        loaded.eval()
        x = np.random.default_rng(12).normal(size=(8, 6))
        np.testing.assert_array_equal(
            loaded.predict(x, dtype=dtype).to_numpy(),
            model.predict(x, dtype=dtype).to_numpy(),
        )

    def test_tree_reserializes_bit_identical(self, tree_model):
        data = dump_model(tree_model)
        assert dump_model(parse_model(data)) == data

    def test_dump_matches_save_file_bytes(self, nn_model, tmp_path):
        path = str(tmp_path / "model.kml")
        save_model(nn_model, path)
        with open(path, "rb") as f:
            assert f.read() == dump_model(nn_model)
