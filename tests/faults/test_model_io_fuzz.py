"""Corruption fuzzing for the KML model file format.

A kernel must never trust a bad model: every truncation, every bit
flip, and every tampered header field must surface as
:class:`ModelFormatError` -- never a raw ``struct.error`` or
``EOFError`` escaping the parser -- and an intact file must round-trip
bit-exactly in every supported dtype.
"""

import random
import struct
import zlib

import numpy as np
import pytest

from repro.kml import (
    Linear,
    ModelFormatError,
    Sequential,
    Sigmoid,
    load_model,
    save_model,
)
from repro.kml.model_io import MAGIC

from ..conftest import STRESS


@pytest.fixture(scope="module")
def model_bytes(tmp_path_factory):
    model = Sequential(
        [Linear(3, 4, rng=np.random.default_rng(0)), Sigmoid(),
         Linear(4, 2, rng=np.random.default_rng(1))],
        name="fuzz",
    )
    path = tmp_path_factory.mktemp("fuzz") / "m.kml"
    save_model(model, str(path))
    return path.read_bytes()


def load_raw(tmp_path, data):
    path = tmp_path / "case.kml"
    path.write_bytes(data)
    return load_model(str(path))


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", ["float32", "float64", "fixed32"])
    def test_dtype_round_trip_is_exact(self, dtype, tmp_path):
        rng = np.random.default_rng(7)
        model = Sequential(
            [Linear(5, 4, dtype=dtype, rng=rng), Sigmoid(),
             Linear(4, 3, dtype=dtype, rng=rng)],
            name=f"rt-{dtype}",
        )
        path = str(tmp_path / "m.kml")
        save_model(model, path)
        loaded = load_model(path)
        x = np.random.default_rng(8).normal(size=(16, 5))
        np.testing.assert_array_equal(
            loaded.predict(x).to_numpy(), model.predict(x).to_numpy()
        )
        assert loaded.layers[0].dtype == dtype


class TestTruncation:
    def test_every_byte_boundary(self, model_bytes, tmp_path):
        """Truncating anywhere must raise ModelFormatError, nothing else."""
        size = len(model_bytes)
        if STRESS:
            boundaries = range(size)
        else:  # deterministic tier-1 slice: dense head + stride over the rest
            boundaries = sorted(set(range(0, 32)) | set(range(0, size, 7)))
        for cut in boundaries:
            with pytest.raises(ModelFormatError):
                load_raw(tmp_path, model_bytes[:cut])

    def test_empty_and_tiny_files(self, tmp_path):
        for data in (b"", b"K", MAGIC, MAGIC + b"\x00" * 4):
            with pytest.raises(ModelFormatError):
                load_raw(tmp_path, data)


class TestBitFlips:
    def test_single_bit_flips_never_parse(self, model_bytes, tmp_path):
        """The CRC must catch a one-bit flip at any position."""
        size = len(model_bytes)
        rng = random.Random(13)
        positions = range(size) if STRESS else rng.sample(range(size), 64)
        for pos in positions:
            damaged = bytearray(model_bytes)
            damaged[pos] ^= 1 << rng.randrange(8)
            with pytest.raises(ModelFormatError):
                load_raw(tmp_path, bytes(damaged))


def retamper(data: bytes, offset: int, fmt: str, value) -> bytes:
    """Overwrite a header field and fix the CRC so only that field is bad."""
    body = bytearray(data[:-4])
    struct.pack_into(fmt, body, offset, value)
    crc = zlib.crc32(bytes(body)) & 0xFFFFFFFF
    return bytes(body) + struct.pack("<I", crc)


class TestHeaderTampering:
    def test_wrong_magic(self, model_bytes, tmp_path):
        damaged = b"NOPE" + model_bytes[4:]
        with pytest.raises(ModelFormatError, match="CRC|magic"):
            load_raw(tmp_path, damaged)
        # Even with a *valid* CRC the magic check must still reject it.
        fixed = retamper(model_bytes, 0, "<4s", b"NOPE")
        with pytest.raises(ModelFormatError, match="magic"):
            load_raw(tmp_path, fixed)

    def test_wrong_version(self, model_bytes, tmp_path):
        fixed = retamper(model_bytes, 4, "<I", 99)
        with pytest.raises(ModelFormatError, match="version"):
            load_raw(tmp_path, fixed)

    def test_wrong_kind(self, model_bytes, tmp_path):
        fixed = retamper(model_bytes, 8, "<B", 42)
        with pytest.raises(ModelFormatError, match="kind"):
            load_raw(tmp_path, fixed)

    def test_wrong_payload_length(self, model_bytes, tmp_path):
        for delta in (-1, 1, 1000):
            payload_len = len(model_bytes) - 4 - 4 - 13
            fixed = retamper(model_bytes, 9, "<Q", payload_len + delta)
            with pytest.raises(ModelFormatError):
                load_raw(tmp_path, fixed)

    def test_trailing_garbage(self, model_bytes, tmp_path):
        with pytest.raises(ModelFormatError):
            load_raw(tmp_path, model_bytes + b"\x00garbage")
