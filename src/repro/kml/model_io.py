"""KML model file format: save in user space, load in the kernel.

The paper's workflow trains a model in user space, saves it "to a file
that has a KML-specific file format", then loads it from a kernel
module for inference (section 3.3).  This module defines that format:

    +------------------+--------------------------------------------+
    | magic            | 4 bytes, b"KMLM"                           |
    | version          | u32 little-endian                          |
    | model kind       | u8 (1 = sequential NN, 2 = decision tree)  |
    | payload length   | u64                                        |
    | payload          | kind-specific records (below)              |
    | crc32            | u32 over everything above                  |
    +------------------+--------------------------------------------+

Corrupt, truncated, or version-mismatched files raise
:class:`ModelFormatError` -- a kernel must never trust a bad model.
"""

from __future__ import annotations

import io
import struct
import zlib
from typing import BinaryIO, Union

import numpy as np

from .decision_tree import DecisionTreeClassifier
from .layers import (
    Dropout,
    Linear,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
)
from .matrix import Matrix
from .network import Sequential
from .quantize import QuantizedLinear

__all__ = [
    "ModelFormatError",
    "save_model",
    "load_model",
    "dump_model",
    "parse_model",
    "MAGIC",
    "VERSION",
]

MAGIC = b"KMLM"
VERSION = 1

#: The model_io.load hook (see repro.hooks): corrupts or truncates the
#: raw file bytes inside load_model, so tests can damage a model "on
#: the storage medium" without touching the file.
HOOK_SLOTS = {"model_io.load": "_load_hook"}
_load_hook = None

_KIND_SEQUENTIAL = 1
_KIND_TREE = 2

_STATELESS_LAYERS = {
    "sigmoid": Sigmoid,
    "relu": ReLU,
    "tanh": Tanh,
    "softmax": Softmax,
}


class ModelFormatError(Exception):
    """Raised for malformed, truncated, or corrupt model files."""


# ----------------------------------------------------------------------
# Primitive encoders
# ----------------------------------------------------------------------


def _write_str(buf: BinaryIO, text: str) -> None:
    raw = text.encode("utf-8")
    buf.write(struct.pack("<H", len(raw)))
    buf.write(raw)


def _read_str(buf: BinaryIO) -> str:
    (length,) = struct.unpack("<H", _read_exact(buf, 2))
    return _read_exact(buf, length).decode("utf-8")


def _write_array(buf: BinaryIO, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    buf.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
    buf.write(arr.tobytes())


def _read_array(buf: BinaryIO) -> np.ndarray:
    rows, cols = struct.unpack("<II", _read_exact(buf, 8))
    raw = _read_exact(buf, rows * cols * 8)
    return np.frombuffer(raw, dtype=np.float64).reshape(rows, cols).copy()


def _read_exact(buf: BinaryIO, n: int) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise ModelFormatError(f"truncated file: wanted {n} bytes, got {len(data)}")
    return data


# ----------------------------------------------------------------------
# Payload encoders per model kind
# ----------------------------------------------------------------------


def _encode_sequential(model: Sequential) -> bytes:
    buf = io.BytesIO()
    _write_str(buf, model.name)
    buf.write(struct.pack("<I", len(model.layers)))
    for layer in model.layers:
        _write_str(buf, layer.kind)
        _write_str(buf, layer.name)
        if isinstance(layer, Linear):
            _write_str(buf, layer.dtype)
            buf.write(struct.pack("<II", layer.in_features, layer.out_features))
            _write_array(buf, layer.weight.value.to_numpy())
            _write_array(buf, layer.bias.value.to_numpy())
        elif isinstance(layer, QuantizedLinear):
            buf.write(struct.pack("<II", layer.in_features, layer.out_features))
            buf.write(layer.weight_codes.tobytes())
            _write_array(buf, layer.weight_scales.reshape(1, -1))
            _write_array(buf, layer.bias)
        elif isinstance(layer, Dropout):
            buf.write(struct.pack("<d", layer.p))
        elif layer.kind in _STATELESS_LAYERS:
            pass
        else:
            raise ModelFormatError(f"cannot serialize layer kind {layer.kind!r}")
    return buf.getvalue()


def _decode_sequential(buf: BinaryIO) -> Sequential:
    name = _read_str(buf)
    (n_layers,) = struct.unpack("<I", _read_exact(buf, 4))
    model = Sequential(name=name)
    for _ in range(n_layers):
        kind = _read_str(buf)
        layer_name = _read_str(buf)
        if kind == "linear":
            dtype = _read_str(buf)
            in_features, out_features = struct.unpack("<II", _read_exact(buf, 8))
            weight = _read_array(buf)
            bias = _read_array(buf)
            if weight.shape != (in_features, out_features):
                raise ModelFormatError(
                    f"weight shape {weight.shape} inconsistent with header"
                )
            if bias.shape != (1, out_features):
                raise ModelFormatError(
                    f"bias shape {bias.shape} inconsistent with header"
                )
            layer = Linear(in_features, out_features, dtype=dtype, name=layer_name)
            layer.weight.value = Matrix(weight, dtype=dtype)
            layer.bias.value = Matrix(bias, dtype=dtype)
        elif kind == "qlinear":
            in_features, out_features = struct.unpack("<II", _read_exact(buf, 8))
            codes = np.frombuffer(
                _read_exact(buf, in_features * out_features), dtype=np.int8
            ).reshape(in_features, out_features).copy()
            scales = _read_array(buf).reshape(-1)
            bias = _read_array(buf)
            layer = QuantizedLinear(codes, scales, bias, name=layer_name)
        elif kind == "dropout":
            (p,) = struct.unpack("<d", _read_exact(buf, 8))
            layer = Dropout(p=p, name=layer_name)
        elif kind in _STATELESS_LAYERS:
            layer = _STATELESS_LAYERS[kind](name=layer_name)
        else:
            raise ModelFormatError(f"unknown layer kind {kind!r}")
        model.add(layer)
    return model


def _encode_tree(tree: DecisionTreeClassifier) -> bytes:
    buf = io.BytesIO()
    records = tree.to_records()
    buf.write(
        struct.pack("<III", tree.num_classes, tree.num_features, len(records))
    )
    for rec in records:
        buf.write(
            struct.pack(
                "<idiii",
                rec["feature"],
                rec["threshold"],
                rec["left"],
                rec["right"],
                rec["prediction"],
            )
        )
        counts = np.asarray(rec["counts"], dtype=np.float64)
        buf.write(counts.tobytes())
    return buf.getvalue()


def _decode_tree(buf: BinaryIO) -> DecisionTreeClassifier:
    num_classes, num_features, n_records = struct.unpack(
        "<III", _read_exact(buf, 12)
    )
    records = []
    for _ in range(n_records):
        feature, threshold, left, right, prediction = struct.unpack(
            "<idiii", _read_exact(buf, struct.calcsize("<idiii"))
        )
        counts = np.frombuffer(
            _read_exact(buf, num_classes * 8), dtype=np.float64
        ).copy()
        records.append(
            {
                "feature": feature,
                "threshold": threshold,
                "left": left,
                "right": right,
                "prediction": prediction,
                "counts": counts.tolist(),
            }
        )
    return DecisionTreeClassifier.from_records(records, num_classes, num_features)


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------

Model = Union[Sequential, DecisionTreeClassifier]


def dump_model(model: Model) -> bytes:
    """Serialize a model to the complete KML file image (CRC included).

    ``parse_model(dump_model(m))`` round-trips, and re-serializing the
    parsed model is bit-identical -- the portability property the paper
    relies on to hand models between user space and the kernel.
    """
    if isinstance(model, Sequential):
        kind, payload = _KIND_SEQUENTIAL, _encode_sequential(model)
    elif isinstance(model, DecisionTreeClassifier):
        kind, payload = _KIND_TREE, _encode_tree(model)
    else:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    header = MAGIC + struct.pack("<IBQ", VERSION, kind, len(payload))
    body = header + payload
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return body + struct.pack("<I", crc)


def save_model(model: Model, path: str) -> None:
    """Serialize a model to ``path`` in the KML file format."""
    data = dump_model(model)
    with open(path, "wb") as f:
        f.write(data)


def parse_model(data: bytes) -> Model:
    """Validate and decode a complete KML file image.

    Raises :class:`ModelFormatError` for any corruption, truncation, or
    version mismatch; a byte-identical CRC check runs first, so a
    single flipped bit anywhere in the image is rejected.
    """
    if len(data) < len(MAGIC) + 13 + 4:
        raise ModelFormatError("file too small to be a KML model")
    body, crc_raw = data[:-4], data[-4:]
    (stored_crc,) = struct.unpack("<I", crc_raw)
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise ModelFormatError("CRC mismatch: model file is corrupt")
    buf = io.BytesIO(body)
    magic = _read_exact(buf, 4)
    if magic != MAGIC:
        raise ModelFormatError(f"bad magic {magic!r}")
    version, kind, payload_len = struct.unpack("<IBQ", _read_exact(buf, 13))
    if version != VERSION:
        raise ModelFormatError(f"unsupported format version {version}")
    payload = _read_exact(buf, payload_len)
    if buf.read(1):
        raise ModelFormatError("trailing bytes after payload")
    payload_buf = io.BytesIO(payload)
    if kind == _KIND_SEQUENTIAL:
        model = _decode_sequential(payload_buf)
    elif kind == _KIND_TREE:
        model = _decode_tree(payload_buf)
    else:
        raise ModelFormatError(f"unknown model kind {kind}")
    if payload_buf.read(1):
        raise ModelFormatError("trailing bytes inside payload")
    return model


def load_model(path: str) -> Model:
    """Load and validate a model file; raises ModelFormatError on damage."""
    with open(path, "rb") as f:
        data = f.read()
    hook = _load_hook
    if hook is not None:
        action = hook.fire()  # may raise an injected error
        if action is not None:
            data = action.apply(data)
    return parse_model(data)
