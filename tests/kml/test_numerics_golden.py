"""Golden test: the KML numerics, pinned bit for bit.

Every KML result is a pure function of its inputs, so a change that is
meant to make the library faster must leave these values unchanged:

- the from-scratch kernels (``kml_exp``, ``kml_log``, ``kml_sigmoid``,
  ``kml_tanh``, ``kml_softmax``, ``kml_log_softmax``) on a fixed grid
  covering both ``EXP_CLAMP`` edges, zero, negatives, infinities and NaN;
- the logits of a seeded readahead network with a fused z-score
  ``Linear(5, 5)`` in front, in float32, float64 and fixed32, on fixed
  windows, as one batch and one row at a time;
- the SHA-256 of 50-step SGD trajectories (losses and raw weights after
  every step), in float32 and fixed32: batches of 4, of 1 (a single
  z-scored window, the online-training shape) and of 32 (``fit``'s
  default batch, over a larger window set);
- ``CrossEntropyLoss`` and the autodiff cross-entropy: values and
  gradients;
- a ``.kml`` dump/parse round-trip.

Floats are pinned as ``float.hex`` strings and fixed32 as raw integers.
The fixture also records the numpy version and BLAS build, and a
mismatch reports both the recorded and the running configuration:
float32 matmuls go through BLAS, whose kernels can differ by build.

Regenerate the fixture only for a change that is meant to move KML's
numerics, and say so in the change description:

    PYTHONPATH=src python tests/kml/test_numerics_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from repro.kml import CrossEntropyLoss, Linear, SGD, Sequential, mathops
from repro.kml.autodiff import Tensor, softmax_cross_entropy
from repro.kml.matrix import Matrix
from repro.kml.model_io import dump_model, parse_model
from repro.readahead.model import build_network

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "numerics_golden.json")

DTYPES = ("float32", "float64", "fixed32")
TRAIN_DTYPES = ("float32", "fixed32")

C = mathops.EXP_CLAMP
#: 24 points, sorted, so that reshaped to (4, 6) the softmax rows hold
#: -inf, finite values only, and +inf with NaN.
GRID = np.array(
    [
        -np.inf, -1e6, -C - 1.0, -C, -C + 0.5, -30.0,
        -2.5, -1.0, -0.5, -1e-9, -0.0, 0.0,
        1e-9, 0.25, 0.5, 1.0, 2.5, 30.0,
        C - 0.5, C, C + 1.0, 1e6, np.inf, np.nan,
    ]
)

#: Z-score statistics of the fused first layer, in the scale of the
#: readahead features.
MEANS = np.array([30_000.0, 900.0, 800.0, 60.0, 96.0])
STDS = np.array([12_000.0, 300.0, 250.0, 40.0, 48.0])
WINDOWS = np.random.default_rng(3).normal(MEANS, STDS, size=(8, 5))
LABELS = np.array([0, 1, 2, 3, 3, 2, 1, 0])
NETWORK_SEED = 11
SGD_STEPS = 50
BATCH = 4
#: The batch-32 trajectory's windows: 64, so each step sees a new half.
FIT_WINDOWS = np.random.default_rng(5).normal(MEANS, STDS, size=(64, 5))
FIT_LABELS = np.arange(len(FIT_WINDOWS)) % 4

#: Logits for the loss records: ordinary, tied and huge (stability).
LOSS_LOGITS = np.array(
    [
        [0.5, -1.25, 2.0, 0.0],
        [3.0, 3.0, 3.0, 3.0],
        [1000.0, -1000.0, 0.0, 1.0],
        [-7.5, 0.125, 9.0, -0.25],
    ]
)
LOSS_LABELS = np.array([2, 0, 0, 3])


def environment() -> dict:
    """The numpy version and the BLAS build the values were computed with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
    }


def _pin(name: str, arr) -> dict:
    """One record: shape, dtype and exact values of ``arr``."""
    arr = np.asarray(arr)
    if arr.dtype.kind == "f":
        values = [float(v).hex() for v in arr.reshape(-1)]
    else:
        values = [int(v) for v in arr.reshape(-1)]
    return {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape), "values": values}


def _sha256(name: str, chunks) -> dict:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return {"name": name, "sha256": h.hexdigest()}


def deployable(dtype: str) -> Sequential:
    """The seeded readahead network behind a fused z-score layer."""
    network = build_network(dtype=dtype, rng=np.random.default_rng(NETWORK_SEED))
    zscore = Linear(5, 5, dtype=dtype, rng=np.random.default_rng(0), name="zscore")
    zscore.weight.value = Matrix(np.diag(1.0 / STDS), dtype=dtype)
    zscore.bias.value = Matrix((-MEANS / STDS).reshape(1, -1), dtype=dtype)
    return Sequential([zscore] + network.layers, name="golden-deploy")


# ----------------------------------------------------------------------
# Sections: each returns its records
# ----------------------------------------------------------------------


def mathops_records() -> list:
    table = GRID.reshape(4, 6)
    with np.errstate(all="ignore"):
        return [
            _pin("mathops.kml_exp", mathops.kml_exp(GRID)),
            _pin("mathops.kml_log", mathops.kml_log(GRID)),
            _pin("mathops.kml_sigmoid", mathops.kml_sigmoid(GRID)),
            _pin("mathops.kml_tanh", mathops.kml_tanh(GRID)),
            _pin("mathops.kml_softmax", mathops.kml_softmax(table, axis=1)),
            _pin("mathops.kml_log_softmax", mathops.kml_log_softmax(table, axis=1)),
        ]


def logits_records(dtype: str) -> list:
    model = deployable(dtype)
    rows = [model.predict(WINDOWS[i : i + 1], dtype=dtype).raw for i in range(len(WINDOWS))]
    return [
        _pin(f"logits.{dtype}.batch", model.predict(WINDOWS, dtype=dtype).raw),
        _pin(f"logits.{dtype}.rows", np.concatenate(rows)),
    ]


def sgd_records(dtype: str, batch_size: int = BATCH, windows=WINDOWS, labels=LABELS) -> list:
    """A seeded network's SGD trajectory over ``windows``, ``batch_size`` rows a step.

    The batch-4 records keep their original names; the others carry
    their batch size.
    """
    network = build_network(dtype=dtype, rng=np.random.default_rng(NETWORK_SEED))
    optimizer = SGD(network.parameters(), lr=0.01, momentum=0.99)
    loss_fn = CrossEntropyLoss()
    x = (windows - MEANS) / STDS
    chunks = []
    for step in range(SGD_STEPS):
        batch = [(step * batch_size + j) % len(x) for j in range(batch_size)]
        loss = network.train_step(Matrix(x[batch], dtype=dtype), labels[batch], loss_fn, optimizer)
        chunks.append(np.float64(loss).tobytes())
        chunks.extend(p.value.raw.tobytes() for p in network.parameters())
    prefix = f"sgd.{dtype}" if batch_size == BATCH else f"sgd.{dtype}.batch{batch_size}"
    return [
        _sha256(f"{prefix}.trajectory", chunks),
        _pin(f"{prefix}.final_loss", np.float64(loss)),
    ]


def loss_records() -> list:
    records = []
    for dtype in DTYPES:
        loss_fn = CrossEntropyLoss()
        value = loss_fn.forward(Matrix(LOSS_LOGITS, dtype=dtype), LOSS_LABELS)
        records.append(_pin(f"cross_entropy.{dtype}.loss", np.float64(value)))
        records.append(_pin(f"cross_entropy.{dtype}.grad", loss_fn.backward().raw))
    logits = Tensor(LOSS_LOGITS, requires_grad=True)
    onehot = np.eye(LOSS_LOGITS.shape[1])[LOSS_LABELS]
    loss = softmax_cross_entropy(logits, onehot)
    loss.backward()
    records.append(_pin("autodiff.softmax_cross_entropy.loss", loss.value))
    records.append(_pin("autodiff.softmax_cross_entropy.grad", logits.grad))
    return records


def model_file_records() -> list:
    records = []
    for dtype in TRAIN_DTYPES:
        image = dump_model(deployable(dtype))
        parsed = parse_model(image)
        records.append(_sha256(f"model_file.{dtype}.dump", [image]))
        records.append(_sha256(f"model_file.{dtype}.redump", [dump_model(parsed)]))
        records.append(_pin(f"model_file.{dtype}.parsed_logits", parsed.predict(WINDOWS, dtype=dtype).raw))
    return records


SECTIONS = {
    "mathops": mathops_records,
    **{f"logits.{d}": (lambda d=d: logits_records(d)) for d in DTYPES},
    **{f"sgd.{d}": (lambda d=d: sgd_records(d)) for d in TRAIN_DTYPES},
    **{f"sgd.{d}.batch1": (lambda d=d: sgd_records(d, 1)) for d in TRAIN_DTYPES},
    **{
        f"sgd.{d}.batch32": (lambda d=d: sgd_records(d, 32, FIT_WINDOWS, FIT_LABELS))
        for d in TRAIN_DTYPES
    },
    "losses": loss_records,
    "model_file": model_file_records,
}


def generate() -> list:
    records = [{"name": "environment", **environment()}]
    for section in SECTIONS.values():
        records.extend(section())
    return records


def to_json(records: list) -> str:
    """A JSON list with one record per line."""
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]\n"


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as f:
        return {record["name"]: record for record in json.load(f)}


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_section_matches_golden(golden, section):
    records = SECTIONS[section]()
    changed = [r["name"] for r in records if golden.get(r["name"]) != r]
    recorded = {k: v for k, v in golden["environment"].items() if k != "name"}
    assert not changed, (
        f"{section}: {changed} differ from {os.path.basename(FIXTURE)}; "
        f"recorded with {recorded}, running {environment()}"
    )



if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    with open(FIXTURE, "w") as f:
        f.write(to_json(generate()))
    print(f"wrote {FIXTURE}")
