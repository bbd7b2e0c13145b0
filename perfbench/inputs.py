"""The committed inputs and their pinned content hashes.

``perfbench/inputs/`` holds the deployed float32 readahead model, the
tuning table and the Table-2 feature windows, all written by
``make_inputs.py``.  ``SHA256SUMS`` pins them: set-up refuses inputs
whose hash differs, so no change can swap the model the agent runs
without that showing.  Committing them, rather than collecting at
set-up, also keeps a simulator change from silently changing the model
under test.
"""

from __future__ import annotations

import hashlib
import os
from typing import Tuple

import numpy as np

from repro.kml import Sequential, load_model
from repro.readahead import TuningTable

INPUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")
MODEL_FILE = "readahead_nn.kml"
TUNING_FILE = "tuning.json"
WINDOWS_X_FILE = "windows_x.npy"
WINDOWS_Y_FILE = "windows_y.npy"
FILES = (MODEL_FILE, TUNING_FILE, WINDOWS_X_FILE, WINDOWS_Y_FILE)
SUMS_FILE = "SHA256SUMS"


class InputError(RuntimeError):
    """A committed input is missing or differs from its pinned hash."""


def path(name: str) -> str:
    return os.path.join(INPUT_DIR, name)


def sha256(name: str) -> str:
    with open(path(name), "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def write_sums() -> None:
    """Pin the current content of every input."""
    with open(path(SUMS_FILE), "w") as f:
        for name in FILES:
            f.write(f"{sha256(name)}  {name}\n")


def verify() -> None:
    """Raise InputError unless every input matches ``SHA256SUMS``."""
    pinned = {}
    try:
        with open(path(SUMS_FILE)) as f:
            for line in f:
                if line.strip():
                    hex_digest, name = line.split()
                    pinned[name] = hex_digest
    except OSError as exc:
        raise InputError(f"cannot read {SUMS_FILE}: {exc}") from None
    for name in FILES:
        if name not in pinned:
            raise InputError(f"{SUMS_FILE} does not pin {name}")
        try:
            actual = sha256(name)
        except OSError as exc:
            raise InputError(f"cannot read {name}: {exc}") from None
        if actual != pinned[name]:
            raise InputError(
                f"{name} has sha256 {actual}, but {SUMS_FILE} pins {pinned[name]}"
            )


def load_agent_inputs() -> Tuple[Sequential, TuningTable]:
    """The deployed model and the tuning table, after the hash check."""
    verify()
    return load_model(path(MODEL_FILE)), TuningTable.load(path(TUNING_FILE))


def load_pipeline_inputs() -> Tuple[Sequential, np.ndarray, np.ndarray]:
    """The deployed model and the feature windows with their labels."""
    verify()
    x = np.load(path(WINDOWS_X_FILE), allow_pickle=False)
    y = np.load(path(WINDOWS_Y_FILE), allow_pickle=False)
    return load_model(path(MODEL_FILE)), x, y
