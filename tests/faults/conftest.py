"""Gating for the heavyweight fault matrices.

Tests marked ``faults_stress`` (the full crash matrix, the big
concurrency storms, every-byte fuzzing) only run when ``FAULTS_STRESS=1``
is set -- ``make check`` does that; the tier-1 run keeps a small
deterministic slice of each matrix so coverage never regresses silently.
"""

import os

import pytest

STRESS = os.environ.get("FAULTS_STRESS") == "1"


def pytest_collection_modifyitems(config, items):
    if STRESS:
        return
    skip = pytest.mark.skip(
        reason="stress matrix; run via FAULTS_STRESS=1 (make check)"
    )
    for item in items:
        if "faults_stress" in item.keywords:
            item.add_marker(skip)
