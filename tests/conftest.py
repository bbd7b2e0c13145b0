"""Gating for the stress runs.

Tests marked ``stress`` (the full crash matrix, the buffer storm, the
long hot-swap storm) only run when ``STRESS=1`` is set -- ``make check``
does that.  Tests that scale rather than skip (every-byte model-file
fuzzing, the page-cache reference model) read :data:`STRESS` to size
their inputs.  The tier-1 run keeps a small deterministic slice of each,
so coverage never regresses silently.
"""

import os

import pytest

STRESS = os.environ.get("STRESS") == "1"


def pytest_collection_modifyitems(config, items):
    if STRESS:
        return
    skip = pytest.mark.skip(reason="stress run; enable via STRESS=1 (make check)")
    for item in items:
        if item.get_closest_marker("stress") is not None:
            item.add_marker(skip)
