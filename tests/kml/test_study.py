"""Tests for the study record the three use cases share."""

from types import SimpleNamespace

import pytest

from repro.iosched import flash_device, sweep_schedulers
from repro.kml import Sweep, sweep


def _run(throughput, read_p99=0.0):
    return SimpleNamespace(throughput=throughput, read_p99=read_p99)


def _iosched_key():
    """The ranking key the scheduler sweep passes."""
    return sweep_schedulers(flash_device(), n_requests=8).key


#: case -> (runs per setting, in sweep order; key; the winning setting).
#: ``None`` keeps the throughput default the readahead and writeback
#: sweeps use.
CASES = {
    "argmax": ({8: _run(100.0), 64: _run(300.0), 512: _run(50.0)}, None, 64),
    "ties-go-first": (
        {64: _run(300.0), 8: _run(300.0), 512: _run(50.0)}, None, 64
    ),
    "p99-before-throughput": (
        {
            "noop": _run(900.0, read_p99=5.0),
            "deadline": _run(100.0, read_p99=2.0),
            "elevator": _run(400.0, read_p99=2.0),
        },
        _iosched_key,
        "elevator",
    ),
    "no-reads-by-throughput": (
        {"noop": _run(500.0), "deadline": _run(700.0), "elevator": _run(700.0)},
        _iosched_key,
        "deadline",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_best(case):
    runs, key, expected = CASES[case]
    study = Sweep({"w": runs}) if key is None else Sweep({"w": runs}, key())
    assert study.best("w") == expected


def test_sweep_starts_each_name_once_before_its_points():
    calls = []

    def start(name):
        calls.append(("start", name))

        def run(setting):
            calls.append((name, setting))
            return _run(float(setting))

        return run

    study = sweep(("a", "b"), (1, 3, 2), start)
    assert calls == [
        ("start", "a"), ("a", 1), ("a", 3), ("a", 2),
        ("start", "b"), ("b", 1), ("b", 3), ("b", 2),
    ]
    assert list(study.results["b"]) == [1, 3, 2]
    assert study.best("a") == 3
