"""Writeback tuning: a second KML application (paper section 6).

The paper's future work applies KML to further storage subsystems,
naming the page cache explicitly.  This package does that for the
page cache's *writeback* policy: the dirty-page threshold and the
per-request batch size trade write efficiency (batching amortizes
per-request latency) against read latency (long write bursts occupy
the device while reads queue).

It reuses the same KML machinery as the readahead study -- tracepoint
observation, per-window decisions, and the feedback tuner the paper
proposes for never-seen conditions: :class:`repro.kml.UCB1Tuner` over
``DEFAULT_CONFIGS``, actuating each with ``WritebackConfig.apply``.
"""

from .configs import DEFAULT_CONFIGS, WritebackConfig
from .study import WritebackSweep, sweep_writeback_configs

__all__ = [
    "WritebackConfig",
    "DEFAULT_CONFIGS",
    "WritebackSweep",
    "sweep_writeback_configs",
]
