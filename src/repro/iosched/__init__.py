"""I/O-scheduler case study: the paper's first-named future-work target.

A block-layer request simulator (positional devices, noop/deadline/
elevator schedulers), synthetic request streams, and a KML classifier
that picks the best scheduler for the observed stream -- the same
study -> classify -> actuate pattern as the readahead case study.
"""

from .engine import (
    PositionalDevice,
    ScheduleResult,
    disk_device,
    flash_device,
    simulate,
)
from .requests import ADDRESS_SPACE, IORequest, STREAM_KINDS, make_stream
from .schedulers import (
    DeadlineScheduler,
    ElevatorScheduler,
    NoopScheduler,
    SCHEDULER_NAMES,
    Scheduler,
    make_scheduler,
)
from .tuner import (
    NUM_STREAM_FEATURES,
    SchedulerSelector,
    stream_features,
    sweep_schedulers,
)

__all__ = [
    "PositionalDevice",
    "ScheduleResult",
    "disk_device",
    "flash_device",
    "simulate",
    "ADDRESS_SPACE",
    "IORequest",
    "STREAM_KINDS",
    "make_stream",
    "DeadlineScheduler",
    "ElevatorScheduler",
    "NoopScheduler",
    "SCHEDULER_NAMES",
    "Scheduler",
    "make_scheduler",
    "NUM_STREAM_FEATURES",
    "SchedulerSelector",
    "stream_features",
    "sweep_schedulers",
]
