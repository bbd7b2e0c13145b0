"""Deterministic fault injection and recovery hardening for the KML runtime.

The control half of testing what the paper's runtime does when storage
misbehaves: seeded fault *rules* armed at named injection *sites*
threaded through the simulated VFS, block device, circular buffer,
training thread, model loader, and minikv -- plus the machinery that
proves the system recovers (the crash harness) and keeps running (the
trainer supervisor).

Layering contract: hot-path modules never import this package.  Each
declares one hook slot per site (``repro.hooks``); a
:class:`FaultPlane` is a hook plane that arms rules by site name and
fills those slots, leaving ``None`` where no rule targets the site, so
a disabled plane costs one pointer check.  See ``docs/FAULTS.md``.
"""

from .errors import FaultConfigError, InjectedFault, InjectedIOError, SimCrash
from .harness import ALL_CRASH_SITES, CrashRecoveryHarness, CrashReport
from .plane import (
    SITES,
    CorruptBytes,
    Delay,
    DropSample,
    FaultKind,
    FaultPlane,
    FaultRule,
    TornWrite,
)
from .scenarios import SCENARIOS, build_scenario, scenario_names
from .supervisor import TrainerSupervisor

__all__ = [
    "FaultConfigError",
    "InjectedFault",
    "InjectedIOError",
    "SimCrash",
    "SITES",
    "FaultKind",
    "FaultRule",
    "FaultPlane",
    "TornWrite",
    "Delay",
    "DropSample",
    "CorruptBytes",
    "SCENARIOS",
    "build_scenario",
    "scenario_names",
    "TrainerSupervisor",
    "ALL_CRASH_SITES",
    "CrashRecoveryHarness",
    "CrashReport",
]
