"""Exception hierarchy for the fault-injection plane.

Every failure the plane provokes derives from :class:`InjectedFault`,
so tests (and the crash harness) can always distinguish an injected
failure from a genuine bug in the code under test.

The classes are deliberately dependency-free: hot-path modules never
import this package -- they receive duck-typed action objects from an
armed :class:`~repro.faults.plane.FaultPlane` and the plane raises
these exceptions itself -- but catching code (harnesses, the CLI, the
trainer supervisor) imports them by name.
"""

from __future__ import annotations

__all__ = [
    "FaultConfigError",
    "InjectedFault",
    "InjectedIOError",
    "SimCrash",
]


class FaultConfigError(ValueError):
    """A fault rule referenced an unknown site or an invalid parameter."""


class InjectedFault(Exception):
    """Base class for every failure raised by the fault plane."""

    def __init__(self, site: str, message: str = ""):
        self.site = site
        super().__init__(message or f"injected fault at {site!r}")


class InjectedIOError(InjectedFault, OSError):
    """An injected I/O error (device, VFS, or model-file read).

    ``transient`` marks errors a retry is allowed to absorb -- the
    retry-with-backoff path in minikv only retries when
    ``getattr(exc, "transient", False)`` is true, so persistent
    failures still propagate after one attempt.
    """

    def __init__(self, site: str, message: str = "", transient: bool = True):
        super().__init__(site, message)
        self.transient = transient


class SimCrash(InjectedFault):
    """A simulated kill -9 at a registered crash point.

    Whatever bytes reached the simulated filesystem before the raise
    are durable; everything in volatile state (memtables, open
    handles, Python objects) must be treated as lost.  The crash
    harness catches this, abandons the DB object, and re-opens a fresh
    one over the same filesystem to drive recovery.
    """
