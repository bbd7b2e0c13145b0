"""Deterministic, seed-driven fault-injection plane.

The control half of the fault subsystem: seeded **rules**, armed at the
named sites of the one hook plane (``repro.hooks``: places in the
runtime, the simulated OS and minikv where a failure can be provoked),
decide per site firing whether to inject and what.  :class:`FaultPlane`
is a :class:`~repro.hooks.HookPlane`; ``plane.attach(component)`` fills
the component's slots and leaves a site no rule targets at ``None``,
one ``is not None`` check.  A rule that fires either raises
(:class:`~.errors.InjectedIOError`, :class:`~.errors.SimCrash`) or
returns a small action object (:class:`TornWrite`, :class:`Delay`,
:class:`DropSample`, :class:`CorruptBytes`) the call site interprets.

Determinism: every rule owns a private ``random.Random`` seeded from
``(plane seed, site, rule index)``, so the decision sequence at one
site never depends on what other sites did -- the property the crash
harness and the seeded property suites rely on.
"""

from __future__ import annotations

import enum
import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hooks import HookPlane
from ..minikv.db import MiniKV
from .errors import FaultConfigError, InjectedIOError, SimCrash

__all__ = [
    "SITES",
    "FaultKind",
    "FaultRule",
    "FaultPlane",
    "TornWrite",
    "Delay",
    "DropSample",
    "CorruptBytes",
]


class FaultKind(enum.Enum):
    """What an armed rule does when it triggers."""

    ERROR = "error"            # raise InjectedIOError
    CRASH = "crash"            # raise SimCrash immediately
    TORN_WRITE = "torn_write"  # persist a prefix of the bytes, then crash
    DELAY = "delay"            # add latency to the operation
    DROP = "drop"              # reject the sample (buffer overflow pressure)
    CORRUPT = "corrupt"        # damage the bytes in flight (model files)


#: The fault-capable hook sites and the fault kinds each allows.
#: ``inject`` validates against this table so a typo in a scenario or
#: test fails loudly instead of silently never firing.  minikv's crash
#: points come from ``repro.minikv.db.MiniKV.CRASH_POINTS``.
SITES: Dict[str, Tuple[FaultKind, ...]] = {
    # A torn write lands a prefix of the bytes, then crashes.
    "vfs.write": (FaultKind.ERROR, FaultKind.CRASH, FaultKind.TORN_WRITE),
    "vfs.fsync": (FaultKind.ERROR, FaultKind.CRASH),
    "vfs.read": (FaultKind.ERROR, FaultKind.CRASH),
    "device.submit": (FaultKind.ERROR, FaultKind.CRASH, FaultKind.DELAY),
    "buffer.push": (FaultKind.DROP, FaultKind.ERROR),
    "trainer.batch": (FaultKind.ERROR, FaultKind.CRASH),
    "model_io.load": (FaultKind.CORRUPT, FaultKind.ERROR),
    "minikv.wal.append": (
        FaultKind.ERROR, FaultKind.CRASH, FaultKind.TORN_WRITE,
    ),
    **{"minikv." + point: (FaultKind.CRASH,) for point in MiniKV.CRASH_POINTS},
}


# ----------------------------------------------------------------------
# Actions returned to call sites
# ----------------------------------------------------------------------


class TornWrite:
    """Persist only a prefix of the bytes, then simulate a crash.

    The call site writes ``data[:keep_bytes(len(data))]`` and then
    calls :meth:`crash`, which raises :class:`SimCrash` -- keeping the
    ``repro.faults`` import out of the hot-path module.
    """

    __slots__ = ("site", "keep_fraction")

    def __init__(self, site: str, keep_fraction: float):
        self.site = site
        self.keep_fraction = keep_fraction

    def keep_bytes(self, size: int) -> int:
        """How many of ``size`` bytes land; always < size so the write
        is genuinely torn."""
        if size <= 0:
            return 0
        return min(int(size * self.keep_fraction), size - 1)

    def crash(self) -> "None":
        raise SimCrash(self.site, f"torn write at {self.site!r}")


class Delay:
    """Add ``seconds`` of (simulated) latency to the operation."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        self.seconds = seconds


class DropSample:
    """Reject the sample as if the buffer were full.

    It carries nothing, so every drop rule returns one shared instance.
    """

    __slots__ = ()


_DROP = DropSample()


class CorruptBytes:
    """Damage bytes in flight: truncate, or flip a single bit."""

    __slots__ = ("mode", "_rng")

    def __init__(self, mode: str, rng: random.Random):
        self.mode = mode
        self._rng = rng

    def apply(self, data: bytes) -> bytes:
        if not data:
            return data
        if self.mode == "truncate":
            return data[: self._rng.randrange(len(data))]
        # Single-bit flip: the smallest corruption a CRC must catch.
        damaged = bytearray(data)
        index = self._rng.randrange(len(damaged))
        damaged[index] ^= 1 << self._rng.randrange(8)
        return bytes(damaged)


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------


@dataclass
class FaultRule:
    """One armed fault: where, what, and when it triggers.

    Trigger controls (evaluated per site firing, in this order):

    - ``after``: skip the first ``after`` evaluations entirely;
    - ``nth``: trigger only on exactly the nth evaluation (1-based);
    - ``every``: trigger on every k-th evaluation past ``after``;
    - ``probability``: seeded coin flip (1.0 = always);
    - ``max_injections``: stop triggering after this many injections
      (models *transient* faults that clear up).
    """

    site: str
    kind: FaultKind
    probability: float = 1.0
    nth: Optional[int] = None
    every: Optional[int] = None
    after: int = 0
    max_injections: Optional[int] = None
    delay_s: float = 0.0
    keep_fraction: float = 0.5
    corrupt: str = "bitflip"
    transient: bool = True
    message: str = ""
    # Runtime state (owned by the plane once armed).
    evals: int = field(default=0, repr=False)
    injections: int = field(default=0, repr=False)
    _rng: random.Random = field(default=None, repr=False)  # type: ignore

    def validate(self) -> None:
        kinds = SITES.get(self.site)
        if kinds is None:
            known = ", ".join(sorted(SITES))
            raise FaultConfigError(
                f"unknown injection site {self.site!r}; known sites: {known}"
            )
        if self.kind not in kinds:
            allowed = ", ".join(k.value for k in kinds)
            raise FaultConfigError(
                f"site {self.site!r} does not support kind "
                f"{self.kind.value!r} (allowed: {allowed})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise FaultConfigError("probability must be in [0, 1]")
        if self.nth is not None and self.nth < 1:
            raise FaultConfigError("nth is 1-based and must be >= 1")
        if self.every is not None and self.every < 1:
            raise FaultConfigError("every must be >= 1")
        if self.after < 0:
            raise FaultConfigError("after must be >= 0")
        if not 0.0 <= self.keep_fraction <= 1.0:
            raise FaultConfigError("keep_fraction must be in [0, 1]")
        if self.delay_s < 0:
            raise FaultConfigError("delay_s must be >= 0")
        if self.corrupt not in ("bitflip", "truncate"):
            raise FaultConfigError("corrupt must be 'bitflip' or 'truncate'")

    def fire(self):
        """Evaluate one firing of the site (mutates eval/injection state).

        Returns ``None`` (no fault), or one of :class:`TornWrite`,
        :class:`Delay`, :class:`DropSample`, :class:`CorruptBytes`.
        Raises :class:`InjectedIOError` / :class:`SimCrash` for
        error/crash rules.
        """
        self.evals += 1
        n = self.evals
        if (
            self.max_injections is not None
            and self.injections >= self.max_injections
        ):
            return None
        if n <= self.after:
            return None
        if self.nth is not None and n != self.nth:
            return None
        if self.every is not None and (n - self.after) % self.every != 0:
            return None
        if self.probability < 1.0 and self._rng.random() >= self.probability:
            return None
        self.injections += 1
        kind = self.kind
        if kind is FaultKind.ERROR:
            raise InjectedIOError(self.site, self.message, transient=self.transient)
        if kind is FaultKind.CRASH:
            raise SimCrash(self.site, self.message)
        if kind is FaultKind.TORN_WRITE:
            return TornWrite(self.site, self.keep_fraction)
        if kind is FaultKind.DELAY:
            return Delay(self.delay_s)
        if kind is FaultKind.DROP:
            return _DROP
        return CorruptBytes(self.corrupt, self._rng)


# ----------------------------------------------------------------------
# The plane
# ----------------------------------------------------------------------


class FaultPlane(HookPlane):
    """The armed rule set plus injection accounting.

    Typical use::

        plane = FaultPlane(seed=7)
        plane.inject("device.submit", FaultKind.ERROR,
                     probability=0.02, transient=True)
        plane.attach(stack.device)   # fills the device's hook slot

    Arm every rule *before* attaching: ``attach`` leaves the slot of a
    site with no rule ``None`` (that is what keeps untargeted sites
    free), so a rule armed later at such a site is only seen by
    components attached later.  ``instrument_*`` in ``repro.obs`` times
    sites on the plane a component is attached to, so attach the fault
    plane first and instrument second.
    """

    def __init__(self, seed: int = 0):
        super().__init__()
        self.seed = seed

    def inject(self, site: str, kind: FaultKind, **kwargs) -> "FaultPlane":
        """Build a :class:`FaultRule`, validate it and arm it at ``site``."""
        rule = FaultRule(site=site, kind=kind, **kwargs)
        rule.validate()
        rules = self.hook(site).rules
        # Per-rule RNG seeded from (plane seed, site, index): decisions
        # at one site are independent of firing order elsewhere.
        token = f"{self.seed}/{site}/{len(rules)}".encode()
        rule._rng = random.Random(zlib.crc32(token))
        rules.append(rule)
        return self

    def injection_counts(self) -> Dict[Tuple[str, str], int]:
        """(site, kind) -> number of injections so far, in arming order."""
        counts: Dict[Tuple[str, str], int] = {}
        for hook in self._hooks.values():
            for rule in hook.rules:
                if rule.injections:
                    key = (rule.site, rule.kind.value)
                    counts[key] = counts.get(key, 0) + rule.injections
        return counts

    @property
    def num_rules(self) -> int:
        return sum(len(hook.rules) for hook in self._hooks.values())

    def rules_for(self, site: str) -> List[FaultRule]:
        hook = self._hooks.get(site)
        return list(hook.rules) if hook is not None else []

    def describe(self) -> str:
        """Human-readable dump of armed rules and injection counts."""
        lines = [f"FaultPlane(seed={self.seed}): {self.num_rules} rule(s)"]
        for site in sorted(self._hooks):
            for rule in self._hooks[site].rules:
                when = []
                if rule.nth is not None:
                    when.append(f"nth={rule.nth}")
                if rule.every is not None:
                    when.append(f"every={rule.every}")
                if rule.after:
                    when.append(f"after={rule.after}")
                if rule.probability < 1.0:
                    when.append(f"p={rule.probability}")
                if rule.max_injections is not None:
                    when.append(f"max={rule.max_injections}")
                lines.append(
                    f"  {site}: {rule.kind.value}"
                    f" [{', '.join(when) or 'always'}]"
                    f" evals={rule.evals} injected={rule.injections}"
                )
        return "\n".join(lines)
