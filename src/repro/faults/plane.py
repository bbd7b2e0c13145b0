"""Deterministic, seed-driven fault-injection plane.

The plane is the control half of the fault subsystem: a registry of
**named injection sites** (the places in the runtime, the simulated OS,
and minikv where a failure can be provoked) plus seeded **rules** that
decide, per site firing, whether to inject and what.

Layering follows ``repro.obs`` exactly: hot-path modules never import
this package.  Each component exposes ``attach_faults(plane)``, asks
the plane for a per-site handle (:meth:`FaultPlane.site`), and keeps
``None`` when no rule targets that site -- so a disabled or untargeted
site costs one ``is not None`` check, nothing more.  When a rule does
fire, the plane either raises (:class:`~.errors.InjectedIOError`,
:class:`~.errors.SimCrash`) or returns a small duck-typed action object
(:class:`TornWrite`, :class:`Delay`, :class:`DropSample`,
:class:`CorruptBytes`) that the call site interprets.

Determinism: every rule owns a private ``random.Random`` seeded from
``(plane seed, site, rule index)``, so the decision sequence at one
site never depends on what other sites did -- the property the crash
harness and the seeded property suites rely on.
"""

from __future__ import annotations

import enum
import random
import threading
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .errors import FaultConfigError, InjectedIOError, SimCrash

__all__ = [
    "SITES",
    "FaultKind",
    "FaultRule",
    "FaultSite",
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


#: The injection-site registry: site name -> (description, allowed kinds).
#: ``add_rule`` validates against this table so a typo in a scenario or
#: test fails loudly instead of silently never firing.  minikv's crash
#: points are mirrored from ``repro.minikv.db.MiniKV.CRASH_POINTS`` and
#: ``tests/faults/test_plane.py`` asserts the two lists stay in sync.
SITES: Dict[str, Tuple[str, Tuple[FaultKind, ...]]] = {
    "vfs.write": (
        "SimFS.write: fail the write, or tear it (prefix lands, then crash)",
        (FaultKind.ERROR, FaultKind.CRASH, FaultKind.TORN_WRITE),
    ),
    "vfs.fsync": (
        "SimFS.fsync: fail or crash before the flush reaches the device",
        (FaultKind.ERROR, FaultKind.CRASH),
    ),
    "vfs.read": (
        "SimFS.read: fail the byte-range read",
        (FaultKind.ERROR, FaultKind.CRASH),
    ),
    "device.submit": (
        "Block device request: transient I/O error or a latency spike",
        (FaultKind.ERROR, FaultKind.CRASH, FaultKind.DELAY),
    ),
    "buffer.push": (
        "CircularBuffer.push: force a drop (overflow pressure)",
        (FaultKind.DROP, FaultKind.ERROR),
    ),
    "trainer.batch": (
        "AsyncTrainer batch processing: crash the training thread",
        (FaultKind.ERROR, FaultKind.CRASH),
    ),
    "model_io.load": (
        "load_model: corrupt or truncate the file bytes in flight",
        (FaultKind.CORRUPT, FaultKind.ERROR),
    ),
    "minikv.wal.append": (
        "WAL record append: error, crash, or torn (partial) record",
        (FaultKind.ERROR, FaultKind.CRASH, FaultKind.TORN_WRITE),
    ),
    "minikv.memtable.apply": (
        "Crash point: after the WAL append, before the memtable apply",
        (FaultKind.CRASH,),
    ),
    "minikv.flush.after_build": (
        "Crash point: L0 table durable, manifest not yet updated",
        (FaultKind.CRASH,),
    ),
    "minikv.flush.after_manifest": (
        "Crash point: manifest lists the new table, WAL not yet reset",
        (FaultKind.CRASH,),
    ),
    "minikv.flush.after_wal_reset": (
        "Crash point: flush fully durable, stats/compaction pending",
        (FaultKind.CRASH,),
    ),
    "minikv.compact.after_merge": (
        "Crash point: merged table durable, manifest still lists inputs",
        (FaultKind.CRASH,),
    ),
    "minikv.compact.after_manifest": (
        "Crash point: manifest lists merged table, inputs not yet unlinked",
        (FaultKind.CRASH,),
    ),
    "minikv.compact.after_unlink": (
        "Crash point: compaction fully durable, stats pending",
        (FaultKind.CRASH,),
    ),
    "minikv.manifest.tmp_written": (
        "Crash point: MANIFEST.tmp durable, rename not yet performed",
        (FaultKind.CRASH,),
    ),
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

    __slots__ = ("site", "seconds")

    def __init__(self, site: str, seconds: float):
        self.site = site
        self.seconds = seconds


class DropSample:
    """Reject the sample as if the buffer were full."""

    __slots__ = ("site",)

    def __init__(self, site: str):
        self.site = site


class CorruptBytes:
    """Damage bytes in flight: truncate, or flip a single bit."""

    __slots__ = ("site", "mode", "_rng")

    def __init__(self, site: str, mode: str, rng: random.Random):
        self.site = site
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
        spec = SITES.get(self.site)
        if spec is None:
            known = ", ".join(sorted(SITES))
            raise FaultConfigError(
                f"unknown injection site {self.site!r}; known sites: {known}"
            )
        if self.kind not in spec[1]:
            allowed = ", ".join(k.value for k in spec[1])
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

    def triggers(self) -> bool:
        """Evaluate one firing (mutates eval/injection state)."""
        if (
            self.max_injections is not None
            and self.injections >= self.max_injections
        ):
            return False
        n = self.evals
        if n <= self.after:
            return False
        if self.nth is not None and n != self.nth:
            return False
        if self.every is not None and (n - self.after) % self.every != 0:
            return False
        if self.probability < 1.0 and self._rng.random() >= self.probability:
            return False
        return True


# ----------------------------------------------------------------------
# Sites and the plane
# ----------------------------------------------------------------------


class FaultSite:
    """A bound per-site handle: the object hot paths actually hold.

    Components resolve handles at ``attach_faults`` time; sites with no
    rules resolve to ``None``, so the steady-state cost of an armed
    plane at an untargeted site is identical to no plane at all.
    """

    __slots__ = ("name", "_rules", "_plane")

    def __init__(self, name: str, rules: List[FaultRule], plane: "FaultPlane"):
        self.name = name
        self._rules = rules
        self._plane = plane

    def fire(self):
        """Evaluate the site's rules; raise or return an action.

        Returns ``None`` (no fault), or one of :class:`TornWrite`,
        :class:`Delay`, :class:`DropSample`, :class:`CorruptBytes`.
        Raises :class:`InjectedIOError` / :class:`SimCrash` for
        error/crash rules.
        """
        for rule in self._rules:
            rule.evals += 1
            if not rule.triggers():
                continue
            rule.injections += 1
            self._plane._record(self.name, rule.kind)
            kind = rule.kind
            if kind is FaultKind.ERROR:
                raise InjectedIOError(
                    self.name, rule.message, transient=rule.transient
                )
            if kind is FaultKind.CRASH:
                raise SimCrash(self.name, rule.message)
            if kind is FaultKind.TORN_WRITE:
                return TornWrite(self.name, rule.keep_fraction)
            if kind is FaultKind.DELAY:
                return Delay(self.name, rule.delay_s)
            if kind is FaultKind.DROP:
                return DropSample(self.name)
            return CorruptBytes(self.name, rule.corrupt, rule._rng)
        return None


class FaultPlane:
    """The armed rule set plus injection accounting.

    Typical use::

        plane = FaultPlane(seed=7)
        plane.inject("device.submit", FaultKind.ERROR,
                     probability=0.02, transient=True)
        db.attach_faults(plane)      # components resolve site handles

    Arm every rule *before* attaching: components snapshot their site
    handles at ``attach_faults`` time (that is what keeps untargeted
    sites free), so rules added later are only seen by components
    attached later.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rules: Dict[str, List[FaultRule]] = {}
        self._injected: Dict[Tuple[str, str], int] = {}
        self._lock = threading.Lock()

    # -- configuration -------------------------------------------------

    def add_rule(self, rule: FaultRule) -> "FaultPlane":
        rule.validate()
        rules = self._rules.setdefault(rule.site, [])
        # Per-rule RNG seeded from (plane seed, site, index): decisions
        # at one site are independent of firing order elsewhere.
        token = f"{self.seed}/{rule.site}/{len(rules)}".encode()
        rule._rng = random.Random(zlib.crc32(token))
        rule.evals = 0
        rule.injections = 0
        rules.append(rule)
        return self

    def inject(self, site: str, kind: FaultKind, **kwargs) -> "FaultPlane":
        """Shorthand: build and arm a :class:`FaultRule` in one call."""
        return self.add_rule(FaultRule(site=site, kind=kind, **kwargs))

    # -- hot-path resolution -------------------------------------------

    def site(self, name: str) -> Optional[FaultSite]:
        """Per-site handle, or ``None`` when nothing targets ``name``."""
        if name not in SITES:
            raise FaultConfigError(f"unknown injection site {name!r}")
        rules = self._rules.get(name)
        if not rules:
            return None
        return FaultSite(name, rules, self)

    def model_io_hook(self) -> Optional[Callable[[bytes], bytes]]:
        """A callable for ``repro.kml.model_io.set_fault_hook``.

        Returns ``None`` when no rule targets ``model_io.load``; the
        returned hook applies CORRUPT actions to the raw file bytes and
        lets ERROR rules raise.
        """
        site = self.site("model_io.load")
        if site is None:
            return None

        def hook(data: bytes) -> bytes:
            action = site.fire()
            if action is not None:
                return action.apply(data)
            return data

        return hook

    # -- accounting ----------------------------------------------------

    def _record(self, site: str, kind: FaultKind) -> None:
        key = (site, kind.value)
        with self._lock:
            self._injected[key] = self._injected.get(key, 0) + 1

    def injection_counts(self) -> Dict[Tuple[str, str], int]:
        """(site, kind) -> number of injections so far."""
        with self._lock:
            return dict(self._injected)

    @property
    def num_rules(self) -> int:
        return sum(len(rules) for rules in self._rules.values())

    def rules_for(self, site: str) -> List[FaultRule]:
        return list(self._rules.get(site, ()))

    def describe(self) -> str:
        """Human-readable dump of armed rules and injection counts."""
        lines = [f"FaultPlane(seed={self.seed}): {self.num_rules} rule(s)"]
        for site in sorted(self._rules):
            for rule in self._rules[site]:
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
