"""One hook plane: a named site on each hot path, one slot per site.

Observability (``repro.obs``) and fault injection (``repro.faults``)
hang off the same call sites, as Linux hangs tracepoints and
``should_fail()`` off static-key-guarded call sites.  A hot-path
component (a class, or a module for module-global sites) declares
``HOOK_SLOTS``: site name -> the attribute holding that site's hook (a
dotted path reaches an owned part; a callable is the slot's setter).
A slot holds ``None`` or one :class:`Hook`, so a bare hot path pays
one attribute load and one ``is not None`` check.

A :class:`HookPlane` keeps one hook per site for a run: ``instrument_*``
sets timing and :class:`repro.faults.FaultPlane` (a ``HookPlane``) arms
rules, both by site name, and :meth:`HookPlane.attach` fills the slots.
Attach after arming; a second ``attach`` replaces the first.

This module imports nothing from ``repro``: hot-path modules import it
and never ``repro.obs`` or ``repro.faults``.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["SITES", "Hook", "HookPlane", "detach", "plane_of"]

#: Every named site.  Each is declared by exactly the ``HOOK_SLOTS`` in
#: ``src`` (a tier-1 test checks both directions).
SITES = (
    "buffer.push", "trainer.batch", "tracepoints.dispatch",
    "vfs.read", "vfs.write", "vfs.fsync", "device.submit",
    "minikv.get", "minikv.put", "minikv.compaction", "minikv.wal.append",
    # minikv's crash points (MiniKV.CRASH_POINTS)
    "minikv.memtable.apply",
    "minikv.flush.after_build", "minikv.flush.after_manifest",
    "minikv.flush.after_wal_reset",
    "minikv.compact.after_merge", "minikv.compact.after_manifest",
    "minikv.compact.after_unlink",
    "minikv.manifest.tmp_written",
    "matrix.matmul", "network.forward", "network.backward",
    "model_io.load",
)


class Hook:
    """One site's hook: it times the site (obs) and/or fires it (faults).

    Timing is a call count and a histogram: ``calls`` counts every
    call, and one in ``mask + 1`` is timed into ``hist`` (``mask`` -1,
    the default, never times).  Firing evaluates ``rules``, the fault
    rules armed at the site.  A hot path runs this idiom inline, with
    no method call unless a rule is armed::

        hook = self._push_hook
        t0 = 0.0
        if hook is not None:
            if hook.rules and hook.fire() is not None:
                ...  # the site's reaction to an injected action
            hook.calls = n = hook.calls + 1
            if not n & hook.mask:
                t0 = time.perf_counter()
        ...  # the work
        if t0:
            hook.hist.observe(time.perf_counter() - t0)

    ``calls`` is a plain attribute add, not a locked update: exact for
    one calling thread, and it may lose an increment when threads race.
    ``device.submit`` observes simulated service time instead: its
    ``hist`` is a ``(read, write)`` pair.
    """

    __slots__ = ("calls", "mask", "hist", "rules")

    def __init__(self):
        self.calls = 0
        self.mask = -1
        self.hist = None
        self.rules = []

    def fire(self):
        """Fire the armed rules in arming order.

        The first rule that triggers raises its fault or returns its
        action; ``None`` when none triggers.
        """
        for rule in self.rules:
            action = rule.fire()
            if action is not None:
                return action
        return None

    def estimated_seconds(self) -> float:
        """Timed wall seconds scaled to ``calls`` (exact when ``mask == 0``)."""
        hist = self.hist
        if not hist.count:
            return 0.0
        return hist.sum * (self.calls / hist.count)


class HookPlane:
    """The hooks of one run, one per site, and the slots they fill."""

    def __init__(self):
        self._hooks: Dict[str, Hook] = {}

    def hook(self, site: str) -> Hook:
        """The hook of ``site``, made on first use."""
        hook = self._hooks.get(site)
        if hook is None:
            if site not in SITES:
                raise KeyError(f"unknown hook site {site!r}")
            hook = self._hooks[site] = Hook()
        return hook

    def attach(self, component) -> None:
        """Fill each slot of ``component`` from this plane.

        A slot gets its site's hook when that hook times or has rules,
        and ``None`` otherwise.
        """
        for site, slot in component.HOOK_SLOTS.items():
            hook = self._hooks.get(site)
            if hook is not None and hook.hist is None and not hook.rules:
                hook = None
            _fill(component, slot, hook)
        component._hook_plane = self


def detach(component) -> None:
    """Empty every slot of ``component``."""
    for slot in component.HOOK_SLOTS.values():
        _fill(component, slot, None)
    component._hook_plane = None


def plane_of(component) -> HookPlane:
    """The plane ``component`` is attached to, or a new one."""
    return getattr(component, "_hook_plane", None) or HookPlane()


def _fill(component, slot, hook) -> None:
    if callable(slot):
        slot(hook)
        return
    *parts, name = slot.split(".")
    for part in parts:
        component = getattr(component, part)
    setattr(component, name, hook)
