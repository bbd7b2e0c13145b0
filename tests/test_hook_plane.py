"""The one hook plane: every site has one slot, and nothing else installs hooks.

Two guards keep ``repro.hooks`` the only way a hot path is hooked:

- an AST scan of ``src`` fails on any definition or attribute the plane
  replaced (``FORBIDDEN_DEFINITION``, ``FORBIDDEN_ATTRIBUTES``);
- the ``HOOK_SLOTS`` that ``src`` declares and ``repro.hooks.SITES``
  name the same sites: no registry site without a slot, no slot whose
  site is not registered.

The rest pins the plane's contract: a slot holds ``None`` unless its
site's hook times or has rules, obs and faults on one component share
one hook object, and a second ``attach`` replaces the first.
"""

import ast
import importlib
import inspect
import pathlib
import re

import pytest

from repro.faults import FaultKind, FaultPlane, InjectedIOError
from repro.hooks import SITES, HookPlane, detach
from repro.minikv import DBOptions, MiniKV
from repro.obs import MetricsRegistry, instrument_buffer, instrument_device
from repro.os_sim import make_stack
from repro.runtime import CircularBuffer

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: Definitions the hook plane replaced; none may come back in ``src``.
FORBIDDEN_DEFINITION = re.compile(
    r"^(attach_obs|attach_faults|detach_faults|set_\w+_observer|set_fault_hook)$"
)
#: Attributes the hook plane replaced.
FORBIDDEN_ATTRIBUTES = {"service_observer"}
#: The one exception: the memory accountant's allocation input.
EXCEPTIONS = {"set_alloc_observer"}


def _forbidden(tree):
    """``(line, name)`` of each forbidden definition or attribute."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
            if FORBIDDEN_DEFINITION.match(name) and name not in EXCEPTIONS:
                yield node.lineno, name
        elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_ATTRIBUTES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_ATTRIBUTES:
            yield node.lineno, node.id


def _slot_maps():
    """``(owner, HOOK_SLOTS)`` of every module and class in ``src/repro``."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__main__":
            continue
        name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        module = importlib.import_module(name)
        owners = [module] + [
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == name
        ]
        for owner in owners:
            slots = vars(owner).get("HOOK_SLOTS")
            if slots is not None:
                yield getattr(owner, "__qualname__", name), slots


def test_no_second_hook_plumbing_in_src():
    offenders = [
        f"{path.relative_to(SRC)}:{line} {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in _forbidden(ast.parse(path.read_text()))
    ]
    assert not offenders, f"hooks installed outside repro.hooks: {offenders}"


def test_forbidden_scan_on_a_sample():
    (attribute,) = FORBIDDEN_ATTRIBUTES
    tree = ast.parse(
        "class C:\n"
        "    def attach(self, plane): ...\n"
        "    def set_alloc_observer(self, fn): ...\n"
        "def set_trace_observer(fn): ...\n"
        f"device.{attribute} = None\n"
    )
    assert [name for _, name in _forbidden(tree)] == [
        "set_trace_observer", attribute,
    ]


def test_registry_sites_and_declared_slots_agree():
    declared = {}
    for owner, slots in _slot_maps():
        for site in slots:
            declared.setdefault(site, []).append(owner)
    unregistered = {
        site: owners for site, owners in declared.items() if site not in SITES
    }
    assert not unregistered, f"slots whose site is not in SITES: {unregistered}"
    undeclared = sorted(set(SITES) - set(declared))
    assert not undeclared, f"registry sites with no declaring slot: {undeclared}"
    assert len(set(SITES)) == len(SITES)


class TestPlane:
    def test_unknown_site_rejected(self):
        with pytest.raises(KeyError, match="unknown hook site"):
            HookPlane().hook("no.such.site")

    def test_slot_stays_none_without_timing_or_rules(self):
        plane = HookPlane()
        plane.hook("buffer.push")  # made, but neither times nor fires
        buf = CircularBuffer(4)
        plane.attach(buf)
        assert buf._push_hook is None

    def test_obs_and_faults_share_one_hook(self):
        stack = make_stack("nvme")
        plane = FaultPlane(seed=1).inject(
            "device.submit", FaultKind.ERROR, nth=2
        )
        plane.attach(stack.device)
        metrics = instrument_device(stack.device, MetricsRegistry())
        hook = stack.device._submit_hook
        assert hook is plane.hook("device.submit")
        assert hook.rules and hook.hist is not None
        stack.device.submit(stack.clock, 1)
        with pytest.raises(InjectedIOError):
            stack.device.submit(stack.clock, 1)
        service = metrics["service"].labels(device="nvme", op="read")
        assert service.count == 1  # the failed request is not observed

    def test_second_attach_replaces_the_first(self):
        buf = CircularBuffer(8)
        instrument_buffer(buf, MetricsRegistry(), sample_mask=0)
        timed = buf._push_hook
        assert timed is not None
        plane = FaultPlane().inject("buffer.push", FaultKind.DROP, every=2)
        plane.attach(buf)
        assert buf._push_hook is plane.hook("buffer.push")
        assert [buf.push(i) for i in range(4)] == [True, False, True, False]
        assert timed.calls == 0  # the obs plane no longer sees pushes

    def test_detach_empties_every_slot(self):
        db = MiniKV(make_stack("nvme"), DBOptions())
        plane = FaultPlane().inject("minikv.wal.append", FaultKind.ERROR)
        plane.inject("minikv.flush.after_build", FaultKind.CRASH)
        plane.attach(db)
        assert db._wal._append_hook is not None
        assert db._flush_after_build_hook is not None
        detach(db)
        assert db._wal._append_hook is None
        assert all(
            getattr(db, slot) is None
            for slot in MiniKV.HOOK_SLOTS.values()
            if "." not in slot
        )
        db.put(b"k", b"v")  # nothing fires once detached
