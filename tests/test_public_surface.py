"""Every public name in ``src/repro`` has a caller outside the tests.

The paper's library and runtime are meant to live in a kernel, where
each exported function is code someone has to port, review and keep
resident.  This guard parses ``src/``, ``benchmarks/``, ``examples/``
and ``perfbench/`` (not their tests) and fails on any public function,
class or method defined in ``src/repro`` that none of them references.
Test-only surface is therefore deleted, or justified in ``ALLOWED`` by
the change that adds it.

A *reference* is an ``ast.Name`` or ``ast.Attribute`` with the
definition's identifier, or a string constant equal to it: string
constants count because ``obs.instrument`` binds ``attach_obs`` and its
metric rows by name.  The definition itself, imports and ``__all__`` do
not count.  Private and dunder names are exempt.  An ``ALLOWED`` entry
fails once it is stale: the name is gone, or it has a real caller.

The same pass fails on any import in a ``src`` module that the module
neither uses nor re-exports through ``__all__``; package
``__init__.py`` files, which exist to re-export, are exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLERS = sorted(
    path
    for folder in ("src", "benchmarks", "examples", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
    if "tests" not in path.relative_to(ROOT).parts
)

#: Public names with no caller outside the tests, each with its reason.
ALLOWED = {
    "repro.runtime.portability.KmlEnvironment.api_functions":
        "paper section 3.3: lists the 27-function development API",
    "repro.runtime.portability.user_environment":
        "paper section 3.3: the user-space profile of the same API",
    "repro.runtime.portability.KmlEnvironment.in_fpu_section":
        "the FPU-bracketing proof ROADMAP relies on",
    "repro.kml.losses.mse.MSELoss": "a loss the paper names",
    "repro.kml.losses.binary_cross_entropy.BinaryCrossEntropyLoss":
        "a loss the paper names",
    "repro.stats.zscore.OnlineZScore":
        "the paper's streaming Z-score for in-kernel training",
    "repro.stats.zscore.OnlineZScore.normalize":
        "OnlineZScore's normalization step",
    "repro.kml.quantize.quantize_model":
        "int8 quantization (paper section 3.1), cited by docs/API.md",
    "repro.kml.autodiff.softmax_cross_entropy":
        "the reference the tests and the numerics golden compare against",
    "repro.kml.model_io.set_fault_hook":
        "the seam the model-file fuzz suite corrupts loads through",
    "repro.faults.plane.FaultPlane.model_io_hook":
        "the hook the model-file fuzz suite installs with set_fault_hook",
    "repro.os_sim.vfs.SimFS.mmap": "the paper's mmap interception",
    "repro.serve.registry.ModelRegistry.rollback":
        "feeds kml_serve_rollbacks_total, pinned by export_golden.prom",
    "repro.obs.instrument.instrument_serve":
        "its families are pinned by export_golden.prom",
    "repro.obs.instrument.instrument_supervisor":
        "its families are pinned by export_golden.prom",
    "repro.obs.metrics.Counter.inc":
        "a counter's own increment, as docs/OBSERVABILITY.md documents",
    "repro.faults.supervisor.TrainerSupervisor.healthy":
        "the documented ReadaheadAgent(healthy=...) predicate",
    "repro.os_sim.page_cache.PageCache.dirty_pages":
        "the dirty count the writeback tests assert on",
}


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions(tree, module):
    """``(qualified name, identifier)`` of each public def and class.

    Module-level functions and classes, and the methods and nested
    classes of those classes; functions nested in functions are local.
    """
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    stack = [(module, tree.body)]
    while stack:
        prefix, body = stack.pop()
        for node in body:
            if isinstance(node, kinds):
                if not node.name.startswith("_"):
                    yield f"{prefix}.{node.name}", node.name
                if isinstance(node, ast.ClassDef):
                    stack.append((f"{prefix}.{node.name}", node.body))


def _all_nodes(tree):
    """The nodes of each module-level ``__all__`` assignment."""
    return {
        id(sub)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        )
        for sub in ast.walk(node)
    }


def _references(tree):
    """Identifiers ``tree`` references by name, attribute or string."""
    skip = _all_nodes(tree)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def _unused_imports(tree):
    """Names ``tree`` imports but neither uses nor lists in ``__all__``."""
    skip = _all_nodes(tree)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(
        node.value
        for node in ast.walk(tree)
        if id(node) in skip and isinstance(node, ast.Constant)
    )
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    yield node.lineno, bound


def _stale(allowed, defined, uncalled):
    """Allowlist entries that are gone or now have a caller."""
    return sorted(
        f"{name}: " + ("not defined" if name not in defined else "has a caller")
        for name in allowed
        if name not in uncalled
    )


@pytest.fixture(scope="module")
def trees():
    """Each file of ``CALLERS`` (``src`` included), parsed once."""
    return {
        path: ast.parse(path.read_text(), filename=str(path)) for path in CALLERS
    }


@pytest.fixture(scope="module")
def definitions(trees):
    """``(qualified name, identifier)`` of every public name in ``src``."""
    return [
        definition
        for path, tree in trees.items()
        if SRC in path.parents
        for definition in _definitions(tree, _module_name(path))
    ]


@pytest.fixture(scope="module")
def uncalled(trees, definitions):
    referenced = {name for tree in trees.values() for name in _references(tree)}
    return {qualname for qualname, name in definitions if name not in referenced}


def test_callers_found():
    assert ROOT / "src" / "repro" / "cli.py" in CALLERS
    assert ROOT / "perfbench" / "run.py" in CALLERS
    assert any(p.parent.name == "examples" for p in CALLERS)
    assert not any("tests" in p.relative_to(ROOT).parts for p in CALLERS)


def test_every_public_name_has_a_caller(uncalled):
    offenders = sorted(uncalled - set(ALLOWED))
    assert not offenders, (
        "public names only tests call (delete them, or add each to ALLOWED "
        f"with its reason): {offenders}"
    )


def test_allowlist_entries_are_live_and_reasoned(definitions, uncalled):
    defined = {qualname for qualname, _ in definitions}
    assert not _stale(ALLOWED, defined, uncalled)
    assert all(reason.strip() for reason in ALLOWED.values())


def test_src_imports_are_used(trees):
    offenders = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path, tree in trees.items()
        if SRC in path.parents and path.name != "__init__.py"
        for line, name in _unused_imports(tree)
    ]
    assert not offenders, f"unused imports: {offenders}"


def test_guard_rules_on_a_sample():
    tree = ast.parse(
        "from os import path, sep\n"
        "import json\n"
        "__all__ = ['Kept', 'sep', 'orphan']\n"
        "class Kept:\n"
        "    def used(self): return path.join(self.by_attr(), 'by_string')\n"
        "    def by_attr(self): ...\n"
        "    def by_string(self): ...\n"
        "    def orphan(self): ...\n"
        "    def __repr__(self): ...\n"
        "    def _private(self): ...\n"
        "def orphan(): ...\n"
    )
    names = dict(_definitions(tree, "m"))
    assert sorted(names) == [
        "m.Kept", "m.Kept.by_attr", "m.Kept.by_string", "m.Kept.orphan",
        "m.Kept.used", "m.orphan",
    ]
    referenced = set(_references(tree))
    assert {"by_attr", "by_string", "path"} <= referenced
    # Neither ``__all__`` nor the ``def`` itself references ``orphan``.
    assert "orphan" not in referenced and "Kept" not in referenced
    # ``json`` is unused; ``sep`` is re-exported; ``path`` is used.
    assert [name for _, name in _unused_imports(tree)] == ["json"]


def test_stale_entries_reported():
    allowed = {"m.gone": "x", "m.called": "x", "m.test_only": "x"}
    defined = {"m.called", "m.test_only"}
    uncalled = {"m.test_only"}
    assert _stale(allowed, defined, uncalled) == [
        "m.called: has a caller",
        "m.gone: not defined",
    ]
