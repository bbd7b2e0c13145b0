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
constants count because the metric rows of ``obs.instrument`` read
component attributes by name (``"pushed"`` reads
``CircularBuffer.pushed`` through ``getattr``).  The definition itself,
imports and ``__all__`` do not count.  Private and dunder names are
exempt.  An ``ALLOWED`` entry fails once it is stale: the name is gone,
or it has a real caller.

The same pass fails on any import in a ``src`` module that the module
neither uses nor re-exports through ``__all__``; package
``__init__.py`` files, which exist to re-export, are exempt.

Three more scans cover what a caller search cannot see:

- a parameter of a public function or method that its own body never
  reads (``self`` / ``cls``, and bodies that only raise or pass, are
  exempt), listed as ``module.function(parameter)``;
- a dataclass field in ``src/repro`` that no caller reads, listed as
  ``module.Class.field``.  A read is an attribute load, a ``getattr``
  with the name as a string, or a string subscript key (a field of a
  ``dataclasses.asdict`` dict).  Construction by keyword and stores,
  ``+=`` included, are not reads;
- a module-level ``UPPER_CASE`` constant in ``src/repro`` that no
  caller loads by name or attribute, listed as ``module.NAME``.

``ALLOWED`` takes these entries too, with the same staleness rule.
"""

import ast
import pathlib
import re

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
    "repro.os_sim.vfs.SimFS.mmap": "the paper's mmap interception",
    "repro.obs.instrument.instrument_supervisor":
        "its families are pinned by export_golden.prom",
    "repro.obs.metrics.Counter.inc":
        "a counter's own increment, as docs/OBSERVABILITY.md documents",
    "repro.faults.supervisor.TrainerSupervisor.healthy":
        "the documented ReadaheadAgent(health=...) predicate",
    "repro.os_sim.page_cache.PageCache.dirty_pages":
        "the dirty count the writeback tests assert on",
    # Parameters a protocol fixes: every policy is called as
    # on_tick(sim_time, rate), every scheduler as dispatch(now, head).
    "repro.readahead.agent.ReadaheadAgent.on_tick(rate)":
        "the closed-loop policy protocol; the bandit tuner reads rate",
    "repro.iosched.schedulers.NoopScheduler.dispatch(now)":
        "the Scheduler.dispatch protocol; deadline scheduling reads now",
    "repro.iosched.schedulers.NoopScheduler.dispatch(head)":
        "the Scheduler.dispatch protocol; the elevator reads head",
    "repro.iosched.schedulers.ElevatorScheduler.dispatch(now)":
        "the Scheduler.dispatch protocol; deadline scheduling reads now",
    # Dataclass fields no caller reads by attribute, getattr or key.
    "repro.minikv.db.DBStats.gets":
        "exported as kml_minikv_ops_total{op=get} by an instrument._stat row",
    "repro.minikv.db.DBStats.puts":
        "exported as kml_minikv_ops_total{op=put} by an instrument._stat row",
    "repro.minikv.db.DBStats.deletes":
        "exported as kml_minikv_ops_total{op=delete} by an instrument._stat row",
    "repro.minikv.db.DBStats.seeks":
        "exported as kml_minikv_ops_total{op=seek} by an instrument._stat row",
    "repro.minikv.db.DBStats.get_hits":
        "exported as kml_minikv_get_hits_total by an instrument._stat row",
    "repro.os_sim.page_cache.CacheStats.evicted":
        "whole-struct dataclasses.asdict into perfbench's digest; "
        "sim_golden.json pins it",
    "repro.os_sim.page_cache.CacheStats.prefetch_wasted":
        "whole-struct dataclasses.asdict into perfbench's digest; "
        "sim_golden.json pins it",
    "repro.os_sim.page_cache.CacheStats.writebacks":
        "whole-struct dataclasses.asdict into perfbench's digest; "
        "sim_golden.json pins it",
    "repro.iosched.engine.ScheduleResult.read_latencies_mean":
        "the mean-latency accounting the iosched tests check",
    "repro.iosched.engine.ScheduleResult.seek_distance_total":
        "the elevator's seek-distance saving the iosched tests check",
    # Module constants no caller reads.
    "repro.kml.fixedpoint.FX_EPS":
        "the Q16.16 resolution the fixed-point round-trip tests bound error by",
    "repro.readahead.tuning.DEFAULT_TUNING_TABLE":
        "the committed sweep result whose orderings the tuning tests check",
    "repro.readahead.agent.AgentDecision.inference_wall_s":
        "per-decision inference latency (paper section 4) for the "
        "planned per-tick decision log",
    "repro.faults.harness.CrashReport.site_evals":
        "crash-case context the crash-matrix tests report on failure",
    "repro.faults.harness.CrashReport.crash_nth":
        "crash-case context the crash-matrix tests report on failure",
    "repro.faults.harness.CrashReport.ops_acked":
        "crash-case context the crash-matrix tests check",
    "repro.faults.harness.CrashReport.pending_op":
        "crash-case context the crash-matrix tests check",
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


def _functions(tree, module):
    """``(qualified name, def node, is method)`` of each public function."""
    stack = [(module, tree.body, False)]
    while stack:
        prefix, body, in_class = stack.pop()
        for node in body:
            public = not getattr(node, "name", "_").startswith("_")
            if public and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}.{node.name}", node, in_class
            elif public and isinstance(node, ast.ClassDef):
                stack.append((f"{prefix}.{node.name}", node.body, True))


def _is_stub(function):
    """A body of only a docstring, ``pass``, ``...`` or ``raise``."""
    return all(
        isinstance(node, (ast.Pass, ast.Raise))
        or (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
        for node in function.body
    )


def _unread_parameters(tree, module):
    """``module.function(parameter)`` for each parameter the body never reads."""
    for qualname, function, is_method in _functions(tree, module):
        if _is_stub(function):
            continue
        args = function.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        static = any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in function.decorator_list
        )
        if is_method and not static:
            names = names[1:]
        read = {
            node.id
            for statement in function.body
            for node in ast.walk(statement)
            if isinstance(node, ast.Name)
        }
        for name in names:
            if name not in read:
                yield f"{qualname}({name})"


def _dataclass_fields(tree, module):
    """``(module.Class.field, field)`` of each dataclass field in ``tree``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not any(
            "dataclass" in ast.unparse(d) for d in node.decorator_list
        ):
            continue
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                name = statement.target.id
                yield f"{module}.{node.name}.{name}", name


def _field_reads(tree):
    """Attribute loads, ``getattr`` names and string subscript keys.

    A subscript key reads a field of a ``dataclasses.asdict`` dict.  A
    store, ``+=`` included, is not a read: a counter only ever bumped is
    never looked at.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant)
        ):
            yield node.slice.value


_UPPER_CASE = re.compile(r"^_?[A-Z][A-Z0-9_]*$")


def _constants(tree, module):
    """``(module.NAME, NAME)`` of each module-level ``UPPER_CASE`` assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and _UPPER_CASE.match(target.id):
                yield f"{module}.{target.id}", target.id


def _loads(tree):
    """Names and attributes ``tree`` loads, outside ``__all__``."""
    skip = _all_nodes(tree)
    for node in ast.walk(tree):
        if id(node) in skip or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


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


@pytest.fixture(scope="module")
def unread_parameters(trees):
    return {
        entry
        for path, tree in trees.items()
        if SRC in path.parents
        for entry in _unread_parameters(tree, _module_name(path))
    }


@pytest.fixture(scope="module")
def fields(trees):
    """``(module.Class.field, field)`` of every dataclass field in ``src``."""
    return [
        field
        for path, tree in trees.items()
        if SRC in path.parents
        for field in _dataclass_fields(tree, _module_name(path))
    ]


@pytest.fixture(scope="module")
def unread_fields(trees, fields):
    read = {name for tree in trees.values() for name in _field_reads(tree)}
    return {qualname for qualname, name in fields if name not in read}


@pytest.fixture(scope="module")
def constants(trees):
    """``(module.NAME, NAME)`` of every module-level constant in ``src``."""
    return [
        constant
        for path, tree in trees.items()
        if SRC in path.parents
        for constant in _constants(tree, _module_name(path))
    ]


@pytest.fixture(scope="module")
def unread_constants(trees, constants):
    loaded = {name for tree in trees.values() for name in _loads(tree)}
    return {qualname for qualname, name in constants if name not in loaded}


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


def test_every_parameter_is_read(unread_parameters):
    offenders = sorted(unread_parameters - set(ALLOWED))
    assert not offenders, (
        "parameters their own function never reads (delete them, or add "
        f"each to ALLOWED with its reason): {offenders}"
    )


def test_every_dataclass_field_is_read(unread_fields):
    offenders = sorted(unread_fields - set(ALLOWED))
    assert not offenders, (
        "dataclass fields nothing outside the tests reads (delete them, or "
        f"add each to ALLOWED with its reason): {offenders}"
    )


def test_every_module_constant_is_read(unread_constants):
    offenders = sorted(unread_constants - set(ALLOWED))
    assert not offenders, (
        "module constants nothing outside the tests reads (delete them, or "
        f"add each to ALLOWED with its reason): {offenders}"
    )


def test_allowlist_entries_are_live_and_reasoned(
    trees, definitions, uncalled, unread_parameters, fields, unread_fields,
    constants, unread_constants,
):
    parameters = {
        f"{qualname}({arg.arg})"
        for path, tree in trees.items()
        if SRC in path.parents
        for qualname, function, _ in _functions(tree, _module_name(path))
        for arg in ast.walk(function.args)
        if isinstance(arg, ast.arg)
    }
    defined = {
        qualname for qualname, _ in definitions + fields + constants
    } | parameters
    flagged = uncalled | unread_parameters | unread_fields | unread_constants
    assert not _stale(ALLOWED, defined, flagged)
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


def test_parameter_and_field_rules_on_a_sample():
    tree = ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Record:\n"
        "    read_by_attr: int\n"
        "    read_by_string: int\n"
        "    never_read: int = 0\n"
        "    only_bumped: int = 0\n"
        "    by_key: int = 0\n"
        "    def total(self, used, unused, *, flag=None):\n"
        "        self.only_bumped += 1\n"
        "        label = 'never_read'\n"
        "        return self.read_by_attr + getattr(self, 'read_by_string') + used\n"
        "    def keyed(self, stats): return stats['by_key']\n"
        "    @staticmethod\n"
        "    def build(first): return Record(1, 2, never_read=first)\n"
        "    def abstract(self, x):\n"
        "        'Subclasses read x.'\n"
        "        raise NotImplementedError\n"
        "    def _private(self, ignored): ...\n"
        "def helper(a, b): return a\n"
    )
    assert sorted(_unread_parameters(tree, "m")) == [
        "m.Record.total(flag)", "m.Record.total(unused)", "m.helper(b)",
    ]
    read = set(_field_reads(tree))
    unread = [q for q, name in _dataclass_fields(tree, "m") if name not in read]
    # Construction by keyword (``never_read=first``), a ``+=`` and a
    # bare string constant are not reads.
    assert unread == ["m.Record.never_read", "m.Record.only_bumped"]


def test_constant_rule_on_a_sample():
    tree = ast.parse(
        "__all__ = ['EXPORTED_ONLY']\n"
        "EXPORTED_ONLY = 1\n"
        "LOADED = 2\n"
        "_PRIVATE = 3\n"
        "lower = 4\n"
        "ANNOTATED: int = 5\n"
        "def f(): return LOADED + f.ANNOTATED\n"
    )
    names = dict(_constants(tree, "m"))
    assert sorted(names) == [
        "m.ANNOTATED", "m.EXPORTED_ONLY", "m.LOADED", "m._PRIVATE",
    ]
    loaded = set(_loads(tree))
    # Neither ``__all__`` nor the assignment itself reads a constant.
    unread = sorted(q for q, name in names.items() if name not in loaded)
    assert unread == ["m.EXPORTED_ONLY", "m._PRIVATE"]


def test_stale_entries_reported():
    allowed = {"m.gone": "x", "m.called": "x", "m.test_only": "x"}
    defined = {"m.called", "m.test_only"}
    uncalled = {"m.test_only"}
    assert _stale(allowed, defined, uncalled) == [
        "m.called: has a caller",
        "m.gone: not defined",
    ]
