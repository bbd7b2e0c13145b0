"""Every ``repro`` name the examples and benchmarks import must exist.

Running all the examples takes about a minute, too slow for the unit
suite, so this parses each script instead and resolves every
``from repro... import name`` it contains.  A deleted or renamed public
name then fails here rather than in a script nothing runs.

The repo benchmark in ``perfbench/`` is parsed the same way, never
imported, and so are the methods it patches by name: each
``(owner, attr)`` of ``perfbench/layers.py``'s ``BOUNDARIES`` and each
``Owner.__dict__["attr"]`` it reads must be defined on that class.
Each keyword a ``perfbench`` call passes to a ``repro`` function or
class it imports must be a parameter of that callable, so a signature
change that would break ``perfbench/make_inputs.py`` fails here.

The same AST pass keeps the closed loop in one place: outside
``repro/workloads/``, no module in ``src/``, ``benchmarks/`` or
``examples/`` calls ``populate_db``; they go through ``load_stack`` and
``run_closed_loop``.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    [*ROOT.glob("examples/*.py"), *ROOT.glob("benchmarks/*.py"), *ROOT.glob("perfbench/*.py")]
)
PERFBENCH = sorted(ROOT.glob("perfbench/*.py"))
LAYERS = ROOT / "perfbench" / "layers.py"
WORKLOADS_PKG = ROOT / "src" / "repro" / "workloads"
LOOP_GUARDED = sorted(
    path
    for path in [*ROOT.glob("src/**/*.py"), *ROOT.glob("benchmarks/*.py"),
                 *ROOT.glob("examples/*.py")]
    if WORKLOADS_PKG not in path.parents
)


def _repro_imports(path):
    """``(module, name)`` for each ``from repro... import name``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module.split(".")[0] == "repro"
        ):
            for alias in node.names:
                yield node.module, alias.name


def test_scripts_found():
    assert any(p.parent.name == "examples" for p in SCRIPTS)
    assert any(p.parent.name == "benchmarks" for p in SCRIPTS)
    assert LAYERS in SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_repro_imports_resolve(path):
    missing = [
        f"from {module} import {name}"
        for module, name in _repro_imports(path)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name}: {missing}"


def _patched_methods(path):
    """``(owner, attr)`` names for each method ``path`` patches by name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "BOUNDARIES"
            for target in node.targets
        ):
            for _span, owner, attr in (row.elts for row in node.value.elts):
                yield owner.id, attr.value
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "__dict__"
            and isinstance(node.value.value, ast.Name)
            and isinstance(node.slice, ast.Constant)
        ):
            yield node.value.value.id, node.slice.value


def test_perfbench_patched_methods_exist():
    owners = {
        name: getattr(importlib.import_module(module), name)
        for module, name in _repro_imports(LAYERS)
    }
    patched = sorted(set(_patched_methods(LAYERS)))
    assert ("FeatureCollector", "_on_offset_event") in patched
    missing = [
        f"{owner}.{attr}" for owner, attr in patched if attr not in vars(owners[owner])
    ]
    assert not missing, f"perfbench/layers.py patches missing methods: {missing}"


def _keyword_calls(source, names):
    """``(line, name, keywords)`` for each call of one of ``names``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in names:
            keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
            yield node.lineno, node.func.id, keywords


def _unknown_keywords(target, keywords):
    """The ``keywords`` that ``target``'s signature does not take."""
    params = inspect.signature(target).parameters
    if any(p.kind is p.VAR_KEYWORD for p in params.values()):
        return []
    return [kw for kw in keywords if kw not in params]


def test_perfbench_keywords_match_repro_signatures():
    checked, unknown = set(), []
    for path in PERFBENCH:
        imported = {
            name: getattr(importlib.import_module(module), name)
            for module, name in _repro_imports(path)
        }
        for line, name, keywords in _keyword_calls(path.read_text(), imported):
            checked.add((path.name, name))
            unknown += [
                f"{path.name}:{line} {name}({kw}=)"
                for kw in _unknown_keywords(imported[name], keywords)
            ]
    assert ("make_inputs.py", "sweep_best_readahead") in checked
    assert not unknown, f"perfbench passes keywords repro does not take: {unknown}"


def test_keyword_guard_catches_a_renamed_parameter():
    def sweep(device, ops=1):
        return device, ops

    source = "sweep('nvme', ops=3)\nsweep('ssd', ops_per_point=3)\n"
    found = [
        (line, kw)
        for line, _, keywords in _keyword_calls(source, {"sweep"})
        for kw in _unknown_keywords(sweep, keywords)
    ]
    assert found == [(2, "ops_per_point")]


def _populate_calls(source):
    """Line numbers of each call to ``populate_db`` in ``source``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            getattr(node.func, "id", None) == "populate_db"
            or getattr(node.func, "attr", None) == "populate_db"
        )
    ]


def test_closed_loop_set_up_lives_in_the_runner():
    assert any(p.parent.name == "examples" for p in LOOP_GUARDED)
    assert ROOT / "src" / "repro" / "cli.py" in LOOP_GUARDED
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in LOOP_GUARDED
        for line in _populate_calls(path.read_text())
    ]
    assert not offenders, f"populate_db outside repro/workloads: {offenders}"


def test_loop_guard_catches_a_copy():
    source = (
        "from repro import workloads\n"
        "from repro.workloads import populate_db\n"
        "populate_db(db, 10, 8, rng)\n"
        "workloads.populate_db(db, 10, 8, rng)\n"
        "load_stack('nvme', 10, 8, 64)\n"
    )
    assert _populate_calls(source) == [3, 4]
