"""Every ``repro`` name the examples and benchmarks import must exist.

Running all the examples takes about a minute, too slow for the unit
suite, so this parses each script instead and resolves every
``from repro... import name`` it contains.  A deleted or renamed public
name then fails here rather than in a script nothing runs.

The repo benchmark in ``perfbench/`` is parsed the same way, never
imported, and so are the methods it patches by name: each
``(owner, attr)`` of ``perfbench/layers.py``'s ``BOUNDARIES`` and each
``Owner.__dict__["attr"]`` it reads must be defined on that class.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    [*ROOT.glob("examples/*.py"), *ROOT.glob("benchmarks/*.py"), *ROOT.glob("perfbench/*.py")]
)
LAYERS = ROOT / "perfbench" / "layers.py"


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
