"""Every ``repro`` name the examples and benchmarks import must exist.

Running all the examples takes about a minute, too slow for the unit
suite, so this parses each script instead and resolves every
``from repro... import name`` it contains.  A deleted or renamed public
name then fails here rather than in a script nothing runs.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("examples/*.py"), *ROOT.glob("benchmarks/*.py")])


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


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_repro_imports_resolve(path):
    missing = [
        f"from {module} import {name}"
        for module, name in _repro_imports(path)
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name}: {missing}"
