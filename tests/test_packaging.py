"""The package's runtime dependencies: numpy only.  scipy serves the tests
as an oracle (the `test` extra) and no module of the package imports it."""

import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "wsteer")
PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(SRC)), "pyproject.toml")


def imported_modules(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_package_module_imports_scipy():
    modules = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "objective.py" in modules
    found = {f: name for f in modules for name in imported_modules(os.path.join(SRC, f))
             if name == "scipy" or name.startswith("scipy.")}
    assert found == {}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_scipy_is_a_test_dependency_only():
    import tomllib

    with open(PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert not any(d.startswith("scipy") for d in project["dependencies"])
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])
