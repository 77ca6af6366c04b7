"""Statements of `src/wsteer` that no tier-1 test executes.

Runs the tier-1 suite in this process under `sys.settrace`, and under
`threading.settrace` for the threads it starts (rollout blocks run on worker
threads), recording the lines executed in `src/wsteer`.  A statement counts
when the compiler gave its first line code of its own; docstrings are not
statements here.  Code that tests run in a subprocess (the CLI entry point,
fresh-interpreter import checks) is not seen.  Prints, per module, the first
lines of the statements that never ran.  Exits 1 when a test fails or when
a statement outside a module's `if __name__ == "__main__":` block never ran
(that block runs only when the module is a script, which tests do in a
subprocess).  Run from the repository root:

    PYTHONPATH=src python tests/line_trace.py [PYTEST_ARGS]
"""

import ast
import dis
import os
import sys
import threading
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "wsteer")


def _statement_lines(source):
    """First lines of the statements of source, docstrings excluded."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add(first)
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and node not in docstrings}


def _main_block_lines(source):
    """Lines of the statements inside the module-level `if __name__ == "__main__":`."""
    lines = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines |= {n.lineno for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.stmt)}
    return lines


def _code_lines(code):
    """Lines that start an instruction of code or of any code nested in it."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def main(args):
    executed = {}
    paths = {}  # co_filename -> its real path in PACKAGE, or None outside it

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename:
            return None
        if filename not in paths:
            path = os.path.realpath(filename)
            paths[filename] = path if path.startswith(PACKAGE + os.sep) else None
        if paths[filename] is None:
            return None
        lines = executed.setdefault(paths[filename], set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    uncovered = False
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        runnable = _statement_lines(source) & _code_lines(compile(source, path, "exec"))
        missed = sorted(runnable - executed.get(path, set()))
        if missed:
            print(f"{name}: {', '.join(map(str, missed))}")
        uncovered |= bool(set(missed) - _main_block_lines(source))
    return 1 if uncovered else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
