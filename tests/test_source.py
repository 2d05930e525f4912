"""Checks on the source of the dgares package itself."""

import ast
import importlib.util
import os

import dgares

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so no check of the library may live in
    # one, and a failed check raises a real error, not AssertionError
    pkg = os.path.dirname(os.path.abspath(dgares.__file__))
    found = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(pkg, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [
            f"{name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or raises_assertion_error(node)
        ]
    assert found == []


def test_every_mutant_snippet_occurs_once():
    # tools/mutants.py switches checks off by exact replacement, so an
    # edit to a checked line must be carried into its mutant entry
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(ROOT, "tools", "mutants.py"))
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    for m in mutants.MUTANTS:
        with open(os.path.join(ROOT, m.path), encoding="utf-8") as fh:
            assert fh.read().count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet, m.name
        test_file, _, test_name = m.selection.partition("::")
        with open(os.path.join(ROOT, test_file), encoding="utf-8") as fh:
            assert f"def {test_name}(" in fh.read(), m.name
