"""Checks on the source of the dgares package itself."""

import ast
import os

import dgares


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so no check of the library may live in one
    pkg = os.path.dirname(os.path.abspath(dgares.__file__))
    found = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(pkg, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
