"""The solver's checks raise ``InternalError``, so they still hold under ``python -O``.

Any ``assert`` statement or ``raise AssertionError`` in ``src/ggsolve`` fails
this test.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ggsolve"


def _assertion_lines(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno


def test_no_assertion_outside_reducibility():
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 10
    found = [
        f"{path.relative_to(SRC)}:{line}"
        for path in paths
        for line in _assertion_lines(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []
