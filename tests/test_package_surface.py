"""Every function, class and method in ``src/ggsolve`` is named by the package
itself, and every imported name is read by its module.

An AST scan collects the module-level functions and classes and the
non-dunder methods of every module under ``src/ggsolve``, and the names the
package uses: ``Name`` and ``Attribute`` nodes and ``from ... import`` names
across ``src/``, except in ``__init__.py`` files (a re-export is not a use).
A definition whose name appears only inside its own body is dead in the
package; code that only the tests need lives under ``tests/``.  The scan
matches names, not bindings, so a method counts as used when any attribute
of that name is read.

A second scan, over ``src/ggsolve`` and ``tests/``, finds every name an
import binds that its module never reads; ``from __future__`` imports and
``__init__.py`` files (re-exports) are exempt.
"""

import ast
import pathlib
from collections import Counter

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ggsolve"

# Named from outside the package, with the reason.
ALLOWED = {
    "_Parser.error": "argparse calls it on a usage error",
    "CodeNfa.num_states": "benchmark/layers.py counts the closure states expanded with it",
    "Product.num_states": "benchmark/layers.py counts the intersection's states with it",
    "format_instance": "the writer half of the instance file format",
    "power_nf": "exported in ggsolve.__all__, and benchmark/layers.py re-binds it as a span",
}


def _used_names(tree) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _definitions(tree):
    """(qualified name, bare name, node) for module-level defs and non-dunder methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member.name, member


def test_every_definition_is_used_in_the_package():
    modules = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    assert len(modules) > 10
    trees = {path: ast.parse(path.read_text(), str(path)) for path in modules}
    used = Counter()
    for tree in trees.values():
        used += _used_names(tree)
    unused = []
    for path, tree in trees.items():
        for qualified, name, node in _definitions(tree):
            inside = _used_names(node)[name]
            if used[name] - inside == 0 and qualified not in ALLOWED:
                unused.append(f"{path.relative_to(SRC)}:{qualified}")
    assert unused == []


def test_allowlist_names_exist():
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))]
    defined = {q for tree in trees for q, _, _ in _definitions(tree)}
    assert set(ALLOWED) <= defined


def _unused_imports(tree) -> list:
    """(line, name) for each name an import binds that no ``Name`` node reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_every_import_is_used():
    paths = [
        p for root in (SRC, TESTS) for p in sorted(root.rglob("*.py")) if p.name != "__init__.py"
    ]
    assert len(paths) > 30
    unused = [
        f"{path.name}:{line}: {name}"
        for path in paths
        for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert unused == []
