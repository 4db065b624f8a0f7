"""Layout guard: every module-level function or class in src/twistorgh is used.

A top-level ``def`` or ``class`` passes when code in src/twistorgh/*.py or
perfbench/*.py refers to it outside its own definition, or when
twistorgh/__init__.py exports it.  Only code counts: a name read, an attribute
or an import.  A mention in a docstring, a comment or a string (such as the
name tables of perfbench/tracer.py, which skip missing names) keeps nothing
alive.  A helper that only tests call belongs under tests/, not in the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twistorgh"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(tree):
    """(name, first line, last line) of each module-level def/class, decorators included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def _references(tree):
    """(name, line) of each name the code refers to: names, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield from ((part, node.lineno) for part in node.name.split("."))


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _unused():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in USERS}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    exported = _exported()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(trees[path]):
            if name in exported:
                continue
            if not any(ref == name and (p != path or not first <= line <= last)
                       for p, found in refs.items() for ref, line in found):
                unused.append(f"{path.name}:{first} {name}")
    return unused


def test_every_package_definition_is_used_outside_tests():
    unused = _unused()
    assert not unused, ("defined in src/twistorgh, used neither there, in perfbench/ nor "
                        "exported by twistorgh/__init__.py: " + ", ".join(unused))
