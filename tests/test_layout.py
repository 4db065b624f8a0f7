"""Layout guard: every module-level function or class in src/twistorgh is used.

A top-level ``def`` or ``class`` passes when its name appears in
src/twistorgh/*.py or perfbench/*.py outside its own definition, or when
twistorgh/__init__.py exports it.  A helper that only tests call belongs under
tests/, not in the package.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twistorgh"
USERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(path):
    """(name, first line, last line) of each module-level def/class, decorators included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _unused():
    texts = {path: path.read_text(encoding="utf-8") for path in USERS}
    exported = _exported()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(path):
            if name in exported:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            lines = texts[path].splitlines()
            own = "\n".join(lines[:first - 1] + lines[last:])
            if not word.search(own) and not any(
                    word.search(text) for p, text in texts.items() if p != path):
                unused.append(f"{path.name}:{first} {name}")
    return unused


def test_every_package_definition_is_used_outside_tests():
    unused = _unused()
    assert not unused, ("defined in src/twistorgh, used neither there, in perfbench/ nor "
                        "exported by twistorgh/__init__.py: " + ", ".join(unused))
