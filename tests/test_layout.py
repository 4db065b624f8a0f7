"""Layout guard: every module-level name of src/twistorgh is used, and the
package exports exactly its documented API.

In src/twistorgh/*.py other than __init__.py, three kinds of module-level
name must be referred to by code:

- a ``def`` or ``class`` and a constant (an assignment target, tuple targets
  such as ``_A, _B = range(2)`` included) pass when code of its own module
  refers to the name outside the statement that defines it, or when code of
  another module in src/twistorgh/*.py or perfbench/*.py reaches it by an
  attribute access (``tensors.frame_tensor``) or a ``from ... import`` of the
  name from its module.  A bare name of the same spelling in another module
  is that module's own name and keeps nothing alive;
- an import (other than ``from __future__``) passes when code of its own
  module refers to the name it binds outside the import statement.

Only code counts: a name read, an attribute or an import.  A mention in a
docstring, a comment or a string (such as the name tables of
perfbench/tracer.py, which skip missing names) keeps nothing alive, and
neither does a re-export from twistorgh/__init__.py: the exports are pinned by
their own test below.  A helper that only tests call belongs under tests/,
not in the package.  The private names that only perfbench/ keeps alive are
listed in ``PERFBENCH_ONLY``, and a test pins that list: they are the helpers
that move under tests/ once the harness stops reaching them.
"""

import ast
import types
from pathlib import Path

import twistorgh

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "twistorgh"
CHECKED = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
USERS = CHECKED + sorted((ROOT / "perfbench").glob("*.py"))

#: the exports README "Python API" documents
DOCUMENTED_API = [
    "classify", "SamplingConfig", "ClassReport", "verify_all",
    "model", "compose", "read_json", "write_json",
    "ClassifierError", "CurvatureError", "SchemaError",
]


def _targets(node):
    """Names an assignment target binds: a name, or the names of a tuple/list."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)


def _definitions(tree):
    """(kind, name, first line, last line) of each module-level def, class,
    constant and import; decorators are part of a def or class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield "definition", node.name, first, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in _targets(target):
                    yield "constant", name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield "import", name, node.lineno, node.end_lineno


#: the ``source`` of an attribute reference: it can name any module's definition
ANY_MODULE = "*"


def _references(tree):
    """(name, line, source) of each name the code refers to: names, attributes,
    imports.  ``source`` says whose definition the reference can be from another
    module: ``ANY_MODULE`` for an attribute, the module's last dotted part for a
    ``from module import name``, and None for a bare name or an ``import``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, None
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, ANY_MODULE
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield from ((part, node.lineno, None) for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            source = (node.module or "").rsplit(".", 1)[-1]
            yield from ((alias.name, node.lineno, source) for alias in node.names)


#: the private names of src/twistorgh that only perfbench/ code keeps alive: no
#: code of the package uses them, and the benchmark harness's checks reach them.
#: The public names that only perfbench/ calls (curvature.write_json,
#: random_strict_operator and swap_halves) are the API its workloads drive.
PERFBENCH_ONLY = ["tensors._acs_unchecked", "tensors._dcov"]


def _unused(users):
    """(path, first line, kind, name) of each module-level name of src/twistorgh
    that no code of ``users`` uses."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in users}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    unused = []
    for path in CHECKED:
        for kind, name, first, last in _definitions(trees[path]):
            # an import binds a name in its own module only
            scope = {path: refs[path]} if kind == "import" else refs
            if not any(ref == name and (not first <= line <= last if p == path
                                        else source in (ANY_MODULE, path.stem))
                       for p, found in scope.items() for ref, line, source in found):
                unused.append((path, first, kind, name))
    return unused


def test_every_package_definition_is_used_outside_tests():
    unused = [f"{path.name}:{first} {kind} {name}" for path, first, kind, name in _unused(USERS)]
    assert not unused, ("module-level names of src/twistorgh that no code there or in "
                        "perfbench/ uses: " + ", ".join(unused))


def test_the_names_only_perfbench_uses_are_listed():
    # when the harness stops reaching one of them, it is unused and leaves
    # the package, or moves under tests/ if tests still call it
    only = sorted(f"{path.stem}.{name}" for path, _, _, name in _unused(CHECKED)
                  if name.startswith("_"))
    assert only == PERFBENCH_ONLY


def test_public_api_is_the_documented_list():
    assert twistorgh.__all__ == DOCUMENTED_API
    for name in twistorgh.__all__:
        assert not isinstance(getattr(twistorgh, name), types.ModuleType), name
