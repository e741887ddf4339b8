"""No module imports a name it never reads, and no private package name
is there for the tests alone.

An AST scan of the package, the tests and the demos: every name an import
binds must be read somewhere in its module, or be listed in the module's
``__all__``. ``from __future__`` imports are exempt. Deleting code leaves
stale imports behind; this catches them without a linter. A second scan of
the package: every private name a module defines at its top level (a
function, a class or an assigned name; dunders exempt) must be read by
some package module, so that deleting a name's last package caller leaves
no code behind that only a test reads.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list:
    """``(line, name)`` of every imported name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) \
                and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("directory", ["src/rsmeta", "tests", "demos"])
def test_no_unused_import(directory):
    files = sorted((ROOT / directory).glob("*.py"))
    assert files
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in files for line, name in _unused_imports(path)]
    assert unused == []


def _private_definitions(path: Path) -> list:
    """``(line, name)`` of every private name the module defines at its
    top level: functions, classes and assigned names, dunders exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        out += [(node.lineno, name) for name in names
                if name.startswith("_")
                and not (name.startswith("__") and name.endswith("__"))]
    return out


def _names_read(path: Path) -> set:
    """Every name the module reads: as a name, as an attribute, or by
    importing it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_no_private_name_for_tests_alone():
    files = sorted((ROOT / "src" / "rsmeta").glob("*.py"))
    assert files
    read = set().union(*(_names_read(path) for path in files))
    unread = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in files for line, name in _private_definitions(path)
              if name not in read]
    assert unread == []
