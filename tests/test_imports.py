"""No module imports a name it never reads.

An AST scan of the package, the tests and the demos: every name an import
binds must be read somewhere in its module, or be listed in the module's
``__all__``. ``from __future__`` imports are exempt. Deleting code leaves
stale imports behind; this catches them without a linter.
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
