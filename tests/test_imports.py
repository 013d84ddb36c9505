"""Every name a package module imports is used in it, or re-exported
through its `__all__`, and every module-level private name is read
somewhere in the package; no linter runs on the package, so these tests
do its unused-name checks."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Mapping

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "forestbd"


def unused_imports(source: str) -> list[str]:
    """The names `source` imports at any level and never reads; a name in a
    module-level `__all__` list counts as read."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "from typing import Optional\nimport os.path\n__all__ = ['Optional']\n"
    assert unused_imports(source) == ["os (line 2)"]


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def defined_names(statement: ast.stmt) -> list[str]:
    """The names a module-level statement binds by `def`, `class` or
    assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets: list[ast.expr] = []
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    names = (node for target in targets for node in ast.walk(target))
    return [node.id for node in names if isinstance(node, ast.Name)]


def unread_private_names(sources: Mapping[str, str]) -> list[str]:
    """The module-level private functions, classes and constants of the
    modules in `sources` (by name) that no other module-level statement of
    any of them reads, by name or as an attribute; a definition reading
    itself does not count."""
    defined: dict[tuple[str, str], tuple[int, int]] = {}
    reads: dict[str, set[tuple[str, int]]] = {}
    for module, source in sources.items():
        for index, statement in enumerate(ast.parse(source).body):
            for name in filter(private, defined_names(statement)):
                defined[module, name] = (index, statement.lineno)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.id, set()).add((module, index))
                elif isinstance(node, ast.Attribute):
                    reads.setdefault(node.attr, set()).add((module, index))
    return [
        f"{module}: {name} (line {line})"
        for (module, name), (index, line) in defined.items()
        if not reads.get(name, set()) - {(module, index)}
    ]


def test_every_private_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_spare = 4\ndef _walk(n):\n    return _walk(n - 1)\n",
        "b.py": "from a import _LIMIT\nclass _Unused:\n    pass\nprint(_LIMIT)\n",
    }
    assert unread_private_names(sources) == [
        "a.py: _spare (line 2)",
        "a.py: _walk (line 3)",
        "b.py: _Unused (line 2)",
    ]
