"""Every name a package module imports is used in it, or re-exported
through its `__all__`, every module-level private name is read somewhere
in the package, and every public function and class is read, exported or
traced; no linter runs on the package, so these tests do its unused-name
checks. Importing the command line leaves `dataclasses` and what it pulls
in unloaded, since every command pays for its imports."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Mapping

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "forestbd"
TRACER = ROOT / "bench" / "tracer.py"
# Public names the package itself never reads.
UNREAD_PUBLIC: list[str] = []


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


def imported_modules(source: str) -> set[str]:
    """The modules `source` imports at any level, by their full dotted
    name; a relative import counts by the name after its dots."""
    modules: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    return modules


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text(encoding="utf-8"))


def test_the_import_check_sees_dataclasses():
    source = "def f():\n    from dataclasses import replace\nimport os.path\n"
    assert imported_modules(source) == {"dataclasses", "os.path"}


def test_the_command_line_loads_no_dataclasses():
    """A fresh interpreter's `import forestbd.cli` adds neither `dataclasses`
    nor `inspect` to what the interpreter had loaded at start-up."""
    code = (
        "import json, sys; before = set(sys.modules); import forestbd.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    loaded = set(json.loads(done.stdout))
    assert "forestbd.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


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


def unread_names(
    sources: Mapping[str, str], defines: Callable[[ast.stmt], list[str]]
) -> list[tuple[str, str, int]]:
    """The (module, name, line) of each name that `defines` finds in a
    module-level statement of the modules in `sources` (by name) and that
    no other module-level statement of any of them reads, by name or as an
    attribute; a definition reading itself does not count."""
    defined: dict[tuple[str, str], tuple[int, int]] = {}
    reads: dict[str, set[tuple[str, int]]] = {}
    for module, source in sources.items():
        for index, statement in enumerate(ast.parse(source).body):
            for name in defines(statement):
                defined[module, name] = (index, statement.lineno)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.setdefault(node.id, set()).add((module, index))
                elif isinstance(node, ast.Attribute):
                    reads.setdefault(node.attr, set()).add((module, index))
    return [
        (module, name, line)
        for (module, name), (index, line) in defined.items()
        if not reads.get(name, set()) - {(module, index)}
    ]


def unread_private_names(sources: Mapping[str, str]) -> list[str]:
    """The module-level private functions, classes and constants that no
    other module-level statement reads."""
    unread = unread_names(sources, lambda statement: list(filter(private, defined_names(statement))))
    return [f"{module}: {name} (line {line})" for module, name, line in unread]


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


def public_definitions(statement: ast.stmt) -> list[str]:
    """The public function or class a module-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [] if statement.name.startswith("_") else [statement.name]
    return []


def literal(source: str, name: str):
    """The value of the module-level literal assigned to `name` in `source`."""
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in statement.targets
        ):
            return ast.literal_eval(statement.value)
    raise LookupError(name)


def dead_api(sources: Mapping[str, str], tracer: str) -> list[str]:
    """The public module-level functions and classes, as `module.name`, that
    no other module-level statement reads, that `__init__.py`'s `__all__`
    does not export and that the tracer source does not name in `SPANNED`
    (a qualified name names each of its parts) or `RULE_FUNCTIONS`."""
    kept = set(literal(sources["__init__.py"], "__all__"))
    for qualified in (name for names in literal(tracer, "SPANNED").values() for name in names):
        kept.update(qualified.split("."))
    kept.update(literal(tracer, "RULE_FUNCTIONS").values())
    return [
        f"{module.removesuffix('.py')}.{name}"
        for module, name, _ in unread_names(sources, public_definitions)
        if name not in kept
    ]


def test_every_public_name_is_read_exported_or_traced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert sorted(dead_api(sources, TRACER.read_text(encoding="utf-8"))) == UNREAD_PUBLIC


def test_the_check_sees_dead_api():
    sources = {
        "__init__.py": "from a import exported\n__all__ = ['exported']\n",
        "a.py": (
            "def exported(): pass\ndef traced(): pass\ndef rule(): pass\n"
            "class Owner:\n    def method(self): pass\n"
            "def used(): pass\ndef caller(): return used()\n"
            "def _hidden(): pass\ndef dead(n): return dead(n - 1)\nclass Dead: pass\n"
        ),
    }
    tracer = "SPANNED = {'a': ('traced', 'Owner.method')}\nRULE_FUNCTIONS = {'a': 'rule'}\n"
    assert dead_api(sources, tracer) == ["a.caller", "a.dead", "a.Dead"]
