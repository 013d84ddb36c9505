"""Check that the tier-1 tests kill each mutant of the pruning predicates,
the component walk and its tree DP.

One JSON line per run, the unmutated copy first:

    python3 tools/mutants.py

Each mutant in `MUTANTS` changes one spot of a fresh copy of `src/`,
`tests/`, `bench/` and `pyproject.toml` in a temporary directory: either an
exact-text replacement, which must match once, or an `ast` rewrite of one
top-level function, spliced back over that function's lines. Tier-1 then
runs on the copy with `-x`. A line holds the mutant, `killed` or `survived`
(`passed` or `failed` for the unmutated copy), the first failing test and
the run's seconds. The script changes nothing in this checkout and exits 1
when the unmutated copy fails or a mutant survives.
"""

from __future__ import annotations

import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Union

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml")
ACYCLIC = "src/forestbd/acyclic.py"
BACKDOORS = "src/forestbd/backdoors.py"
STRONG = "src/forestbd/strong.py"
TIER1 = ["-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider"]
TIER1 += ["--continue-on-collection-errors"]
FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


class Replace(NamedTuple):
    old: str
    new: str


class Rewrite(NamedTuple):
    """`change` edits the parsed top-level function `function` in place."""

    function: str
    change: Callable[[ast.FunctionDef], None]


class Mutant(NamedTuple):
    name: str
    path: str
    edit: Union[Replace, Rewrite]


def drop_pool_filter(function: ast.FunctionDef) -> None:
    for node in ast.walk(function):
        if isinstance(node, ast.comprehension):
            node.ifs = []


def return_cycle_variables(function: ast.FunctionDef) -> None:
    function.body = ast.parse("return cycle.variable_set.intersection(pool)").body


MUTANTS = (
    Mutant(
        "weak_killers without its pool filter",
        BACKDOORS,
        Rewrite("weak_killers", drop_pool_filter),
    ),
    Mutant(
        "weak_killers reduced to the cycle's own variables",
        BACKDOORS,
        Rewrite("weak_killers", return_cycle_variables),
    ),
    Mutant(
        "strong_killers without the -lit in literals test",
        BACKDOORS,
        Replace("lit > 0 and -lit in literals", "lit > 0"),
    ),
    Mutant(
        "strong_killers without its on-cycle part",
        BACKDOORS,
        Replace(
            "return cycle.variable_set.union(external).intersection(pool)",
            "return frozenset(external).intersection(pool)",
        ),
    ),
    Mutant(
        "deletion_killers returning nothing",
        BACKDOORS,
        Replace("return cycle.variable_set.intersection(pool)", "return frozenset()"),
    ),
    Mutant(
        "cyclic_components' cycle test reached > 1 made reached > 2",
        "src/forestbd/graphs.py",
        Replace("if reached > 1 and not cyclic:", "if reached > 2 and not cyclic:"),
    ),
    Mutant(
        "the component walk counting a component without a set variable as 0",
        BACKDOORS,
        Replace("total: Optional[int] = None", "total: Optional[int] = 0"),
    ),
    Mutant(
        "the scoped tree DP counting only unreached clause nodes as live",
        ACYCLIC,
        Replace("clauses += state[root] != 1", "clauses += state[root] == 0"),
    ),
    Mutant(
        "the scoped tree DP not pricing free variables",
        ACYCLIC,
        Replace("self.free = None if scope is None else free", "self.free = None if scope is None else 0"),
    ),
    Mutant(
        "_components_exceed's len(components) > budget made >=",
        STRONG,
        Replace("if len(components) > budget:", "if len(components) >= budget:"),
    ),
    Mutant(
        "_components_exceed's total > budget made >=",
        STRONG,
        Replace("if total > budget:", "if total >= budget:"),
    ),
)


def mutated(source: str, edit: Union[Replace, Rewrite]) -> str:
    if isinstance(edit, Replace):
        if source.count(edit.old) != 1:
            raise SystemExit(f"{edit.old!r} must occur exactly once")
        return source.replace(edit.old, edit.new)
    module = ast.parse(source)
    (function,) = [
        node
        for node in module.body
        if isinstance(node, ast.FunctionDef) and node.name == edit.function
    ]
    first = min([function.lineno] + [d.lineno for d in function.decorator_list])
    last = function.end_lineno
    edit.change(function)
    lines = source.splitlines(keepends=True)
    return "".join(lines[: first - 1]) + ast.unparse(function) + "\n" + "".join(lines[last:])


def run_tier1(mutant: Optional[Mutant]) -> dict:
    with tempfile.TemporaryDirectory(prefix="forestbd-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                ignored = shutil.ignore_patterns("__pycache__", "_work", ".hypothesis")
                shutil.copytree(source, copy / name, ignore=ignored)
            else:
                shutil.copy2(source, copy / name)
        if mutant is not None:
            target = copy / mutant.path
            source = mutated(target.read_text(encoding="utf-8"), mutant.edit)
            target.write_text(source, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *TIER1], cwd=copy, env=env, capture_output=True, text=True, timeout=900
        )
        seconds = round(time.perf_counter() - start, 1)
    failures = FAILURE.findall(done.stdout)
    if mutant is None:
        status = "passed" if done.returncode == 0 else "failed"
    else:
        status = "survived" if done.returncode == 0 else "killed"
    return {
        "mutant": None if mutant is None else mutant.name,
        "status": status,
        "first_failure": failures[0] if failures else None,
        "seconds": seconds,
    }


def main() -> int:
    baseline = run_tier1(None)
    print(json.dumps(baseline), flush=True)
    if baseline["status"] != "passed":
        return 1
    survived = 0
    for mutant in MUTANTS:
        line = run_tier1(mutant)
        print(json.dumps(line), flush=True)
        survived += line["status"] == "survived"
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
