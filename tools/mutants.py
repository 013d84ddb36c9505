"""Check that the tier-1 tests kill each mutant of the pruning predicates,
the rule thresholds, the component walk and its tree DP, the canonical
cycle's layered walk, and the DIMACS parse's test for clauses written in
canonical order.

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
FORMULA = "src/forestbd/formula.py"
GRAPHS = "src/forestbd/graphs.py"
STRONG = "src/forestbd/strong.py"
WEAK = "src/forestbd/weak.py"
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
        "opposite_signs (strong_killers and the apex rule) without the -lit in literals test",
        BACKDOORS,
        Replace("lit > 0 and -lit in literals", "lit > 0"),
    ),
    Mutant(
        "strong_killers without its on-cycle part",
        BACKDOORS,
        Replace(
            "return cycle.variable_set.union(opposite_signs(inc, cycle.clause_indices))",
            "return frozenset(opposite_signs(inc, cycle.clause_indices))",
        ),
    ),
    Mutant(
        "deletion_killers returning nothing",
        BACKDOORS,
        Replace("return cycle.variable_set.intersection(pool)", "return frozenset()"),
    ),
    Mutant(
        "cyclic_components' cycle test reached > 1 made reached > 2",
        GRAPHS,
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
    Mutant(
        "apex_cycle_killers reading the arc's first end clause twice",
        STRONG,
        Replace("(arc[0], arc[-1])", "(arc[0], arc[0])"),
    ),
    Mutant(
        "the killer-pair rule's >= pair_threshold made >",
        STRONG,
        Replace(">= pair_threshold:", "> pair_threshold:"),
    ),
    Mutant(
        "the ubiquitous-killer rule's >= many_threshold made >",
        STRONG,
        Replace(">= many_threshold:", "> many_threshold:"),
    ),
    Mutant(
        "the weak rules weighing every killer 1",
        WEAK,
        Replace("w = {v: occurrences[v] for v in ks}", "w = {v: 1 for v in ks}"),
    ),
    Mutant(
        "the canonical cycle walk without its step-back exclusion",
        GRAPHS,
        Replace("if dist.get(u) == layer and u != back:", "if dist.get(u) == layer:"),
    ),
    Mutant(
        "the canonical cycle walk's layer min(step, girth - step) made step",
        GRAPHS,
        Replace("layer = min(step, girth - step)", "layer = step"),
    ),
    Mutant(
        "the canonical cycle's BFS depth girth // 2 made one short",
        GRAPHS,
        Replace("later, girth // 2)", "later, girth // 2 - 1)"),
    ),
    Mutant(
        "the weak rules' w[champion] < params.multi made <=",
        WEAK,
        Replace("if w[champion] < params.multi:", "if w[champion] <= params.multi:"),
    ),
    Mutant(
        "concentrated-killers' len(heavy) <= params.support made <",
        WEAK,
        Replace("if len(heavy) <= params.support:", "if len(heavy) < params.support:"),
    ),
    Mutant(
        "killer-overlap-excess's len(common) >= params.overlap made >",
        WEAK,
        Replace("if len(common) >= params.overlap:", "if len(common) > params.overlap:"),
    ),
    Mutant(
        "the heavy-killer test 2 * k * c >= w[champion] made >",
        WEAK,
        Replace("2 * k * c >= w[champion]", "2 * k * c > w[champion]"),
    ),
    Mutant(
        "WeakParameters.derive's cycles = 2 * k + 1 made 2 * k",
        WEAK,
        Replace("cycles = 2 * k + 1", "cycles = 2 * k"),
    ),
    Mutant(
        "StrongParameters.derive's cycle count + budget + 1 made + budget",
        STRONG,
        Replace("+ budget + 1)", "+ budget)"),
    ),
    Mutant(
        "parse_dimacs's canonical test variable <= last made <",
        FORMULA,
        Replace("if variable <= last:", "if variable < last:"),
    ),
    Mutant(
        "parse_dimacs marking every parsed formula as written",
        FORMULA,
        Replace('put(formula, "as_written", canonical)', 'put(formula, "as_written", True)'),
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
