"""Answers computed without the program under test.

Formulas here are plain lists of signed-int clauses. Every check rebuilds
restrictions from scratch and tests acyclicity with a union-find over the
incidence graph, so none of it shares code with `forestbd`.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Clauses = list  # list[list[int]]


def canonical_dimacs(num_vars: int, clauses: Sequence[Sequence[int]]) -> str:
    """DIMACS text with each clause's literals in ascending variable order,
    the layout the program's digest is defined on."""
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    for clause in clauses:
        ints = sorted(clause, key=abs)
        lines.append(" ".join(map(str, ints)) + (" 0" if ints else "0"))
    return "\n".join(lines) + "\n"


def read_dimacs(text: str) -> tuple[int, Clauses]:
    num_vars = 0
    tokens: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            num_vars = int(line.split()[2])
            continue
        tokens.extend(int(t) for t in line.split())
    clauses: Clauses = []
    current: list[int] = []
    for value in tokens:
        if value == 0:
            clauses.append(current)
            current = []
        else:
            current.append(value)
    return num_vars, clauses


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def restrict(clauses: Clauses, assignment: dict[int, bool]) -> Clauses:
    out: Clauses = []
    for clause in clauses:
        if any(abs(l) in assignment and assignment[abs(l)] == (l > 0) for l in clause):
            continue
        out.append([l for l in clause if abs(l) not in assignment])
    return out


def delete(clauses: Clauses, variables: Iterable[int]) -> Clauses:
    gone = set(variables)
    return [[l for l in clause if abs(l) not in gone] for clause in clauses]


def is_acyclic(clauses: Clauses) -> bool:
    """Union-find over variable and clause nodes: an edge joining two nodes
    already connected closes a cycle."""
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent.get(x, x)
        return root

    for index, clause in enumerate(clauses):
        node = -1 - index  # variables are positive, clauses negative
        for lit in clause:
            a, b = find(abs(lit)), find(node)
            if a == b:
                return False
            parent[a] = b
    return True


def satisfiable(clauses: Clauses) -> bool:
    """Plain DPLL with unit propagation."""
    if any(not c for c in clauses):
        return False
    if not clauses:
        return True
    units = [c[0] for c in clauses if len(c) == 1]
    lit = units[0] if units else min(clauses, key=len)[0]
    for choice in ((lit,) if units else (lit, -lit)):
        if satisfiable(restrict(clauses, {abs(choice): choice > 0})):
            return True
    return False


def assignments(variables: Iterable[int]):
    """All assignments in the program's order: ascending variables, False first."""
    ordered = sorted(variables)
    for bits in itertools.product((False, True), repeat=len(ordered)):
        yield dict(zip(ordered, bits))


def is_strong(clauses: Clauses, variables: Iterable[int]) -> bool:
    return all(is_acyclic(restrict(clauses, tau)) for tau in assignments(variables))


def is_deletion(clauses: Clauses, variables: Iterable[int]) -> bool:
    return is_acyclic(delete(clauses, variables))


def weak_witness_ok(clauses: Clauses, witness: dict[int, bool]) -> bool:
    residual = restrict(clauses, witness)
    return is_acyclic(residual) and satisfiable(residual)


def core_variables(clauses: Clauses, with_neighbours: bool = True) -> set[int]:
    """Variables of the incidence graph's 2-core, plus (by default) every
    variable sharing a clause with it. Only core variables lie on cycles,
    and only these neighbours can satisfy a clause on one, so assigning or
    deleting any other variable removes no cycle; a satisfying extension of
    a weak witness also covers the other variables. Backdoor searches may
    therefore skip them."""
    adj: dict = {}
    for index, clause in enumerate(clauses):
        for lit in clause:
            adj.setdefault(abs(lit), set()).add(-1 - index)
            adj.setdefault(-1 - index, set()).add(abs(lit))
    degree = {n: len(s) for n, s in adj.items()}
    stack = [n for n, d in degree.items() if d <= 1]
    removed = set()
    while stack:
        n = stack.pop()
        if n in removed:
            continue
        removed.add(n)
        for m in adj[n]:
            if m not in removed:
                degree[m] -= 1
                if degree[m] <= 1:
                    stack.append(m)
    core = set(adj) - removed
    found = {n for n in core if n > 0}
    if with_neighbours:
        for n in core:
            if n < 0:
                found.update(abs(l) for l in clauses[-1 - n])
    return found


def min_backdoor(clauses: Clauses, kind: str, k_max: int, work_cap: int) -> Optional[int]:
    """Smallest backdoor size up to k_max, or k_max + 1 when none is that
    small; None when the search would exceed `work_cap` restrictions."""
    pool = sorted(core_variables(clauses, with_neighbours=kind != "deletion"))
    work = sum(
        math.comb(len(pool), size) * (1 if kind == "deletion" else 2**size)
        for size in range(k_max + 1)
    )
    if work > work_cap:
        return None
    for size in range(k_max + 1):
        for combo in itertools.combinations(pool, size):
            if kind == "deletion":
                ok = is_deletion(clauses, combo)
            elif kind == "strong":
                ok = is_strong(clauses, combo)
            else:
                ok = any(weak_witness_ok(clauses, tau) for tau in assignments(combo))
            if ok:
                return size
    return k_max + 1


def greedy_deletion_set(clauses: Clauses) -> list[int]:
    """A deletion backdoor (hence a strong one) by repeatedly taking the
    most frequent variable of the remaining 2-core."""
    chosen: list[int] = []
    while not is_deletion(clauses, chosen):
        residual = delete(clauses, chosen)
        core = core_variables(residual, with_neighbours=False)
        freq = {v: sum(1 for c in residual for l in c if abs(l) == v) for v in core}
        chosen.append(max(sorted(freq), key=lambda v: freq[v]))
    return sorted(chosen)


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def grid_count(size: int) -> int:
    """Models of the package's grid formula. Either value of the extra
    variable satisfies one direction of edge clauses and leaves `size`
    disjoint paths of two-literal positive clauses; a path of n cells has
    F(n+2) models."""
    return 2 * fibonacci(size + 2) ** size


def min_hitting_set(family: Sequence[Sequence[int]]) -> int:
    elements = sorted({e for group in family for e in group})
    for size in range(len(elements) + 1):
        for combo in itertools.combinations(elements, size):
            chosen = set(combo)
            if all(chosen & set(group) for group in family):
                return size
    raise ValueError("empty set in family")


def triangles(count: int) -> tuple[int, Clauses]:
    """`count` variable-disjoint triangles (a|b)(b|c)(-a|-c), each a
    six-node cycle, so every backdoor kind needs one variable per triangle."""
    clauses: Clauses = []
    for a in range(1, 3 * count + 1, 3):
        clauses += [[a, a + 1], [a + 1, a + 2], [-a, -(a + 2)]]
    return 3 * count, clauses


@dataclass
class Forest:
    """A seeded acyclic formula grown clause by clause: each clause joins at
    most one existing variable (its anchor) to fresh ones, so the incidence
    graph stays a forest. A planted assignment satisfies every clause."""

    num_vars: int
    clauses: Clauses
    anchors: list[int]

    def count(self, fixed: Optional[dict[int, bool]] = None) -> int:
        """Exact model count over the universe with `fixed` variables pinned,
        folding the construction tree from the newest variable back."""
        fixed = fixed or {}
        children: dict[int, list[int]] = {}
        for index, anchor in enumerate(self.anchors):
            children.setdefault(anchor, []).append(index)
        ways: dict[int, tuple[int, int]] = {}

        def clause_ways(index: int, anchor_sat: bool) -> int:
            fresh = [l for l in self.clauses[index] if abs(l) != self.anchors[index]]
            total = 1
            falsify = 1
            for lit in fresh:
                w0, w1 = ways[abs(lit)]
                total *= w0 + w1
                falsify *= w0 if lit > 0 else w1
            return total if anchor_sat else total - falsify

        for v in range(self.num_vars, 0, -1):
            pair = []
            for value in (False, True):
                if v in fixed and fixed[v] != value:
                    pair.append(0)
                    continue
                product = 1
                for index in children.get(v, ()):
                    sign = next(l > 0 for l in self.clauses[index] if abs(l) == v)
                    product *= clause_ways(index, sign == value)
                pair.append(product)
            ways[v] = (pair[0], pair[1])
        result = 1
        for index in children.get(0, ()):
            result *= clause_ways(index, False)
        return result


def forest(num_clauses: int, rng: random.Random) -> Forest:
    """Widths alternate between 2 and 3 and every variable anchors at most
    two clauses, so the universe size and the degree profile, which set the
    cost of every command on the forest, do not depend on the seed; the
    tree's shape and the polarities do."""
    planted: dict[int, bool] = {}
    clauses: Clauses = []
    anchors: list[int] = []
    open_slots: list[int] = []  # variables that may anchor another clause
    uses: dict[int, int] = {}
    num_vars = 0
    for index in range(num_clauses):
        width = 2 + index % 2
        anchor = 0
        if index:
            slot = rng.randrange(len(open_slots))
            anchor = open_slots[slot]
            uses[anchor] = uses.get(anchor, 0) + 1
            if uses[anchor] == 2:
                open_slots[slot] = open_slots[-1]
                open_slots.pop()
        fresh = list(range(num_vars + 1, num_vars + width + (0 if anchor else 1)))
        variables = ([anchor] if anchor else []) + fresh
        num_vars = max(variables)
        open_slots += fresh
        for v in fresh:
            planted[v] = rng.random() < 0.5
        clause = [v if rng.random() < 0.5 else -v for v in variables]
        if not any(planted[abs(l)] == (l > 0) for l in clause):
            pick = rng.randrange(len(clause))
            clause[pick] = -clause[pick]
        clauses.append(clause)
        anchors.append(anchor)
    return Forest(num_vars, clauses, anchors)
