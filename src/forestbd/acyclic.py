"""Polynomial SAT and exact model counting for acyclic formulas.

The incidence forest is rooted at variable nodes and folded bottom-up.
Each variable node carries one count per truth value; each clause node
carries two counts, one for a parent occurrence that already satisfies
the clause and one for a parent that does not (the latter subtracts the
single child combination that leaves the clause falsified). Counts are
Python ints, so they never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ContractError, CyclicInputError
from .formula import Assignment, Formula
from .graphs import VAR, incidence_graph


@dataclass(frozen=True)
class ModelCount:
    """An exact model count over an explicit universe."""

    count: int
    universe_size: int

    def __post_init__(self) -> None:
        if self.count < 0 or self.count > 2**self.universe_size:
            raise ContractError(
                f"count {self.count} out of range for universe size {self.universe_size}"
            )


class _TreeTables:
    """DP tables for one incidence forest, folded in the traversal that
    orients it; a cycle raises CyclicInputError."""

    def __init__(self, formula: Formula) -> None:
        self.inc = incidence_graph(formula)
        graph = self.inc.graph
        # Per variable node: (ways with value False, ways with value True).
        self.var_ways: dict[tuple, tuple[int, int]] = {}
        # Per clause node: (ways when the parent satisfies it, ways when not).
        self.clause_ways: dict[tuple, tuple[int, int]] = {}
        self.children: dict[tuple, list[tuple]] = {}
        self.roots: list[tuple] = []
        seen: set[tuple] = set()
        for root in graph.sorted_nodes():
            if root in seen or root[0] != VAR:
                continue
            self.roots.append(root)
            seen.add(root)
            order: list[tuple] = []
            stack: list[tuple[tuple, tuple | None]] = [(root, None)]
            while stack:
                node, parent = stack.pop()
                order.append(node)
                children = self.children[node] = []
                for nb in sorted(graph.neighbors(node)):
                    if nb == parent:
                        continue
                    if nb in seen:
                        raise CyclicInputError("incidence graph is not a forest")
                    seen.add(nb)
                    children.append(nb)
                    stack.append((nb, node))
            # Every node comes after its parent in `order`.
            for node in reversed(order):
                if node[0] == VAR:
                    self.var_ways[node] = (
                        self._var_value_ways(node, False),
                        self._var_value_ways(node, True),
                    )
                else:
                    self.clause_ways[node] = self._clause_parent_ways(node)
        self.dead = formula.has_empty_clause()

    def _var_value_ways(self, node: tuple, value: bool) -> int:
        ways = 1
        variable = node[1]
        for child in self.children[node]:
            sat, unsat = self.clause_ways[child]
            ways *= sat if self.inc.sign(variable, child[1]) == value else unsat
        return ways

    def _clause_parent_ways(self, node: tuple) -> tuple[int, int]:
        index = node[1]
        total = 1
        falsifying = 1
        for child in self.children[node]:
            w0, w1 = self.var_ways[child]
            total *= w0 + w1
            sign = self.inc.sign(child[1], index)
            falsifying *= w0 if sign else w1
        return total, total - falsifying


def count_models(formula: Formula, universe: Iterable[int]) -> ModelCount:
    """Exact number of assignments of `universe` satisfying the formula.

    Universe variables without occurrences contribute a factor of two
    each; an empty clause forces zero; the empty formula counts every
    assignment. The universe must cover every occurring variable.
    """
    target = frozenset(universe)
    if not formula.variables <= target:
        missing = sorted(formula.variables - target)
        raise ContractError(f"universe is missing occurring variables: {missing}")
    tables = _TreeTables(formula)
    size = len(target)
    if tables.dead:
        return ModelCount(0, size)
    count = 1
    for root in tables.roots:
        # Trees with edges hold all occurring variables and all clauses;
        # isolated variable nodes are priced by the free factor instead.
        if tables.children[root]:
            count *= sum(tables.var_ways[root])
    count *= 2 ** (size - len(formula.variables))
    return ModelCount(count, size)


def satisfying_assignment(formula: Formula) -> Assignment | None:
    """A total satisfying assignment over the formula's universe, or None.

    Free variables default to False. Raises CyclicInputError when the
    incidence graph has a cycle.
    """
    tables = _TreeTables(formula)
    if tables.dead:
        return None
    for root in tables.roots:
        if sum(tables.var_ways[root]) == 0:
            return None
    assignment: Assignment = {}
    for root in tables.roots:
        w0, _ = tables.var_ways[root]
        _descend_var(tables, assignment, root, w0 == 0)
    for v in formula.universe:
        assignment.setdefault(v, False)
    return assignment


def _descend_var(
    tables: _TreeTables, assignment: Assignment, node: tuple, value: bool
) -> None:
    stack: list[tuple[tuple, bool]] = [(node, value)]
    while stack:
        var_n, val = stack.pop()
        assignment[var_n[1]] = val
        for clause_child in tables.children[var_n]:
            parent_sat = tables.inc.sign(var_n[1], clause_child[1]) == val
            stack.extend(_pick_clause_children(tables, clause_child, parent_sat))


def _pick_clause_children(
    tables: _TreeTables, clause_n: tuple, parent_sat: bool
) -> list[tuple[tuple, bool]]:
    """Every child takes False unless only True is viable. When the parent
    leaves the clause unsatisfied and no child's default satisfies it, the
    last child able to satisfy it takes its satisfying value."""
    children = tables.children[clause_n]
    picks = [(child, tables.var_ways[child][0] == 0) for child in children]
    if parent_sat:
        return picks
    sat_values = [tables.inc.sign(child[1], clause_n[1]) for child in children]
    if any(value == sat for (_, value), sat in zip(picks, sat_values)):
        return picks
    for i in reversed(range(len(children))):
        if tables.var_ways[children[i]][sat_values[i]]:
            picks[i] = (children[i], sat_values[i])
            break
    return picks
