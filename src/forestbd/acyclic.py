"""Polynomial SAT and exact model counting for acyclic formulas.

The incidence forest is rooted at variable nodes and folded bottom-up.
Each variable node carries one count per truth value; each clause node
carries two counts, one for a parent occurrence that already satisfies
the clause and one for a parent that does not (the latter subtracts the
single child combination that leaves the clause falsified). Counts are
Python ints, so they never overflow. The forest may be a view: a
formula's incidence graph minus the nodes a restriction removes. The one
traversal folds the trees and lists the cyclic components, which
`split_count` hands to the component walk that counts through a strong
backdoor (`backdoors.Conditioning.product`) and the entry points here
refuse. On one component of a view, the traversal reads the live clauses
and the variables it prices from the component's node list itself.
"""

from __future__ import annotations

from operator import attrgetter
from typing import AbstractSet, Iterable, Optional

from .errors import ContractError, CyclicInputError
from .formula import Assignment, Formula, _Frozen
from .graphs import IncidenceGraph, Node, incidence_graph, unmarked

# A split view: a factor for the view's trees, and the node lists of its
# cyclic components, which the factor leaves out.
Split = tuple[int, list[list[Node]]]


class ModelCount(_Frozen):
    """An exact model count over an explicit universe; counts compare and
    hash by both fields."""

    count: int
    universe_size: int
    _compared = attrgetter("count", "universe_size")

    def __init__(self, count: int, universe_size: int) -> None:
        if count < 0 or count > 2**universe_size:
            raise ContractError(
                f"count {count} out of range for universe size {universe_size}"
            )
        fields = self.__dict__
        fields["count"] = count
        fields["universe_size"] = universe_size

    def __repr__(self) -> str:
        return f"ModelCount({self.count!r}, {self.universe_size!r})"


class _TreeTables:
    """DP tables for the incidence forest `inc` minus the nodes `state`
    marks 1, folded in the traversal that orients it. The traversal marks
    the nodes it reaches 2, so the caller passes a mask it gives up.

    A component with a cycle is traversed to its end and listed in
    `cyclic` as its node list, instead of being folded. The roots are the
    unmarked variable nodes, or those in `scope` if it is given: the node
    list of a component of a view that has since lost nodes. The tables
    then read the live clauses and the variables they price (`free`) off
    the scope alone.

    Every table is a list indexed by node. The traversal reads each edge's
    sign off the clause's literal tuple, which lists the clause's variables
    in the order of its neighbours."""

    def __init__(
        self,
        inc: IncidenceGraph,
        state: bytearray,
        scope: Optional[Iterable[Node]] = None,
    ) -> None:
        graph = inc.graph
        adjacency, literals, m = graph.adjacency, inc.literals, graph.clauses
        size = len(adjacency)
        self.clauses = m
        self.adjacency = adjacency
        # 0 unreached, 1 removed, 2 reached
        if scope is None:
            clauses = state.count(0, 0, m)
            roots = unmarked(state, m)
        else:
            # A scope's live clauses are counted as its roots are read.
            clauses, roots = 0, scope
        self.parent = parent = [-1] * size
        # The sign of the literal on the edge to the parent: a variable's in
        # its parent clause, or a clause's parent variable's in the clause.
        self.positive = positive = bytearray(size)
        # Per variable node: ways with value False, ways with value True.
        self.false_ways = false_ways = [1] * size
        self.true_ways = true_ways = [1] * size
        # Per clause node: ways of its children, and ways that falsify all
        # of their literals in it.
        all_ways = [1] * size
        falsifying = [1] * size
        self.roots: list[Node] = []
        self.cyclic: list[list[Node]] = []
        # Nodes of the trees with a clause, each after its parent.
        order: list[Node] = []
        # Clause nodes reached, and nodes in the cyclic components.
        reached = apart = free = 0
        for root in roots:
            if root < m:
                clauses += state[root] != 1
                continue
            if state[root]:
                continue
            state[root] = 2
            first = len(order)
            closed = False
            stack = [root]
            while stack:
                node = stack.pop()
                order.append(node)
                up = parent[node]
                if node < m:
                    reached += 1
                    for child, literal in zip(adjacency[node], literals[node]):
                        mark = state[child]
                        if not mark:
                            state[child] = 2
                            parent[child] = node
                            positive[child] = literal > 0
                            stack.append(child)
                        elif mark == 2:
                            if child == up:
                                positive[node] = literal > 0
                            else:
                                closed = True
                else:
                    for child in adjacency[node]:
                        mark = state[child]
                        if not mark:
                            state[child] = 2
                            parent[child] = node
                            stack.append(child)
                        elif mark == 2 and child != up:
                            closed = True
            if closed:
                nodes = order[first:]
                del order[first:]
                apart += len(nodes)
                self.cyclic.append(nodes)
            elif len(order) - first == 1:
                # A variable without clauses is priced by the free factor.
                order.pop()
                free += 1
            else:
                self.roots.append(root)
        # The variable nodes of the trees and the cyclic components.
        self.variables = len(order) + apart - reached
        # A scope is its own universe: its variables in no component with a
        # clause are free.
        self.free = None if scope is None else free
        # A live clause no traversal reached has lost every variable.
        self.dead = reached < clauses
        # Every node comes after its parent in `order`.
        for node in reversed(order):
            up = parent[node]
            if node >= m:
                if up < 0:
                    continue
                low, high = false_ways[node], true_ways[node]
                all_ways[up] *= low + high
                falsifying[up] *= low if positive[node] else high
            else:
                total = all_ways[node]
                unsatisfied = total - falsifying[node]
                if positive[node]:
                    true_ways[up] *= total
                    false_ways[up] *= unsatisfied
                else:
                    false_ways[up] *= total
                    true_ways[up] *= unsatisfied

    def children(self, node: Node) -> list[Node]:
        """The node's children, in the order of its neighbours."""
        parent = self.parent
        return [child for child in self.adjacency[node] if parent[child] == node]

    def satisfiable(self) -> bool:
        """Whether the trees are satisfiable."""
        return not self.dead and all(
            self.false_ways[root] + self.true_ways[root] for root in self.roots
        )

    def count(self, universe_size: int) -> int:
        """Models of the trees over `universe_size` variables, or over the
        scope's own if the tables have a scope, less those of the cyclic
        components, which the caller counts."""
        if self.dead:
            return 0
        # The variables in no component with a clause are free.
        count = 2 ** (universe_size - self.variables if self.free is None else self.free)
        for root in self.roots:
            count *= self.false_ways[root] + self.true_ways[root]
        return count


def split_count(
    inc: IncidenceGraph,
    mask: bytearray,
    variables: int,
    scope: Optional[Iterable[Node]] = None,
) -> Split:
    """Models of the trees of `inc` minus the nodes `mask` marks over
    `variables` variables, less the variables of its cyclic components,
    and the node lists of those components, from one traversal; with a
    `scope`, of that component of the view alone, over its own variables
    (see `_TreeTables`). `mask` is read, not changed, and the tables are
    not kept, so a caller that recurses holds none of them."""
    tables = _TreeTables(inc, bytearray(mask), scope)
    return tables.count(variables), tables.cyclic


def _forest_tables(inc: IncidenceGraph, removed: AbstractSet[Node] = frozenset()) -> _TreeTables:
    """The DP tables of `inc` minus `removed`, which must be a forest."""
    tables = _TreeTables(inc, inc.graph.mask(removed))
    if tables.cyclic:
        raise CyclicInputError("incidence graph is not a forest")
    return tables


def residual_satisfiable(inc: IncidenceGraph, removed: AbstractSet[Node]) -> bool:
    """Whether the residual formula `inc` minus `removed`, a forest, is satisfiable."""
    return _forest_tables(inc, removed).satisfiable()


def count_models(formula: Formula, universe: Iterable[int]) -> ModelCount:
    """Exact number of assignments of `universe` satisfying the formula.

    Universe variables without occurrences contribute a factor of two
    each; an empty clause forces zero; the empty formula counts every
    assignment. The universe must cover every occurring variable.
    """
    target = frozenset(universe)
    if not formula.occurs_within(target):
        missing = sorted(formula.variables - target)
        raise ContractError(f"universe is missing occurring variables: {missing}")
    size = len(target)
    return ModelCount(_forest_tables(incidence_graph(formula)).count(size), size)


def satisfying_assignment(formula: Formula) -> Assignment | None:
    """A total satisfying assignment over the formula's universe, or None.

    Free variables default to False. Raises CyclicInputError when the
    incidence graph has a cycle.
    """
    tables = _forest_tables(incidence_graph(formula))
    if not tables.satisfiable():
        return None
    assignment: Assignment = {}
    for root in tables.roots:
        _descend_var(tables, assignment, root, tables.false_ways[root] == 0)
    for v in formula.universe:
        assignment.setdefault(v, False)
    return assignment


def _descend_var(tables: _TreeTables, assignment: Assignment, node: Node, value: bool) -> None:
    offset = tables.clauses - 1
    stack: list[tuple[Node, bool]] = [(node, value)]
    while stack:
        var_n, val = stack.pop()
        assignment[var_n - offset] = val
        for clause_child in tables.children(var_n):
            parent_sat = bool(tables.positive[clause_child]) == val
            stack.extend(_pick_clause_children(tables, clause_child, parent_sat))


def _pick_clause_children(
    tables: _TreeTables, clause_n: Node, parent_sat: bool
) -> list[tuple[Node, bool]]:
    """Every child takes False unless only True is viable. When the parent
    leaves the clause unsatisfied and no child's default satisfies it, the
    last child able to satisfy it takes its satisfying value."""
    children = tables.children(clause_n)
    picks = [(child, tables.false_ways[child] == 0) for child in children]
    if parent_sat:
        return picks
    sat_values = [bool(tables.positive[child]) for child in children]
    if any(value == sat for (_, value), sat in zip(picks, sat_values)):
        return picks
    for i in reversed(range(len(children))):
        ways = tables.true_ways if sat_values[i] else tables.false_ways
        if ways[children[i]]:
            picks[i] = (children[i], sat_values[i])
            break
    return picks
