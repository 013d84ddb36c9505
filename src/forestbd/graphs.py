"""The incidence graph of a CNF formula and the cycle machinery on it.

The signed incidence graph joins each variable to the clauses it occurs
in. Restrictions and deletions are views of it, never rebuilt: `F`
restricted by `tau` has this graph minus tau's variable nodes and the
clause nodes tau satisfies; deletion removes variable nodes alone.
`restrict` keeps the surviving clauses in order and clause nodes sort
first, so a view's canonical cycles are the rebuilt graph's.

Cycle queries are canonical so that every downstream verdict is
reproducible: `shortest_cycle` returns, among all minimum-length cycles,
the one whose node sequence (started at its smallest node, oriented so
the successor chain is smallest) is lexicographically least.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterator, Mapping, Sequence, Union

from .errors import ContractError
from .formula import Formula

Node = Hashable

VAR = "var"
CLAUSE = "clause"


def var_node(variable: int) -> tuple:
    return (VAR, variable)


def clause_node(index: int) -> tuple:
    return (CLAUSE, index)


class Graph:
    """Read-only undirected graph over totally ordered, hashable node ids.

    `nodes` and every neighbour list are sorted tuples, decided once at
    construction, so queries that walk them in order are deterministic
    without sorting again. `girth_floor` is a length no cycle of the graph
    undercuts: 3 for any simple graph, 4 for a bipartite one.
    """

    def __init__(self, adjacency: dict[Node, list[Node]], girth_floor: int = 3) -> None:
        """Take over `adjacency`, a symmetric mapping from every node to its
        neighbours, replacing each list in place by its sorted tuple."""
        for v, around in adjacency.items():
            around.sort()
            adjacency[v] = tuple(around)
        self._adj: dict[Node, tuple] = adjacency
        self.nodes = tuple(sorted(adjacency))
        self.girth_floor = girth_floor

    def __contains__(self, v: Node) -> bool:
        return v in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        return v in self._adj.get(u, ())

    def neighbors(self, v: Node) -> tuple:
        return self._adj[v]


@dataclass(frozen=True)
class Cycle:
    """A simple cycle, stored as its canonical node sequence without the
    closing repetition."""

    nodes: tuple

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def node_set(self) -> frozenset:
        return frozenset(self.nodes)

    @cached_property
    def variables(self) -> tuple[int, ...]:
        return tuple(n[1] for n in self.nodes if n[0] == VAR)

    @cached_property
    def clause_indices(self) -> tuple[int, ...]:
        return tuple(n[1] for n in self.nodes if n[0] == CLAUSE)

    def to_json(self) -> list[dict]:
        return [{"kind": n[0], "id": n[1]} for n in self.nodes]


def canonical_cycle(nodes: Sequence[Node]) -> Cycle:
    """Normalize a cyclic node sequence: rotate its smallest node to the
    front, then keep the lexicographically smaller of the two directions."""
    seq = tuple(nodes)
    if len(seq) < 3 or len(set(seq)) != len(seq):
        raise ContractError(f"not a simple cycle: {seq!r}")
    pivot = seq.index(min(seq))
    forward = seq[pivot:] + seq[:pivot]
    backward = (forward[0],) + tuple(reversed(forward[1:]))
    return Cycle(min(forward, backward))


def is_acyclic(graph: Graph, forbidden: frozenset | set = frozenset()) -> bool:
    """A graph is acyclic iff every component is a tree: edges = nodes - components."""
    allowed = [v for v in graph.nodes if v not in forbidden]
    allowed_set = set(allowed)
    seen: set[Node] = set()
    components = 0
    edges = 0
    for start in allowed:
        if start in seen:
            continue
        components += 1
        queue = deque([start])
        seen.add(start)
        while queue:
            v = queue.popleft()
            for u in graph.neighbors(v):
                if u not in allowed_set:
                    continue
                edges += 1
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    return edges // 2 == len(allowed) - components


def _bfs_distances(
    graph: Graph, source: Node, allowed: set[Node], depth: int
) -> dict[Node, int]:
    """Distances from `source` within `allowed`, up to `depth`."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if dist[v] == depth:
            break
        for u in graph.neighbors(v):
            if u in allowed and u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def _girth(graph: Graph, allowed: list[Node], allowed_set: set[Node], floor: int) -> int | None:
    """Length of a shortest cycle within `allowed`, given that none is
    shorter than `floor`: the first cycle of that length ends the search.

    Each root searches only the nodes not yet used as roots: a shortest
    cycle is still found from its smallest node."""
    best: int | None = None
    allowed_set = set(allowed_set)
    for root in allowed:
        allowed_set.discard(root)
        dist: dict[Node, int] = {root: 0}
        parent: dict[Node, Node | None] = {root: None}
        queue = deque([root])
        while queue:
            a = queue.popleft()
            if best is not None and 2 * dist[a] >= best:
                break
            for b in graph.neighbors(a):
                if b not in allowed_set:
                    continue
                if b not in dist:
                    dist[b] = dist[a] + 1
                    parent[b] = a
                    queue.append(b)
                elif parent[a] != b and parent[b] != a:
                    # Non-tree edge: the union of the two root paths and this
                    # edge contains a cycle no longer than this bound.
                    candidate = dist[a] + dist[b] + 1
                    if best is None or candidate < best:
                        if candidate == floor:
                            return floor
                        best = candidate
    return best


def _lexmin_shortest_path(
    graph: Graph, start: Node, goal: Node, dist_to_goal: Mapping[Node, int], allowed: set[Node]
) -> tuple:
    path = [start]
    current = start
    while current != goal:
        # Neighbours are sorted, so the first match is the least.
        current = next(
            u
            for u in graph.neighbors(current)
            if u in allowed and dist_to_goal.get(u) == dist_to_goal[current] - 1
        )
        path.append(current)
    return tuple(path)


def shortest_cycle(
    graph: Graph, forbidden: frozenset | set = frozenset(), girth_floor: int = 0
) -> Cycle | None:
    """Canonically smallest among the shortest cycles avoiding `forbidden`.

    Shortest means fewest nodes; ties break toward the lexicographically
    smallest canonical node sequence. `girth_floor` may raise the graph's
    own `girth_floor` when the caller knows that no cycle avoiding
    `forbidden` is shorter; the search stops at the first cycle that long.
    """
    allowed = [v for v in graph.nodes if v not in forbidden]
    allowed_set = set(allowed)
    girth = _girth(graph, allowed, allowed_set, max(graph.girth_floor, girth_floor))
    if girth is None:
        return None
    for anchor in allowed:
        # The canonical sequence starts at the cycle's minimum node, so only
        # nodes after the anchor may join it: drop each anchor once passed.
        allowed_set.discard(anchor)
        ring = [u for u in graph.neighbors(anchor) if u in allowed_set]
        if len(ring) < 2:
            continue
        # Two ring nodes close a girth-length cycle through the anchor only
        # at distance girth - 2, so no BFS needs to look further.
        dist_from: dict[Node, dict[Node, int]] = {
            b: _bfs_distances(graph, b, allowed_set, girth - 2) for b in ring
        }
        for second in ring:
            candidates = []
            for last in ring:
                if last == second:
                    continue
                goal_dist = dist_from[last]
                if goal_dist.get(second) == girth - 2:
                    interior = _lexmin_shortest_path(
                        graph, second, last, goal_dist, allowed_set
                    )
                    candidates.append((anchor,) + interior)
            if candidates:
                return Cycle(min(candidates))
    return None


@dataclass(frozen=True)
class CyclePacking:
    """At least the requested number of pairwise vertex-disjoint cycles."""

    cycles: tuple[Cycle, ...]


@dataclass(frozen=True)
class FeedbackSet:
    """A node set whose removal leaves the graph acyclic."""

    nodes: frozenset


PackingOrFeedback = Union[CyclePacking, FeedbackSet]


def disjoint_cycles_or_feedback(graph: Graph, count: int) -> PackingOrFeedback:
    """Greedily pack shortest cycles until `count` are found or the packing
    is maximal.

    A maximal packing's vertex union is a feedback vertex set: any cycle
    avoiding it would extend the packing. No size bound is promised for
    the feedback set, only validity.

    Each packed cycle is a shortest one of the graph minus the cycles
    packed before it, and removing nodes never shortens the girth, so the
    packed lengths never decrease: the last one is a floor for the next
    search, which stops at the first cycle that long.
    """
    if count < 1:
        raise ContractError(f"requested cycle count must be >= 1, got {count}")
    used: set[Node] = set()
    packed: list[Cycle] = []
    while True:
        floor = len(packed[-1]) if packed else 0
        cycle = shortest_cycle(graph, forbidden=used, girth_floor=floor)
        if cycle is None:
            return FeedbackSet(frozenset(used))
        packed.append(cycle)
        used |= cycle.node_set
        if len(packed) == count:
            return CyclePacking(tuple(packed))


class IncidenceGraph:
    """Bipartite variable/clause graph with signed edges.

    Contains a node for every universe variable (occurring or not) and for
    every clause, including empty ones.
    """

    def __init__(self, graph: Graph, signs: dict[tuple[int, int], bool]) -> None:
        self.graph = graph
        self._signs = signs

    def sign(self, variable: int, clause_index: int) -> bool | None:
        """True for a positive occurrence, False for negative, None if the
        variable is not in the clause."""
        return self._signs.get((variable, clause_index))

    def variables_adjacent_to(self, clause_index: int) -> Iterator[int]:
        for n in self.graph.neighbors(clause_node(clause_index)):
            yield n[1]

    def removed(self, assignment: Mapping[int, bool]) -> set[Node]:
        """The nodes of `assignment`'s variables and of the clauses it satisfies."""
        extra = sorted(v for v in assignment if var_node(v) not in self.graph)
        if extra:
            raise ContractError(f"assignment mentions variables outside universe: {extra}")
        removed: set[Node] = set()
        for variable, value in assignment.items():
            node = var_node(variable)
            removed.add(node)
            for clause in self.graph.neighbors(node):
                if self._signs[(variable, clause[1])] == value:
                    removed.add(clause)
        return removed

    def residual_acyclic(self, assignment: Mapping[int, bool]) -> bool:
        """Whether the formula restricted by `assignment` is acyclic."""
        return is_acyclic(self.graph, forbidden=self.removed(assignment))


def incidence_graph(formula: Formula) -> IncidenceGraph:
    adjacency: dict[Node, list[Node]] = {var_node(v): [] for v in formula.universe}
    signs: dict[tuple[int, int], bool] = {}
    for idx, clause in enumerate(formula.clauses):
        node = clause_node(idx)
        around = adjacency[node] = []
        for lit in clause.literals:
            v = abs(lit)
            variable = var_node(v)
            around.append(variable)
            adjacency[variable].append(node)
            signs[(v, idx)] = lit > 0
    # Every edge joins a variable and a clause, so no cycle is shorter than 4.
    return IncidenceGraph(Graph(adjacency, girth_floor=4), signs)


# Kept because the benchmark's tracer finds the restriction test
# (`residual_acyclic`) and the function building its graph by these names.
ClauseLiteralGraph = IncidenceGraph


def clause_literal_graph(formula: Formula) -> IncidenceGraph:
    return incidence_graph(formula)


def restriction_is_acyclic(formula: Formula, assignment: Mapping[int, bool]) -> bool:
    """Whether the formula restricted by `assignment` is acyclic, decided on
    its incidence graph without rebuilding the restriction."""
    return incidence_graph(formula).residual_acyclic(assignment)
