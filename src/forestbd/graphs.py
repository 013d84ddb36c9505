"""The incidence graph of a CNF formula and the cycle machinery on it.

The signed incidence graph joins each variable to the clauses it occurs
in. Restrictions and deletions are views of it, never rebuilt: `F`
restricted by `tau` has this graph minus tau's variable nodes and the
clause nodes tau satisfies; deletion removes variable nodes alone.
`backdoors.Residual` is the one type that builds these views.
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
from typing import AbstractSet, Hashable, Iterator, Mapping, Sequence, Union

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


def _girth(graph: Graph, allowed: list[Node], floor: int) -> tuple[int, Node] | None:
    """Length of a shortest cycle within `allowed`, given that none is
    shorter than `floor`, and its anchor: the least node on any cycle of
    that length. The first cycle of length `floor` ends the search.

    Each root searches only itself and the nodes not yet used as roots. A
    search that closes a cycle of the final length closes a simple cycle
    through its root, or a shorter cycle would exist; and the search from
    a shortest cycle's least node finds it. So the first root that meets
    the final length is the anchor."""
    best: tuple[int, Node] | None = None
    remaining = set(allowed)
    for root in allowed:
        remaining.discard(root)
        dist: dict[Node, int] = {root: 0}
        parent: dict[Node, Node | None] = {root: None}
        queue = deque([root])
        while queue:
            a = queue.popleft()
            if best is not None and 2 * dist[a] >= best[0]:
                break
            for b in graph.neighbors(a):
                if b not in remaining:
                    continue
                if b not in dist:
                    dist[b] = dist[a] + 1
                    parent[b] = a
                    queue.append(b)
                elif parent[a] != b and parent[b] != a:
                    # Non-tree edge: the union of the two root paths and this
                    # edge contains a cycle no longer than this bound.
                    candidate = dist[a] + dist[b] + 1
                    if best is None or candidate < best[0]:
                        best = (candidate, root)
                        if candidate == floor:
                            return best
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
    The girth pass names the anchor, the least node on any shortest cycle,
    and the canonical cycle is built from that one anchor's ring.
    """
    allowed = [v for v in graph.nodes if v not in forbidden]
    found = _girth(graph, allowed, max(graph.girth_floor, girth_floor))
    if found is None:
        return None
    girth, anchor = found
    # The canonical sequence starts at the anchor, so only later nodes join it.
    later = set(allowed[allowed.index(anchor) + 1 :])
    ring = [u for u in graph.neighbors(anchor) if u in later]
    # Two ring nodes close a girth-length cycle through the anchor only at
    # distance girth - 2, so no BFS needs to look further.
    dist_from = {b: _bfs_distances(graph, b, later, girth - 2) for b in ring}
    # The anchor lies on a shortest cycle, so some second node closes one.
    for second in ring:
        candidates = [
            (anchor,) + _lexmin_shortest_path(graph, second, last, dist_from[last], later)
            for last in ring
            if last != second and dist_from[last].get(second) == girth - 2
        ]
        if candidates:
            break
    return Cycle(min(candidates))


@dataclass(frozen=True)
class CyclePacking:
    """At least the requested number of pairwise vertex-disjoint cycles."""

    cycles: tuple[Cycle, ...]


@dataclass(frozen=True)
class FeedbackSet:
    """A node set whose removal leaves the graph acyclic."""

    nodes: frozenset


PackingOrFeedback = Union[CyclePacking, FeedbackSet]


def disjoint_cycles_or_feedback(
    graph: Graph, count: int, forbidden: frozenset | set = frozenset()
) -> PackingOrFeedback:
    """Greedily pack shortest cycles avoiding `forbidden` until `count` are
    found or the packing is maximal.

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
    used = set(forbidden)
    packed: list[Cycle] = []
    while True:
        floor = len(packed[-1]) if packed else 0
        cycle = shortest_cycle(graph, forbidden=used, girth_floor=floor)
        if cycle is None:
            return FeedbackSet(frozenset(used.difference(forbidden)))
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

    def residual_acyclic(self, removed: AbstractSet[Node]) -> bool:
        """Whether the view of this graph minus `removed` is acyclic."""
        return is_acyclic(self.graph, forbidden=removed)


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
