"""The incidence graph of a CNF formula and the cycle machinery on it.

The signed incidence graph joins each variable to the clauses it occurs
in. Restrictions and deletions are views of it, never rebuilt: `F`
restricted by `tau` has this graph minus tau's variable nodes and the
clause nodes tau satisfies; deletion removes variable nodes alone.
`backdoors.Residual` is the one type that builds these views.
`restrict` keeps the surviving clauses in order and clause nodes sort
first, so a view's canonical cycles are the rebuilt graph's.

One BFS pass, `cyclic_components`, answers both questions asked of a
view: whether it holds a cycle (at `limit=0`), and which components hold
one, each needing a backdoor variable of its own.

Cycle queries are canonical so that every downstream verdict is
reproducible: `shortest_cycle` returns, among all minimum-length cycles,
the one whose node sequence (started at its smallest node, oriented so
the successor chain is smallest) is lexicographically least.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress
from operator import attrgetter
from typing import AbstractSet, Iterable, Iterator, Mapping, NamedTuple, Union

from .errors import ContractError, ResourceLimitError
from .formula import MAX_DIMACS_VARIABLES, Formula, _Frozen

# A node is a dense int id. On an incidence graph the clause nodes come
# first: clause i is node i and variable v is node m + v - 1, where m is the
# clause count, so nodes order as clauses by index, then variables by id.
Node = int


class Graph:
    """Read-only undirected simple graph on the nodes 0 .. len(adjacency) - 1.

    `adjacency[v]` is the sorted tuple of v's neighbours, so queries that
    walk it in order are deterministic without sorting. `girth_floor` is a
    length no cycle of the graph undercuts: 3 for any simple graph, 4 for a
    bipartite one. `bipartite` says that every cycle is even, which the
    girth search uses to stop each root's search a level earlier; a
    `girth_floor` of 4 alone does not say it. `clauses` counts the clause
    nodes that come first on an incidence graph; it is 0 on a graph
    without them.
    """

    def __init__(
        self,
        adjacency: list[tuple[Node, ...]],
        girth_floor: int = 3,
        clauses: int = 0,
        bipartite: bool = False,
    ) -> None:
        """Take over `adjacency`, whose neighbour tuples must be sorted and
        symmetric."""
        self.adjacency = adjacency
        self.nodes = range(len(adjacency))
        self.girth_floor = girth_floor
        self.clauses = clauses
        self.bipartite = bipartite

    def clause_node(self, index: int) -> Node:
        return index

    def var_node(self, variable: int) -> Node:
        return self.clauses + variable - 1

    def mask(self, nodes: AbstractSet[Node]) -> bytearray:
        """A removal mask: one byte per node, 1 for the given nodes, else 0."""
        mask = bytearray(len(self.adjacency))
        for v in nodes:
            mask[v] = 1
        return mask


class Cycle(_Frozen):
    """A simple cycle, stored as its canonical node sequence without the
    closing repetition, with its graph's `clauses` count, by which its
    nodes map back to clause indices and variables. Cycles compare and
    hash by both."""

    nodes: tuple[Node, ...]
    clauses: int
    _compared = attrgetter("nodes", "clauses")

    def __init__(self, nodes: tuple[Node, ...], clauses: int = 0) -> None:
        fields = self.__dict__
        fields["nodes"] = nodes
        fields["clauses"] = clauses

    def __repr__(self) -> str:
        return f"Cycle({self.nodes!r}, {self.clauses!r})"

    def __len__(self) -> int:
        return len(self.nodes)

    @cached_property
    def node_set(self) -> frozenset:
        return frozenset(self.nodes)

    @cached_property
    def variables(self) -> tuple[int, ...]:
        m = self.clauses
        return tuple(n - m + 1 for n in self.nodes if n >= m)

    @cached_property
    def variable_set(self) -> frozenset[int]:
        return frozenset(self.variables)

    @cached_property
    def clause_indices(self) -> tuple[int, ...]:
        return tuple(n for n in self.nodes if n < self.clauses)

    def to_json(self) -> list[dict]:
        m = self.clauses
        return [
            {"kind": "clause", "id": n} if n < m else {"kind": "var", "id": n - m + 1}
            for n in self.nodes
        ]


def is_acyclic(graph: Graph, forbidden: AbstractSet[Node] = frozenset()) -> bool:
    """Whether the graph minus `forbidden` is a forest."""
    return not cyclic_components(graph, graph.mask(forbidden), limit=0)


def unmarked(state: bytearray, start: int = 0) -> Iterator[Node]:
    """The nodes from `start` on that `state` marks 0, each found only when
    the caller asks for it, so nodes the caller marks meanwhile are
    skipped."""
    node = state.find(0, start)
    while node >= 0:
        yield node
        node = state.find(0, node + 1)


def cyclic_components(
    graph: Graph,
    state: bytearray,
    scope: Iterable[Node] | None = None,
    limit: int | None = None,
) -> list[list[Node]]:
    """The node lists of the connected components that hold a cycle among
    the nodes `state` leaves 0: of every one, in the order of their least
    nodes, or of those holding a node of `scope`, in the order of their
    first such node. One BFS pass marks the nodes it reaches 2, so the
    caller passes a mask it gives up.

    Given a `limit`, the pass returns at the first cycle of the component
    that would be listed after `limit` others, and lists that component's
    BFS queue so far, a prefix of its node list: `limit=0` is a bare
    acyclicity test.

    Each node is reached once, from its parent. In a forest a node, when
    its turn comes, has no reached neighbour but its parent: any other
    would join two paths from the root, and a non-tree edge is met so from
    whichever of its ends comes first. So a component is cyclic exactly
    when some node of it has more than one reached neighbour then."""
    adjacency = graph.adjacency
    found: list[list[Node]] = []
    for root in unmarked(state) if scope is None else scope:
        if state[root]:
            continue
        state[root] = 2
        queue = [root]
        cyclic = False
        for v in queue:
            reached = 0
            for u in adjacency[v]:
                mark = state[u]
                if not mark:
                    state[u] = 2
                    queue.append(u)
                elif mark == 2:
                    reached += 1
            if reached > 1 and not cyclic:
                if len(found) == limit:
                    found.append(queue)
                    return found
                cyclic = True
        if cyclic:
            found.append(queue)
    return found


def _bfs_distances(
    graph: Graph, source: Node, allowed: bytearray, depth: int
) -> dict[Node, int]:
    """Distances from `source` within `allowed`, up to `depth`."""
    adjacency = graph.adjacency
    dist = {source: 0}
    queue = [source]
    for v in queue:
        d = dist[v]
        if d == depth:
            break
        for u in adjacency[v]:
            if allowed[u] and u not in dist:
                dist[u] = d + 1
                queue.append(u)
    return dist


def _girth(graph: Graph, allowed: bytearray, floor: int) -> tuple[int, Node] | None:
    """Length of a shortest cycle within the nodes `allowed` marks, given
    that none is shorter than `floor`, and its anchor: the least node on
    any cycle of that length. The first cycle of length `floor` ends the
    search.

    Each root searches only itself and the nodes not yet used as roots. A
    search that closes a cycle of the final length closes a simple cycle
    through its root, or a shorter cycle would exist; and the search from
    a shortest cycle's least node finds it. So the first root that meets
    the final length is the anchor.

    A search at depth d closes no new cycle shorter than 2d + 1 (2d + 2 on
    a bipartite graph): an edge back to a shallower node was met from that
    node. Once the searches have visited as many nodes as the graph has,
    the nodes left are peeled to their 2-core, and from then on each
    finished root is dropped and peeled from its neighbours: a peeled node
    lies on no cycle that a later root can search, so it is neither
    searched nor a root. Waiting until then keeps the peel's cost below
    the searches' own: a pass that ends a few roots in never pays for it,
    and a ring's first search already visits every node."""
    adjacency = graph.adjacency
    remaining = bytearray(allowed)
    slack = 2 if graph.bipartite else 1
    # Per node, for the current root's search only: distance and parent.
    dist = [-1] * len(adjacency)
    parent = [-1] * len(adjacency)
    # Per node left once peeling starts: its neighbours left, counting the
    # root being searched.
    degree: list[int] | None = None
    # Nodes the searches have visited, repeats included.
    visited = 0
    best: tuple[int, Node] | None = None
    root = remaining.find(1)
    while root >= 0:
        remaining[root] = 0
        dist[root] = 0
        parent[root] = -1
        queue = [root]
        for a in queue:
            da = dist[a]
            if best is not None and 2 * da + slack >= best[0]:
                break
            pa = parent[a]
            for b in adjacency[a]:
                if not remaining[b]:
                    continue
                db = dist[b]
                if db < 0:
                    dist[b] = da + 1
                    parent[b] = a
                    queue.append(b)
                elif pa != b and parent[b] != a:
                    # Non-tree edge: the union of the two root paths and this
                    # edge contains a cycle no longer than this bound.
                    candidate = da + db + 1
                    if best is None or candidate < best[0]:
                        best = (candidate, root)
                        if candidate == floor:
                            return best
        for v in queue:
            dist[v] = -1
        visited += len(queue)
        low = []
        if degree is not None:
            for v in adjacency[root]:
                if remaining[v]:
                    degree[v] -= 1
                    if degree[v] == 1:
                        low.append(v)
        elif visited >= len(adjacency):
            degree = [0] * len(adjacency)
            for v in compress(graph.nodes, remaining):
                degree[v] = d = sum(map(remaining.__getitem__, adjacency[v]))
                if d < 2:
                    low.append(v)
        while low:
            v = low.pop()
            if remaining[v]:
                remaining[v] = 0
                for u in adjacency[v]:
                    if remaining[u]:
                        degree[u] -= 1
                        if degree[u] == 1:
                            low.append(u)
        root = remaining.find(1, root + 1)
    return best


def _lexmin_shortest_path(
    graph: Graph, start: Node, goal: Node, dist_to_goal: Mapping[Node, int], allowed: bytearray
) -> tuple:
    path = [start]
    current = start
    while current != goal:
        # Neighbours are sorted, so the first match is the least.
        current = next(
            u
            for u in graph.adjacency[current]
            if allowed[u] and dist_to_goal.get(u) == dist_to_goal[current] - 1
        )
        path.append(current)
    return tuple(path)


def shortest_cycle(
    graph: Graph, forbidden: AbstractSet[Node] = frozenset(), girth_floor: int = 0
) -> Cycle | None:
    """Canonically smallest among the shortest cycles avoiding `forbidden`.

    Shortest means fewest nodes; ties break toward the lexicographically
    smallest canonical node sequence. `girth_floor` may raise the graph's
    own `girth_floor` when the caller knows that no cycle avoiding
    `forbidden` is shorter; the search stops at the first cycle that long.
    The girth pass names the anchor, the least node on any shortest cycle,
    and the canonical cycle is built from that one anchor's ring.
    """
    later = bytearray(b"\x01") * len(graph.adjacency)
    for v in forbidden:
        later[v] = 0
    found = _girth(graph, later, max(graph.girth_floor, girth_floor))
    if found is None:
        return None
    girth, anchor = found
    # The canonical sequence starts at the anchor, so only later nodes join it.
    later[: anchor + 1] = bytes(anchor + 1)
    ring = [u for u in graph.adjacency[anchor] if later[u]]
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
    return Cycle(min(candidates), graph.clauses)


class CyclePacking(NamedTuple):
    """At least the requested number of pairwise vertex-disjoint cycles."""

    cycles: tuple[Cycle, ...]


class FeedbackSet(NamedTuple):
    """A node set whose removal leaves the graph acyclic."""

    nodes: frozenset


PackingOrFeedback = Union[CyclePacking, FeedbackSet]


def disjoint_cycles_or_feedback(
    graph: Graph, count: int, forbidden: AbstractSet[Node] = frozenset()
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

    Contains a node for every clause, including empty ones, and for every
    variable id from 1 to the largest in the universe, occurring or not.
    `literals[i]` is clause i's literal tuple, which lists its variables
    in the order of its neighbours and carries their signs.
    """

    def __init__(self, graph: Graph, literals: tuple[tuple[int, ...], ...]) -> None:
        self.graph = graph
        self.literals = literals

    def sign(self, variable: int, clause_index: int) -> bool | None:
        """True for a positive occurrence, False for negative, None if the
        variable is not in the clause or there is no such clause."""
        if not 0 <= clause_index < len(self.literals):
            return None
        literals = self.literals[clause_index]
        if variable in literals:
            return True
        if -variable in literals:
            return False
        return None

    def removed_by(self, variable: int, value: bool) -> list[Node]:
        """The nodes `variable` set to `value` removes: its own and the clauses it satisfies."""
        literal, literals = (variable if value else -variable), self.literals
        node = self.graph.var_node(variable)
        return [node] + [c for c in self.graph.adjacency[node] if literal in literals[c]]

    def residual_acyclic(self, removed: AbstractSet[Node]) -> bool:
        """Whether the view of this graph minus `removed` is acyclic."""
        return is_acyclic(self.graph, forbidden=removed)


def incidence_graph(formula: Formula) -> IncidenceGraph:
    """The incidence graph, built in one pass over the clauses. A clause's
    variable nodes come out sorted because its literals are sorted by
    variable, and each variable's clause list comes out ascending because
    the clauses are read in order. Every variable id up to the largest gets
    a node, so that id is capped as a DIMACS header's variable count is."""
    n = max(formula.universe, default=0)
    if n > MAX_DIMACS_VARIABLES:
        raise ResourceLimitError(
            f"refusing a graph over variable ids up to {n} (limit {MAX_DIMACS_VARIABLES})"
        )
    literals = tuple(clause.literals for clause in formula.clauses)
    m = len(literals)
    offset = m - 1
    occurrences: list[list[int]] = [[] for _ in range(n)]
    adjacency: list[tuple[Node, ...]] = []
    for index, clause in enumerate(literals):
        nodes = []
        for lit in clause:
            variable = abs(lit)
            nodes.append(offset + variable)
            occurrences[variable - 1].append(index)
        adjacency.append(tuple(nodes))
    adjacency += map(tuple, occurrences)
    # Every edge joins a variable and a clause, so no cycle is shorter than 4.
    return IncidenceGraph(Graph(adjacency, girth_floor=4, clauses=m, bipartite=True), literals)


# Kept because the benchmark's tracer finds the restriction test
# (`residual_acyclic`) and the function building its graph by these names.
ClauseLiteralGraph = IncidenceGraph


def clause_literal_graph(formula: Formula) -> IncidenceGraph:
    return incidence_graph(formula)
