"""Shared instances and independent reference checks for the test suite.

The checks here deliberately avoid the code paths they validate: cycle
enumeration is a DFS over all simple paths, satisfiability is a truth
table, the weak/strong checks rebuild every restriction and test its
incidence graph directly instead of going through the clause-literal
graph, and the reference cycle search and packing run every BFS to the
end, with no girth bound.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Mapping

from forestbd import Formula, random_rcnf
from forestbd.backdoors import assignments_over
from forestbd.formula import Assignment
from forestbd.graphs import (
    Cycle,
    CyclePacking,
    FeedbackSet,
    Graph,
    Node,
    PackingOrFeedback,
    canonical_cycle,
    clause_node,
    incidence_graph,
    is_acyclic,
    var_node,
)
from forestbd.weak import KillChoice


def triangle() -> Formula:
    """Three clauses over two variables whose incidence graph is one 6-cycle."""
    return Formula.from_ints([[1, 2], [-1, 2], [1, -2]], num_vars=2)


def disjoint_triangles(count: int) -> Formula:
    """`count` variable-disjoint copies of the triangle."""
    clauses: list[list[int]] = []
    for a in range(1, 2 * count + 1, 2):
        clauses += [[a, a + 1], [-a, a + 1], [a, -(a + 1)]]
    return Formula.from_ints(clauses, num_vars=2 * count)


def two_triangles() -> Formula:
    """Two variable-disjoint copies of the triangle; no single variable
    touches both, so every size-one detection must answer no."""
    return disjoint_triangles(2)


def three_islands() -> Formula:
    """Three disjoint duplicated-clause cycles with no outside variables."""
    return Formula.from_ints(
        [[1, 2], [1, 2], [3, 4], [3, 4], [5, 6], [5, 6]], num_vars=6
    )


def contradiction_path() -> Formula:
    """Acyclic but unsatisfiable."""
    return Formula.from_ints([[1], [-1]], num_vars=1)


# --- crafted weak-rule instances -------------------------------------------

RING_SIZE = 17


def overlap_rings() -> Formula:
    """Two disjoint 17-clause rings whose clauses share 17 outside variables;
    enough shared killers to trip the overlap certificate at budget one."""
    clauses = []
    for i in range(RING_SIZE):
        a, a_next = 1 + i, 1 + (i + 1) % RING_SIZE
        clauses.append([a, a_next, 35 + i])
    for i in range(RING_SIZE):
        b, b_next = 18 + i, 18 + (i + 1) % RING_SIZE
        clauses.append([b, b_next, 35 + i])
    return Formula.from_ints(clauses, num_vars=51)


def overlap_ring_cycles() -> tuple[Cycle, Cycle]:
    first = ring_cycle(list(range(1, 18)), list(range(0, 17)))
    second = ring_cycle(list(range(18, 35)), list(range(17, 34)))
    return first, second


def shared_killer_square() -> Formula:
    """Two 4-cycles with one common outside killer and one private killer
    each; only the shared-killers rule applies."""
    return Formula.from_ints(
        [[1, 2, 5], [1, 2, 6], [3, 4, 5], [3, 4, 7]], num_vars=7
    )


def shared_killer_cycles() -> tuple[Cycle, Cycle]:
    return ring_cycle([1, 2], [0, 1]), ring_cycle([3, 4], [2, 3])


def heavy_sparse_ring() -> Formula:
    """An 8-ring whose only killer sits on four of its clauses, plus a small
    separately killable cycle; trips the concentrated-killers rule."""
    clauses = []
    for i in range(8):
        a, a_next = 1 + i, 1 + (i + 1) % 8
        body = [a, a_next]
        if i % 2 == 0:
            body.append(9)
        clauses.append(body)
    clauses.append([10, 11, 12])
    clauses.append([10, 11])
    return Formula.from_ints(clauses, num_vars=12)


def heavy_sparse_cycles() -> tuple[Cycle, Cycle]:
    return ring_cycle(list(range(1, 9)), list(range(0, 8))), ring_cycle([10, 11], [8, 9])


def heavy_dense_ring() -> Formula:
    """A 16-ring with a four-occurrence champion and six two-occurrence
    near-peers, plus a separately killable cycle; trips dominant-killer."""
    pairs = [(1, 2), (3, 5), (6, 7), (9, 10), (11, 13), (14, 15)]
    clauses = []
    for i in range(16):
        a, a_next = 1 + i, 1 + (i + 1) % 16
        body = [a, a_next]
        if i in (0, 4, 8, 12):
            body.append(17)
        else:
            for j, (first, second) in enumerate(pairs):
                if i in (first, second):
                    body.append(18 + j)
        clauses.append(body)
    clauses.append([24, 25, 26])
    clauses.append([24, 25])
    return Formula.from_ints(clauses, num_vars=26)


def heavy_dense_cycles() -> tuple[Cycle, Cycle]:
    return ring_cycle(list(range(1, 17)), list(range(0, 16))), ring_cycle(
        [24, 25], [16, 17]
    )


# --- crafted strong-rule instances ------------------------------------------

def strong_lone_killer() -> Formula:
    """One cycle killed only by its apex, one cycle killed only by another
    variable, one unkillable filler."""
    return Formula.from_ints(
        [[1, 2, 9], [1, 2, -9], [3, 4, 10], [3, 4, -10], [5, 6], [5, 6]],
        num_vars=10,
    )


def strong_pair() -> Formula:
    """Variables 9 and 10 both kill two cycles at the same clause pairs and
    variable 9 also kills the third; trips the killer-pair rule and admits
    the strong backdoor {9}."""
    return Formula.from_ints(
        [
            [1, 2, 9, 10],
            [1, 2, -9, -10],
            [3, 4, 9, 10],
            [3, 4, -9, -10],
            [5, 6, 9],
            [5, 6, -9],
        ],
        num_vars=10,
    )


def strong_saturated() -> Formula:
    """Per-cycle private apex and killer, plus an unkillable filler; the
    saturated rule certifies that no single outside variable works."""
    return Formula.from_ints(
        [
            [1, 2, 7, 8],
            [1, 2, -7, -8],
            [3, 4, 9, 10],
            [3, 4, -9, -10],
            [5, 6],
            [5, 6],
        ],
        num_vars=10,
    )


# --- helpers ------------------------------------------------------------------

def ring_cycle(variables: list[int], clause_indices: list[int]) -> Cycle:
    """Cycle object for a ring where clause_indices[i] joins variables[i]
    and variables[(i+1) % n]."""
    nodes = []
    for v, c in zip(variables, clause_indices):
        nodes.append(var_node(v))
        nodes.append(clause_node(c))
    return canonical_cycle(tuple(nodes))


def manufactured_choice(formula: Formula, external: tuple[Cycle, ...]) -> KillChoice:
    barred = frozenset(v for c in external for v in c.variables)
    return KillChoice(internal=(), external=external, pool=formula.universe - barred)


def random_instance(seed: int, max_n: int = 10, max_m: int = 15) -> Formula:
    """A random 3-CNF on 3 to `max_n` variables and 2 to `max_m` clauses."""
    rng = random.Random(seed)
    n = rng.randint(3, max_n)
    return random_rcnf(n, rng.randint(2, max_m), 3, rng.randint(0, 10**6))


def random_graph(seed: int, nodes: tuple[int, int], edges: tuple[int, int]) -> Graph:
    """A simple graph on 0..n-1 with n drawn from the `nodes` range and a
    count drawn from the `edges` range of random node pairs joined;
    repeated pairs collapse."""
    rng = random.Random(seed)
    adjacency: dict[int, set[int]] = {v: set() for v in range(rng.randint(*nodes))}
    for _ in range(rng.randint(*edges)):
        u, v = rng.sample(range(len(adjacency)), 2)
        adjacency[u].add(v)
        adjacency[v].add(u)
    return Graph({v: list(around) for v, around in adjacency.items()})


def enumerate_simple_cycles(graph: Graph) -> list[tuple]:
    """All simple cycles by DFS over ascending paths; exponential, for
    small graphs only."""
    found: set[tuple] = set()
    for start in graph.nodes:
        stack: list[tuple] = [(start,)]
        while stack:
            path = stack.pop()
            node = path[-1]
            for nb in graph.neighbors(node):
                if nb == start and len(path) >= 3:
                    found.add(canonical_cycle(path).nodes)
                elif nb > start and nb not in path:
                    stack.append(path + (nb,))
    return sorted(found, key=lambda c: (len(c), c))


def truth_table_satisfiable(formula: Formula) -> bool:
    ordered = sorted(formula.variables)
    for bits in itertools.product((False, True), repeat=len(ordered)):
        if formula.satisfied_by(dict(zip(ordered, bits))):
            return True
    return False


def direct_weak_witness(formula: Formula, candidate) -> Assignment | None:
    """Weak check that rebuilds every restriction outright."""
    for tau in assignments_over(frozenset(candidate)):
        rest = formula.restrict(tau)
        if is_acyclic(incidence_graph(rest).graph) and truth_table_satisfiable(rest):
            return tau
    return None


def direct_strong(formula: Formula, candidate) -> bool:
    return all(
        is_acyclic(incidence_graph(formula.restrict(tau)).graph)
        for tau in assignments_over(frozenset(candidate))
    )


def backdoors_within(formula: Formula, pool, max_size: int, kind: str) -> list[frozenset]:
    """Every backdoor of the kind inside `pool` up to `max_size`, by direct
    enumeration."""
    from forestbd import is_deletion_backdoor

    check = {
        "weak": lambda s: direct_weak_witness(formula, s) is not None,
        "strong": lambda s: direct_strong(formula, s),
        "deletion": lambda s: is_deletion_backdoor(formula, s),
    }[kind]
    hits = []
    ordered = sorted(pool)
    for size in range(max_size + 1):
        for combo in itertools.combinations(ordered, size):
            if check(frozenset(combo)):
                hits.append(frozenset(combo))
    return hits


def rule_selection_sound(
    formula: Formula, choice: KillChoice, selected: frozenset, budget: int, kind: str
) -> bool:
    """No backdoor of the kind within the choice's pool, of size at most the
    budget, avoids the selection."""
    avoiders = backdoors_within(formula, choice.pool - selected, budget, kind)
    return not avoiders


# --- reference cycle search ----------------------------------------------------

def _reference_bfs_distances(graph: Graph, source: Node, allowed: set[Node]) -> dict[Node, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in graph.neighbors(v):
            if u in allowed and u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def _reference_girth(graph: Graph, allowed: list[Node], allowed_set: set[Node]) -> int | None:
    best: int | None = None
    for root in allowed:
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
                    candidate = dist[a] + dist[b] + 1
                    if best is None or candidate < best:
                        best = candidate
    return best


def _reference_lexmin_shortest_path(
    graph: Graph, start: Node, goal: Node, dist_to_goal: Mapping[Node, int], allowed: set[Node]
) -> tuple:
    path = [start]
    current = start
    while current != goal:
        current = next(
            u
            for u in graph.neighbors(current)
            if u in allowed and dist_to_goal.get(u) == dist_to_goal[current] - 1
        )
        path.append(current)
    return tuple(path)


def reference_shortest_cycle(
    graph: Graph, forbidden: frozenset | set = frozenset()
) -> Cycle | None:
    """`graphs.shortest_cycle` without a girth floor: the girth search runs
    from every root over every allowed node, and each ring-neighbour BFS
    walks the whole allowed graph."""
    allowed = [v for v in graph.nodes if v not in forbidden]
    allowed_set = set(allowed)
    girth = _reference_girth(graph, allowed, allowed_set)
    if girth is None:
        return None
    for anchor in allowed:
        allowed_set.discard(anchor)
        ring = [u for u in graph.neighbors(anchor) if u in allowed_set]
        if len(ring) < 2:
            continue
        dist_from = {b: _reference_bfs_distances(graph, b, allowed_set) for b in ring}
        for second in ring:
            candidates = []
            for last in ring:
                if last == second:
                    continue
                goal_dist = dist_from[last]
                if goal_dist.get(second) == girth - 2:
                    interior = _reference_lexmin_shortest_path(
                        graph, second, last, goal_dist, allowed_set
                    )
                    candidates.append((anchor,) + interior)
            if candidates:
                return Cycle(min(candidates))
    return None


def reference_packing(graph: Graph, count: int) -> PackingOrFeedback:
    """`graphs.disjoint_cycles_or_feedback` on `reference_shortest_cycle`,
    with no floor carried from one packed cycle to the next."""
    used: set[Node] = set()
    packed: list[Cycle] = []
    while True:
        cycle = reference_shortest_cycle(graph, forbidden=used)
        if cycle is None:
            return FeedbackSet(frozenset(used))
        packed.append(cycle)
        used |= cycle.node_set
        if len(packed) == count:
            return CyclePacking(tuple(packed))
