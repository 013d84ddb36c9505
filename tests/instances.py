"""Shared instances and independent reference checks for the test suite.

The checks here deliberately avoid the code paths they validate: cycle
enumeration is a DFS over all simple paths, satisfiability is a truth
table, the weak/strong checks and the reference searches and count
rebuild every restriction or deletion and its incidence graph instead of
taking a removed-node view of the formula's one graph, and the reference
cycle search and packing run every BFS to the end, with no girth bound,
the reference girth pass keeps the older, later cut and peels nothing,
and the reference weak rule walks the heavy cycles and the killer pairs
twice each. The reference kill relations decide from the formula's
clauses by what each value satisfies, never from the incidence graph's
literals, and the reference weak rule and weak search read them. The
reference detectors take the union of the rule over every designation,
with no hopeless-cycle pruning, and the reference apex-cycle killers
scan the whole pool. The reference completions assign each
leaf's view whole from the root. The reference parser reads DIMACS one line
and one token at a time, checking each line for what `int` reads beyond
plain decimals.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Iterable, Iterator, Mapping, Sequence

from forestbd import (
    Clause,
    ContractError,
    CyclicInputError,
    DimacsError,
    Formula,
    ModelCount,
    ResourceLimitError,
    count_models,
    disjoint_cycles_or_feedback,
    grid_formula,
    hitting_set_formula,
    random_rcnf,
    satisfying_assignment,
)
from forestbd.backdoors import (
    BackdoorVerdict,
    Residual,
    _guard_size,
    branch_on_cycles,
)
from forestbd.formula import MAX_DIMACS_VARIABLES, Assignment
from forestbd.graphs import (
    Cycle,
    CyclePacking,
    FeedbackSet,
    Graph,
    IncidenceGraph,
    Node,
    PackingOrFeedback,
    incidence_graph,
)
from forestbd.strong import (
    MAX_STRONG_BUDGET,
    ApexCycle,
    StrongParameters,
    strong_rule_outcome,
)
from forestbd.weak import (
    KillChoice,
    RuleOutcome,
    WeakParameters,
    designations,
    weak_rule_outcome,
)


def triangle() -> Formula:
    """Three clauses over two variables whose incidence graph is one 6-cycle."""
    return Formula.from_ints([[1, 2], [-1, 2], [1, -2]], num_vars=2)


def disjoint_triangles(count: int) -> Formula:
    """`count` variable-disjoint copies of the triangle."""
    clauses: list[list[int]] = []
    for a in range(1, 2 * count + 1, 2):
        clauses += [[a, a + 1], [-a, a + 1], [a, -(a + 1)]]
    return Formula.from_ints(clauses, num_vars=2 * count)


def disjoint_squares(count: int) -> Formula:
    """`count` variable-disjoint squares: the clauses a b and a -b, whose
    incidence graph is a 4-cycle, with a odd and b = a + 1 even. The even
    variables form a strong backdoor, and there are 2^count models."""
    clauses: list[list[int]] = []
    for a in range(1, 2 * count + 1, 2):
        clauses += [[a, a + 1], [a, -(a + 1)]]
    return Formula.from_ints(clauses, num_vars=2 * count)


def unsatisfiable_forest(count: int) -> Formula:
    """The unit clauses 1 and -1, then 2 to `count`: an acyclic formula that
    no assignment of 2 to `count` makes satisfiable."""
    clauses = [[1], [-1]] + [[v] for v in range(2, count + 1)]
    return Formula.from_ints(clauses, num_vars=count)


def with_gaps(formula: Formula) -> Formula:
    """The formula with each variable v renamed 2v - 1: every even id below
    the largest is left out of the universe, yet has a node of the
    incidence graph, an isolated one."""
    clauses = Formula.from_ints(
        [2 * lit - 1 if lit > 0 else 2 * lit + 1 for lit in c.literals] for c in formula.clauses
    ).clauses
    return Formula(clauses, frozenset(2 * v - 1 for v in formula.universe))


def two_triangles() -> Formula:
    """Two variable-disjoint copies of the triangle; no single variable
    touches both, so every size-one detection must answer no."""
    return disjoint_triangles(2)


def three_islands() -> Formula:
    """Three disjoint duplicated-clause cycles with no outside variables."""
    return Formula.from_ints(
        [[1, 2], [1, 2], [3, 4], [3, 4], [5, 6], [5, 6]], num_vars=6
    )


def deep_cycle_gadget() -> Formula:
    """The 4-cycle 1, (1 2 3), 2, (1 2 -4): of the assignments of {3, 4},
    only 3 = False, 4 = True keeps both clauses and so the cycle."""
    return Formula.from_ints([[1, 2, 3], [1, 2, -4]], num_vars=4)


def k33_gadgets(count: int) -> Formula:
    """`count` variable-disjoint copies of the clauses a b c, -a b -c,
    a -b -c: each copy's incidence graph is K3,3, which packs one cycle
    but needs two variables deleted, or two assigned for every value."""
    clauses: list[list[int]] = []
    for a in range(1, 3 * count + 1, 3):
        b, c = a + 1, a + 2
        clauses += [[a, b, c], [-a, b, -c], [a, -b, -c]]
    return Formula.from_ints(clauses, num_vars=3 * count)


def disjoint_union(*formulas: Formula) -> Formula:
    """The formulas side by side, each one's variables shifted past the
    universes of those before it (each universe must be 1..n)."""
    clauses: list[list[int]] = []
    offset = 0
    for formula in formulas:
        clauses += [
            [lit + offset if lit > 0 else lit - offset for lit in c.literals]
            for c in formula.clauses
        ]
        offset += len(formula.universe)
    return Formula.from_ints(clauses, num_vars=offset)


def contradiction_path() -> Formula:
    """Acyclic but unsatisfiable."""
    return Formula.from_ints([[1], [-1]], num_vars=1)


def one_killer_cycles(count: int) -> Formula:
    """`count` disjoint two-clause cycles (a b x) (a b -x) sharing the one
    outside killer x, the last variable."""
    x = 2 * count + 1
    clauses: list[list[int]] = []
    for a in range(1, 2 * count + 1, 2):
        clauses += [[a, a + 1, x], [a, a + 1, -x]]
    return Formula.from_ints(clauses, num_vars=x)


def eleven_islands() -> Formula:
    """Eleven disjoint duplicated-clause cycles with no outside variables."""
    return Formula.from_ints(
        [[2 * i + 1, 2 * i + 2] for i in range(11) for _ in range(2)], num_vars=22
    )


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
    graph = incidence_graph(overlap_rings()).graph
    first = ring_cycle(graph, list(range(1, 18)), list(range(0, 17)))
    second = ring_cycle(graph, list(range(18, 35)), list(range(17, 34)))
    return first, second


def shared_killer_square() -> Formula:
    """Two 4-cycles with one common outside killer and one private killer
    each; only the shared-killers rule applies."""
    return Formula.from_ints(
        [[1, 2, 5], [1, 2, 6], [3, 4, 5], [3, 4, 7]], num_vars=7
    )


def shared_killer_cycles() -> tuple[Cycle, Cycle]:
    graph = incidence_graph(shared_killer_square()).graph
    return ring_cycle(graph, [1, 2], [0, 1]), ring_cycle(graph, [3, 4], [2, 3])


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
    graph = incidence_graph(heavy_sparse_ring()).graph
    return ring_cycle(graph, list(range(1, 9)), list(range(0, 8))), ring_cycle(
        graph, [10, 11], [8, 9]
    )


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
    graph = incidence_graph(heavy_dense_ring()).graph
    return ring_cycle(graph, list(range(1, 17)), list(range(0, 16))), ring_cycle(
        graph, [24, 25], [16, 17]
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


def criterion_8_strong_targets() -> list[tuple[Formula, int]]:
    """The (formula, budget) pairs whose every strong designation the
    criterion-8 rule-soundness audit checks."""
    return [
        (three_islands(), 1),
        (strong_pair(), 1),
        (strong_saturated(), 1),
        (strong_lone_killer(), 1),
        (grid_formula(4), 1),
        (shared_killer_square(), 1),
        (eleven_islands(), 2),
    ]


# --- helpers ------------------------------------------------------------------

def canonical_cycle(nodes: Sequence[Node], clauses: int = 0) -> Cycle:
    """Normalize a cyclic node sequence: rotate its smallest node to the
    front, then keep the lexicographically smaller of the two directions.
    The reference cycle search builds its canonical cycles with it."""
    seq = tuple(nodes)
    if len(seq) < 3 or len(set(seq)) != len(seq):
        raise ContractError(f"not a simple cycle: {seq!r}")
    pivot = seq.index(min(seq))
    forward = seq[pivot:] + seq[:pivot]
    backward = (forward[0],) + tuple(reversed(forward[1:]))
    return Cycle(min(forward, backward), clauses)


def ring_cycle(graph: Graph, variables: list[int], clause_indices: list[int]) -> Cycle:
    """Cycle object for a ring of `graph` where clause_indices[i] joins
    variables[i] and variables[(i+1) % n]."""
    nodes = []
    for v, c in zip(variables, clause_indices):
        nodes.append(graph.var_node(v))
        nodes.append(graph.clause_node(c))
    return canonical_cycle(tuple(nodes), graph.clauses)


def manufactured_choice(formula: Formula, external: tuple[Cycle, ...]) -> KillChoice:
    barred = frozenset(v for c in external for v in c.variables)
    return KillChoice(internal=(), external=external, pool=formula.universe - barred)


def random_instance(seed: int, max_n: int = 10, max_m: int = 15) -> Formula:
    """A random 3-CNF on 3 to `max_n` variables and 2 to `max_m` clauses."""
    rng = random.Random(seed)
    n = rng.randint(3, max_n)
    return random_rcnf(n, rng.randint(2, max_m), 3, rng.randint(0, 10**6))


def random_hitting_formula(seed: int) -> Formula:
    """The hitting-set reduction of one to four random sets over a universe
    of two to five elements."""
    rng = random.Random(seed)
    universe = list(range(1, rng.randint(2, 5) + 1))
    family = [rng.sample(universe, rng.randint(1, len(universe))) for _ in range(rng.randint(1, 4))]
    return hitting_set_formula(family)


def killer_gadgets(seed: int) -> Formula:
    """Disjoint two-clause cycles (a b x) (a b -x), a few with x twice,
    whose outside killers x are one to three shared variables, sometimes
    with a unit clause on a killer. At budget 2 the detectors pack, branch
    on a killer and recurse on residuals holding few cycles, so they pack
    again or search exactly from a restricted root, at times with an
    emptied clause."""
    rng = random.Random(seed)
    counts = [rng.randint(1, 12) for _ in range(rng.randint(1, 3))]
    base = 2 * sum(counts)
    killers = [base + 1 + j for j, count in enumerate(counts) for _ in range(count)]
    rng.shuffle(killers)
    clauses = []
    for i, x in enumerate(killers):
        a, b = 2 * i + 1, 2 * i + 2
        clauses += [[a, b, x], [a, b, x if rng.random() < 0.2 else -x]]
    for j in range(len(counts)):
        if rng.random() < 0.3:
            clauses.append([rng.choice((-1, 1)) * (base + 1 + j)])
    return Formula.from_ints(clauses, num_vars=base + len(counts))


def ring_formula(length: int, pendant: int = 0, chord: int = 0) -> Formula:
    """A ring of `length` variables, the clauses i ∨ i+1 closed by 1 ∨ length.
    With `pendant`, every third ring variable carries a path of that many
    new variables, each in one clause with the one before it. With
    `chord`, a path of that many new variables joins variable 1 to the
    ring variable opposite it, which makes a theta graph."""
    clauses = [[i, i + 1] for i in range(1, length)] + [[1, length]]
    fresh = length
    for start in range(1, length + 1, 3):
        previous = start
        for _ in range(pendant):
            fresh += 1
            clauses.append([previous, fresh])
            previous = fresh
    if chord:
        path = list(range(fresh + 1, fresh + chord + 1))
        ends = [1, *path, 1 + length // 2]
        clauses += [[a, b] for a, b in zip(ends, ends[1:])]
        fresh += chord
    return Formula.from_ints(clauses, num_vars=fresh)


def ring_graph(length: int, pendant: int = 0, chord: int = 0) -> Graph:
    """`ring_formula`'s shape as a plain graph on its variables alone, so a
    ring or theta path may be odd: node i - 1 for variable i."""
    adjacency: dict[int, set[int]] = {}
    for clause in ring_formula(length, pendant, chord).clauses:
        u, v = (abs(lit) - 1 for lit in clause.literals)
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    return Graph([tuple(sorted(adjacency[v])) for v in range(len(adjacency))])


def theta_formula(length: int, step: int, starts: Iterable[int]) -> Formula:
    """A ring of `length` variables, the clauses i ∨ i+1 closed by 1 ∨ length,
    with a chord a ∨ a+step for each a in `starts`: long cycles sharing
    long chains, on which the exact searches branch over many variables."""
    clauses = [[i, i + 1] for i in range(1, length)] + [[1, length]]
    clauses += [[a, a + step] for a in starts]
    return Formula.from_ints(clauses, num_vars=length)


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
    return Graph([tuple(sorted(adjacency[v])) for v in range(len(adjacency))])


def reference_is_acyclic(graph: Graph, forbidden=frozenset()) -> bool:
    """Whether the graph minus `forbidden` is a forest, by counting: a
    component is a tree exactly when its edges number its nodes minus one,
    so the whole is a forest exactly when its edges number its nodes minus
    its components."""
    allowed = set(graph.nodes) - set(forbidden)
    edges = sum(u in allowed for v in allowed for u in graph.adjacency[v]) // 2
    components, seen = 0, set()
    for root in allowed:
        if root in seen:
            continue
        components += 1
        seen.add(root)
        stack = [root]
        while stack:
            for u in graph.adjacency[stack.pop()]:
                if u in allowed and u not in seen:
                    seen.add(u)
                    stack.append(u)
    return edges == len(allowed) - components


def reference_cyclic_components(graph: Graph, forbidden=frozenset()) -> list[list[Node]]:
    """The sorted node lists of the components of the graph minus
    `forbidden` that are not forests, by their least nodes, each found by
    a depth-first search and tested with `reference_is_acyclic` on its
    own."""
    allowed = set(graph.nodes) - set(forbidden)
    components: list[list[Node]] = []
    for root in sorted(allowed):
        if any(root in c for c in components):
            continue
        seen, stack = {root}, [root]
        while stack:
            for u in graph.adjacency[stack.pop()]:
                if u in allowed and u not in seen:
                    seen.add(u)
                    stack.append(u)
        components.append(sorted(seen))
    return [c for c in components if not reference_is_acyclic(graph, set(graph.nodes) - set(c))]


def enumerate_simple_cycles(graph: Graph) -> list[tuple]:
    """All simple cycles by DFS over ascending paths; exponential, for
    small graphs only."""
    found: set[tuple] = set()
    for start in graph.nodes:
        stack: list[tuple] = [(start,)]
        while stack:
            path = stack.pop()
            node = path[-1]
            for nb in graph.adjacency[node]:
                if nb == start and len(path) >= 3:
                    found.add(canonical_cycle(path).nodes)
                elif nb > start and nb not in path:
                    stack.append(path + (nb,))
    return sorted(found, key=lambda c: (len(c), c))


def assignments_over(variables: Iterable[int]) -> Iterator[Assignment]:
    """All assignments of the variables, lexicographic with False first,
    each built whole instead of extending its prefix."""
    ordered = sorted(variables)
    for bits in itertools.product((False, True), repeat=len(ordered)):
        yield dict(zip(ordered, bits))


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
        if reference_is_acyclic(incidence_graph(rest).graph) and truth_table_satisfiable(rest):
            return tau
    return None


def direct_strong(formula: Formula, candidate) -> bool:
    return all(
        reference_is_acyclic(incidence_graph(formula.restrict(tau)).graph)
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
        for u in graph.adjacency[v]:
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
            for b in graph.adjacency[a]:
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


def reference_unpeeled_girth(
    graph: Graph, allowed: bytearray, floor: int
) -> tuple[int, Node] | None:
    """`graphs._girth` as it was before its cut moved a level earlier and
    it peeled the nodes left to their 2-core: each root's search stops at
    depth d only once 2d reaches the best length found."""
    remaining = bytearray(allowed)
    dist = [-1] * len(graph.adjacency)
    parent = [-1] * len(graph.adjacency)
    best: tuple[int, Node] | None = None
    for root in (v for v in graph.nodes if allowed[v]):
        remaining[root] = 0
        dist[root] = 0
        parent[root] = -1
        queue = [root]
        for a in queue:
            if best is not None and 2 * dist[a] >= best[0]:
                break
            for b in graph.adjacency[a]:
                if not remaining[b]:
                    continue
                if dist[b] < 0:
                    dist[b] = dist[a] + 1
                    parent[b] = a
                    queue.append(b)
                elif parent[a] != b and parent[b] != a:
                    candidate = dist[a] + dist[b] + 1
                    if best is None or candidate < best[0]:
                        best = (candidate, root)
                        if candidate == floor:
                            return best
        for v in queue:
            dist[v] = -1
    return best


def _reference_lexmin_shortest_path(
    graph: Graph, start: Node, goal: Node, dist_to_goal: Mapping[Node, int], allowed: set[Node]
) -> tuple:
    path = [start]
    current = start
    while current != goal:
        current = next(
            u
            for u in graph.adjacency[current]
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
        ring = [u for u in graph.adjacency[anchor] if u in allowed_set]
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
                return Cycle(min(candidates), graph.clauses)
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


# --- reference kill relations and weak selection rule -------------------------

def reference_killers(formula: Formula, kind: str, cycle: Cycle, pool) -> frozenset[int]:
    """The pool variables that kill `cycle`, a cycle of the formula's
    incidence graph, as `backdoors.weak_killers`, `strong_killers` and
    `deletion_killers` (`kind` "weak", "strong" or "deletion") define
    them: a variable on the cycle, or, for weak, one with some value
    satisfying a clause of the cycle, or, for strong, one each of whose
    values satisfies a clause of the cycle. Decided from the formula's
    clauses alone."""
    clauses = [formula.clauses[index] for index in cycle.clause_indices]
    on_cycle = set(cycle.variables)
    found = set()
    for variable in pool:
        satisfying = [
            any(clause.satisfied_by({variable: value}) for clause in clauses)
            for value in (False, True)
        ]
        if (
            variable in on_cycle
            or (kind == "weak" and any(satisfying))
            or (kind == "strong" and all(satisfying))
        ):
            found.add(variable)
    return frozenset(found)


def reference_weak_rule_outcome(
    formula: Formula, choice: KillChoice, params: WeakParameters
) -> RuleOutcome:
    """`weak.weak_rule_outcome` on the formula's incidence graph, in two
    passes: every killer weight and champion first, then the heavy cycles
    once for concentrated-killers and again for dominant-killer, then the
    killer pairs once for the overlap certificate and again for the shared
    killers. Killers and weights are read off the formula's clauses."""
    killer_sets = [reference_killers(formula, "weak", c, choice.pool) for c in choice.external]
    if any(not ks for ks in killer_sets):
        return RuleOutcome("unkillable-cycle", frozenset())

    weights = [
        {
            v: sum(formula.clauses[i].polarity(v) is not None for i in cycle.clause_indices)
            for v in ks
        }
        for cycle, ks in zip(choice.external, killer_sets)
    ]
    champions: list[tuple[int, int]] = []
    for w in weights:
        champion = max(w, key=lambda v: (w[v], -v))
        champions.append((champion, w[champion]))

    k = params.budget
    for (champion, weight), w in zip(champions, weights):
        if weight < params.multi:
            continue
        heavy = frozenset(v for v, c in w.items() if 2 * k * c >= weight)
        if len(heavy) <= params.support:
            return RuleOutcome("concentrated-killers", heavy)
    for (champion, weight), w in zip(champions, weights):
        if weight < params.multi:
            continue
        heavy_count = sum(1 for c in w.values() if 2 * k * c >= weight)
        if heavy_count > params.support:
            return RuleOutcome("dominant-killer", frozenset({champion}))

    for i, j in itertools.combinations(range(len(killer_sets)), 2):
        if len(killer_sets[i] & killer_sets[j]) >= params.overlap:
            return RuleOutcome("killer-overlap-excess", frozenset())

    shared: set[int] = set()
    for i, j in itertools.combinations(range(len(killer_sets)), 2):
        shared |= killer_sets[i] & killer_sets[j]
    return RuleOutcome("shared-killers", frozenset(shared))


def reference_candidate_pool(rule, residual: Residual, packing, params) -> frozenset[int]:
    """`weak.candidate_pool` with no hopeless-cycle pruning: the union of
    the rule's selections over every designation."""
    pool: set[int] = set()
    for _, outcome in designations(rule, residual, packing, params):
        pool |= outcome.selected
    return frozenset(pool)


def reference_apex_cycle_killers(
    inc: IncidenceGraph, apex_cycle: ApexCycle, pool
) -> frozenset[int]:
    """`strong.apex_cycle_killers` by scanning the whole pool for opposite
    signs in the two endpoint clauses."""
    u, v = apex_cycle.pos_clause, apex_cycle.neg_clause
    found: set[int] = set()
    for variable in pool:
        if variable == apex_cycle.apex:
            continue
        su = inc.sign(variable, u)
        sv = inc.sign(variable, v)
        if su is None or sv is None or su == sv:
            continue
        found.add(variable)
    return frozenset(found)


# --- reference searches and count on rebuilt restrictions -----------------------

def reference_completions(
    residual: Residual, variables: Iterable[int]
) -> Iterator[tuple[Assignment, Residual]]:
    """Every assignment of `variables` with its view, lexicographic with
    False first, each view assigned whole from `residual` instead of
    extending its prefix's: the order and the views of the walk that
    `backdoors.first_leaf` takes when nothing is pruned."""
    ordered = sorted(variables)
    for tau in assignments_over(ordered):
        view = residual
        for variable in ordered:
            view = view.assign(variable, tau[variable])
        yield tau, view


def reference_weak_witness(formula: Formula, candidate) -> Assignment | None:
    """`backdoors.weak_backdoor_witness` with every restriction rebuilt and
    solved by the tree DP; unlike `direct_weak_witness`, fit for grids."""
    for tau in assignments_over(frozenset(candidate)):
        rest = formula.restrict(tau)
        if reference_is_acyclic(incidence_graph(rest).graph) and satisfying_assignment(rest) is not None:
            return tau
    return None


def opposite_sign_clauses(
    inc: IncidenceGraph, variable: int, cycle: Cycle
) -> tuple[int, int] | None:
    """The least clause pair of the cycle holding the variable positively in
    the first and negatively in the second, or None: the per-variable form
    of `backdoors.strong_killers` off the cycle, read off the incidence
    graph's signs.

    Either value of the variable satisfies (and removes) one of the two
    clauses, so no restriction of the variable keeps the whole cycle.
    """
    if variable in cycle.variables:
        raise ContractError(f"variable {variable} lies on the cycle")
    positive = [i for i in cycle.clause_indices if inc.sign(variable, i) is True]
    negative = [i for i in cycle.clause_indices if inc.sign(variable, i) is False]
    if positive and negative:
        return (min(positive), min(negative))
    return None


def reference_strong_exact_search(formula: Formula, budget: int) -> BackdoorVerdict:
    """`strong.strong_exact_search` with each state's failing restriction
    and its incidence graph rebuilt, branching on the killers that
    `reference_killers` reads off that restriction's clauses."""
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")
    failing: dict[frozenset[int], Formula] = {}

    def settle(candidate: frozenset[int]):
        for tau in assignments_over(candidate):
            rest = formula.restrict(tau)
            inc = incidence_graph(rest)
            if not reference_is_acyclic(inc.graph):
                break
        else:
            return candidate, {}
        if len(candidate) == budget:
            return None
        failing[candidate] = rest
        return Residual(inc, frozenset())

    def moves(candidate: frozenset[int], residual: Residual, cycle: Cycle):
        rest = failing[candidate]
        for variable in sorted(reference_killers(rest, "strong", cycle, rest.universe)):
            yield candidate | {variable}, variable, None

    result = branch_on_cycles(frozenset(), settle, moves)
    if result is None:
        return BackdoorVerdict.no(budget)
    return BackdoorVerdict.yes(result[0], budget)


def reference_weak_exact_search(formula: Formula, budget: int) -> BackdoorVerdict:
    """`weak.weak_exact_search` memoized on rebuilt restricted formulas."""
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")

    def settle(state: tuple[Formula, int]):
        current, remaining = state
        if any(len(c) == 0 for c in current.clauses):
            return None
        inc = incidence_graph(current)
        if reference_is_acyclic(inc.graph):
            return (frozenset(), {}) if satisfying_assignment(current) is not None else None
        return Residual(inc, frozenset()) if remaining else None

    def moves(state: tuple[Formula, int], residual: Residual, cycle: Cycle):
        current, remaining = state
        for candidate in sorted(reference_killers(current, "weak", cycle, current.universe)):
            for value in (False, True):
                yield (current.restrict({candidate: value}), remaining - 1), candidate, value

    result = branch_on_cycles((formula, budget), settle, moves)
    if result is None:
        return BackdoorVerdict.no(budget)
    variables, witness = result
    return BackdoorVerdict.yes(variables, budget, witness)


def reference_detect_weak(
    formula: Formula, budget: int, width: int | None = None
) -> BackdoorVerdict:
    """`weak.detect_weak` recursing on rebuilt restrictions."""
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")
    actual = formula.max_clause_width()
    if width is None:
        width = max(3, actual)
    if actual > width:
        raise ContractError(f"clause width {actual} exceeds declared bound {width}")
    return _reference_detect_weak(formula, budget, max(3, width))


def _reference_detect_weak(formula: Formula, budget: int, width: int) -> BackdoorVerdict:
    whole = Residual.of(formula)
    if reference_is_acyclic(whole.inc.graph):
        split = FeedbackSet(frozenset()) if budget else None
        if satisfying_assignment(formula) is not None:
            return BackdoorVerdict.yes((), budget, {}, split)
        return BackdoorVerdict.no(budget, split)
    if budget == 0:
        return BackdoorVerdict.no(0)
    params = WeakParameters.derive(budget, width)
    split = disjoint_cycles_or_feedback(whole.inc.graph, params.cycles)
    if isinstance(split, FeedbackSet):
        exact = reference_weak_exact_search(formula, budget)
        return BackdoorVerdict(exact.found, exact.variables, budget, exact.witness, split)
    pool = reference_candidate_pool(weak_rule_outcome, whole, split.cycles, params)
    for candidate in sorted(pool):
        for value in (False, True):
            rest = formula.restrict({candidate: value})
            sub = _reference_detect_weak(rest, budget - 1, width)
            if sub.found:
                witness = {**sub.witness, candidate: value}
                return BackdoorVerdict.yes(sub.variables | {candidate}, budget, witness, split)
    return BackdoorVerdict.no(budget, split)


def reference_detect_strong(formula: Formula, budget: int) -> BackdoorVerdict:
    """`strong.detect_strong` recursing on rebuilt restrictions."""
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")
    if budget > MAX_STRONG_BUDGET:
        raise ResourceLimitError(f"strong detection is limited to budget {MAX_STRONG_BUDGET}")
    whole = Residual.of(formula)
    if reference_is_acyclic(whole.inc.graph):
        split = FeedbackSet(frozenset()) if budget else None
        return BackdoorVerdict.yes((), budget, split=split)
    if budget == 0:
        return BackdoorVerdict.no(0)
    params = StrongParameters.derive(budget)
    split = disjoint_cycles_or_feedback(whole.inc.graph, params.cycles)
    if isinstance(split, FeedbackSet):
        exact = reference_strong_exact_search(formula, budget)
        return BackdoorVerdict(exact.found, exact.variables, budget, exact.witness, split)
    pool = reference_candidate_pool(strong_rule_outcome, whole, split.cycles, params)
    for candidate in sorted(pool):
        high = reference_detect_strong(formula.restrict({candidate: True}), budget - 1)
        if not high.found:
            continue
        low = reference_detect_strong(formula.restrict({candidate: False}), budget - 1)
        if low.found:
            variables = high.variables | low.variables | {candidate}
            return BackdoorVerdict.yes(variables, budget, split=split)
    return BackdoorVerdict.no(budget, split)


def reference_detect_deletion(formula: Formula, budget: int) -> BackdoorVerdict:
    """`strong.detect_deletion` with each state's deletion and its incidence
    graph rebuilt."""
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")

    def settle(removed: frozenset[int]):
        rest = formula.without_variables(removed)
        inc = incidence_graph(rest)
        if reference_is_acyclic(inc.graph):
            return frozenset(), {}
        return Residual(inc, frozenset()) if len(removed) < budget else None

    def moves(removed: frozenset[int], residual: Residual, cycle: Cycle):
        for variable in sorted(cycle.variables):
            yield removed | {variable}, variable, None

    result = branch_on_cycles(frozenset(), settle, moves)
    if result is None:
        return BackdoorVerdict.no(budget)
    return BackdoorVerdict.yes(result[0], budget)


def reference_count_with_backdoor(formula: Formula, backdoor, universe) -> ModelCount:
    """`strong.count_with_backdoor` through `count_models` on every rebuilt
    restriction."""
    cutset = frozenset(backdoor)
    target = frozenset(universe)
    if not cutset <= target:
        raise ContractError("backdoor must be a subset of the counting universe")
    if not formula.variables <= target:
        raise ContractError("universe must cover every occurring variable")
    if not cutset <= formula.universe:
        raise ContractError("backdoor must be a subset of the formula universe")
    _guard_size(cutset)
    remainder = target - cutset
    try:
        total = sum(
            count_models(formula.restrict(tau), remainder).count
            for tau in assignments_over(cutset)
        )
    except CyclicInputError as exc:
        raise ContractError("the given set is not a strong backdoor") from exc
    return ModelCount(total, len(target))


# --- reference DIMACS parser ----------------------------------------------------

def reference_parse_dimacs(text: str) -> Formula:
    """`formula.parse_dimacs` one line at a time: every line is checked for
    `_`, `+` and non-ASCII characters, every token converted on its own,
    and every clause normalised and checked by `Clause.from_ints`."""
    header: tuple[int, int] | None = None
    body_tokens: list[str] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if "_" in stripped or "+" in stripped or not stripped.isascii():
            raise DimacsError(f"line {line_no}: not plain decimal integers: {stripped!r}")
        if stripped.startswith("p"):
            if header is not None:
                raise DimacsError(f"line {line_no}: duplicate header")
            parts = stripped.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"line {line_no}: malformed header {stripped!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {line_no}: malformed header {stripped!r}") from exc
            if n < 0 or m < 0:
                raise DimacsError(f"line {line_no}: negative counts in header")
            if n > MAX_DIMACS_VARIABLES:
                raise ResourceLimitError(
                    f"line {line_no}: header declares {n} variables "
                    f"(limit {MAX_DIMACS_VARIABLES})"
                )
            header = (n, m)
            continue
        if header is None:
            raise DimacsError(f"line {line_no}: clause data before header")
        body_tokens.extend(stripped.split())
    if header is None:
        raise DimacsError("missing 'p cnf' header")
    n, m = header

    clauses: list[Clause] = []
    current: list[int] = []
    for token in body_tokens:
        try:
            value = int(token)
        except ValueError as exc:
            raise DimacsError(f"non-integer token {token!r} in clause data") from exc
        if value == 0:
            try:
                clauses.append(Clause.from_ints(current))
            except ContractError as exc:
                raise DimacsError(f"clause {len(clauses) + 1}: {exc}") from exc
            current = []
            continue
        if abs(value) > n:
            raise DimacsError(f"literal {value} exceeds declared variable count {n}")
        current.append(value)
    if current:
        raise DimacsError("unterminated clause at end of input")
    if len(clauses) != m:
        raise DimacsError(f"header declares {m} clauses, found {len(clauses)}")
    return Formula(tuple(clauses), frozenset(range(1, n + 1)))
