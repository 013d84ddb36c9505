"""Shared instances and independent reference checks for the test suite.

The checks here deliberately avoid the code paths they validate: cycle
enumeration is a DFS over all simple paths, satisfiability is a truth
table, and the weak/strong checks rebuild every restriction and test its
incidence graph directly instead of going through the clause-literal
graph.
"""

from __future__ import annotations

import itertools
import random

from forestbd import Formula
from forestbd.backdoors import assignments_over
from forestbd.formula import Assignment
from forestbd.graphs import (
    Cycle,
    Graph,
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
