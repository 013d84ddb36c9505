"""Incidence graphs and their restriction views, cycles, and the packing
dichotomy."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbd import (
    ContractError,
    CyclePacking,
    FeedbackSet,
    Formula,
    ResourceLimitError,
    disjoint_cycles_or_feedback,
    emit_dimacs,
    grid_formula,
    incidence_graph,
    is_acyclic,
    parse_dimacs,
    random_rcnf,
    restriction_is_acyclic,
    shortest_cycle,
)
from forestbd.acyclic import split_count
from forestbd.backdoors import Residual
from forestbd.graphs import (
    Cycle,
    Graph,
    _girth,
    cyclic_components,
)
from instances import (
    canonical_cycle,
    disjoint_triangles,
    enumerate_simple_cycles,
    random_graph,
    random_instance,
    reference_cyclic_components,
    reference_is_acyclic,
    reference_packing,
    reference_shortest_cycle,
    reference_unpeeled_girth,
    ring_formula,
    ring_graph,
    three_islands,
    triangle,
    with_gaps,
)

# The formulas whose incidence graphs the graph families below hold.
FORMULA_FAMILIES = {
    "random-3cnf": lambda: [random_instance(seed + 40_000) for seed in range(100)],
    "larger-3cnf": lambda: [random_rcnf(40, 60, 3, seed) for seed in range(8)],
    "grids": lambda: [grid_formula(size) for size in range(2, 9)],
    "triangles": lambda: [disjoint_triangles(count) for count in (1, 2, 5, 12)],
    # Rings, rings with pendant trees and theta graphs.
    "rings": lambda: [ring_formula(*shape) for shape in RING_SHAPES],
}


def incidence_graphs(family: str) -> list[Graph]:
    return [incidence_graph(formula).graph for formula in FORMULA_FAMILIES[family]()]


# Graph families for the differential tests against the reference search:
# criterion 6's two halves (random graphs, which are not bipartite, and
# incidence graphs of small random 3-CNF), then larger 3-CNF, grids and
# disjoint triangles, and the rings as incidence graphs and as plain graphs
# with odd cycles.
FAMILIES = {
    "random-graphs": lambda: [
        random_graph(seed, nodes=(4, 16), edges=(3, 30)) for seed in range(100)
    ],
    "random-3cnf": lambda: incidence_graphs("random-3cnf"),
    "larger-3cnf": lambda: incidence_graphs("larger-3cnf"),
    "grids": lambda: incidence_graphs("grids"),
    "triangles": lambda: incidence_graphs("triangles"),
    "rings": lambda: incidence_graphs("rings") + [ring_graph(*shape) for shape in RING_SHAPES],
}
# (ring length, pendant path length, theta chord length) of the ring family.
RING_SHAPES = [
    (3, 0, 0), (8, 0, 0), (25, 0, 0), (40, 0, 0),
    (9, 2, 0), (30, 1, 0), (31, 3, 0),
    (12, 0, 1), (21, 0, 4), (40, 0, 13), (26, 2, 7),
]
# Packing until maximal: no graph here holds this many disjoint cycles.
MAXIMAL = 10**6


def edge_count(graph: Graph) -> int:
    return sum(len(graph.adjacency[v]) for v in graph.nodes) // 2


def random_partial(rng: random.Random, formula: Formula) -> dict[int, bool]:
    picked = rng.sample(sorted(formula.universe), rng.randint(0, len(formula.universe)))
    return {v: rng.random() < 0.5 for v in picked}


def mapped_back(graph: Graph, clauses: int, kept: list[int], nodes) -> tuple:
    """Nodes of the graph of a restriction, with `clauses` clause nodes, as
    the nodes of the unrestricted `graph`: clause i of the restriction is
    clause kept[i], and a variable keeps its id."""
    return tuple(
        graph.clause_node(kept[n]) if n < clauses else graph.var_node(n - clauses + 1)
        for n in nodes
    )


def restricted(formula: Formula, tau: dict[int, bool]) -> Residual:
    """The view of `formula` restricted by `tau`, one variable at a time."""
    view = Residual.of(formula)
    for variable, value in tau.items():
        view = view.assign(variable, value)
    return view


def reference_adjacency(formula: Formula) -> list[tuple[int, ...]]:
    """The incidence graph's adjacency from sorted per-variable clause
    lists: clause i is node i and joins the nodes m + v - 1 of its
    variables v; every id v up to the largest in the universe has a node,
    joined to the clauses it occurs in."""
    m = len(formula.clauses)
    n = max(formula.universe, default=0)
    holders: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for index, clause in enumerate(formula.clauses):
        for variable in {abs(lit) for lit in clause.literals}:
            holders[variable].append(index)
    rows = [tuple(sorted(m + abs(lit) - 1 for lit in c.literals)) for c in formula.clauses]
    return rows + [tuple(sorted(holders[v])) for v in range(1, n + 1)]


INCIDENCE_FORMULAS = {
    "random-3cnf": lambda: [random_rcnf(30, 45, 3, seed) for seed in range(10)],
    "random-mixed": lambda: [random_instance(seed) for seed in range(60)],
    "grids": lambda: [grid_formula(size) for size in range(2, 8)],
    "parsed": lambda: [
        parse_dimacs(emit_dimacs(random_rcnf(20, 30, 4, seed))) for seed in range(5)
    ],
    "empty-clauses": lambda: [
        Formula.from_ints([[], [1, -2], [], [-2, 3], []], num_vars=3),
        Formula.from_ints([[]], num_vars=0),
        Formula((), frozenset()),
    ],
    "non-occurring": lambda: [
        Formula.from_ints([[2, -4]], num_vars=9),
        Formula.from_ints([], num_vars=5),
    ],
    "gaps": lambda: [with_gaps(random_rcnf(12, 18, 3, seed)) for seed in range(5)]
    + [Formula.from_ints([[-9, 2], [5]]), Formula((), frozenset({3, 7}))],
}


class TestIncidence:
    @pytest.mark.parametrize("family", sorted(INCIDENCE_FORMULAS))
    def test_matches_reference_adjacency(self, family):
        for formula in INCIDENCE_FORMULAS[family]():
            inc = incidence_graph(formula)
            graph = inc.graph
            assert graph.adjacency == reference_adjacency(formula)
            assert graph.nodes == range(len(graph.adjacency))
            assert graph.clauses == len(formula.clauses)
            assert (graph.girth_floor, graph.bipartite) == (4, True)
            assert len(inc.literals) == len(formula.clauses)
            for index, clause in enumerate(formula.clauses):
                assert inc.literals[index] is clause.literals

    def test_signs(self):
        f = Formula.from_ints([[1, -2]], num_vars=2)
        inc = incidence_graph(f)
        assert inc.sign(1, 0) is True
        assert inc.sign(2, 0) is False
        assert inc.sign(1, 1) is None
        assert inc.graph.clause_node(0) in inc.graph.adjacency[inc.graph.var_node(1)]

    def test_empty_formula(self):
        inc = incidence_graph(Formula((), frozenset()))
        assert inc.graph.nodes == range(0)

    def test_grid_counts(self):
        f = grid_formula(2)
        inc = incidence_graph(f)
        assert len(inc.graph.nodes) == 5 + 4
        assert edge_count(inc.graph) == 12
        assert len(inc.graph.adjacency[inc.graph.var_node(5)]) == 4

    def test_includes_non_occurring_universe_variables(self):
        f = Formula.from_ints([[1]], num_vars=3)
        inc = incidence_graph(f)
        assert inc.graph.var_node(3) in inc.graph.nodes
        assert inc.graph.adjacency[inc.graph.var_node(3)] == ()

    def test_variable_ids_are_capped(self):
        # One node per id up to the largest: a sparse huge id is refused
        # before anything is allocated for it, as a DIMACS header would be.
        with pytest.raises(ResourceLimitError, match="limit 1000000"):
            incidence_graph(Formula.from_ints([[1, 1_000_001]]))
        assert len(incidence_graph(Formula.from_ints([[1, 9]])).graph.nodes) == 1 + 9

    def test_nodes_and_neighbors_are_sorted_tuples(self):
        g = incidence_graph(random_rcnf(12, 20, 3, 7)).graph
        assert g.nodes == range(len(g.adjacency)) and list(g.nodes) == sorted(g.nodes)
        for v in g.nodes:
            around = g.adjacency[v]
            assert isinstance(around, tuple) and list(around) == sorted(around)


class TestRestrictionView:
    def test_true_value_removes_satisfied_clause(self):
        f = Formula.from_ints([[1, 2], [-1, 2]], num_vars=2)
        g = incidence_graph(f).graph
        assert Residual.of(f).assign(1, True).removed == {g.var_node(1), g.clause_node(0)}

    def test_false_value_removes_the_other_clause(self):
        f = Formula.from_ints([[1, 2], [-1, 2]], num_vars=2)
        g = incidence_graph(f).graph
        assert Residual.of(f).assign(1, False).removed == {g.var_node(1), g.clause_node(1)}

    def test_unused_variable_removes_only_itself(self):
        root = Residual.of(Formula((), frozenset({1})))
        assert root.assign(1, True).removed == {root.inc.graph.var_node(1)}
        assert root.removed == set()

    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_view_cycle_is_rebuilt_cycle(self, seed):
        # Restriction keeps the surviving clauses in order, so the view's
        # canonical cycle is the rebuilt graph's with clause ids mapped back.
        rng = random.Random(seed)
        f = random_rcnf(rng.randint(3, 10), rng.randint(1, 15), 3, seed)
        tau = random_partial(rng, f)
        inc, removed = restricted(f, tau)
        kept = [i for i, c in enumerate(f.clauses) if not c.satisfied_by(tau)]
        g = inc.graph
        assert {g.clause_node(i) for i in range(f.num_clauses)} - removed == {
            g.clause_node(i) for i in kept
        }
        assert {g.var_node(v) for v in tau} <= removed
        rebuilt = shortest_cycle(incidence_graph(f.restrict(tau)).graph)
        if rebuilt is not None:
            rebuilt = Cycle(mapped_back(g, rebuilt.clauses, kept, rebuilt.nodes), g.clauses)
        assert shortest_cycle(inc.graph, forbidden=removed) == rebuilt

    @given(st.integers(0, 100_000), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_view_packing_is_rebuilt_packing(self, seed, count):
        rng = random.Random(seed)
        f = random_rcnf(rng.randint(3, 12), rng.randint(1, 24), 3, seed)
        tau = random_partial(rng, f)
        inc, removed = restricted(f, tau)
        kept = [i for i, c in enumerate(f.clauses) if not c.satisfied_by(tau)]

        g = inc.graph
        rebuilt_graph = incidence_graph(f.restrict(tau)).graph
        m = rebuilt_graph.clauses

        rebuilt = disjoint_cycles_or_feedback(rebuilt_graph, count)
        if isinstance(rebuilt, CyclePacking):
            rebuilt = CyclePacking(
                tuple(Cycle(mapped_back(g, m, kept, c.nodes), g.clauses) for c in rebuilt.cycles)
            )
        else:
            rebuilt = FeedbackSet(frozenset(mapped_back(g, m, kept, rebuilt.nodes)))
        view = disjoint_cycles_or_feedback(inc.graph, count, forbidden=removed)
        assert view == rebuilt
        if isinstance(view, FeedbackSet):
            assert not view.nodes & removed


def tuple_node(graph: Graph, node: int) -> tuple[str, int]:
    """An incidence graph's node as the ("clause", index) or ("var", id)
    pair that once named it."""
    if node < graph.clauses:
        return ("clause", node)
    return ("var", node - graph.clauses + 1)


class TupleGraph:
    """The incidence graph with ("clause", index) and ("var", id) nodes,
    built from the formula alone, for the reference cycle search."""

    clauses = 0

    def __init__(self, formula: Formula) -> None:
        adjacency: dict[tuple, list[tuple]] = {("var", v): [] for v in formula.universe}
        for index, clause in enumerate(formula.clauses):
            adjacency[("clause", index)] = [("var", abs(lit)) for lit in clause.literals]
            for lit in clause.literals:
                adjacency[("var", abs(lit))].append(("clause", index))
        self.adjacency = {v: tuple(sorted(around)) for v, around in adjacency.items()}
        self.nodes = tuple(sorted(adjacency))


class TestEncoding:
    """Int node ids keep the order of the tuple names they replaced, so
    canonical cycles and their JSON stay the same."""

    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_int_order_is_tuple_order(self, seed):
        rng = random.Random(seed)
        f = random_rcnf(rng.randint(3, 10), rng.randint(1, 15), 3, seed)
        view = restricted(f, random_partial(rng, f))
        g = view.inc.graph
        kept = [v for v in g.nodes if v not in view.removed]
        assert sorted(kept, key=lambda v: tuple_node(g, v)) == kept
        assert [tuple_node(g, v) for v in g.nodes if v >= g.clauses] == [
            ("var", v) for v in range(1, max(f.universe) + 1)
        ]

    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_view_cycle_is_tuple_cycle(self, seed):
        rng = random.Random(seed)
        f = random_rcnf(rng.randint(3, 10), rng.randint(1, 15), 3, seed)
        view = restricted(f, random_partial(rng, f))
        g = view.inc.graph
        found = shortest_cycle(g, forbidden=view.removed)
        named = reference_shortest_cycle(
            TupleGraph(f), forbidden={tuple_node(g, v) for v in view.removed}
        )
        if named is None:
            assert found is None
        else:
            assert tuple(tuple_node(g, v) for v in found.nodes) == named.nodes
            assert found.to_json() == [{"kind": kind, "id": id_} for kind, id_ in named.nodes]
            assert found.variables == tuple(i for kind, i in named.nodes if kind == "var")
            assert found.clause_indices == tuple(i for kind, i in named.nodes if kind == "clause")


class TestAcyclicity:
    def test_star_is_acyclic(self):
        f = Formula.from_ints([[1, 2, 3]], num_vars=3)
        assert is_acyclic(incidence_graph(f).graph)

    def test_shared_pair_is_cyclic(self):
        f = Formula.from_ints([[1, 2], [1, 2]], num_vars=2)
        assert not is_acyclic(incidence_graph(f).graph)

    def test_empty_graph(self):
        assert is_acyclic(Graph([]))

    def test_forbidden_removes_cycle(self):
        f = Formula.from_ints([[1, 2], [1, 2]], num_vars=2)
        g = incidence_graph(f).graph
        assert is_acyclic(g, forbidden={g.var_node(1)})

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_against_reference(self, family):
        """`is_acyclic` and the component pass at limit 0 agree with the
        edge count on random node removals."""
        rng = random.Random(f"acyclic-{family}")
        seen = set()
        for graph in FAMILIES[family]():
            nodes = list(graph.nodes)
            for _ in range(3):
                forbidden = frozenset(rng.sample(nodes, rng.randint(0, len(nodes))))
                expected = reference_is_acyclic(graph, forbidden)
                assert is_acyclic(graph, forbidden) == expected
                assert (components(graph, forbidden, limit=0) == []) == expected
                seen.add(expected)
        assert seen == {True, False}


class TestShortestCycle:
    def test_four_cycle(self):
        f = Formula.from_ints([[1, 2], [1, 2]], num_vars=2)
        g = incidence_graph(f).graph
        cycle = shortest_cycle(g)
        assert cycle.nodes == (g.clause_node(0), g.var_node(1), g.clause_node(1), g.var_node(2))

    def test_forbidden_kills_it(self):
        f = Formula.from_ints([[1, 2], [1, 2]], num_vars=2)
        g = incidence_graph(f).graph
        assert shortest_cycle(g, forbidden={g.var_node(1)}) is None

    def test_canonical_cycle_normalization(self):
        g = incidence_graph(Formula.from_ints([[1, 2], [1, 2]], num_vars=2)).graph
        c1 = canonical_cycle((g.var_node(2), g.clause_node(0), g.var_node(1), g.clause_node(1)))
        c2 = canonical_cycle((g.clause_node(1), g.var_node(1), g.clause_node(0), g.var_node(2)))
        assert c1 == c2
        assert c1.nodes[0] == g.clause_node(0)

    def test_canonical_rejects_non_cycles(self):
        g = incidence_graph(Formula.from_ints([[1]], num_vars=1)).graph
        with pytest.raises(ContractError):
            canonical_cycle((g.var_node(1), g.clause_node(0)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_matches_exhaustive_enumeration(self, seed):
        g = random_graph(seed, nodes=(3, 10), edges=(2, 18))
        everything = enumerate_simple_cycles(g)
        found = shortest_cycle(g)
        if not everything:
            assert found is None
        else:
            assert found is not None
            shortest = min(len(c) for c in everything)
            assert len(found) == shortest
            assert found.nodes == min(c for c in everything if len(c) == shortest)

    def test_grid_shortest_verified_against_enumeration(self):
        # The extra variable shares a corner with one horizontal and one
        # vertical clause, so four-node cycles exist besides the eight-node face.
        g = incidence_graph(grid_formula(2)).graph
        everything = enumerate_simple_cycles(g)
        found = shortest_cycle(g)
        assert len(found) == min(len(c) for c in everything)
        assert len(found) == 4
        assert grid_formula(2).universe.issuperset(set(found.variables))
        assert 5 in found.variables


class TestAgainstReference:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_shortest_cycle(self, family):
        rng = random.Random(family)
        for g in FAMILIES[family]():
            assert shortest_cycle(g) == reference_shortest_cycle(g)
            forbidden = set(rng.sample(g.nodes, rng.randint(0, len(g.nodes) // 3)))
            assert shortest_cycle(g, forbidden) == reference_shortest_cycle(g, forbidden)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_packing(self, family):
        for g in FAMILIES[family]():
            for count in (1, 2, 3, 5, MAXIMAL):
                assert disjoint_cycles_or_feedback(g, count) == reference_packing(g, count)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_packed_lengths_never_decrease(self, family):
        # The packing carries the last packed length as the next search's
        # girth floor, which is sound only while this holds.
        for g in FAMILIES[family]():
            used: set = set()
            lengths = []
            while (cycle := shortest_cycle(g, used)) is not None:
                lengths.append(len(cycle))
                used |= cycle.node_set
            assert lengths == sorted(lengths)

    def test_bipartite_floor_stays_on_incidence_graphs(self):
        # A 4-cycle on the smallest nodes and a triangle on larger ones: a
        # floor of 4 would stop the girth search at the 4-cycle.
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)]
        adjacency: dict[int, list[int]] = {v: [] for v in range(7)}
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        g = Graph([tuple(sorted(adjacency[v])) for v in range(7)])
        assert (g.girth_floor, g.bipartite) == (3, False)
        inc = incidence_graph(triangle()).graph
        assert (inc.girth_floor, inc.bipartite) == (4, True)
        assert shortest_cycle(g).nodes == (4, 5, 6)
        packing = disjoint_cycles_or_feedback(g, 2)
        assert [c.nodes for c in packing.cycles] == [(4, 5, 6), (0, 1, 2, 3)]


class TestGirthKernel:
    """`_girth` against the search before its earlier cut and its peel: the
    same length and anchor, with the graph's own floor and with the girth
    itself as the floor."""

    @staticmethod
    def agree(g: Graph, allowed: bytearray) -> None:
        expected = reference_unpeeled_girth(g, allowed, g.girth_floor)
        assert _girth(g, allowed, g.girth_floor) == expected
        if expected is not None:
            assert _girth(g, allowed, expected[0]) == expected

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_matches_the_unpeeled_search(self, family):
        rng = random.Random(family)
        for g in FAMILIES[family]():
            self.agree(g, bytearray(b"\x01") * len(g.nodes))
            for _ in range(3):
                self.agree(g, bytearray(rng.random() < 0.85 for _ in g.nodes))

    def test_floor_four_is_not_bipartite(self):
        # Graphs whose girth is at least 4 but which may hold odd cycles:
        # the earlier bipartite cut must not apply to them.
        checked = 0
        for seed in range(300):
            g = random_graph(seed, nodes=(6, 20), edges=(6, 30))
            found = _girth(g, bytearray(b"\x01") * len(g.nodes), 3)
            if found is not None and found[0] >= 4:
                checked += 1
                self.agree(Graph(g.adjacency, girth_floor=4), bytearray(b"\x01") * len(g.nodes))
        assert checked > 10
        # A 6-cycle on the smallest nodes and a 5-cycle on larger ones.
        edges = [(v, (v + 1) % 6) for v in range(6)] + [(6 + v, 6 + (v + 1) % 5) for v in range(5)]
        adjacency: dict[int, list[int]] = {v: [] for v in range(11)}
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        g = Graph([tuple(sorted(adjacency[v])) for v in range(11)], girth_floor=4)
        assert _girth(g, bytearray(b"\x01") * 11, 4) == (5, 6)
        assert shortest_cycle(g).nodes == (6, 7, 8, 9, 10)


class TestDichotomy:
    def test_three_disjoint_cycles(self):
        out = disjoint_cycles_or_feedback(incidence_graph(three_islands()).graph, 3)
        assert isinstance(out, CyclePacking)
        assert len(out.cycles) == 3
        seen: set = set()
        for cycle in out.cycles:
            assert not (cycle.node_set & seen)
            seen |= cycle.node_set

    def test_forest_yields_empty_feedback(self):
        f = Formula.from_ints([[1, 2], [2, 3]], num_vars=3)
        out = disjoint_cycles_or_feedback(incidence_graph(f).graph, 2)
        assert isinstance(out, FeedbackSet)
        assert out.nodes == frozenset()

    def test_single_cycle_requesting_two(self):
        g = incidence_graph(triangle()).graph
        out = disjoint_cycles_or_feedback(g, 2)
        assert isinstance(out, FeedbackSet)
        assert is_acyclic(g, forbidden=out.nodes)

    def test_requires_positive_count(self):
        with pytest.raises(ContractError):
            disjoint_cycles_or_feedback(Graph([]), 0)

    @given(st.integers(0, 10_000), st.sampled_from([2, 3, 5]))
    @settings(max_examples=100, deadline=None)
    def test_always_valid(self, seed, count):
        g = random_graph(seed, nodes=(4, 14), edges=(3, 26))
        out = disjoint_cycles_or_feedback(g, count)
        if isinstance(out, CyclePacking):
            assert len(out.cycles) >= count
            seen: set = set()
            for cycle in out.cycles:
                assert not (cycle.node_set & seen)
                seen |= cycle.node_set
                ring = cycle.nodes
                for i, node in enumerate(ring):
                    assert ring[(i + 1) % len(ring)] in g.adjacency[node]
        else:
            assert is_acyclic(g, forbidden=out.nodes)


class TestRestrictionAcyclicity:
    def test_triangle_with_one_assignment(self):
        assert restriction_is_acyclic(triangle(), {1: True})

    def test_empty_assignment_on_cyclic(self):
        assert not restriction_is_acyclic(triangle(), {})

    def test_total_assignment_always_acyclic(self):
        f = random_rcnf(6, 10, 3, 3)
        tau = {v: v % 2 == 0 for v in f.universe}
        assert restriction_is_acyclic(f, tau)

    def test_outside_universe_rejected(self):
        with pytest.raises(ContractError):
            restriction_is_acyclic(triangle(), {9: True})
        message = "assignment mentions variables outside universe: [7, 9]"
        with pytest.raises(ContractError, match=re.escape(message)):
            restriction_is_acyclic(triangle(), {9: True, 1: False, 7: True})

    def test_builds_one_view(self, monkeypatch):
        # The removed set is built once, not copied per assigned variable.
        views = []
        build = Residual.__new__

        def counted(cls, *args):
            views.append(args)
            return build(cls, *args)

        monkeypatch.setattr(Residual, "__new__", counted)
        f = grid_formula(6)
        assert restriction_is_acyclic(f, {v: True for v in f.universe})
        assert not restriction_is_acyclic(f, {})
        assert len(views) == 2

    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_equivalent_to_direct_restriction(self, seed):
        rng = random.Random(seed)
        f = random_rcnf(rng.randint(3, 10), rng.randint(1, 15), 3, seed)
        tau = random_partial(rng, f)
        direct = reference_is_acyclic(incidence_graph(f.restrict(tau)).graph)
        assert restriction_is_acyclic(f, tau) == direct


def components(graph: Graph, forbidden=frozenset(), scope=None, limit=None) -> list:
    """`cyclic_components` of the graph minus `forbidden`, on a fresh mask."""
    return cyclic_components(graph, graph.mask(forbidden), scope, limit)


class TestCyclicComponents:
    def test_disjoint_unions(self):
        assert components(incidence_graph(triangle()).graph) == [[0, 3, 4, 1, 2]]
        graph = incidence_graph(disjoint_triangles(5)).graph
        assert len(components(graph)) == 5
        assert len(components(graph, limit=2)) == 3
        assert components(incidence_graph(Formula.from_ints([[1, 2]])).graph) == []

    def test_a_cut_can_split_one_component_in_two(self):
        inc = incidence_graph(grid_formula(4)).graph
        assert len(components(inc)) == 1
        # Without the hub variable 17, these four cut the faces in two.
        removed = {inc.var_node(v) for v in (1, 6, 11, 12, 17)}
        found = components(inc, removed)
        assert len(found) == 2
        assert [sorted(c) for c in found] == reference_cyclic_components(inc, removed)

    def test_marks_what_it_reaches(self):
        graph = incidence_graph(Formula.from_ints([[1, 2], [-1, -2], [3, 4]])).graph
        state = graph.mask({graph.var_node(4)})
        assert cyclic_components(graph, state) == [[0, 3, 4, 1]]
        # The removed node keeps its 1; every other node was reached.
        assert state == bytearray([2, 2, 2, 2, 2, 2, 1])

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_against_reference(self, family):
        rng = random.Random(family)
        for graph in FAMILIES[family]():
            nodes = list(graph.nodes)
            for _ in range(3):
                forbidden = frozenset(rng.sample(nodes, rng.randint(0, len(nodes) // 3)))
                expected = reference_cyclic_components(graph, forbidden)
                found = components(graph, forbidden)
                assert [sorted(c) for c in found] == expected
                limit = rng.randint(0, 3)
                limited = components(graph, forbidden, limit=limit)
                assert limited[:limit] == found[:limit]
                assert len(limited) == min(len(found), limit + 1)
                if len(limited) > limit:
                    # Cut short at its first cycle: a prefix of the full list.
                    last = limited[limit]
                    assert last == found[limit][: len(last)]

    def test_limit_zero_stops_at_the_first_cycle(self):
        # A triangle on nodes 0 to 2, with a 10,000-node path hanging from 2.
        size = 10_003
        edges = [(0, 1), (0, 2), (1, 2)] + [(v, v + 1) for v in range(2, size - 1)]
        adjacency: list[list[int]] = [[] for _ in range(size)]
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        graph = Graph([tuple(sorted(a)) for a in adjacency])
        assert components(graph) == [list(range(size))]
        state = graph.mask(())
        # Node 1's turn closes the triangle, before node 2 reaches the path.
        assert cyclic_components(graph, state, limit=0) == [[0, 1, 2]]
        assert state[3:] == bytes(size - 3)

    def test_limit_stops_in_the_component_past_it(self):
        graph = incidence_graph(disjoint_triangles(5)).graph
        found = components(graph)
        state = graph.mask(())
        limited = cyclic_components(graph, state, limit=2)
        assert len(limited) == 3 and limited[:2] == found[:2]
        assert limited[2] == found[2][: len(limited[2])]
        # The fourth and fifth triangles are never reached.
        assert [state[v] for v in found[3] + found[4]] == [0] * 10

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_scoped_against_reference(self, family):
        """With a scope, the components that meet it, by their first node in it."""
        rng = random.Random(f"scoped-{family}")
        for graph in FAMILIES[family]():
            nodes = list(graph.nodes)
            for _ in range(3):
                forbidden = frozenset(rng.sample(nodes, rng.randint(0, len(nodes) // 3)))
                scope = rng.sample(nodes, rng.randint(0, len(nodes)))
                reference = reference_cyclic_components(graph, forbidden)
                expected = sorted(
                    (c for c in reference if not set(scope).isdisjoint(c)),
                    key=lambda c: min(scope.index(v) for v in c if v in scope),
                )
                found = components(graph, forbidden, scope)
                assert [sorted(c) for c in found] == expected

    @pytest.mark.parametrize("family", sorted(FORMULA_FAMILIES))
    def test_tree_dp_lists_the_reference_components(self, family):
        """`split_count` lists the cyclic components' node lists, by their
        least variable node."""
        rng = random.Random(f"dp-{family}")
        for formula in FORMULA_FAMILIES[family]():
            inc = incidence_graph(formula)
            graph, m = inc.graph, inc.graph.clauses
            nodes = list(graph.nodes)
            for _ in range(3):
                forbidden = frozenset(rng.sample(nodes, rng.randint(0, len(nodes) // 3)))
                expected = sorted(
                    reference_cyclic_components(graph, forbidden),
                    key=lambda c: min(v for v in c if v >= m),
                )
                _, cyclic = split_count(inc, graph.mask(forbidden), len(nodes) - m)
                assert [sorted(c) for c in cyclic] == expected
