"""Incidence graphs and their restriction views, cycles, and the packing
dichotomy."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbd import (
    ContractError,
    CyclePacking,
    FeedbackSet,
    Formula,
    disjoint_cycles_or_feedback,
    grid_formula,
    incidence_graph,
    is_acyclic,
    random_rcnf,
    restriction_is_acyclic,
    shortest_cycle,
)
from forestbd.graphs import (
    Cycle,
    Graph,
    canonical_cycle,
    clause_node,
    var_node,
)
from instances import (
    disjoint_triangles,
    enumerate_simple_cycles,
    random_graph,
    random_instance,
    reference_packing,
    reference_shortest_cycle,
    three_islands,
    triangle,
)

# Graph families for the differential tests against the reference search:
# criterion 6's two halves (random graphs, which are not bipartite, and
# incidence graphs of small random 3-CNF), then larger 3-CNF, grids and
# disjoint triangles.
FAMILIES = {
    "random-graphs": lambda: [
        random_graph(seed, nodes=(4, 16), edges=(3, 30)) for seed in range(100)
    ],
    "random-3cnf": lambda: [
        incidence_graph(random_instance(seed + 40_000)).graph for seed in range(100)
    ],
    "larger-3cnf": lambda: [
        incidence_graph(random_rcnf(40, 60, 3, seed)).graph for seed in range(8)
    ],
    "grids": lambda: [incidence_graph(grid_formula(size)).graph for size in range(2, 9)],
    "triangles": lambda: [
        incidence_graph(disjoint_triangles(count)).graph for count in (1, 2, 5, 12)
    ],
}
# Packing until maximal: no graph here holds this many disjoint cycles.
MAXIMAL = 10**6


def edge_count(graph: Graph) -> int:
    return sum(len(graph.neighbors(v)) for v in graph.nodes) // 2


def random_partial(rng: random.Random, formula: Formula) -> dict[int, bool]:
    picked = rng.sample(sorted(formula.universe), rng.randint(0, len(formula.universe)))
    return {v: rng.random() < 0.5 for v in picked}


class TestIncidence:
    def test_signs(self):
        f = Formula.from_ints([[1, -2]], num_vars=2)
        inc = incidence_graph(f)
        assert inc.sign(1, 0) is True
        assert inc.sign(2, 0) is False
        assert inc.sign(1, 1) is None
        assert inc.graph.has_edge(var_node(1), clause_node(0))

    def test_empty_formula(self):
        inc = incidence_graph(Formula((), frozenset()))
        assert inc.graph.nodes == ()

    def test_grid_counts(self):
        f = grid_formula(2)
        inc = incidence_graph(f)
        assert len(inc.graph.nodes) == 5 + 4
        assert edge_count(inc.graph) == 12
        assert len(inc.graph.neighbors(var_node(5))) == 4

    def test_includes_non_occurring_universe_variables(self):
        f = Formula.from_ints([[1]], num_vars=3)
        inc = incidence_graph(f)
        assert var_node(3) in inc.graph.nodes
        assert inc.graph.neighbors(var_node(3)) == ()

    def test_nodes_and_neighbors_are_sorted_tuples(self):
        g = incidence_graph(random_rcnf(12, 20, 3, 7)).graph
        assert isinstance(g.nodes, tuple) and list(g.nodes) == sorted(g.nodes)
        for v in g.nodes:
            around = g.neighbors(v)
            assert isinstance(around, tuple) and list(around) == sorted(around)


class TestRestrictionView:
    def test_true_value_removes_satisfied_clause(self):
        f = Formula.from_ints([[1, 2], [-1, 2]], num_vars=2)
        assert incidence_graph(f).removed({1: True}) == {var_node(1), clause_node(0)}

    def test_false_value_removes_the_other_clause(self):
        f = Formula.from_ints([[1, 2], [-1, 2]], num_vars=2)
        assert incidence_graph(f).removed({1: False}) == {var_node(1), clause_node(1)}

    def test_unused_variable_removes_only_itself(self):
        inc = incidence_graph(Formula((), frozenset({1})))
        assert inc.removed({1: True}) == {var_node(1)}
        assert inc.removed({}) == set()

    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_view_cycle_is_rebuilt_cycle(self, seed):
        # Restriction keeps the surviving clauses in order, so the view's
        # canonical cycle is the rebuilt graph's with clause ids mapped back.
        rng = random.Random(seed)
        f = random_rcnf(rng.randint(3, 10), rng.randint(1, 15), 3, seed)
        tau = random_partial(rng, f)
        inc = incidence_graph(f)
        removed = inc.removed(tau)
        kept = [i for i, c in enumerate(f.clauses) if not c.satisfied_by(tau)]
        assert {clause_node(i) for i in range(f.num_clauses)} - removed == {
            clause_node(i) for i in kept
        }
        assert {var_node(v) for v in tau} <= removed
        rebuilt = shortest_cycle(incidence_graph(f.restrict(tau)).graph)
        if rebuilt is not None:
            rebuilt = Cycle(
                tuple(clause_node(kept[n[1]]) if n[0] == "clause" else n for n in rebuilt.nodes)
            )
        assert shortest_cycle(inc.graph, forbidden=removed) == rebuilt


class TestAcyclicity:
    def test_star_is_acyclic(self):
        f = Formula.from_ints([[1, 2, 3]], num_vars=3)
        assert is_acyclic(incidence_graph(f).graph)

    def test_shared_pair_is_cyclic(self):
        f = Formula.from_ints([[1, 2], [1, 2]], num_vars=2)
        assert not is_acyclic(incidence_graph(f).graph)

    def test_empty_graph(self):
        assert is_acyclic(Graph({}))

    def test_forbidden_removes_cycle(self):
        f = Formula.from_ints([[1, 2], [1, 2]], num_vars=2)
        g = incidence_graph(f).graph
        assert is_acyclic(g, forbidden={var_node(1)})


class TestShortestCycle:
    def test_four_cycle(self):
        f = Formula.from_ints([[1, 2], [1, 2]], num_vars=2)
        g = incidence_graph(f).graph
        cycle = shortest_cycle(g)
        assert cycle.nodes == (clause_node(0), var_node(1), clause_node(1), var_node(2))

    def test_forbidden_kills_it(self):
        f = Formula.from_ints([[1, 2], [1, 2]], num_vars=2)
        g = incidence_graph(f).graph
        assert shortest_cycle(g, forbidden={var_node(1)}) is None

    def test_canonical_cycle_normalization(self):
        c1 = canonical_cycle((var_node(2), clause_node(0), var_node(1), clause_node(1)))
        c2 = canonical_cycle((clause_node(1), var_node(1), clause_node(0), var_node(2)))
        assert c1 == c2
        assert c1.nodes[0] == clause_node(0)

    def test_canonical_rejects_non_cycles(self):
        with pytest.raises(ContractError):
            canonical_cycle((var_node(1), clause_node(0)))

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
        g = Graph(adjacency)
        assert g.girth_floor == 3
        assert incidence_graph(triangle()).graph.girth_floor == 4
        assert shortest_cycle(g).nodes == (4, 5, 6)
        packing = disjoint_cycles_or_feedback(g, 2)
        assert [c.nodes for c in packing.cycles] == [(4, 5, 6), (0, 1, 2, 3)]


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
            disjoint_cycles_or_feedback(Graph({}), 0)

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
                    assert g.has_edge(node, ring[(i + 1) % len(ring)])
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

    @given(st.integers(0, 100_000))
    @settings(max_examples=200, deadline=None)
    def test_equivalent_to_direct_restriction(self, seed):
        rng = random.Random(seed)
        f = random_rcnf(rng.randint(3, 10), rng.randint(1, 15), 3, seed)
        tau = random_partial(rng, f)
        direct = is_acyclic(incidence_graph(f.restrict(tau)).graph)
        assert restriction_is_acyclic(f, tau) == direct
