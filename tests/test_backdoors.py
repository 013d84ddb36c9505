"""Backdoor verification predicates and kill relations."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbd import (
    ContractError,
    Formula,
    ResourceLimitError,
    grid_formula,
    incidence_graph,
    is_deletion_backdoor,
    is_strong_backdoor,
    random_rcnf,
    shortest_cycle,
    weak_backdoor_witness,
)
from forestbd import acyclic, backdoors, graphs
from forestbd.backdoors import Residual, external_killers
from forestbd.formula import emit_dimacs
from forestbd.graphs import acyclic_without
from forestbd.strong import count_with_backdoor, detect_deletion, strong_exact_search
from forestbd.weak import weak_exact_search
from instances import (
    direct_strong,
    direct_weak_witness,
    disjoint_triangles,
    opposite_sign_clauses,
    triangle,
    two_triangles,
)


class TestDeletion:
    def test_empty_set_on_cyclic(self):
        assert not is_deletion_backdoor(triangle(), frozenset())

    def test_all_variables_always_work(self):
        f = random_rcnf(6, 10, 3, 11)
        assert is_deletion_backdoor(f, f.universe)

    def test_grid_extra_variable_fails(self):
        for size in (2, 3, 4):
            assert not is_deletion_backdoor(grid_formula(size), {size * size + 1})

    def test_grid_with_face_breakers(self):
        # One variable per face plus the extra variable: verified by the
        # acyclicity check itself on the constructed instance.
        f = grid_formula(2)
        assert is_deletion_backdoor(f, {1, 5})

    def test_outside_universe(self):
        with pytest.raises(ContractError):
            is_deletion_backdoor(triangle(), {9})


class TestCompletions:
    def test_walk_order_views_and_assign_count(self, monkeypatch):
        calls = []
        assign = Residual.assign

        def counted(view, variable, value):
            calls.append(variable)
            return assign(view, variable, value)

        monkeypatch.setattr(Residual, "assign", counted)
        for seed in range(60):
            rng = random.Random(seed)
            f = random_rcnf(rng.randint(3, 9), rng.randint(1, 14), 3, seed)
            variables = rng.sample(sorted(f.universe), rng.randint(0, min(5, len(f.universe))))
            ordered = sorted(variables)
            root = Residual.of(f)
            calls.clear()
            walked = list(root.completions(variables))
            assert len(calls) == 2 ** (len(variables) + 1) - 2
            # Every assignment once, lexicographic with False first.
            assert [tau for tau, _ in walked] == [
                dict(zip(ordered, bits))
                for bits in itertools.product((False, True), repeat=len(ordered))
            ]
            for tau, view in walked:
                # The same view from the root, assigning in the other order.
                direct = root
                for variable in reversed(ordered):
                    direct = assign(direct, variable, tau[variable])
                assert view == direct


def removed_nodes(mask: bytearray) -> frozenset:
    return frozenset(node for node, mark in enumerate(mask) if mark)


class TestConditioned:
    @staticmethod
    def expected_walk(root: Residual, ordered: list[int]) -> tuple[list, list]:
        """The removed nodes of every prefix the walk tests, each once in walk
        order, and per full assignment its shortest prefix with an acyclic
        view (or the whole assignment) as (removed nodes, unassigned,
        acyclic), each once in walk order; built from `Residual` views."""
        tested, leaves, seen = [], [], set()
        for bits in itertools.product((False, True), repeat=len(ordered)):
            view = root
            for depth in range(len(ordered) + 1):
                if depth:
                    view = view.assign(ordered[depth - 1], bits[depth - 1])
                forest = view.acyclic()
                if bits[:depth] not in seen:
                    seen.add(bits[:depth])
                    tested.append(view.removed)
                    if forest or depth == len(ordered):
                        leaves.append((view.removed, len(ordered) - depth, forest))
                if forest:
                    break
        return tested, leaves

    @staticmethod
    def walk(root: Residual, ordered: list[int]) -> tuple[list, list]:
        """What `conditioned` tests and yields, in the form of `expected_walk`."""
        graph = root.inc.graph
        tested: list[frozenset] = []

        def test(mask: bytearray):
            tested.append(removed_nodes(mask))
            return tested[-1] if acyclic_without(graph, mask) else None

        leaves = []
        for removed, unassigned in root.conditioned(ordered, test):
            forest = removed is not None
            leaves.append((removed if forest else tested[-1], unassigned, forest))
        return tested, leaves

    def test_walk_matches_first_acyclic_prefixes(self):
        for seed in range(80):
            rng = random.Random(seed)
            f = random_rcnf(rng.randint(3, 9), rng.randint(1, 14), 3, seed)
            if seed % 2:
                f = grid_formula(rng.randint(2, 4))
            ordered = rng.sample(sorted(f.universe), rng.randint(0, min(6, len(f.universe))))
            root = Residual.of(f)
            tested, leaves = self.walk(root, ordered)
            assert (tested, leaves) == self.expected_walk(root, ordered)
            # The leaves split the assignments of `ordered` between them.
            assert sum(2**unassigned for _, unassigned, _ in leaves) == 2 ** len(ordered)
            assert all(forest for _, unassigned, forest in leaves if unassigned)

    def test_acyclic_root_is_the_only_leaf(self):
        f = Formula.from_ints([[1, 2], [-2, 3]], num_vars=3)
        root = Residual.of(f)
        assert self.walk(root, [3, 1, 2]) == ([frozenset()], [(frozenset(), 3, True)])
        assert self.walk(root, []) == ([frozenset()], [(frozenset(), 0, True)])

    def test_counting_traverses_each_tested_prefix_once(self, monkeypatch):
        """Counting tests a prefix with the tree DP alone: no acyclicity
        search runs, and the DP sees each prefix the walk tests once."""
        seen: list[frozenset] = []
        tables = acyclic._TreeTables

        def spied(inc, state):
            seen.append(removed_nodes(state))
            return tables(inc, state)

        def no_search(adjacency, state):
            raise AssertionError("counting ran an acyclicity search")

        for f, cutset in [
            (grid_formula(3), [10, 1, 5]),
            (grid_formula(4), [17, 6, 7, 10, 11, 1]),
            (disjoint_triangles(3), [1, 3, 5]),
        ]:
            root = Residual.of(f)
            tested, _ = self.expected_walk(root, root.by_degree(cutset))
            seen.clear()
            with monkeypatch.context() as patch:
                patch.setattr(acyclic, "_TreeTables", spied)
                patch.setattr(graphs, "_forest", no_search)
                count_with_backdoor(f, cutset, f.universe)
            assert len(tested) > 1
            assert seen == tested

    def test_a_walk_leaves_no_trace_on_the_next(self):
        root = Residual.of(grid_formula(3))
        ordered = root.by_degree([10, 1, 2, 4, 5])
        whole = self.walk(root, ordered)
        # Stopped at its second full assignment, deep in the walk.
        stopped = root.conditioned(ordered, lambda mask: None)
        assert [next(stopped), next(stopped)] == [(None, 0), (None, 0)]
        stopped.close()
        assert self.walk(root, ordered) == whole
        # Run to the end.
        assert len(list(root.conditioned(ordered, lambda mask: None))) == 2**5
        assert self.walk(root, ordered) == whole
        assert root.removed == frozenset()

    def test_by_degree(self):
        # Grid 4's extra variable is in all 24 clauses; the four centre
        # cells in four, the other edge cells in three, the corners in two.
        order = Residual.of(grid_formula(4)).by_degree(range(1, 18))
        assert order == [17, 6, 7, 10, 11, 2, 3, 5, 8, 9, 12, 14, 15, 1, 4, 13, 16]


class TestStrong:
    def test_grid_extra_variable(self):
        for size in (2, 3, 4):
            assert is_strong_backdoor(grid_formula(size), {size * size + 1})

    def test_triangle_single_variable(self):
        assert is_strong_backdoor(triangle(), {1})

    def test_empty_set_on_cyclic(self):
        assert not is_strong_backdoor(triangle(), frozenset())

    def test_size_guard(self):
        f = Formula((), frozenset(range(1, 40)))
        with pytest.raises(ResourceLimitError):
            is_strong_backdoor(f, f.universe)

    @given(st.integers(0, 50_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_restriction_loop(self, seed):
        rng = random.Random(seed)
        f = random_rcnf(rng.randint(3, 8), rng.randint(2, 10), 3, seed)
        candidate = frozenset(rng.sample(sorted(f.universe), rng.randint(0, 3)))
        assert is_strong_backdoor(f, candidate) == direct_strong(f, candidate)

    @given(st.integers(0, 50_000))
    @settings(max_examples=40, deadline=None)
    def test_superset_closure(self, seed):
        rng = random.Random(seed)
        f = random_rcnf(6, 8, 3, seed)
        candidate = frozenset(rng.sample(sorted(f.universe), rng.randint(0, 2)))
        if is_strong_backdoor(f, candidate):
            extra = rng.choice(sorted(f.universe))
            assert is_strong_backdoor(f, candidate | {extra})

    @given(st.integers(0, 50_000))
    @settings(max_examples=40, deadline=None)
    def test_deletion_implies_strong(self, seed):
        rng = random.Random(seed)
        f = random_rcnf(rng.randint(3, 8), rng.randint(2, 10), 3, seed)
        candidate = frozenset(rng.sample(sorted(f.universe), rng.randint(0, 3)))
        if is_deletion_backdoor(f, candidate):
            assert is_strong_backdoor(f, candidate)


class TestWeak:
    def test_grid_extra_variable(self):
        f = grid_formula(2)
        witness = weak_backdoor_witness(f, {5})
        assert witness is not None
        assert set(witness) == {5}

    def test_unsatisfiable_formula_has_no_witness(self):
        f = Formula.from_ints([[], [1, 2]], num_vars=2)
        assert weak_backdoor_witness(f, {1, 2}) is None

    def test_empty_set_on_acyclic_satisfiable(self):
        f = Formula.from_ints([[1, 2]], num_vars=2)
        assert weak_backdoor_witness(f, frozenset()) == {}

    def test_witness_skips_unsatisfiable_restriction(self):
        # The False branch leaves (y) and (not y): acyclic but unsatisfiable,
        # so the reported witness is the True branch.
        witness = weak_backdoor_witness(triangle(), {1})
        assert witness == {1: True}

    def test_two_gadgets_need_two_variables(self):
        f = two_triangles()
        assert weak_backdoor_witness(f, {1}) is None
        assert weak_backdoor_witness(f, {1, 3}) is not None

    @given(st.integers(0, 50_000))
    @settings(max_examples=80, deadline=None)
    def test_matches_direct_enumeration(self, seed):
        rng = random.Random(seed)
        f = random_rcnf(rng.randint(3, 8), rng.randint(2, 10), 3, seed)
        candidate = frozenset(rng.sample(sorted(f.universe), rng.randint(0, 3)))
        assert weak_backdoor_witness(f, candidate) == direct_weak_witness(f, candidate)

    def test_strong_of_satisfiable_extends_to_weak(self):
        f = grid_formula(3)
        assert is_strong_backdoor(f, {10})
        assert weak_backdoor_witness(f, {10}) is not None

    @given(st.integers(0, 50_000))
    @settings(max_examples=40, deadline=None)
    def test_witness_extends_to_supersets(self, seed):
        rng = random.Random(seed)
        f = random_rcnf(6, 8, 3, seed)
        candidate = frozenset(rng.sample(sorted(f.universe), rng.randint(0, 2)))
        if weak_backdoor_witness(f, candidate) is None:
            return
        extra = rng.choice(sorted(f.universe - candidate)) if f.universe - candidate else None
        if extra is not None:
            assert weak_backdoor_witness(f, candidate | {extra}) is not None


class TestSearchStateGuard:
    """The weak, strong and deletion exact searches share one memo cap."""

    # Each input is connected and has no backdoor of the kind within the
    # budget, so its search memoizes more than five states before it
    # answers no. Disjoint triangles would answer no through the cyclic-
    # component bound (and, for deletion, the packing bound) first; grid 4
    # packs only four disjoint cycles, so deletion searches at 4.
    SEARCHES = {
        "weak": (weak_exact_search, lambda: random_rcnf(7, 10, 3, 1), 2),
        "strong": (strong_exact_search, lambda: random_rcnf(7, 10, 3, 1), 3),
        "deletion": (detect_deletion, lambda: grid_formula(4), 4),
    }

    @pytest.mark.parametrize("kind", list(SEARCHES))
    def test_component_bound_answers_before_the_cap(self, monkeypatch, kind):
        # Four triangles are four cyclic components, one more than the budget.
        search = self.SEARCHES[kind][0]
        monkeypatch.setattr(backdoors, "MAX_SEARCH_STATES", 1)
        assert not search(disjoint_triangles(4), 3).found

    @pytest.mark.parametrize("kind", list(SEARCHES))
    def test_each_exact_search_trips_the_cap(self, monkeypatch, kind):
        search, build, budget = self.SEARCHES[kind]
        f = build()
        assert not search(f, budget).found
        monkeypatch.setattr(backdoors, "MAX_SEARCH_STATES", 5)
        with pytest.raises(ResourceLimitError, match="more than 5 states"):
            search(f, budget)

    @pytest.mark.parametrize("kind", list(SEARCHES))
    def test_cli_exits_3(self, monkeypatch, tmp_path, kind):
        from test_cli import run

        _, build, budget = self.SEARCHES[kind]
        path = tmp_path / "input.cnf"
        path.write_text(emit_dimacs(build()), encoding="ascii")
        monkeypatch.setattr(backdoors, "MAX_SEARCH_STATES", 5)
        code, out, err = run(["detect", kind, "--cnf", str(path), "-k", str(budget)])
        assert code == 3 and out == ""
        assert "states" in err


class TestKillRelations:
    def test_external_killers_found(self):
        f = Formula.from_ints([[1, 2, 5], [1, 2]], num_vars=5)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph)
        assert external_killers(inc, cycle, f.universe - {1, 2}) == frozenset({5})

    def test_self_contained_cycle_has_none(self):
        f = Formula.from_ints([[1, 2], [1, 2]], num_vars=3)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph)
        assert external_killers(inc, cycle, f.universe - {1, 2}) == frozenset()

    def test_grid_face_killed_by_extra_variable(self):
        f = grid_formula(2)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph, forbidden={inc.graph.var_node(5)})
        assert 5 in external_killers(inc, cycle, frozenset({5}))

    def test_opposite_sign_pair(self):
        f = Formula.from_ints([[1, 2, 5], [1, 2, -5], [1, 2]], num_vars=5)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph, forbidden={inc.graph.var_node(5)})
        pair = opposite_sign_clauses(inc, 5, cycle)
        assert pair == (0, 1)

    def test_same_sign_is_not_a_strong_kill(self):
        f = Formula.from_ints([[1, 2, 5], [1, 2, 5], [1, 2]], num_vars=5)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph, forbidden={inc.graph.var_node(5)})
        assert opposite_sign_clauses(inc, 5, cycle) is None

    def test_on_cycle_variable_rejected(self):
        f = Formula.from_ints([[1, 2], [1, 2]], num_vars=2)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph)
        with pytest.raises(ContractError):
            opposite_sign_clauses(inc, 1, cycle)

    def test_opposite_pair_removes_cycle_under_both_values(self):
        f = Formula.from_ints([[1, 2, 5], [1, 2, -5], [1, 2]], num_vars=5)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph, forbidden={inc.graph.var_node(5)})
        pair = opposite_sign_clauses(inc, 5, cycle)
        assert pair is not None
        # Either value of the variable satisfies one of the pair, so a clause
        # node of the cycle vanishes from the restricted incidence graph.
        for value in (False, True):
            survivors = {
                index
                for index, clause in enumerate(f.clauses)
                if not clause.satisfied_by({5: value})
            }
            assert not set(cycle.clause_indices) <= survivors
