"""Backdoor verification predicates and kill relations."""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbd import (
    ContractError,
    brute_count,
    Formula,
    ResourceLimitError,
    grid_formula,
    incidence_graph,
    is_acyclic,
    is_deletion_backdoor,
    is_strong_backdoor,
    random_rcnf,
    shortest_cycle,
    weak_backdoor_witness,
)
from forestbd import acyclic, backdoors, graphs, strong, weak
from forestbd.backdoors import (
    Conditioning,
    Residual,
    deletion_killers,
    first_leaf,
    opposite_signs,
    strong_killers,
    weak_killers,
)
from forestbd.formula import emit_dimacs
from forestbd.strong import count_with_backdoor, detect_deletion, strong_exact_search
from forestbd.weak import detect_weak, weak_exact_search
from instances import (
    direct_strong,
    direct_weak_witness,
    disjoint_squares,
    disjoint_triangles,
    disjoint_union,
    k33_gadgets,
    random_hitting_formula,
    reference_completions,
    reference_count_with_backdoor,
    reference_cyclic_components,
    reference_killers,
    reference_weak_witness,
    ring_formula,
    theta_formula,
    triangle,
    two_triangles,
    unsatisfiable_forest,
)
from test_strong import outcome


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


def walk_case(seed: int) -> tuple[Formula, list[int]]:
    rng = random.Random(seed)
    f = random_rcnf(rng.randint(3, 9), rng.randint(1, 14), 3, seed)
    variables = rng.sample(sorted(f.universe), rng.randint(0, min(5, len(f.universe))))
    return f, variables


def marked(mask: bytearray) -> frozenset:
    return frozenset(n for n, mark in enumerate(mask) if mark)


class TestCompletions:
    """`first_leaf`, the ordered walk behind the weak witness and the strong
    exact search, against `reference_completions`."""

    def test_unpruned_walk_matches_the_reference(self):
        for seed in range(60):
            f, variables = walk_case(seed)
            ordered = sorted(variables)
            root = Residual.of(f)
            walk = Conditioning(root, ordered)
            leaves, asked = [], []

            def hit(values):
                leaves.append((dict(zip(ordered, values)), marked(walk.mask)))

            def dead(values):
                asked.append(list(values))
                return False

            assert first_leaf(walk, hit, dead) is None
            # Every assignment once, lexicographic with False first, each
            # with the view the reference assigns whole from the root.
            assert leaves == [
                (tau, view.removed) for tau, view in reference_completions(root, variables)
            ]
            # Only True branches above the last variable are asked about.
            assert all(values[-1] for values in asked)
            assert all(len(values) < len(ordered) for values in asked)
            assert len(asked) == max(0, 2 ** (len(ordered) - 1) - 1)

    def test_pruned_walk_returns_the_first_hit(self):
        hits = 0
        for seed in range(120):
            f, variables = walk_case(seed)
            ordered = sorted(variables)
            root = Residual.of(f)
            rng = random.Random(seed)
            # Leaves whose view is cyclic hit, as in the strong exact search.
            targets = [
                tau
                for tau, view in reference_completions(root, variables)
                if not view.acyclic()
            ]
            walk = Conditioning(root, ordered)

            def hit(values):
                return None if is_acyclic(walk.inc.graph, marked(walk.mask)) else list(values)

            def dead(values):
                # Fires only where no target lies below, and then not always.
                prefix = dict(zip(ordered, values))
                below = any(prefix.items() <= tau.items() for tau in targets)
                return not below and rng.random() < 0.7

            found = first_leaf(walk, hit, dead)
            first = [targets[0][v] for v in ordered] if targets else None
            assert found == first
            assert walk.mask == Conditioning(root, ordered).mask
            hits += found is not None
        assert hits >= 20


def live_nodes(mask: bytearray, scope) -> frozenset:
    """The nodes of `scope` (every node if None) that `mask` leaves 0."""
    return frozenset(n for n in (range(len(mask)) if scope is None else scope) if not mask[n])


class TestConditioned:
    """The component walk behind counting through a strong backdoor and
    strong verification."""

    @staticmethod
    def branch_variable(graph, cutset, component: frozenset) -> Optional[int]:
        """The cutset variable the walk branches on in a cyclic component,
        given as its live node set: the one with the most clause neighbours
        in the component that hold another variable of it, ties to the
        smallest id. None when no cutset variable is in the component."""
        adjacency = graph.adjacency

        def score(v: int) -> int:
            node = graph.var_node(v)
            return sum(
                1
                for c in adjacency[node]
                if c in component and any(u in component for u in adjacency[c] if u != node)
            )

        inside = [v for v in cutset if graph.var_node(v) in component]
        return min(inside, key=lambda v: (-score(v), v), default=None)

    @classmethod
    def expected_views(
        cls, root: Residual, cutset: list[int], cached: bool = True
    ) -> Optional[Counter]:
        """The live node sets of the views the component walk splits, as a
        multiset, built from `Residual` views: the root's, then for each
        distinct cyclic component met (each one met, if not `cached`), the
        component less what each value of its `branch_variable` removes.
        None when some cyclic component holds no variable of `cutset`."""
        graph = root.inc.graph
        every = frozenset(graph.nodes)
        views: Counter = Counter()
        met: set[frozenset] = set()

        def visit(view: Residual, scope: frozenset) -> bool:
            live = scope - view.removed
            views[live] += 1
            for nodes in reference_cyclic_components(graph, every - live):
                key = frozenset(nodes)
                if cached and key in met:
                    continue
                met.add(key)
                first = cls.branch_variable(graph, cutset, key)
                if first is None:
                    return False
                for value in (False, True):
                    if not visit(view.assign(first, value), key):
                        return False
            return True

        return views if visit(root, every) else None

    @staticmethod
    def spy_views(monkeypatch) -> tuple[Counter, Counter]:
        """Record the live node sets that counting's tree DP and
        verification's component pass are given."""
        dp_views: Counter = Counter()
        pass_views: Counter = Counter()
        tables = acyclic._TreeTables
        components = backdoors.cyclic_components

        def dp(inc, state, scope=None):
            dp_views[live_nodes(state, scope)] += 1
            return tables(inc, state, scope)

        def split(graph, state, scope=None, limit=None):
            pass_views[live_nodes(state, scope)] += 1
            return components(graph, state, scope, limit)

        monkeypatch.setattr(acyclic, "_TreeTables", dp)
        monkeypatch.setattr(backdoors, "cyclic_components", split)
        return dp_views, pass_views

    def test_walk_matches_the_reference_component_walk(self, monkeypatch):
        dp_views, pass_views = self.spy_views(monkeypatch)
        strong_sets = 0
        for seed in range(80):
            rng = random.Random(seed)
            f = random_rcnf(rng.randint(3, 9), rng.randint(1, 14), 3, seed)
            if seed % 4 == 1:
                f = grid_formula(rng.randint(2, 4))
            elif seed % 4 == 3:
                small = random_rcnf(4, rng.randint(1, 5), 3, seed)
                f = disjoint_union(k33_gadgets(1), small, triangle())
            universe = sorted(f.universe)
            size = rng.randint(0, min(6, len(universe)))
            if seed % 3 == 0:
                # Most of the variables, so that many sets are strong.
                size = min(8, max(0, len(universe) - rng.randint(0, 3)))
            cutset = rng.sample(universe, size)
            root = Residual.of(f)
            expected = self.expected_views(root, cutset)
            strong = direct_strong(f, cutset)
            reference = outcome(reference_count_with_backdoor, f, cutset, f.universe)
            assert (expected is not None) == strong
            dp_views.clear()
            pass_views.clear()
            assert is_strong_backdoor(f, cutset) == strong
            assert outcome(count_with_backdoor, f, cutset, f.universe) == reference
            if expected is not None:
                strong_sets += 1
                # Each view once per distinct component: none is split twice.
                assert dp_views == expected
                assert pass_views == expected
        assert strong_sets >= 20

    def test_acyclic_root_is_the_only_leaf(self, monkeypatch):
        """On an acyclic root, counting is one DP traversal and verification
        one component pass, over the whole view, and neither branches."""
        dp_views, pass_views = self.spy_views(monkeypatch)
        f = Formula.from_ints([[1, 2], [-2, 3]], num_vars=3)
        every = frozenset(incidence_graph(f).graph.nodes)
        for cutset in ([3, 1, 2], []):
            dp_views.clear()
            pass_views.clear()
            assert count_with_backdoor(f, cutset, f.universe).count == 4
            assert is_strong_backdoor(f, cutset)
            assert dp_views == pass_views == Counter([every])

    def test_counting_traverses_each_tested_prefix_once(self, monkeypatch):
        """Counting splits and prices each view with the tree DP alone: no
        acyclicity search and no component pass runs, and the DP sees each
        view the reference walk expects once."""
        cases = []
        for f, cutset in [
            (grid_formula(3), [10, 1, 5]),
            (grid_formula(4), [17, 6, 7, 10, 11, 1]),
            (disjoint_triangles(3), [1, 3, 5]),
        ]:
            root = Residual.of(f)
            expected = self.expected_views(root, cutset)
            assert sum(expected.values()) > 1
            cases.append((f, cutset, brute_count(f, f.universe), expected))
        dp_views, _ = self.spy_views(monkeypatch)

        def no_search(*args):
            raise AssertionError("counting ran a separate graph search")

        for module in (graphs, backdoors, strong, weak):
            monkeypatch.setattr(module, "cyclic_components", no_search)
        for f, cutset, models, expected in cases:
            dp_views.clear()
            assert count_with_backdoor(f, cutset, f.universe).count == models
            assert dp_views == expected

    def test_a_walk_leaves_no_trace_on_the_next(self):
        root = Residual.of(grid_formula(3))
        ordered = [1, 2, 4, 5, 10]
        walk = Conditioning(root, ordered)
        assert walk.nodes == [root.inc.graph.var_node(v) for v in ordered]
        clean = bytes(walk.mask)
        # A branch stopped while an inner one is open, as when verification
        # meets a component that fails.
        outer = walk.branches(0)
        # The nodes its False removes stay marked while it is yielded.
        assert next(outer) is False
        assert walk.mask.count(1) == len(root.inc.removed_by(ordered[0], False))
        inner = walk.branches(1)
        next(inner)
        next(inner)
        assert walk.mask != clean
        inner.close()
        outer.close()
        assert walk.mask == clean
        # An ordered walk that returns at a leaf with every branch above it
        # open, some of them True branches past a pruned one.
        target = [False, True, True, False, True]
        found = first_leaf(
            walk,
            lambda values: list(values) if values == target else None,
            lambda values: values == [True],
        )
        assert found == target
        assert walk.mask == clean
        # Run to the end.
        for _ in walk.branches(2):
            for _ in walk.branches(3):
                assert walk.mask != clean
        assert walk.mask == clean
        assert root.removed == frozenset()
        # A count that meets a component without a cutset variable raises
        # midway, and the next call gives its own answer.
        f = disjoint_union(grid_formula(3), triangle())
        with pytest.raises(ContractError):
            count_with_backdoor(f, [10, 1], f.universe)
        assert count_with_backdoor(f, [10, 11], f.universe).count == brute_count(f, f.universe)

    def test_component_met_twice_is_walked_once(self, monkeypatch):
        """A cyclic component met again within one call is answered from that
        call's cache and not walked again."""
        # Branching on the best-connected variable, grid 3 through its cells
        # meets no component twice; this formula through all its variables
        # meets some more than once.
        f = random_rcnf(9, 14, 3, 14)
        cutset = list(range(1, 10))
        root = Residual.of(f)
        expected = self.expected_views(root, cutset)
        uncached = self.expected_views(root, cutset, cached=False)
        assert sum(expected.values()) < sum(uncached.values())
        models = brute_count(f, f.universe)
        dp_views, pass_views = self.spy_views(monkeypatch)
        assert count_with_backdoor(f, cutset, f.universe).count == models
        assert is_strong_backdoor(f, cutset)
        assert dp_views == pass_views == expected

    def test_first_takes_the_best_connected_variable(self):
        """`first` scores each cutset variable in the component by its live
        clause neighbours that keep another live variable."""
        root = Residual.of(grid_formula(4))
        graph = root.inc.graph

        def first(cutset: list[int], removed=()) -> Optional[int]:
            walk = Conditioning(root, cutset)
            for v in removed:
                walk.mask[graph.var_node(v)] = 1
            live = frozenset(n for n in graph.nodes if not walk.mask[n])
            place = walk.first(live)
            expected = self.branch_variable(graph, cutset, live)
            assert place == (None if expected is None else cutset.index(expected))
            return place

        # Grid 4's extra variable is in all 24 clauses; the four centre
        # cells in four, the other edge cells in three, the corners in two.
        assert first(list(range(1, 18))) == 16
        assert first(list(range(1, 17)), removed=[17]) == 5  # cell 6
        assert first([1, 2, 3, 4, 13, 16]) == 1  # cell 2, ahead of cell 3
        assert first([4, 13, 16]) == 0  # corners tie: the smallest id
        assert first([16]) == 0
        assert first([]) is None
        # Without 17, edge cells 2 and 5 tie at three clauses each.
        assert first([2, 5], removed=[17]) == 0
        # Without 3 and 6 too, both keep three live clauses, but two of
        # cell 2's, with 3 and with 6, are pendant: only cell 5's clauses
        # with 1 and 9 and cell 2's with 1 count.
        assert first([2, 5], removed=[17, 3, 6]) == 1


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

    @pytest.mark.parametrize(
        "build",
        [lambda: unsatisfiable_forest(31), lambda: disjoint_squares(30)],
        ids=["unsatisfiable-forest", "squares"],
    )
    def test_no_witness_in_a_linear_number_of_traversals(self, monkeypatch, tmp_path, build):
        """Variables 2 to 31 leave the forest unsatisfiable under every
        assignment, and leave squares 17 to 30 untouched, so cyclic: the
        walk prunes each True branch with one tree DP traversal instead of
        visiting 2^30 leaves."""
        from test_cli import run

        f = build()
        candidate = list(range(2, 32))
        traversals = []
        tables = backdoors._TreeTables

        def counted(*args):
            traversals.append(args)
            return tables(*args)

        monkeypatch.setattr(backdoors, "_TreeTables", counted)
        assert weak_backdoor_witness(f, candidate) is None
        assert 0 < len(traversals) <= 2 * len(candidate)
        path = tmp_path / "input.cnf"
        path.write_text(emit_dimacs(f), encoding="ascii")
        code, out, _ = run(
            ["verify", "--cnf", str(path), "--kind", "weak", "--set", ",".join(map(str, candidate))]
        )
        assert code == 1
        assert "verdict: invalid" in out

    @pytest.mark.parametrize(
        "build, candidate",
        [
            (lambda: grid_formula(7), range(1, 31)),
            (lambda: grid_formula(7), range(20, 50)),
            (lambda: random_rcnf(40, 160, 3, 1), range(1, 31)),
        ],
        ids=["grid-7-cells-1-30", "grid-7-cells-20-49", "random-40-1-30"],
    )
    def test_core_test_prunes_connected_formulas(self, monkeypatch, tmp_path, build, candidate):
        """On a connected formula the one cyclic component always holds a
        variable left, and a cycle survives once the variables left and
        their clauses are gone: the walk reaches the first leaf, then prunes
        every True branch with one tree DP traversal and at most one
        core test each, instead of visiting 2^30 leaves."""
        from test_cli import run

        f = build()
        candidate = list(candidate)
        traversals, passes = [], []
        tables, split = backdoors._TreeTables, backdoors.cyclic_components

        def counted_tables(*args):
            traversals.append(args)
            return tables(*args)

        def counted_pass(*args, **kwargs):
            passes.append(args)
            return split(*args, **kwargs)

        monkeypatch.setattr(backdoors, "_TreeTables", counted_tables)
        monkeypatch.setattr(backdoors, "cyclic_components", counted_pass)
        assert weak_backdoor_witness(f, candidate) is None
        assert len(traversals) <= len(candidate) + 1
        assert 0 < len(passes) < len(candidate)
        path = tmp_path / "input.cnf"
        path.write_text(emit_dimacs(f), encoding="ascii")
        code, out, _ = run(
            ["verify", "--cnf", str(path), "--kind", "weak", "--set", ",".join(map(str, candidate))]
        )
        assert code == 1
        assert "verdict: invalid" in out

    def test_no_core_test_with_every_variable_in_the_set(self, monkeypatch):
        """With fewer than two variables outside the set the core holds no
        cycle, so an unsatisfiable formula walked over all its variables
        pays no core test for it."""
        f = random_rcnf(9, 60, 3, 0)
        passes = []
        split = backdoors.cyclic_components

        def counted(*args, **kwargs):
            passes.append(args)
            return split(*args, **kwargs)

        monkeypatch.setattr(backdoors, "cyclic_components", counted)
        assert weak_backdoor_witness(f, f.universe) is None
        assert reference_weak_witness(f, f.universe) is None
        assert passes == []

    @given(st.integers(0, 50_000))
    @settings(max_examples=80, deadline=None)
    def test_pruned_witness_matches_the_reference(self, seed):
        """On connected random 2- to 4-CNF, grids and rings with pendants and
        chords, with sets of up to 9 variables, where the core test prunes,
        the witness is still the reference's lexicographically first one."""
        rng = random.Random(seed)
        family = rng.randrange(3)
        if family == 0:
            n = rng.randint(6, 16)
            f = random_rcnf(n, rng.randint(n, 3 * n), rng.randint(2, 4), seed)
        elif family == 1:
            f = grid_formula(rng.randint(2, 5))
        else:
            f = ring_formula(rng.randint(3, 12), rng.randint(0, 2), rng.randint(0, 3))
        candidate = rng.sample(sorted(f.universe), min(len(f.universe), rng.randint(2, 9)))
        assert weak_backdoor_witness(f, candidate) == reference_weak_witness(f, candidate)

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


class TestSearchStateMemory:
    """A memoized weak state holds its removed nodes and no copy of the
    variables, so the state cap bounds the search's memory as well."""

    # A 1,000-variable ring with four chords 125 apart: no weak backdoor of
    # 3 variables is found before the search memoizes 200 states.
    THETA = (1000, 125, (1, 251, 501, 751))

    @pytest.mark.parametrize("search", [weak_exact_search, detect_weak], ids=["exact", "detect"])
    def test_the_cap_trips_in_little_memory(self, monkeypatch, search):
        f = theta_formula(*self.THETA)
        monkeypatch.setattr(backdoors, "MAX_SEARCH_STATES", 200)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="more than 200 states"):
                search(f, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A copy of the unassigned variables in every state would take 6.8 MiB.
        assert peak < 2 * 2**20


class TestKillRelations:
    def test_external_killers_found(self):
        f = Formula.from_ints([[1, 2, 5], [1, 2]], num_vars=5)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph)
        assert weak_killers(inc, cycle, f.universe - {1, 2}) == frozenset({5})

    def test_self_contained_cycle_has_none(self):
        f = Formula.from_ints([[1, 2], [1, 2]], num_vars=3)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph)
        assert weak_killers(inc, cycle, f.universe - {1, 2}) == frozenset()

    def test_grid_face_killed_by_extra_variable(self):
        f = grid_formula(2)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph, forbidden={inc.graph.var_node(5)})
        assert 5 in weak_killers(inc, cycle, frozenset({5}))

    RELATIONS = {"weak": weak_killers, "strong": strong_killers, "deletion": deletion_killers}
    # Each family's formulas, and the relations meeting killers off the cycle.
    FAMILIES = {
        "grid": (lambda: [grid_formula(size) for size in range(2, 7)], {"weak"}),
        "rcnf": (
            lambda: [random_rcnf(12, 8 + 2 * seed, 3, seed) for seed in range(20)],
            {"weak", "strong"},
        ),
        "hitting": (lambda: [random_hitting_formula(seed) for seed in range(30)], {"weak"}),
        "k33": (lambda: [k33_gadgets(count) for count in (1, 2, 3)], {"weak", "strong"}),
    }

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_relations_match_reference_on_restriction_views(self, family):
        # The canonical cycle of random restriction views, with the universe,
        # the unassigned variables, and those minus the cycle's own as pools.
        build, external = self.FAMILIES[family]
        rng = random.Random(f"killers-{family}")
        seen = Counter()
        for formula in build():
            root = Residual.of(formula)
            universe = sorted(formula.universe)
            for _ in range(6):
                view = root
                for variable in rng.sample(universe, rng.randint(0, min(3, len(universe)))):
                    view = view.assign(variable, rng.random() < 0.5)
                cycle = shortest_cycle(view.inc.graph, forbidden=view.removed)
                if cycle is None:
                    continue
                unassigned = view.unassigned()
                for pool in (formula.universe, unassigned, unassigned - cycle.variable_set):
                    for kind, killers in self.RELATIONS.items():
                        found = killers(view.inc, cycle, pool)
                        assert found == reference_killers(formula, kind, cycle, pool)
                        seen[kind, "on", bool(found & cycle.variable_set)] += 1
                        seen[kind, "off", bool(found - cycle.variable_set)] += 1
        assert all(seen[kind, "on", True] for kind in self.RELATIONS)
        assert {kind for kind in self.RELATIONS if seen[kind, "off", True]} == external

    def test_opposite_sign_pair(self):
        f = Formula.from_ints([[1, 2, 5], [1, 2, -5], [1, 2]], num_vars=5)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph, forbidden={inc.graph.var_node(5)})
        assert cycle.clause_indices == (0, 1)
        assert opposite_signs(inc, cycle.clause_indices) == {5}
        assert opposite_signs(inc, (0, 2)) == frozenset()

    def test_same_sign_is_not_a_strong_kill(self):
        f = Formula.from_ints([[1, 2, 5], [1, 2, 5], [1, 2]], num_vars=5)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph, forbidden={inc.graph.var_node(5)})
        assert opposite_signs(inc, cycle.clause_indices) == frozenset()

    def test_opposite_pair_removes_cycle_under_both_values(self):
        f = Formula.from_ints([[1, 2, 5], [1, 2, -5], [1, 2]], num_vars=5)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph, forbidden={inc.graph.var_node(5)})
        found = opposite_signs(inc, cycle.clause_indices)
        assert found
        # Either value of such a variable satisfies one of its two clauses,
        # so a clause node of the cycle vanishes from the restricted
        # incidence graph.
        for variable in found:
            for value in (False, True):
                survivors = {
                    index
                    for index, clause in enumerate(f.clauses)
                    if not clause.satisfied_by({variable: value})
                }
                assert not set(cycle.clause_indices) <= survivors
