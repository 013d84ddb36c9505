"""Strong approximation, deletion detection, and backdoor counting."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbd import (
    BackdoorVerdict,
    ContractError,
    CyclePacking,
    Formula,
    ResourceLimitError,
    brute_count,
    brute_min_backdoor,
    count_with_backdoor,
    detect_deletion,
    detect_strong,
    disjoint_cycles_or_feedback,
    grid_formula,
    incidence_graph,
    is_deletion_backdoor,
    is_strong_backdoor,
    random_rcnf,
    shortest_cycle,
    strong_exact_search,
    weak_backdoor_witness,
)
from forestbd import acyclic, backdoors, graphs, strong
from forestbd.graphs import clause_node, var_node
from forestbd.strong import (
    StrongParameters,
    apex_cycle_killers,
    build_apex_cycle,
    strong_rule_outcome,
)
from forestbd.weak import candidate_pool, designations
from instances import (
    direct_strong,
    disjoint_triangles,
    random_instance,
    reference_count_with_backdoor,
    reference_detect_deletion,
    reference_strong_exact_search,
    reference_weak_witness,
    ring_cycle,
    rule_selection_sound,
    strong_lone_killer,
    strong_pair,
    strong_saturated,
    three_islands,
    triangle,
    two_triangles,
)


class TestParameters:
    def test_budget_one(self):
        p = StrongParameters.derive(1)
        assert p.cycles == 3

    def test_budget_two(self):
        p = StrongParameters.derive(2)
        assert p.cycles == 11

    def test_budget_three(self):
        assert StrongParameters.derive(3).cycles == 40

    def test_rejects_zero(self):
        with pytest.raises(ContractError):
            StrongParameters.derive(0)


def arc_killing_pairs(formula, inc, apex_cycle, pool):
    """All clause pairs on the arc at which some pool variable holds
    opposite signs; used to check arc minimality directly."""
    arc_clauses = [n[1] for n in apex_cycle.arc if n[0] == "clause"]
    pairs = set()
    for variable in pool:
        for u, v in itertools.combinations(arc_clauses, 2):
            su, sv = inc.sign(variable, u), inc.sign(variable, v)
            if su is not None and sv is not None and su != sv:
                pairs.add(frozenset({u, v}))
    return pairs


class TestApexCycle:
    def test_two_clause_cycle(self):
        f = Formula.from_ints([[1, 2, 3], [1, 2, -3]], num_vars=3)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph, forbidden={var_node(3)})
        apex = build_apex_cycle(f, inc, cycle, frozenset({3}))
        assert apex is not None
        assert apex.apex == 3
        assert (apex.pos_clause, apex.neg_clause) == (0, 1)
        # Two length-three arcs tie; the one through the smaller variable wins.
        assert apex.arc == (clause_node(0), var_node(1), clause_node(1))
        assert len(apex.cycle) == 4

    def test_no_opposite_pair_means_none(self):
        f = Formula.from_ints([[1, 2, 3], [1, 2, 3]], num_vars=3)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph, forbidden={var_node(3)})
        assert build_apex_cycle(f, inc, cycle, frozenset({3})) is None

    def test_inner_pair_wins_minimality(self):
        # Ring of six clauses; w kills at the distant pair (0, 3), z at the
        # adjacent pair (1, 2): the short arc through z must be chosen.
        clauses = []
        for i in range(6):
            a, a_next = 1 + i, 1 + (i + 1) % 6
            body = [a, a_next]
            if i == 0:
                body.append(7)
            if i == 3:
                body.append(-7)
            if i == 1:
                body.append(8)
            if i == 2:
                body.append(-8)
            clauses.append(body)
        f = Formula.from_ints(clauses, num_vars=8)
        inc = incidence_graph(f)
        base = ring_cycle([2, 3, 4, 5, 6, 1], [1, 2, 3, 4, 5, 0])
        apex = build_apex_cycle(f, inc, base, frozenset({7, 8}))
        assert apex.apex == 8
        assert (apex.pos_clause, apex.neg_clause) == (1, 2)
        assert arc_killing_pairs(f, inc, apex, frozenset({7, 8})) == {
            frozenset({1, 2})
        }

    def test_minimality_invariant_on_random_rings(self):
        rng = random.Random(4)
        for _ in range(25):
            ring = rng.randint(4, 8)
            clauses = [[1 + i, 1 + (i + 1) % ring] for i in range(ring)]
            outside = ring + 1
            extras = rng.randint(1, 3)
            for j in range(extras):
                u, v = rng.sample(range(ring), 2)
                clauses[u].append(outside + j)
                clauses[v].append(-(outside + j))
            f = Formula.from_ints(clauses, num_vars=ring + extras)
            inc = incidence_graph(f)
            base = ring_cycle(
                list(range(2, ring + 1)) + [1],
                list(range(1, ring)) + [0],
            )
            pool = frozenset(range(ring + 1, ring + extras + 1))
            apex = build_apex_cycle(f, inc, base, pool)
            assert apex is not None
            endpoint_pair = frozenset({apex.pos_clause, apex.neg_clause})
            assert arc_killing_pairs(f, inc, apex, pool) <= {endpoint_pair}


class TestApexKillers:
    def build(self):
        f = Formula.from_ints(
            [[1, 2, 3, 4, 6], [1, 2, -3, -4, 5, 7], [1, 2, 5]], num_vars=7
        )
        inc = incidence_graph(f)
        cycle = shortest_cycle(
            inc.graph, forbidden={var_node(v) for v in (3, 4, 5, 6, 7)} | {clause_node(2)}
        )
        apex = build_apex_cycle(f, inc, cycle, frozenset({3, 4, 5, 6, 7}))
        return f, inc, apex

    def test_opposite_pair_included_same_sign_excluded(self):
        f, inc, apex = self.build()
        assert apex.apex == 3
        killers = apex_cycle_killers(inc, apex, frozenset({3, 4, 5, 6, 7}))
        assert 4 in killers  # opposite signs at the endpoint pair
        assert 5 not in killers  # only one endpoint
        assert 6 not in killers  # only one endpoint
        assert apex.apex not in killers


class TestRules:
    def test_lone_killer(self):
        f = strong_lone_killer()
        inc = incidence_graph(f)
        split = disjoint_cycles_or_feedback(inc.graph, 3)
        assert isinstance(split, CyclePacking)
        fired = dict(
            (outcome.rule, (choice, outcome))
            for choice, outcome in designations(
                strong_rule_outcome, f, inc, split.cycles, StrongParameters.derive(1)
            )
        )
        assert "lone-killer" in fired
        choice, outcome = fired["lone-killer"]
        assert outcome.selected in ({9}, {10}, frozenset({9}), frozenset({10}))
        assert rule_selection_sound(f, choice, outcome.selected, 1, "strong")

    def test_killer_pair(self):
        f = strong_pair()
        inc = incidence_graph(f)
        split = disjoint_cycles_or_feedback(inc.graph, 3)
        outcomes = list(
            designations(strong_rule_outcome, f, inc, split.cycles, StrongParameters.derive(1))
        )
        pair_hits = [
            (choice, outcome)
            for choice, outcome in outcomes
            if outcome.rule == "killer-pair"
        ]
        assert pair_hits
        for choice, outcome in pair_hits:
            assert outcome.selected == frozenset({9, 10})
            assert rule_selection_sound(f, choice, outcome.selected, 1, "strong")

    def test_saturated(self):
        f = strong_saturated()
        inc = incidence_graph(f)
        split = disjoint_cycles_or_feedback(inc.graph, 3)
        outcomes = list(
            designations(strong_rule_outcome, f, inc, split.cycles, StrongParameters.derive(1))
        )
        saturated = [
            (choice, outcome)
            for choice, outcome in outcomes
            if outcome.rule == "saturated"
        ]
        assert saturated
        for choice, outcome in saturated:
            assert outcome.selected == frozenset()
            assert rule_selection_sound(f, choice, outcome.selected, 1, "strong")

    def test_unkillable(self):
        f = three_islands()
        inc = incidence_graph(f)
        split = disjoint_cycles_or_feedback(inc.graph, 3)
        for choice, outcome in designations(
            strong_rule_outcome, f, inc, split.cycles, StrongParameters.derive(1)
        ):
            assert outcome.rule == "unkillable-cycle"
            assert outcome.selected == frozenset()
            assert rule_selection_sound(f, choice, outcome.selected, 1, "strong")

    def test_selection_never_exceeds_two(self):
        for f in (strong_pair(), strong_saturated(), strong_lone_killer(), grid_formula(4)):
            inc = incidence_graph(f)
            split = disjoint_cycles_or_feedback(inc.graph, 3)
            if not isinstance(split, CyclePacking):
                continue
            for _, outcome in designations(
                strong_rule_outcome, f, inc, split.cycles, StrongParameters.derive(1)
            ):
                assert len(outcome.selected) <= 2


class TestDesignationGuard:
    def test_refuses_before_first_designation(self):
        # C(133, 4) = 12,457,445 designations at budget 4.
        f = disjoint_triangles(133)
        inc = incidence_graph(f)
        split = disjoint_cycles_or_feedback(inc.graph, 133)
        assert isinstance(split, CyclePacking)
        with pytest.raises(ResourceLimitError):
            next(designations(strong_rule_outcome, f, inc, split.cycles, StrongParameters.derive(4)))


class TestCandidatePool:
    def test_grid_pool_contains_extra_variable(self):
        f = grid_formula(4)
        inc = incidence_graph(f)
        split = disjoint_cycles_or_feedback(inc.graph, 3)
        assert isinstance(split, CyclePacking)
        pool = candidate_pool(strong_rule_outcome, f, inc, split.cycles, StrongParameters.derive(1))
        assert 17 in pool

    def test_islands_certify_no(self):
        f = three_islands()
        inc = incidence_graph(f)
        split = disjoint_cycles_or_feedback(inc.graph, 3)
        pool = candidate_pool(strong_rule_outcome, f, inc, split.cycles, StrongParameters.derive(1))
        assert pool == frozenset()


class TestDetect:
    def test_grids(self):
        for size in (2, 3, 4):
            f = grid_formula(size)
            verdict = detect_strong(f, 1)
            assert verdict.found
            assert len(verdict.variables) <= 1
            assert is_strong_backdoor(f, verdict.variables)

    def test_two_gadgets(self):
        assert not detect_strong(two_triangles(), 1).found
        verdict = detect_strong(two_triangles(), 2)
        assert verdict.found
        assert is_strong_backdoor(two_triangles(), verdict.variables)
        assert len(verdict.variables) <= 3

    def test_acyclic_budget_zero(self):
        f = Formula.from_ints([[1, 2]], num_vars=2)
        verdict = detect_strong(f, 0)
        assert verdict.found and verdict.variables == frozenset()

    def test_pair_instance_found_via_rules(self):
        f = strong_pair()
        split = disjoint_cycles_or_feedback(incidence_graph(f).graph, 3)
        assert isinstance(split, CyclePacking)  # rules route, not fallback
        verdict = detect_strong(f, 1)
        assert verdict.found and verdict.variables == frozenset({9})

    def test_saturated_instance_is_no(self):
        assert not detect_strong(strong_saturated(), 1).found
        assert brute_min_backdoor(strong_saturated(), "strong", 1).optimum is None

    def test_budget_guard(self):
        with pytest.raises(ResourceLimitError):
            detect_strong(triangle(), 7)

    def test_negative_budget(self):
        with pytest.raises(ContractError):
            detect_strong(triangle(), -1)

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_approximation_contract(self, seed):
        rng = random.Random(seed)
        f = random_rcnf(rng.randint(3, 8), rng.randint(2, 10), 3, seed)
        for budget in (1, 2):
            verdict = detect_strong(f, budget)
            oracle = brute_min_backdoor(f, "strong", budget)
            if verdict.found:
                assert is_strong_backdoor(f, verdict.variables)
                assert len(verdict.variables) <= 2**budget - 1
            else:
                assert oracle.optimum is None
            if oracle.optimum is not None:
                assert verdict.found

    def test_deterministic(self):
        f = random_rcnf(8, 12, 3, 41)
        assert detect_strong(f, 2).variables == detect_strong(f, 2).variables

    def test_budget_two_packing_route(self):
        # Eleven disjoint cycles all killed by one shared variable: enough
        # cycles that the budget-two run goes through the rules instead of
        # the exact fallback.
        clauses = []
        for i in range(11):
            a, b = 2 * i + 1, 2 * i + 2
            clauses.append([a, b, 23])
            clauses.append([a, b, -23])
        f = Formula.from_ints(clauses, num_vars=23)
        split = disjoint_cycles_or_feedback(
            incidence_graph(f).graph, StrongParameters.derive(2).cycles
        )
        assert isinstance(split, CyclePacking)
        for budget in (1, 2):
            verdict = detect_strong(f, budget)
            assert verdict.found and verdict.variables == frozenset({23})
            assert is_strong_backdoor(f, verdict.variables)


class TestExactSearch:
    def test_acyclic(self):
        f = Formula.from_ints([[1, 2]], num_vars=2)
        assert strong_exact_search(f, 0).found

    def test_triangle(self):
        verdict = strong_exact_search(triangle(), 1)
        assert verdict.found
        assert verdict.variables <= {1, 2} and len(verdict.variables) == 1
        assert is_strong_backdoor(triangle(), verdict.variables)

    def test_single_cycle_budget_zero(self):
        assert not strong_exact_search(triangle(), 0).found

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_exact_against_oracle(self, seed):
        f = random_rcnf(6, 9, 3, seed)
        for budget in (1, 2):
            verdict = strong_exact_search(f, budget)
            oracle = brute_min_backdoor(f, "strong", budget)
            assert verdict.found == (oracle.optimum is not None)
            if verdict.found:
                assert len(verdict.variables) <= budget
                assert is_strong_backdoor(f, verdict.variables)


class TestDeletion:
    def test_forest(self):
        f = Formula.from_ints([[1, 2], [2, 3]], num_vars=3)
        verdict = detect_deletion(f, 0)
        assert verdict.found and verdict.variables == frozenset()

    def test_single_cycle(self):
        f = Formula.from_ints([[1, 2], [1, 2]], num_vars=2)
        verdict = detect_deletion(f, 1)
        assert verdict.found and len(verdict.variables) == 1

    def test_grid_separation(self):
        for size in (2, 3, 4):
            assert not detect_deletion(grid_formula(size), 1).found
        assert brute_min_backdoor(grid_formula(3), "deletion", 1).optimum is None

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_exact_against_oracle(self, seed):
        rng = random.Random(seed)
        f = random_rcnf(rng.randint(3, 12), rng.randint(2, 14), 3, seed)
        for budget in (1, 2, 3):
            verdict = detect_deletion(f, budget)
            oracle = brute_min_backdoor(f, "deletion", budget)
            assert verdict.found == (oracle.optimum is not None)
            if verdict.found:
                from forestbd import is_deletion_backdoor

                assert len(verdict.variables) <= budget
                assert is_deletion_backdoor(f, verdict.variables)


class TestCounting:
    def test_triangle(self):
        f = triangle()
        assert count_with_backdoor(f, {1}, f.universe).count == 1

    def test_empty_backdoor_on_acyclic(self):
        f = Formula.from_ints([[1, 2], [-2, 3]], num_vars=3)
        assert count_with_backdoor(f, frozenset(), f.universe).count == 4

    def test_grid_two(self):
        f = grid_formula(2)
        assert (
            count_with_backdoor(f, {5}, f.universe).count
            == brute_count(f, f.universe)
        )

    def test_rejects_non_backdoor(self):
        with pytest.raises(ContractError) as info:
            count_with_backdoor(two_triangles(), {1}, two_triangles().universe)
        assert type(info.value) is ContractError
        assert str(info.value) == "the given set is not a strong backdoor"

    def test_rejects_backdoor_outside_universe(self):
        f = triangle()
        with pytest.raises(ContractError):
            count_with_backdoor(f, {1}, {2})

    def test_larger_universe_doubles(self):
        f = triangle()
        assert count_with_backdoor(f, {1}, {1, 2, 7, 8}).count == 4

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        f = random_rcnf(rng.randint(3, 9), rng.randint(2, 10), 3, seed)
        verdict = detect_strong(f, 2)
        if not verdict.found:
            return
        assert (
            count_with_backdoor(f, verdict.variables, f.universe).count
            == brute_count(f, f.universe)
        )


# Formulas for the differential tests against the rebuilding references:
# criterion 6's random 3-CNF, grids, and disjoint triangles.
VIEW_FAMILIES = {
    "random-3cnf": lambda: [random_instance(seed + 40_000) for seed in range(100)],
    "grids": lambda: [grid_formula(size) for size in range(2, 7)],
    "triangles": lambda: [disjoint_triangles(count) for count in (1, 2, 5)],
}


def outcome(call, *args):
    """A call's result, or its error's type and message."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc), str(exc)


def candidate_sets(formula: Formula, rng: random.Random) -> list[list[int]]:
    """The empty set, the largest variable (a grid's extra one), random
    small sets, a set outside the universe and one past the verification
    guard."""
    universe = sorted(formula.universe)
    sets = [[], [len(universe)]]
    sets += [rng.sample(universe, rng.randint(1, min(4, len(universe)))) for _ in range(4)]
    sets += [[max(universe) + 1], list(range(1, 32))]
    return sets


class TestViewsAgainstRebuild:
    """The views give what rebuilding every restriction or deletion gave."""

    @pytest.mark.parametrize("family", sorted(VIEW_FAMILIES))
    def test_strong_exact_search(self, family):
        for f in VIEW_FAMILIES[family]():
            for budget in (-1, 0, 1, 2):
                mine = outcome(strong_exact_search, f, budget)
                reference = outcome(reference_strong_exact_search, f, budget)
                assert mine == reference
                if isinstance(mine, BackdoorVerdict):
                    assert mine.witness == reference.witness

    @pytest.mark.parametrize("family", sorted(VIEW_FAMILIES))
    def test_detect_deletion(self, family):
        for f in VIEW_FAMILIES[family]():
            for budget in (-1, 0, 1, 2, 3):
                mine = outcome(detect_deletion, f, budget)
                reference = outcome(reference_detect_deletion, f, budget)
                assert mine == reference
                if isinstance(mine, BackdoorVerdict):
                    assert mine.witness == reference.witness

    @pytest.mark.parametrize("family", sorted(VIEW_FAMILIES))
    def test_count_with_backdoor(self, family):
        rng = random.Random(family)
        for f in VIEW_FAMILIES[family]():
            found = strong_exact_search(f, 2)
            sets = candidate_sets(f, rng) + ([sorted(found.variables)] if found.found else [])
            for cutset in sets:
                for universe in (f.universe, f.universe | {max(f.universe) + 1}, {1}):
                    mine = outcome(count_with_backdoor, f, cutset, universe)
                    assert mine == outcome(reference_count_with_backdoor, f, cutset, universe)

    @pytest.mark.parametrize("family", sorted(VIEW_FAMILIES))
    def test_verification(self, family):
        rng = random.Random(family)
        for f in VIEW_FAMILIES[family]():
            for cutset in candidate_sets(f, rng)[:-2]:
                assert is_strong_backdoor(f, cutset) == direct_strong(f, cutset)
                assert weak_backdoor_witness(f, cutset) == reference_weak_witness(f, cutset)


def test_verification_and_exact_searches_never_rebuild(monkeypatch):
    """Each call builds its formula's incidence graph once and no residual
    formula at all."""

    def refuse(*args):
        raise AssertionError("a residual formula was rebuilt")

    f = grid_formula(3)
    models = brute_count(f, f.universe)
    monkeypatch.setattr(Formula, "restrict", refuse)
    monkeypatch.setattr(Formula, "without_variables", refuse)
    builds = []
    build = graphs.incidence_graph

    def counted(formula):
        builds.append(formula)
        return build(formula)

    for module in (graphs, acyclic, backdoors, strong):
        monkeypatch.setattr(module, "incidence_graph", counted)
    calls = [
        (is_strong_backdoor, (f, {10}), True),
        (is_deletion_backdoor, (f, {5}), False),
        (weak_backdoor_witness, (f, {10}), {10: False}),
        (strong_exact_search, (f, 1), BackdoorVerdict.yes({10}, 1)),
        (detect_deletion, (f, 2), BackdoorVerdict.no(2)),
        (count_with_backdoor, (f, {10}, f.universe), models),
    ]
    for call, args, expected in calls:
        builds.clear()
        result = call(*args)
        assert (result.count if call is count_with_backdoor else result) == expected
        assert builds == [f], call.__name__
