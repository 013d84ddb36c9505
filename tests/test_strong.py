"""Strong approximation, deletion detection, and backdoor counting."""

from __future__ import annotations

import itertools
import json
import random
import time

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
    detect_weak,
    disjoint_cycles_or_feedback,
    emit_dimacs,
    grid_formula,
    incidence_graph,
    is_deletion_backdoor,
    is_strong_backdoor,
    parse_dimacs,
    random_rcnf,
    shortest_cycle,
    strong_exact_search,
    weak_backdoor_witness,
    weak_exact_search,
)
from forestbd import acyclic, backdoors, graphs, strong, weak
from forestbd.backdoors import Conditioning, Residual, strong_killers, weak_killers
from forestbd.strong import (
    StrongParameters,
    apex_cycle_killers,
    build_apex_cycle,
    strong_rule_outcome,
)
from forestbd.weak import WeakParameters, candidate_pool, designations, weak_rule_outcome
import instances
from instances import (
    criterion_8_strong_targets,
    deep_cycle_gadget,
    direct_strong,
    disjoint_squares,
    disjoint_triangles,
    disjoint_union,
    k33_gadgets,
    killer_gadgets,
    one_killer_cycles,
    random_hitting_formula,
    random_instance,
    reference_apex_cycle_killers,
    reference_candidate_pool,
    reference_count_with_backdoor,
    reference_detect_deletion,
    reference_detect_strong,
    reference_detect_weak,
    reference_strong_exact_search,
    reference_weak_exact_search,
    reference_weak_witness,
    ring_cycle,
    rule_selection_sound,
    strong_lone_killer,
    strong_pair,
    strong_saturated,
    three_islands,
    triangle,
    two_triangles,
    unsatisfiable_forest,
    with_gaps,
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
    arc_clauses = [n for n in apex_cycle.arc if n < inc.graph.clauses]
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
        cycle = shortest_cycle(inc.graph, forbidden={inc.graph.var_node(3)})
        apex = build_apex_cycle(inc, cycle, frozenset({3}))
        assert apex is not None
        assert apex.apex == 3
        assert (apex.pos_clause, apex.neg_clause) == (0, 1)
        # Two length-three arcs tie; the one through the smaller variable wins.
        g = inc.graph
        assert apex.arc == (g.clause_node(0), g.var_node(1), g.clause_node(1))

    def test_no_opposite_pair_means_none(self):
        f = Formula.from_ints([[1, 2, 3], [1, 2, 3]], num_vars=3)
        inc = incidence_graph(f)
        cycle = shortest_cycle(inc.graph, forbidden={inc.graph.var_node(3)})
        assert build_apex_cycle(inc, cycle, frozenset({3})) is None

    def test_apex_lies_off_the_cycle_for_any_pool(self):
        # Variables of a triangle's cycle hold opposite signs in two of its
        # clauses, so they kill it, but only from the inside: no apex.
        f = triangle()
        inc = incidence_graph(f)
        assert build_apex_cycle(inc, shortest_cycle(inc.graph), f.universe) is None
        apexes = 0
        for seed in range(40):
            f = random_instance(seed)
            inc = incidence_graph(f)
            cycle = shortest_cycle(inc.graph)
            if cycle is None:
                continue
            apex = build_apex_cycle(inc, cycle, f.universe)
            assert apex == build_apex_cycle(inc, cycle, f.universe - cycle.variable_set)
            if apex is not None:
                assert apex.apex not in cycle.variable_set
                apexes += 1
        assert apexes >= 5

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
        base = ring_cycle(inc.graph, [2, 3, 4, 5, 6, 1], [1, 2, 3, 4, 5, 0])
        apex = build_apex_cycle(inc, base, frozenset({7, 8}))
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
                inc.graph,
                list(range(2, ring + 1)) + [1],
                list(range(1, ring)) + [0],
            )
            pool = frozenset(range(ring + 1, ring + extras + 1))
            apex = build_apex_cycle(inc, base, pool)
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
            inc.graph,
            forbidden={inc.graph.var_node(v) for v in (3, 4, 5, 6, 7)} | {inc.graph.clause_node(2)},
        )
        apex = build_apex_cycle(inc, cycle, frozenset({3, 4, 5, 6, 7}))
        return f, inc, apex

    def test_opposite_pair_included_same_sign_excluded(self):
        f, inc, apex = self.build()
        assert apex.apex == 3
        killers = apex_cycle_killers(inc, apex, frozenset({3, 4, 5, 6, 7}))
        assert 4 in killers  # opposite signs at the endpoint pair
        assert 5 not in killers  # only one endpoint
        assert 6 not in killers  # only one endpoint
        assert apex.apex not in killers

    def test_endpoint_clauses_match_pool_scan(self):
        # Every apex cycle over the criterion-8 strong targets' designations,
        # and over each packed cycle of random 3-CNF with its largest pool.
        targets = criterion_8_strong_targets()
        targets += [(random_instance(seed + 30_000), 1) for seed in range(50)]
        compared = nonempty = 0
        for f, budget in targets:
            residual = Residual.of(f)
            inc = residual.inc
            pools = []
            used: set = set()
            while (cycle := shortest_cycle(inc.graph, used)) is not None:
                used |= cycle.node_set
                pools.append((cycle, f.universe - set(cycle.variables)))
            params = StrongParameters.derive(budget)
            split = disjoint_cycles_or_feedback(inc.graph, params.cycles)
            if isinstance(split, CyclePacking):
                for choice, _ in designations(strong_rule_outcome, residual, split.cycles, params):
                    pools += [(cycle, choice.pool) for cycle in choice.external]
            for cycle, pool in pools:
                apex = build_apex_cycle(inc, cycle, pool)
                if apex is None:
                    continue
                killers = apex_cycle_killers(inc, apex, pool)
                assert killers == reference_apex_cycle_killers(inc, apex, pool)
                compared += 1
                nonempty += bool(killers)
        assert compared >= 40 and nonempty >= 10


class TestRules:
    def test_lone_killer(self):
        f = strong_lone_killer()
        residual = Residual.of(f)
        split = disjoint_cycles_or_feedback(residual.inc.graph, 3)
        assert isinstance(split, CyclePacking)
        fired = dict(
            (outcome.rule, (choice, outcome))
            for choice, outcome in designations(
                strong_rule_outcome, residual, split.cycles, StrongParameters.derive(1)
            )
        )
        assert "lone-killer" in fired
        choice, outcome = fired["lone-killer"]
        assert outcome.selected in ({9}, {10}, frozenset({9}), frozenset({10}))
        assert rule_selection_sound(f, choice, outcome.selected, 1, "strong")

    def test_killer_pair(self):
        f = strong_pair()
        residual = Residual.of(f)
        split = disjoint_cycles_or_feedback(residual.inc.graph, 3)
        outcomes = list(
            designations(strong_rule_outcome, residual, split.cycles, StrongParameters.derive(1))
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
        residual = Residual.of(f)
        split = disjoint_cycles_or_feedback(residual.inc.graph, 3)
        outcomes = list(
            designations(strong_rule_outcome, residual, split.cycles, StrongParameters.derive(1))
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
        residual = Residual.of(f)
        split = disjoint_cycles_or_feedback(residual.inc.graph, 3)
        for choice, outcome in designations(
            strong_rule_outcome, residual, split.cycles, StrongParameters.derive(1)
        ):
            assert outcome.rule == "unkillable-cycle"
            assert outcome.selected == frozenset()
            assert rule_selection_sound(f, choice, outcome.selected, 1, "strong")

    def test_selection_never_exceeds_two(self):
        for f in (strong_pair(), strong_saturated(), strong_lone_killer(), grid_formula(4)):
            residual = Residual.of(f)
            split = disjoint_cycles_or_feedback(residual.inc.graph, 3)
            if not isinstance(split, CyclePacking):
                continue
            for _, outcome in designations(
                strong_rule_outcome, residual, split.cycles, StrongParameters.derive(1)
            ):
                assert len(outcome.selected) <= 2


class TestDesignationGuard:
    def test_refuses_before_first_designation(self):
        # C(133, 4) = 12,457,445 designations at budget 4.
        f = disjoint_triangles(133)
        residual = Residual.of(f)
        split = disjoint_cycles_or_feedback(residual.inc.graph, 133)
        assert isinstance(split, CyclePacking)
        with pytest.raises(ResourceLimitError):
            next(designations(strong_rule_outcome, residual, split.cycles, StrongParameters.derive(4)))


def count_rule_calls(monkeypatch) -> list[str]:
    """Wrap both selection rules at the module names the detectors read, as
    the benchmark's tracer does; each call appends the rule's name."""
    calls: list[str] = []
    for module, name in ((weak, "weak_rule_outcome"), (strong, "strong_rule_outcome")):
        rule = getattr(module, name)

        def counted(*args, rule=rule, name=name):
            calls.append(name)
            return rule(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def grid_and_triangles(count: int) -> Formula:
    """`count` disjoint triangles, then grid 4 on the next variables."""
    return disjoint_union(disjoint_triangles(count), grid_formula(4))


class TestHopelessCycles:
    """A packed cycle no unassigned outside variable can kill is settled
    once per packing: only the designations holding it internal run."""

    # (rule, budget, formula, hopeless packed cycles). A triangle's packed
    # 4-cycle has no outside variable; grid 4's second packed cycle runs
    # through its extra variable, so nothing outside it has both signs.
    CASES = {
        "weak-grid4-triangle-k1": ("weak", 1, lambda: grid_and_triangles(1), 1),
        "weak-grid4-triangle-k2": ("weak", 2, lambda: grid_and_triangles(1), 1),
        "weak-grid4-triangles-k2": ("weak", 2, lambda: grid_and_triangles(2), 2),
        "weak-triangles5-k2": ("weak", 2, lambda: disjoint_triangles(5), 5),
        "strong-gadgets-triangle-k2": (
            "strong", 2, lambda: disjoint_union(triangle(), one_killer_cycles(11)), 1
        ),
        "strong-gadgets-triangles-k2": (
            "strong", 2, lambda: disjoint_union(disjoint_triangles(2), one_killer_cycles(11)), 2
        ),
        "strong-grid4-triangle-k1": ("strong", 1, lambda: grid_and_triangles(1), 2),
        "strong-triangles11-k2": ("strong", 2, lambda: disjoint_triangles(11), 11),
    }
    RULES = {
        "weak": (weak_rule_outcome, weak_killers, detect_weak, reference_detect_weak),
        "strong": (
            strong_rule_outcome, strong_killers, detect_strong, reference_detect_strong
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_pruned_route_matches_full_enumeration(self, name):
        kind, budget, build, expected_hopeless = self.CASES[name]
        rule, killers, detect, reference = self.RULES[kind]
        f = build()
        residual = Residual.of(f)
        if kind == "weak":
            params = WeakParameters.derive(budget, max(3, f.max_clause_width()))
        else:
            params = StrongParameters.derive(budget)
        split = disjoint_cycles_or_feedback(residual.inc.graph, params.cycles)
        assert isinstance(split, CyclePacking)
        hopeless = [
            c
            for c in split.cycles
            if killers(residual.inc, c, residual.unassigned()) <= c.variable_set
        ]
        assert len(hopeless) == expected_hopeless
        pool = candidate_pool(rule, killers, residual, split.cycles, params)
        assert pool == reference_candidate_pool(rule, residual, split.cycles, params)
        for k in range(budget + 1):
            same_outcome(detect(f, k), reference(f, k))
        verdict = detect(f, budget)
        assert verdict.split == split
        if verdict.found and kind == "strong":
            assert is_strong_backdoor(f, verdict.variables)
        elif verdict.found:
            assert weak_backdoor_witness(f, verdict.variables) == verdict.witness

    def test_only_hopeless_triangles_call_no_rule(self, monkeypatch, tmp_path):
        # Strong -k 3 packs all 40 triangles (C(40, 3) = 9,880 designations)
        # and weak -k 3 packs 7: more than 3 hopeless cycles either way.
        from test_cli import run

        path = tmp_path / "triangles40.cnf"
        path.write_text(emit_dimacs(disjoint_triangles(40)), encoding="ascii")
        calls = count_rule_calls(monkeypatch)
        for kind in ("strong", "weak"):
            code, out, _ = run(["detect", kind, "-k", "3", "--cnf", str(path)])
            assert (code, out) == (1, "verdict: no\n")
        assert calls == []

    def test_guard_counts_every_designation(self):
        # All 133 triangles are hopeless at budget 4, so nothing would be
        # enumerated, but the cap still counts C(133, 4).
        f = disjoint_triangles(133)
        residual = Residual.of(f)
        params = StrongParameters.derive(4)
        split = disjoint_cycles_or_feedback(residual.inc.graph, params.cycles)
        assert isinstance(split, CyclePacking)
        with pytest.raises(ResourceLimitError):
            candidate_pool(
                strong_rule_outcome, strong_killers, residual, split.cycles, params
            )
        with pytest.raises(ResourceLimitError):
            next(designations(strong_rule_outcome, residual, split.cycles, params, range(5)))


class TestCandidatePool:
    def test_grid_pool_contains_extra_variable(self):
        f = grid_formula(4)
        residual = Residual.of(f)
        split = disjoint_cycles_or_feedback(residual.inc.graph, 3)
        assert isinstance(split, CyclePacking)
        params = StrongParameters.derive(1)
        pool = candidate_pool(
            strong_rule_outcome, strong_killers, residual, split.cycles, params
        )
        assert 17 in pool

    def test_islands_certify_no(self):
        f = three_islands()
        residual = Residual.of(f)
        split = disjoint_cycles_or_feedback(residual.inc.graph, 3)
        params = StrongParameters.derive(1)
        pool = candidate_pool(
            strong_rule_outcome, strong_killers, residual, split.cycles, params
        )
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

    def test_packing_bound_answers_before_searching(self, monkeypatch):
        # Grid 6 packs nine vertex-disjoint cycles, and each needs its own
        # deleted variable.
        graph = incidence_graph(grid_formula(6)).graph
        assert isinstance(disjoint_cycles_or_feedback(graph, 9), CyclePacking)

        def refuse(*args):
            raise AssertionError("searched despite the packing bound")

        monkeypatch.setattr(strong, "branch_on_cycles", refuse)
        assert detect_deletion(grid_formula(6), 8) == BackdoorVerdict.no(8)
        assert detect_deletion(disjoint_triangles(4), 3) == BackdoorVerdict.no(3)

    def test_acyclic_root_skips_the_girth_pass(self, monkeypatch, tmp_path):
        # The empty set is found before the packing bound's girth pass.
        from test_cli import run

        f = Formula.from_ints([[1, 2], [-2, 3, 4], [4, -5], [1, 6]], num_vars=6)
        expected = reference_detect_deletion(f, 2)
        path = tmp_path / "forest.cnf"
        path.write_text(emit_dimacs(f), encoding="ascii")
        calls = []
        original = graphs.shortest_cycle

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(graphs, "shortest_cycle", counted)
        monkeypatch.setattr(backdoors, "shortest_cycle", counted)
        assert detect_deletion(f, 2) == expected == BackdoorVerdict.yes((), 2)
        argv = ["detect", "deletion", "-k", "2", "--cnf", str(path)]
        assert run(argv) == (0, "verdict: found\nbackdoor: (empty)\n", "")
        assert calls == []

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


class TestSetSearchWork:
    """The exact strong search and deletion detection run one set search.
    Its memo states are pinned, so that the state cap trips at the same
    counts."""

    @staticmethod
    def settled(monkeypatch, module=strong) -> list:
        states = []
        branch = module.branch_on_cycles

        def counted_branch(root, settle, moves):
            def counted(state):
                states.append(state)
                return settle(state)

            return branch(root, counted, moves)

        monkeypatch.setattr(module, "branch_on_cycles", counted_branch)
        return states

    @pytest.mark.parametrize(
        "args, counts", [((40, 25, 3, 1), (3, 7, 19)), ((20, 30, 3, 2), (3, 7, 15))]
    )
    def test_strong_states(self, monkeypatch, args, counts):
        states = self.settled(monkeypatch)
        f = random_rcnf(*args)
        for budget, count in zip((1, 2, 3), counts):
            states.clear()
            verdict = strong_exact_search(f, budget)
            assert len(states) == count
            assert verdict == reference_strong_exact_search(f, budget)

    def test_deletion_states_and_acyclicity_tests(self, monkeypatch):
        states = self.settled(monkeypatch)
        tests = []
        acyclic = Residual.acyclic

        def counted(view):
            tests.append(len(view.removed))
            return acyclic(view)

        monkeypatch.setattr(Residual, "acyclic", counted)
        assert detect_deletion(grid_formula(7), 1) == BackdoorVerdict.no(1)
        assert len(states) == 3
        # The root check, then one per state but the empty set, whose view
        # is the root.
        assert tests == [0, 1, 1]

    def test_found_sets_through_the_component_bound(self, monkeypatch):
        # The root bound searches each component alone before the whole.
        states = self.settled(monkeypatch)
        f = disjoint_union(random_rcnf(7, 10, 3, 1), triangle())
        for search, count in ((strong_exact_search, 42), (detect_deletion, 30)):
            states.clear()
            assert search(f, 5) == BackdoorVerdict.yes({1, 2, 3, 4, 8}, 5)
            assert len(states) == count


class TestWeakSearchWork:
    """The weak exact search's memo states are pinned as the set search's
    are, so that its state cap trips at the same counts."""

    @pytest.mark.parametrize(
        "args, counts, found",
        [((40, 25, 3, 1), (9, 68, 78), {7, 26, 33}), ((20, 30, 3, 2), (9, 64, 463), set())],
    )
    def test_weak_states(self, monkeypatch, args, counts, found):
        states = TestSetSearchWork.settled(monkeypatch, weak)
        f = random_rcnf(*args)
        for budget, count in zip((1, 2, 3), counts):
            states.clear()
            verdict = weak_exact_search(f, budget)
            assert len(states) == count
            assert verdict == reference_weak_exact_search(f, budget)
        assert verdict.variables == found


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

    def test_universe_must_cover_occurrences(self):
        with pytest.raises(ContractError, match="cover every occurring variable"):
            count_with_backdoor(triangle(), {1}, {1})

    def test_formula_universe_needs_no_occurrence_set(self):
        # A parsed formula builds `variables` only when it is read.
        f = parse_dimacs("p cnf 4 3\n1 2 0\n-1 2 0\n1 -2 0\n")
        assert count_with_backdoor(f, {1}, f.universe).count == 4
        assert "variables" not in vars(f)

    def test_search_guards_the_found_set(self, monkeypatch):
        # Three disjoint triangles need three variables, one over this cap.
        monkeypatch.setattr(backdoors, "MAX_VERIFY_VARIABLES", 2)
        with pytest.raises(ResourceLimitError, match="limit 2 variables"):
            strong.count_through_search(disjoint_triangles(3))

    def test_forest_is_one_traversal(self, monkeypatch, tmp_path):
        """Counting a forest without a given backdoor is one tree DP
        traversal, which finds the empty set and the count together; no
        acyclicity or component pass runs."""
        from test_cli import run

        forests = [
            Formula.from_ints([[1, 2], [-2, 3], [3, -4, 5]], num_vars=6),
            unsatisfiable_forest(4),
            with_gaps(Formula.from_ints([[1, 2], [2, -3]], num_vars=4)),
            Formula.from_ints([], num_vars=3),
        ]
        models = [brute_count(f, f.universe) for f in forests]
        traversals = []
        tables = acyclic._TreeTables

        def dp(*args):
            traversals.append(args)
            return tables(*args)

        def no_pass(*args, **kwargs):
            raise AssertionError("counting a forest ran a component pass")

        monkeypatch.setattr(acyclic, "_TreeTables", dp)
        for module in (graphs, backdoors, strong, weak):
            monkeypatch.setattr(module, "cyclic_components", no_pass)
        for f, expected in zip(forests, models):
            traversals.clear()
            found, result = strong.count_through_search(f)
            assert (found, result.count, result.universe_size) == (
                frozenset(),
                expected,
                len(f.universe),
            )
            assert len(traversals) == 1
        path = tmp_path / "forest.cnf"
        path.write_text(emit_dimacs(forests[0]), encoding="ascii")
        traversals.clear()
        code, out, _ = run(["count", "--cnf", str(path), "--json", "--no-timing"])
        report = json.loads(out)
        assert (code, report["parameters"], report["count"]) == (0, {"backdoor": []}, models[0])
        assert len(traversals) == 1

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


class TestConditionedCounting:
    """Counting and strong verification condition on the cutset most
    connected variable first and stop at the first acyclic prefix; both
    still agree with rebuilding every restriction."""

    @staticmethod
    def agree(f: Formula, cutset: list[int]) -> None:
        mine = outcome(count_with_backdoor, f, cutset, f.universe)
        assert mine == outcome(reference_count_with_backdoor, f, cutset, f.universe)
        assert is_strong_backdoor(f, cutset) == direct_strong(f, cutset)

    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_grid_cell_subsets(self, size):
        f = grid_formula(size)
        extra = size * size + 1
        rng = random.Random(size)
        for _ in range(6):
            cells = rng.sample(range(1, extra), rng.randint(1, 7))
            self.agree(f, cells)
            self.agree(f, cells + [extra])

    def test_random_3cnf(self):
        rng = random.Random(7)
        for seed in range(60):
            f = random_instance(seed + 120_000)
            universe = sorted(f.universe)
            self.agree(f, rng.sample(universe, rng.randint(0, min(5, len(universe)))))

    def test_disjoint_unions(self):
        rng = random.Random(8)
        for seed in range(20):
            f = disjoint_union(grid_formula(3), triangle(), random_instance(seed + 130_000))
            universe = sorted(f.universe)
            for size in (2, 4, 6):
                self.agree(f, rng.sample(universe, size))
            # The grid's extra variable and one triangle variable.
            self.agree(f, [10, 11] + rng.sample(universe, 2))

    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_cycle_only_in_the_last_restrictions(self, size):
        # The gadget's cycle survives only x = False, y = True. x and y are
        # its only cutset variables and tie at one non-pendant clause each,
        # so the walk branches on x and then, with x False, on y.
        f = disjoint_union(grid_formula(size), deep_cycle_gadget())
        extra = size * size + 1
        a, x, y = extra + 1, extra + 3, extra + 4
        cutset = [extra, 1, size + 2, x, y]
        walk = Conditioning(Residual.of(f), sorted(cutset))
        graph = walk.inc.graph
        gadget = {graph.var_node(v) for v in range(a, y + 1)}
        gadget.update(graph.adjacency[graph.var_node(a)])
        assert walk.nodes[walk.first(gadget)] == graph.var_node(x)
        walk.mask[graph.var_node(x)] = 1
        assert walk.nodes[walk.first(gadget - {graph.var_node(x)})] == graph.var_node(y)
        assert not is_strong_backdoor(f, cutset)
        with pytest.raises(ContractError, match="not a strong backdoor"):
            count_with_backdoor(f, cutset, f.universe)
        self.agree(f, cutset)
        self.agree(f, [extra, a])

    @pytest.mark.parametrize(
        "n, m, seed, last, models, before",
        [(16, 28, 12, 14, 1408, 709), (18, 31, 13, 16, 4626, 1325)],
    )
    def test_branching_on_the_best_connected_variable(
        self, monkeypatch, n, m, seed, last, models, before
    ):
        """Branching each component on its best-connected cutset variable
        takes under half the DP traversals, and verification under half the
        component passes, that branching in a fixed most-neighbours-first
        order took (`before`) on random 3-CNF through most variables."""
        f = random_rcnf(n, m, 3, seed)
        cutset = list(range(1, last + 1))
        assert brute_count(f, f.universe) == models
        traversals, passes = [], []
        dp = acyclic._TreeTables
        split = backdoors.cyclic_components

        def counted(*args):
            traversals.append(args)
            return dp(*args)

        def counted_pass(*args):
            passes.append(args)
            return split(*args)

        monkeypatch.setattr(acyclic, "_TreeTables", counted)
        monkeypatch.setattr(backdoors, "cyclic_components", counted_pass)
        assert count_with_backdoor(f, cutset, f.universe).count == models
        assert 0 < len(traversals) <= before // 2
        assert is_strong_backdoor(f, cutset)
        assert 0 < len(passes) <= before // 2

    def test_grid_six_at_the_guard(self, monkeypatch, tmp_path):
        """Grid 6's extra variable plus cells 1-29 is 30 variables, the most
        verification takes; both of the extra variable's values leave a
        forest, so counting ends after a handful of tree DPs and
        verification after as many component passes."""
        from test_cli import run

        f = grid_formula(6)
        cutset = [37, *range(1, 30)]
        assert len(cutset) == backdoors.MAX_VERIFY_VARIABLES
        calls, passes = [], []
        dp = strong.split_count
        split = backdoors.cyclic_components

        def counted(inc, mask, variables, scope=None):
            calls.append(mask.count(1))
            return dp(inc, mask, variables, scope)

        def counted_pass(graph, state, scope=None, limit=None):
            passes.append(state.count(1))
            return split(graph, state, scope, limit)

        monkeypatch.setattr(strong, "split_count", counted)
        monkeypatch.setattr(backdoors, "cyclic_components", counted_pass)
        total = count_with_backdoor(f, cutset, f.universe)
        assert 0 < len(calls) <= 4
        assert total == count_with_backdoor(f, {37}, f.universe)
        assert total.count == 171532242
        assert is_strong_backdoor(f, cutset)
        assert 0 < len(passes) <= 4
        path = tmp_path / "grid6.cnf"
        assert run(["gen", "grid", "--size", "6", "-o", str(path)])[0] == 0
        listed = ",".join(map(str, cutset))
        assert run(["count", "--cnf", str(path), "--backdoor", listed]) == (0, "count: 171532242\n", "")
        code, out, _ = run(["verify", "--cnf", str(path), "--kind", "strong", "--set", listed])
        assert code == 0 and "valid" in out


def union_with_cutset(parts: list[tuple[Formula, list[int]]]) -> tuple[Formula, list[int]]:
    """`disjoint_union` of the formulas, with each part's cutset shifted as
    its variables are."""
    cutset: list[int] = []
    offset = 0
    for part, variables in parts:
        cutset += [v + offset for v in variables]
        offset += len(part.universe)
    return disjoint_union(*(part for part, _ in parts)), cutset


class TestComponentCounting:
    """Counting and strong verification through a backdoor, one connected
    component at a time, on disjoint unions whose parts are checked alone."""

    # Small cyclic parts, each with cutsets that are strong backdoors of it
    # and cutsets that are not.
    PARTS = {
        "triangle": (triangle, [[1], [2]], [[]]),
        "gadget": (lambda: k33_gadgets(1), [[1, 2], [2, 3], [1, 2, 3]], [[1], [3]]),
        "square": (lambda: disjoint_squares(1), [[2], [1]], [[]]),
        "grid3": (
            lambda: grid_formula(3),
            [[10], [10, 5], list(range(1, 10))],
            [[5], [1, 3, 5, 7, 9]],
        ),
    }

    def test_early_zero_is_not_the_end(self):
        """An unsatisfiable acyclic part prices the view at zero before the
        triangle beside it shows that the set is not a strong backdoor."""
        f = Formula.from_ints([[1], [-1], [2, 3], [3, 4], [2, 4]], num_vars=4)
        expected = (ContractError, "the given set is not a strong backdoor")
        assert outcome(count_with_backdoor, f, {1}, f.universe) == expected
        assert outcome(reference_count_with_backdoor, f, {1}, f.universe) == expected
        assert not is_strong_backdoor(f, {1})
        assert not direct_strong(f, {1})
        # A cutset variable in the triangle makes it one, and the count zero.
        assert count_with_backdoor(f, {1, 3}, f.universe).count == 0
        assert is_strong_backdoor(f, {1, 3})

    def test_early_zero_on_the_command_line(self, tmp_path):
        from test_cli import run

        path = tmp_path / "trap.cnf"
        path.write_text("p cnf 4 5\n1 0\n-1 0\n2 3 0\n3 4 0\n2 4 0\n", encoding="ascii")
        assert run(["count", "--cnf", str(path), "--backdoor", "1"]) == (
            2,
            "",
            "error: the given set is not a strong backdoor\n",
        )
        code, out, _ = run(["verify", "--cnf", str(path), "--kind", "strong", "--set", "1"])
        assert (code, out) == (1, "verdict: invalid\n")

    def test_universes_without_non_occurring_variables(self):
        # The triangle's cycle over 1..3 in a formula over 1..5.
        f = Formula.from_ints([[1, 2], [2, 3], [1, 3]], num_vars=5)
        for universe, models in [({1, 2, 3}, 4), ({1, 2, 3, 4}, 8), ({1, 2, 3, 4, 5, 9}, 32)]:
            mine = count_with_backdoor(f, {1}, universe)
            assert type(mine.count) is int
            assert mine.count == models
            assert mine == reference_count_with_backdoor(f, {1}, universe)

    @pytest.mark.parametrize("seed", range(12))
    def test_unions_against_their_parts(self, seed):
        """Disjoint unions with cutsets of up to 30 variables: the count is
        the product of the parts' counts, and the union's set is strong
        when every part's is."""
        rng = random.Random(seed)
        parts: list[tuple[Formula, list[int]]] = []
        strong_parts = seed % 3 != 2
        while True:
            name = rng.choice(sorted(self.PARTS))
            build, good, bad = self.PARTS[name]
            part = build()
            variables = rng.choice(good if strong_parts or parts else bad)
            if seed % 4 == 3 and not parts:
                part = random_instance(seed + 150_000, max_n=6, max_m=8)
                variables = sorted(part.universe)
            if sum(len(v) for _, v in parts) + len(variables) > backdoors.MAX_VERIFY_VARIABLES:
                break
            parts.append((part, variables))
        f, cutset = union_with_cutset(parts)
        assert len(cutset) >= 24
        strong_each = [direct_strong(part, variables) for part, variables in parts]
        assert is_strong_backdoor(f, cutset) == all(strong_each)
        if all(strong_each):
            models = 1
            for part, _ in parts:
                models *= brute_count(part, part.universe)
            assert count_with_backdoor(f, cutset, f.universe).count == models
        else:
            with pytest.raises(ContractError, match="not a strong backdoor"):
                count_with_backdoor(f, cutset, f.universe)

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_the_references(self, seed):
        rng = random.Random(seed)
        parts = [random_instance(seed + 160_000, max_n=6, max_m=8)]
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(sorted(self.PARTS))
            parts.append(self.PARTS[name][0]() if name != "grid3" else triangle())
        f = disjoint_union(*parts)
        universe = sorted(f.universe)
        cutset = rng.sample(universe, rng.randint(0, min(8, len(universe))))
        assert is_strong_backdoor(f, cutset) == direct_strong(f, cutset)
        for target in (f.universe, f.universe | {max(universe) + 1}):
            mine = outcome(count_with_backdoor, f, cutset, target)
            assert mine == outcome(reference_count_with_backdoor, f, cutset, target)

    def test_thirty_squares_on_the_command_line(self, tmp_path):
        from test_cli import run

        path = tmp_path / "squares.cnf"
        path.write_text(emit_dimacs(disjoint_squares(30)), encoding="ascii")
        cutset = ",".join(str(b) for b in range(2, 61, 2))
        start = time.perf_counter()
        counted = run(["count", "--cnf", str(path), "--backdoor", cutset])
        assert counted == (0, f"count: {2**30}\n", "")
        assert time.perf_counter() - start < 1
        start = time.perf_counter()
        code, out, _ = run(["verify", "--cnf", str(path), "--kind", "strong", "--set", cutset])
        assert time.perf_counter() - start < 1
        assert (code, out) == (0, "verdict: valid\n")
        # A 31st variable trips the guard.
        for argv in (["count", "--backdoor"], ["verify", "--kind", "strong", "--set"]):
            code, out, err = run([argv[0], "--cnf", str(path), *argv[1:], cutset + ",1"])
            assert (code, out) == (3, "")
            assert "limit 30 variables" in err


# Formulas for the differential tests against the rebuilding references:
# criterion 6's random 3-CNF, grids, and disjoint triangles.
VIEW_FAMILIES = {
    "random-3cnf": lambda: [random_instance(seed + 40_000) for seed in range(100)],
    "grids": lambda: [grid_formula(size) for size in range(2, 7)],
    "triangles": lambda: [disjoint_triangles(count) for count in (1, 2, 5)],
    "hitting-sets": lambda: [random_hitting_formula(seed + 70_000) for seed in range(20)],
    "killer-gadgets": lambda: [killer_gadgets(seed + 95_000) for seed in range(60)],
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


def same_outcome(mine, reference) -> None:
    """Equal verdicts, sets, witnesses and splits, or equal error types and
    messages."""
    assert mine == reference
    if isinstance(mine, BackdoorVerdict):
        assert mine.witness == reference.witness
        assert mine.split == reference.split


class TestViewsAgainstRebuild:
    """The views give what rebuilding every restriction or deletion gave."""

    @pytest.mark.parametrize("family", sorted(VIEW_FAMILIES))
    @pytest.mark.parametrize(
        "search, reference",
        [
            (detect_weak, reference_detect_weak),
            (detect_strong, reference_detect_strong),
            (weak_exact_search, reference_weak_exact_search),
        ],
        ids=["detect_weak", "detect_strong", "weak_exact_search"],
    )
    def test_detectors(self, family, search, reference):
        for f in VIEW_FAMILIES[family]():
            for budget in (-1, 0, 1, 2):
                same_outcome(outcome(search, f, budget), outcome(reference, f, budget))

    @pytest.mark.parametrize("family", sorted(VIEW_FAMILIES))
    def test_strong_exact_search(self, family):
        for f in VIEW_FAMILIES[family]():
            for budget in (-1, 0, 1, 2):
                mine = outcome(strong_exact_search, f, budget)
                same_outcome(mine, outcome(reference_strong_exact_search, f, budget))

    @pytest.mark.parametrize("family", sorted(VIEW_FAMILIES))
    def test_detect_deletion(self, family):
        for f in VIEW_FAMILIES[family]():
            for budget in (-1, 0, 1, 2, 3):
                mine = outcome(detect_deletion, f, budget)
                same_outcome(mine, outcome(reference_detect_deletion, f, budget))

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


# The two 6-cycles (1 2)(2 3)(-1 3) and (7 -8)(8 9)(7 9): the universe
# {1, 2, 3, 7, 8, 9} leaves out 4 to 6.
GAPPED_TRIANGLES = [[1, 2], [2, 3], [-1, 3], [7, -8], [8, 9], [7, 9]]
GAP_FAMILIES = {
    "triangles": lambda: [Formula.from_ints(GAPPED_TRIANGLES)],
    **{
        name: lambda build=build: list(map(with_gaps, build()))
        for name, build in VIEW_FAMILIES.items()
    },
}


class TestUniversesWithGaps:
    """A view's unassigned variables are every id up to the largest that its
    nodes keep, ids the universe leaves out among them. Those nodes are
    isolated, so no cycle, killer test or rule selects them, and the
    searches give what rebuilding every restriction or deletion gives."""

    def test_unassigned_holds_every_id_up_to_the_largest(self):
        f = Formula.from_ints(GAPPED_TRIANGLES)
        assert f.universe == {1, 2, 3, 7, 8, 9}
        root = Residual.of(f)
        assert root.unassigned() == frozenset(range(1, 10))
        assert root.assign(7, True).unassigned() == frozenset(range(1, 10)) - {7}
        assert root.without([2, 5]).unassigned() == frozenset(range(1, 10)) - {2, 5}
        graph = root.inc.graph
        assert root.within(graph.var_node(v) for v in (1, 3)).unassigned() == {1, 3}
        for g in GAP_FAMILIES["random-3cnf"]():
            assert Residual.of(g).unassigned() == frozenset(range(1, max(g.universe) + 1))

    @pytest.mark.parametrize("family", sorted(GAP_FAMILIES))
    @pytest.mark.parametrize(
        "search, reference, budgets",
        [
            (detect_weak, reference_detect_weak, range(3)),
            (detect_strong, reference_detect_strong, range(3)),
            (detect_deletion, reference_detect_deletion, range(4)),
            (weak_exact_search, reference_weak_exact_search, range(3)),
            (strong_exact_search, reference_strong_exact_search, range(3)),
        ],
        ids=["detect_weak", "detect_strong", "detect_deletion", "weak_exact", "strong_exact"],
    )
    def test_searches_match_the_references(self, family, search, reference, budgets):
        for f in GAP_FAMILIES[family]():
            for budget in budgets:
                same_outcome(outcome(search, f, budget), outcome(reference, f, budget))


def count_settles(monkeypatch, check=None) -> list[int]:
    """Patch the weak module's and the references' `branch_on_cycles` so
    that every `settle` call is counted in the returned one-item list, and
    passed to `check(state)` first if given."""
    count = [0]
    branch = backdoors.branch_on_cycles

    def counted_branch(root, settle, moves):
        def counted(state):
            count[0] += 1
            if check is not None:
                check(state)
            return settle(state)

        return branch(root, counted, moves)

    monkeypatch.setattr(weak, "branch_on_cycles", counted_branch)
    monkeypatch.setattr(instances, "branch_on_cycles", counted_branch)
    return count


@pytest.mark.parametrize("family", sorted(VIEW_FAMILIES))
def test_view_memo_settles_no_more_states(monkeypatch, family):
    """Memoizing the weak search on the view instead of the rebuilt formula
    gives up only merges of assignments that leave equal clause lists: none
    here but on random 3-CNF, and under 1% there."""
    count = count_settles(monkeypatch)
    settled = []
    for calls in (
        (detect_weak, weak_exact_search),
        (reference_detect_weak, reference_weak_exact_search),
    ):
        count[0] = 0
        for f in VIEW_FAMILIES[family]():
            for budget in (1, 2):
                for call in calls:
                    outcome(call, f, budget)
        settled.append(count[0])
    mine, reference = settled
    slack = 0.01 if family == "random-3cnf" else 0
    assert 0 < mine <= reference * (1 + slack)


def test_weak_search_never_settles_an_emptied_residual(monkeypatch):
    """Restriction never removes an empty clause, so the weak search prunes
    every residual holding one before settling it."""

    def check(state):
        if isinstance(state[0], Residual):
            assert not state[0].has_empty_clause()

    count_settles(monkeypatch, check)
    formulas = VIEW_FAMILIES["killer-gadgets"]()
    for seed in range(60):
        rng = random.Random(seed + 80_000)
        n = rng.randint(4, 9)
        formulas.append(random_rcnf(n, rng.randint(n, 3 * n), rng.choice((2, 3)), seed))
    for f in formulas:
        for budget in (1, 2):
            assert weak_exact_search(f, budget) == reference_weak_exact_search(f, budget)
            assert detect_weak(f, budget) == reference_detect_weak(f, budget)


def test_verification_and_exact_searches_never_rebuild(monkeypatch):
    """Each call builds its formula's incidence graph once and no residual
    formula at all."""

    def refuse(*args):
        raise AssertionError("a residual formula was rebuilt")

    f = grid_formula(3)
    # Grid 4 packs enough cycles to take the designation route.
    g = grid_formula(4)
    models = brute_count(f, f.universe)
    monkeypatch.setattr(Formula, "restrict", refuse)
    monkeypatch.setattr(Formula, "without_variables", refuse)
    builds = []
    build = graphs.incidence_graph

    def counted(formula):
        builds.append(formula)
        return build(formula)

    for module in (graphs, acyclic, backdoors, strong, weak):
        monkeypatch.setattr(module, "incidence_graph", counted, raising=False)
    calls = [
        (detect_weak, (f, 1), BackdoorVerdict.yes({10}, 1)),
        (detect_weak, (g, 1), BackdoorVerdict.yes({17}, 1)),
        (detect_strong, (f, 1), BackdoorVerdict.yes({10}, 1)),
        (detect_strong, (g, 1), BackdoorVerdict.yes({17}, 1)),
        (weak_exact_search, (f, 1), BackdoorVerdict.yes({10}, 1)),
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
        assert builds == [args[0]], call.__name__


def component_unions() -> list[Formula]:
    """Disjoint unions of triangles, K3,3 gadgets, grid 3 and small random
    3-CNF, each with two to four cyclic components."""
    unions = [
        disjoint_triangles(2),
        disjoint_triangles(3),
        k33_gadgets(2),
        k33_gadgets(3),
        disjoint_union(k33_gadgets(1), triangle(), grid_formula(3)),
        disjoint_union(grid_formula(3), k33_gadgets(1)),
    ]
    for seed in range(12):
        parts = [random_instance(seed + 120_000, max_n=7, max_m=10), k33_gadgets(1)]
        if seed % 2:
            parts.append(triangle())
        if seed % 3 == 0:
            parts.append(random_instance(seed + 130_000, max_n=6, max_m=8))
        unions.append(disjoint_union(*parts))
    return unions


class TestCyclicComponentBound:
    """Each cyclic component needs a backdoor variable of its own. The weak
    exact search prunes every state on it; the strong exact search and
    deletion detection bound the components at the root only, where they
    also sum the components' least backdoors."""

    # (search, gadget copies, budget): one below the least backdoor, as each
    # gadget needs one variable under weak and two under strong and deletion.
    LADDER = [
        (detect_weak, 7, 6),
        (strong_exact_search, 6, 11),
        (strong_exact_search, 7, 13),
        (detect_deletion, 10, 19),
    ]

    @pytest.mark.parametrize(
        "search, copies, budget", LADDER, ids=["weak-7", "strong-6", "strong-7", "deletion-10"]
    )
    def test_gadget_unions_answer_no_at_once(self, monkeypatch, search, copies, budget):
        f = k33_gadgets(copies)
        assert search(f, budget + 1).found
        # Without the bound, these took seconds or tripped the state cap.
        monkeypatch.setattr(backdoors, "MAX_SEARCH_STATES", 100)
        started = time.perf_counter()
        assert not search(f, budget).found
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("kind, copies, budget", [("weak", 7, 6), ("deletion", 10, 19)])
    def test_cli_gadget_unions_exit_1(self, tmp_path, kind, copies, budget):
        from test_cli import run

        path = tmp_path / "gadgets.cnf"
        path.write_text(emit_dimacs(k33_gadgets(copies)), encoding="ascii")
        argv = ["detect", kind, "--cnf", str(path), "-k", str(budget)]
        assert run(argv) == (1, "verdict: no\n", "")

    @pytest.mark.parametrize("index", range(18))
    def test_searches_match_the_references(self, index):
        f = component_unions()[index]
        for budget in range(5):
            for search, reference in (
                (weak_exact_search, reference_weak_exact_search),
                (strong_exact_search, reference_strong_exact_search),
                (detect_deletion, reference_detect_deletion),
            ):
                same_outcome(search(f, budget), reference(f, budget))

    def test_a_tripped_component_search_leaves_the_answer_to_the_whole(self, monkeypatch):
        # The random part needs four variables and the triangle one. Alone,
        # the random part's search at three trips a cap of three states;
        # the search over the whole view finds five within it.
        f = disjoint_union(random_rcnf(7, 10, 3, 1), triangle())
        expected = {search: search(f, 5) for search in (strong_exact_search, detect_deletion)}
        monkeypatch.setattr(backdoors, "MAX_SEARCH_STATES", 3)
        for search, verdict in expected.items():
            assert verdict.found and len(verdict.variables) == 5
            assert search(f, 5) == verdict

    def test_deletion_bounds_components_at_the_root_only(self, monkeypatch):
        passes = []
        split = strong.cyclic_components

        def counted(graph, state, scope=None, limit=None):
            passes.append(state.count(1))
            return split(graph, state, scope, limit)

        monkeypatch.setattr(strong, "cyclic_components", counted)
        monkeypatch.setattr(backdoors, "MAX_SEARCH_STATES", 50)
        with pytest.raises(ResourceLimitError):
            detect_deletion(grid_formula(7), 10)
        # One pass, on the root's view, which removes nothing.
        assert passes == [0]

    def test_weak_states_make_one_structural_pass(self, monkeypatch):
        passes, made = [], []

        def spy(module):
            split = module.cyclic_components

            def counted(graph, state, scope=None, limit=None):
                passes.append((module.__name__, limit))
                return split(graph, state, scope, limit)

            monkeypatch.setattr(module, "cyclic_components", counted)

        # The graphs module's name is the one `is_acyclic` calls.
        spy(weak)
        spy(graphs)
        branch = backdoors.branch_on_cycles

        def counted_branch(root, settle, moves):
            def counted(state):
                passes.clear()
                try:
                    return settle(state)
                finally:
                    made.append((state[1], list(passes)))

            return branch(root, counted, moves)

        monkeypatch.setattr(weak, "branch_on_cycles", counted_branch)
        for f in (grid_formula(3), k33_gadgets(2), disjoint_triangles(3)):
            for budget in (1, 2, 3):
                same_outcome(weak_exact_search(f, budget), reference_weak_exact_search(f, budget))
        # Every state makes one component pass, limited to its budget left,
        # at budget 0 too; an acyclic state then runs the tree DP.
        assert all(limits == [("forestbd.weak", remaining)] for remaining, limits in made)
        assert {0, 1, 2, 3} == {remaining for remaining, _ in made}
