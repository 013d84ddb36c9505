"""Weak detection: thresholds, selection rules, and end-to-end exactness."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbd import (
    ContractError,
    CyclePacking,
    Formula,
    brute_min_backdoor,
    detect_weak,
    disjoint_cycles_or_feedback,
    grid_formula,
    hitting_set_formula,
    incidence_graph,
    random_rcnf,
    weak_backdoor_witness,
    weak_exact_search,
)
from forestbd.backdoors import Residual, weak_killers
from forestbd.strong import StrongParameters, strong_rule_outcome
from forestbd.weak import (
    RuleOutcome,
    WeakParameters,
    candidate_pool,
    designations,
    weak_rule_outcome,
)
from instances import (
    contradiction_path,
    disjoint_triangles,
    heavy_boundary_cycles,
    heavy_boundary_ring,
    heavy_dense_cycles,
    heavy_dense_ring,
    heavy_sparse_cycles,
    heavy_sparse_ring,
    killer_gadgets,
    manufactured_choice,
    overlap_ring_cycles,
    overlap_rings,
    random_hitting_formula,
    reference_weak_rule_outcome,
    rule_selection_sound,
    shared_killer_cycles,
    shared_killer_square,
    three_islands,
    triangle,
    two_triangles,
)


class TestParameters:
    def test_budget_one_width_three(self):
        p = WeakParameters.derive(1, 3)
        assert (p.cycles, p.multi, p.support, p.overlap) == (3, 4, 5, 17)

    def test_budget_two_width_three(self):
        p = WeakParameters.derive(2, 3)
        assert (p.cycles, p.multi, p.support, p.overlap) == (5, 8, 18, 258)

    def test_budget_one_width_four(self):
        assert WeakParameters.derive(1, 4).support == 15

    def test_narrow_width_clamps_to_three(self):
        assert WeakParameters.derive(1, 2) == WeakParameters.derive(1, 3)

    def test_rejects_zero_budget(self):
        with pytest.raises(ContractError):
            WeakParameters.derive(0, 3)


class TestRules:
    def params(self, budget=1, width=3):
        return WeakParameters.derive(budget, width)

    def test_unkillable_cycle(self):
        f = three_islands()
        residual = Residual.of(f)
        split = disjoint_cycles_or_feedback(residual.inc.graph, 3)
        assert isinstance(split, CyclePacking)
        # The first designation makes cycle 0 internal.
        choice, outcome = next(
            designations(weak_rule_outcome, residual, split.cycles, self.params())
        )
        assert choice.internal == split.cycles[:1]
        assert outcome.rule == "unkillable-cycle"
        assert outcome.selected == frozenset()
        assert rule_selection_sound(f, choice, outcome.selected, 1, "weak")

    @pytest.mark.parametrize(
        "ring, cycles, selected",
        [
            (heavy_sparse_ring, heavy_sparse_cycles, {9}),
            # Exactly `support` = 5 heavy killers: still concentrated.
            (heavy_boundary_ring, heavy_boundary_cycles, {17, 18, 19, 20, 21}),
        ],
        ids=["sparse", "boundary"],
    )
    def test_concentrated_killers(self, ring, cycles, selected):
        f = ring()
        choice = manufactured_choice(f, cycles())
        outcome = weak_rule_outcome(incidence_graph(f), choice, self.params())
        assert outcome.rule == "concentrated-killers"
        assert outcome.selected == frozenset(selected)
        assert rule_selection_sound(f, choice, outcome.selected, 1, "weak")

    def test_dominant_killer(self):
        f = heavy_dense_ring()
        choice = manufactured_choice(f, heavy_dense_cycles())
        outcome = weak_rule_outcome(incidence_graph(f), choice, self.params())
        assert outcome.rule == "dominant-killer"
        assert outcome.selected == frozenset({17})
        assert rule_selection_sound(f, choice, outcome.selected, 1, "weak")

    def test_killer_overlap_excess(self):
        f = overlap_rings()
        choice = manufactured_choice(f, overlap_ring_cycles())
        outcome = weak_rule_outcome(incidence_graph(f), choice, self.params())
        assert outcome.rule == "killer-overlap-excess"
        assert outcome.selected == frozenset()
        assert rule_selection_sound(f, choice, outcome.selected, 1, "weak")

    def test_shared_killers(self):
        f = shared_killer_square()
        choice = manufactured_choice(f, shared_killer_cycles())
        outcome = weak_rule_outcome(incidence_graph(f), choice, self.params())
        assert outcome.rule == "shared-killers"
        assert outcome.selected == frozenset({5})
        assert rule_selection_sound(f, choice, outcome.selected, 1, "weak")


class TestOnePassRule:
    """`weak_rule_outcome` decides every designation as the two-pass
    `reference_weak_rule_outcome` does."""

    FIXTURES = (
        (heavy_sparse_ring, heavy_sparse_cycles),
        (heavy_dense_ring, heavy_dense_cycles),
        (heavy_boundary_ring, heavy_boundary_cycles),
        (overlap_rings, overlap_ring_cycles),
        (shared_killer_square, shared_killer_cycles),
    )
    FAMILIES = {
        "3cnf": lambda: [random_rcnf(30, 40 + seed, 3, seed) for seed in range(30)],
        "gadgets": lambda: [killer_gadgets(seed) for seed in range(30)],
        "grid": lambda: [grid_formula(size) for size in range(4, 8)],
        "hitting": lambda: [random_hitting_formula(seed) for seed in range(30)],
    }

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_every_designation(self, family):
        compared = 0
        for formula in self.FAMILIES[family]():
            residual = Residual.of(formula)
            for budget, width in itertools.product((1, 2), (3, 4, 5)):
                params = WeakParameters.derive(budget, width)
                split = disjoint_cycles_or_feedback(residual.inc.graph, params.cycles)
                if not isinstance(split, CyclePacking):
                    continue
                for choice, outcome in designations(
                    weak_rule_outcome, residual, split.cycles, params
                ):
                    assert outcome == reference_weak_rule_outcome(formula, choice, params)
                    compared += 1
        assert compared >= 100

    def test_fixture_rings(self):
        fired = set()
        for formula, cycles in self.FIXTURES:
            f = formula()
            inc = incidence_graph(f)
            choice = manufactured_choice(f, cycles())
            for budget, width in itertools.product((1, 2), (3, 4, 5)):
                params = WeakParameters.derive(budget, width)
                outcome = weak_rule_outcome(inc, choice, params)
                assert outcome == reference_weak_rule_outcome(f, choice, params)
                fired.add(outcome.rule)
        assert fired >= {"concentrated-killers", "dominant-killer", "killer-overlap-excess"}


class TestCandidatePool:
    def test_islands_certify_no(self):
        f = three_islands()
        residual = Residual.of(f)
        split = disjoint_cycles_or_feedback(residual.inc.graph, 3)
        params = WeakParameters.derive(1, 3)
        pool = candidate_pool(weak_rule_outcome, weak_killers, residual, split.cycles, params)
        assert pool == frozenset()
        assert brute_min_backdoor(f, "weak", 1).optimum is None

    def test_grid_pool_contains_extra_variable(self):
        f = grid_formula(4)
        residual = Residual.of(f)
        split = disjoint_cycles_or_feedback(residual.inc.graph, 3)
        assert isinstance(split, CyclePacking)
        params = WeakParameters.derive(1, 3)
        pool = candidate_pool(weak_rule_outcome, weak_killers, residual, split.cycles, params)
        assert 17 in pool

    def test_every_outcome_is_sound(self):
        f = grid_formula(4)
        residual = Residual.of(f)
        split = disjoint_cycles_or_feedback(residual.inc.graph, 3)
        for choice, outcome in designations(
            weak_rule_outcome, residual, split.cycles, WeakParameters.derive(1, 3)
        ):
            assert rule_selection_sound(f, choice, outcome.selected, 1, "weak")

    def test_requires_enough_cycles(self):
        f = triangle()
        residual = Residual.of(f)
        params = WeakParameters.derive(1, 3)
        with pytest.raises(ContractError):
            candidate_pool(weak_rule_outcome, weak_killers, residual, (), params)


class TestDesignations:
    FORMULAS = {
        "triangles40": lambda: disjoint_triangles(40),
        **{f"grid{size}": (lambda size=size: grid_formula(size)) for size in range(4, 9)},
        **{f"3cnf{seed}": (lambda seed=seed: random_rcnf(40, 60, 3, seed)) for seed in range(4)},
    }

    @pytest.mark.parametrize("name", list(FORMULAS))
    def test_pool_is_universe_minus_external_variables(self, name):
        formula = self.FORMULAS[name]()
        residual = Residual.of(formula)

        def no_rule(*_):
            return RuleOutcome("none", frozenset())

        checked = 0
        for budget in (1, 2, 3):
            for params in (WeakParameters.derive(budget, 3), StrongParameters.derive(budget)):
                split = disjoint_cycles_or_feedback(residual.inc.graph, params.cycles)
                if not isinstance(split, CyclePacking):
                    continue
                for choice, _ in designations(no_rule, residual, split.cycles, params):
                    barred = {v for c in choice.external for v in c.variables}
                    assert choice.pool == formula.universe - barred
                    assert len(choice.internal) == budget
                    assert set(choice.internal) | set(choice.external) == set(split.cycles)
                    packing = split.cycles[: params.cycles]
                    assert choice.external == tuple(c for c in packing if c not in choice.internal)
                    checked += 1
        assert checked


    @pytest.mark.parametrize("name", [name for name in FORMULAS if name != "triangles40"])
    def test_required_indices_filter_the_full_enumeration(self, name):
        formula = self.FORMULAS[name]()
        residual = Residual.of(formula)
        rng = random.Random(name)
        checked = 0
        for budget in (1, 2):
            for params, rule in (
                (WeakParameters.derive(budget, 3), weak_rule_outcome),
                (StrongParameters.derive(budget), strong_rule_outcome),
            ):
                split = disjoint_cycles_or_feedback(residual.inc.graph, params.cycles)
                if not isinstance(split, CyclePacking):
                    continue
                index = {cycle: i for i, cycle in enumerate(split.cycles[: params.cycles])}
                full = list(designations(rule, residual, split.cycles, params))
                for size in range(budget + 2):
                    for _ in range(3):
                        required = rng.sample(range(params.cycles), size)
                        expected = [
                            (choice, outcome)
                            for choice, outcome in full
                            if set(required) <= {index[c] for c in choice.internal}
                        ]
                        got = list(designations(rule, residual, split.cycles, params, required))
                        assert got == expected
                        assert (len(got) > 0) == (size <= budget)
                        checked += 1
        assert checked


class TestDetect:
    def test_grids(self):
        for size in (2, 3, 4):
            f = grid_formula(size)
            verdict = detect_weak(f, 1)
            assert verdict.found
            assert verdict.variables == frozenset({size * size + 1})
            assert weak_backdoor_witness(f, verdict.variables) is not None
            rest = f.restrict(verdict.witness)
            from forestbd import is_acyclic, satisfying_assignment

            assert is_acyclic(incidence_graph(rest).graph)
            assert satisfying_assignment(rest) is not None

    def test_hitting_set_reduction(self):
        f = hitting_set_formula([[1, 2], [2, 3]])
        verdict = detect_weak(f, 1)
        assert verdict.found and verdict.variables == frozenset({2})
        assert brute_min_backdoor(f, "weak", 1).optimum == 1

    def test_two_gadgets_need_two(self):
        f = two_triangles()
        assert not detect_weak(f, 1).found
        verdict = detect_weak(f, 2)
        assert verdict.found and len(verdict.variables) == 2

    def test_acyclic_satisfiable_is_empty_backdoor(self):
        f = Formula.from_ints([[1, 2]], num_vars=2)
        verdict = detect_weak(f, 0)
        assert verdict.found and verdict.variables == frozenset()
        assert verdict.witness == {}

    def test_acyclic_unsatisfiable_is_no(self):
        assert not detect_weak(contradiction_path(), 3).found

    def test_cyclic_budget_zero_is_no(self):
        assert not detect_weak(triangle(), 0).found

    def test_width_violation(self):
        f = Formula.from_ints([[1, 2, 3, 4]], num_vars=4)
        with pytest.raises(ContractError):
            detect_weak(f, 1, 3)

    def test_negative_budget(self):
        with pytest.raises(ContractError):
            detect_weak(triangle(), -1)

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_exact_on_random_instances(self, seed):
        rng = random.Random(seed)
        f = random_rcnf(rng.randint(3, 8), rng.randint(2, 10), 3, seed)
        for budget in (1, 2):
            verdict = detect_weak(f, budget, 3)
            expected = brute_min_backdoor(f, "weak", budget).optimum is not None
            assert verdict.found == expected
            if verdict.found:
                assert len(verdict.variables) <= budget
                assert set(verdict.witness) == set(verdict.variables)
                assert weak_backdoor_witness(f, verdict.variables) is not None

    @given(st.integers(0, 100_000))
    @settings(max_examples=20, deadline=None)
    def test_budget_monotonicity(self, seed):
        f = random_rcnf(7, 9, 3, seed)
        if detect_weak(f, 1).found:
            assert detect_weak(f, 2).found

    def test_deterministic(self):
        f = random_rcnf(8, 12, 3, 99)
        first = detect_weak(f, 2)
        second = detect_weak(f, 2)
        assert first.variables == second.variables
        assert first.witness == second.witness
        assert first.found == second.found

    def test_budget_two_packing_route(self):
        # Five disjoint duplicated-clause cycles sharing one outside killer:
        # enough cycles that the budget-two run branches through the rules
        # instead of the exact fallback.
        clauses = []
        for i in range(5):
            a, b = 2 * i + 1, 2 * i + 2
            clauses.append([a, b, 11])
            clauses.append([a, b])
        f = Formula.from_ints(clauses, num_vars=11)
        split = disjoint_cycles_or_feedback(
            incidence_graph(f).graph, WeakParameters.derive(2, 3).cycles
        )
        assert isinstance(split, CyclePacking)
        verdict = detect_weak(f, 2)
        assert verdict.found and verdict.variables == frozenset({11})
        assert verdict.witness == {11: True}
        assert brute_min_backdoor(f, "weak", 2).optimum == 1
        assert detect_weak(f, 1).variables == frozenset({11})


class TestExactSearch:
    def test_acyclic_base(self):
        f = Formula.from_ints([[1, 2]], num_vars=2)
        verdict = weak_exact_search(f, 0)
        assert verdict.found and verdict.variables == frozenset()

    def test_triangle(self):
        verdict = weak_exact_search(triangle(), 1)
        assert verdict.found
        assert verdict.variables <= {1, 2} and len(verdict.variables) == 1

    def test_triangle_budget_zero(self):
        assert not weak_exact_search(triangle(), 0).found

    def test_unsatisfiable_never_found(self):
        f = Formula.from_ints([[], [1, 2], [1, 2]], num_vars=2)
        assert not weak_exact_search(f, 4).found

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_router(self, seed):
        f = random_rcnf(6, 9, 3, seed)
        for budget in (1, 2):
            assert weak_exact_search(f, budget).found == detect_weak(f, budget).found
