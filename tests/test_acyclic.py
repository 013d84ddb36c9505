"""Tree-DP SAT and counting against exhaustive enumeration."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbd import (
    ContractError,
    CyclicInputError,
    Formula,
    count_models,
    brute_count,
    incidence_graph,
    is_acyclic,
    parse_dimacs,
    random_rcnf,
    satisfying_assignment,
)
from instances import disjoint_union, triangle


def random_acyclic(seed: int) -> Formula:
    """Rejection-sample a random bounded formula with forest incidence."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(2, 8)
        f = random_rcnf(n, rng.randint(1, 7), rng.randint(2, min(3, n)), rng.randint(0, 10**6))
        if is_acyclic(incidence_graph(f).graph):
            return f


def forest_then_triangle() -> Formula:
    """A tree on variables 1 to 3, then a triangle on 4 and 5: the tree DP
    folds the tree before it meets the cycle."""
    return disjoint_union(Formula.from_ints([[1, 2], [-2, 3]]), triangle())


class TestCount:
    def test_single_clause(self):
        f = Formula.from_ints([[1, 2]], num_vars=2)
        assert count_models(f, f.universe).count == 3

    def test_chain(self):
        # (x or y) and (not y or z): frozen from the 8-row truth table.
        f = Formula.from_ints([[1, 2], [-2, 3]], num_vars=3)
        assert count_models(f, f.universe).count == 4

    def test_empty_formula_counts_everything(self):
        f = Formula((), frozenset(range(1, 6)))
        assert count_models(f, f.universe).count == 32

    def test_empty_clause_counts_zero(self):
        f = Formula.from_ints([[1, 2], []], num_vars=2)
        assert count_models(f, f.universe).count == 0

    def test_free_variables_double(self):
        f = Formula.from_ints([[1]], num_vars=1)
        assert count_models(f, {1, 5, 9}).count == 4

    def test_universe_must_cover_occurrences(self):
        f = Formula.from_ints([[1, 2]], num_vars=2)
        with pytest.raises(ContractError):
            count_models(f, {1})

    def test_universe_check_reads_occurrences_only_when_needed(self):
        # A parsed formula builds `variables` only when it is read.
        f = parse_dimacs("p cnf 5 2\n1 2 0\n-2 3 0\n")
        assert count_models(f, f.universe).count == 4 * 4
        assert count_models(f, {1, 2, 3, 4, 5, 6}).count == 4 * 8
        assert "variables" not in vars(f)
        assert count_models(f, {1, 2, 3}).count == 4
        with pytest.raises(ContractError, match=r"missing occurring variables: \[3\]"):
            count_models(f, {1, 2, 4})

    def test_cyclic_input_rejected(self):
        with pytest.raises(CyclicInputError):
            count_models(triangle(), {1, 2})

    def test_cyclic_input_with_empty_clause_rejected(self):
        with pytest.raises(CyclicInputError):
            count_models(Formula.from_ints([[1, 2], [1, 2], []]), {1, 2})

    def test_cycle_after_a_folded_tree_rejected(self):
        f = forest_then_triangle()
        with pytest.raises(CyclicInputError, match="incidence graph is not a forest"):
            count_models(f, f.universe)

    def test_component_multiplicativity(self):
        left = Formula.from_ints([[1, 2]], num_vars=2)
        right = Formula.from_ints([[3, 4], [-4, 5]], num_vars=5)
        both = Formula.from_ints([[1, 2], [3, 4], [-4, 5]], num_vars=5)
        assert (
            count_models(both, both.universe).count
            == count_models(left, {1, 2}).count
            * count_models(right, {3, 4, 5}).count
        )

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, seed):
        f = random_acyclic(seed)
        assert count_models(f, f.universe).count == brute_count(f, f.universe)

    def test_count_bounded_by_universe(self):
        f = random_acyclic(17)
        mc = count_models(f, f.universe)
        assert 0 <= mc.count <= 2**mc.universe_size


class TestSolve:
    def test_single_clause(self):
        f = Formula.from_ints([[1, 2]], num_vars=2)
        tau = satisfying_assignment(f)
        assert tau is not None and f.satisfied_by(tau)

    def test_empty_clause_unsat(self):
        f = Formula.from_ints([[]], num_vars=1)
        assert satisfying_assignment(f) is None

    def test_path_with_forced_values(self):
        # (x) and (not x or y) forces x=1, y=1; frozen from enumeration of
        # the four assignments.
        f = Formula.from_ints([[1], [-1, 2]], num_vars=2)
        assert satisfying_assignment(f) == {1: True, 2: True}

    def test_assignment_is_total_and_defaults_false(self):
        f = Formula.from_ints([[1]], num_vars=4)
        tau = satisfying_assignment(f)
        assert set(tau) == {1, 2, 3, 4}
        assert tau[2] is False and tau[3] is False and tau[4] is False

    def test_contradiction(self):
        f = Formula.from_ints([[1], [-1]], num_vars=1)
        assert satisfying_assignment(f) is None

    def test_cyclic_input_rejected(self):
        with pytest.raises(CyclicInputError):
            satisfying_assignment(triangle())

    def test_cyclic_input_with_empty_clause_rejected(self):
        with pytest.raises(CyclicInputError):
            satisfying_assignment(Formula.from_ints([[1, 2], [1, 2], []]))

    def test_cycle_after_a_folded_tree_rejected(self):
        with pytest.raises(CyclicInputError, match="incidence graph is not a forest"):
            satisfying_assignment(forest_then_triangle())

    def test_last_viable_child_satisfies(self):
        # Children default to False; the last one able to satisfy the clause
        # the False root leaves open takes True.
        assert satisfying_assignment(Formula.from_ints([[1, 2, 3]])) == {
            1: False,
            2: False,
            3: True,
        }

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_count_and_satisfies(self, seed):
        f = random_acyclic(seed)
        tau = satisfying_assignment(f)
        models = count_models(f, f.universe).count
        if tau is None:
            assert models == 0
        else:
            assert models >= 1
            assert f.satisfied_by(tau)
