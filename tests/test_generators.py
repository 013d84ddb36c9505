"""Instance generators: shapes, invariants, and determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbd import (
    ContractError,
    emit_dimacs,
    grid_formula,
    hitting_set_formula,
    is_deletion_backdoor,
    is_strong_backdoor,
    parse_dimacs,
    random_rcnf,
    weak_backdoor_witness,
)


class TestGrid:
    def test_smallest_grid_shape(self):
        f = grid_formula(2)
        assert len(f.universe) == 5
        assert f.num_clauses == 4
        assert all(len(c) == 3 for c in f.clauses)

    def test_extra_variable_signs(self):
        f = grid_formula(2)
        horizontal = [c for c in f.clauses if c.polarity(5) is True]
        vertical = [c for c in f.clauses if c.polarity(5) is False]
        assert len(horizontal) == 2 and len(vertical) == 2
        assert all(c.polarity(5) is not None for c in f.clauses)

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_extra_variable_is_strong_and_weak(self, size):
        f = grid_formula(size)
        extra = size * size + 1
        assert is_strong_backdoor(f, {extra})
        assert weak_backdoor_witness(f, {extra}) is not None

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_extra_variable_is_not_deletion(self, size):
        f = grid_formula(size)
        assert not is_deletion_backdoor(f, {size * size + 1})

    def test_size_guard(self):
        with pytest.raises(ContractError):
            grid_formula(1)


class TestHittingSet:
    def test_singleton_family(self):
        f = hitting_set_formula([[1]])
        assert [c.sorted_ints() for c in f.clauses] == [(2, 3), (1, -2, -3)]

    def test_two_sets_share_selectors_per_set(self):
        f = hitting_set_formula([[1, 2], [2, 3]])
        assert f.num_clauses == 4
        assert f.clauses[0].sorted_ints() == (4, 5)
        assert f.clauses[1].sorted_ints() == (1, 2, -4, -5)
        assert f.clauses[2].sorted_ints() == (6, 7)
        assert f.clauses[3].sorted_ints() == (2, 3, -6, -7)

    def test_hitting_assignment_is_weak_witness(self):
        f = hitting_set_formula([[1, 2], [2, 3]])
        assert weak_backdoor_witness(f, {2}) == {2: True}

    def test_empty_family_rejected(self):
        with pytest.raises(ContractError):
            hitting_set_formula([])

    def test_empty_member_rejected(self):
        with pytest.raises(ContractError):
            hitting_set_formula([[1], []])

    @pytest.mark.parametrize("family", [[[0]], [[2, -1]], [[1.5]]])
    def test_bad_element_rejected(self, family):
        with pytest.raises(ContractError):
            hitting_set_formula(family)


class TestRandom:
    def test_deterministic_in_seed(self):
        assert random_rcnf(5, 5, 3, 7) == random_rcnf(5, 5, 3, 7)
        assert random_rcnf(5, 5, 3, 7) != random_rcnf(5, 5, 3, 8)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_shape_invariants(self, seed):
        f = random_rcnf(6, 9, 3, seed)
        assert f.num_clauses == 9
        assert all(len(c) == 3 for c in f.clauses)
        assert f.universe == frozenset(range(1, 7))
        # clause construction forbids complementary pairs by type invariant;
        # round-trip as an extra sanity check
        parse_dimacs(emit_dimacs(f))

    def test_infeasible_parameters(self):
        with pytest.raises(ContractError):
            random_rcnf(2, 1, 3, 0)
        with pytest.raises(ContractError):
            random_rcnf(-1, 1, 1, 0)
        with pytest.raises(ContractError):
            random_rcnf(3, -1, 2, 0)
