"""The brute-force ground truth itself, pinned by hand values and a pure
Python recount."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbd import (
    ContractError,
    Formula,
    ResourceLimitError,
    brute_count,
    brute_min_backdoor,
    grid_formula,
    random_rcnf,
)
from instances import triangle, two_triangles


def python_recount(formula: Formula, universe) -> int:
    ordered = sorted(universe)
    total = 0
    for bits in itertools.product((False, True), repeat=len(ordered)):
        if formula.satisfied_by(dict(zip(ordered, bits))):
            total += 1
    return total


class TestBruteCount:
    def test_single_clause(self):
        f = Formula.from_ints([[1, 2]], num_vars=2)
        assert brute_count(f, f.universe) == 3

    def test_empty_clause(self):
        f = Formula.from_ints([[1], []], num_vars=1)
        assert brute_count(f, f.universe) == 0

    def test_triangle(self):
        assert brute_count(triangle(), {1, 2}) == 1

    def test_universe_guard(self):
        f = Formula((), frozenset(range(1, 26)))
        with pytest.raises(ResourceLimitError):
            brute_count(f, f.universe)

    def test_universe_must_cover(self):
        f = Formula.from_ints([[1, 2]], num_vars=2)
        with pytest.raises(ContractError):
            brute_count(f, {1})

    @given(
        st.integers(1, 12),
        st.integers(0, 16),
        st.integers(1, 3),
        st.integers(0, 100_000),
        st.integers(0, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_pure_python(self, n, m, width, seed, unused):
        # Up to `unused` extra universe variables, occurring in no clause.
        f = random_rcnf(n, m, min(width, n), seed)
        universe = f.universe | set(range(n + 1, min(n + unused, 12) + 1))
        assert brute_count(f, universe) == python_recount(f, universe)


class TestBruteMinBackdoor:
    def test_grid_strong_optimum_one(self):
        rep = brute_min_backdoor(grid_formula(2), "strong", 2)
        assert rep.optimum == 1
        assert frozenset({5}) in rep.witness_sets

    def test_forest_optimum_zero(self):
        f = Formula.from_ints([[1, 2], [2, 3]], num_vars=3)
        for kind in ("weak", "strong", "deletion"):
            assert brute_min_backdoor(f, kind, 1).optimum == 0

    def test_two_gadgets_strong_none_within_one(self):
        rep = brute_min_backdoor(two_triangles(), "strong", 1)
        assert rep.optimum is None
        assert rep.witness_sets == ()

    def test_guards(self):
        big = Formula((), frozenset(range(1, 16)))
        with pytest.raises(ResourceLimitError):
            brute_min_backdoor(big, "weak", 1)
        with pytest.raises(ResourceLimitError):
            brute_min_backdoor(triangle(), "weak", 5)
        with pytest.raises(ContractError):
            brute_min_backdoor(triangle(), "weak", -1)
        with pytest.raises(ContractError):
            brute_min_backdoor(triangle(), "horn", 1)

    @given(st.integers(0, 100_000))
    @settings(max_examples=25, deadline=None)
    def test_kind_chain_on_satisfiable_instances(self, seed):
        # weak optimum <= strong optimum <= deletion optimum whenever the
        # formula is satisfiable and all three exist within the budget.
        f = random_rcnf(6, 8, 3, seed)
        if brute_count(f, f.universe) == 0:
            return
        weak = brute_min_backdoor(f, "weak", 4).optimum
        strong = brute_min_backdoor(f, "strong", 4).optimum
        deletion = brute_min_backdoor(f, "deletion", 4).optimum
        if strong is not None:
            assert weak is not None and weak <= strong
        if deletion is not None:
            assert strong is not None and strong <= deletion

    def test_all_optimal_witnesses_reported(self):
        f = two_triangles()
        rep = brute_min_backdoor(f, "weak", 2)
        assert rep.optimum == 2
        for witness in rep.witness_sets:
            assert len(witness) == 2
            assert witness & {1, 2}
            assert witness & {3, 4}
