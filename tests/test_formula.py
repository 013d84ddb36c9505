"""Formula model, DIMACS round-tripping, restriction, and deletion."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbd import (
    Clause,
    ContractError,
    DimacsError,
    Formula,
    ResourceLimitError,
    emit_dimacs,
    grid_formula,
    hitting_set_formula,
    parse_dimacs,
    random_rcnf,
)
from forestbd.report import formula_digest


class TestParse:
    def test_basic(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0\n")
        assert f.universe == frozenset({1, 2})
        assert [c.sorted_ints() for c in f.clauses] == [(1, -2)]

    def test_empty_formula_with_variable(self):
        f = parse_dimacs("p cnf 1 0\n")
        assert f.universe == frozenset({1})
        assert f.clauses == ()

    def test_complementary_pair_rejected(self):
        with pytest.raises(DimacsError):
            parse_dimacs("p cnf 1 1\n1 -1 0\n")

    def test_zero_zero_header(self):
        f = parse_dimacs("p cnf 0 0\n")
        assert f.universe == frozenset() and f.clauses == ()
        assert emit_dimacs(f) == "p cnf 0 0\n"

    def test_header_variable_cap(self):
        with pytest.raises(ResourceLimitError):
            parse_dimacs("p cnf 2000000 0\n")

    def test_from_ints_defaults_to_occurring_universe(self):
        f = Formula.from_ints([[2, -5]])
        assert f.universe == frozenset({2, 5})

    def test_comments_and_multiline_clauses(self):
        f = parse_dimacs("c header comment\np cnf 3 2\n1 2\n3 0 -1\n-3 0\n")
        assert f.num_clauses == 2
        assert f.clauses[0].sorted_ints() == (1, 2, 3)

    def test_duplicate_literals_collapse(self):
        f = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
        assert f.clauses[0].sorted_ints() == (1, 2)

    @pytest.mark.parametrize(
        "text",
        [
            "",  # no header
            "p cnf x 1\n1 0\n",  # bad counts
            "p dnf 1 1\n1 0\n",  # wrong format word
            "p cnf 1 1\n2 0\n",  # literal above declared n
            "p cnf 2 2\n1 0\n",  # clause count mismatch
            "p cnf 2 1\n1 2\n",  # unterminated clause
            "p cnf 2 1\n1 a 0\n",  # stray token
            "1 0\np cnf 1 1\n",  # clause before header
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(DimacsError):
            parse_dimacs(text)


class TestEmit:
    def test_basic(self):
        f = Formula.from_ints([[1, -2]], num_vars=2)
        assert emit_dimacs(f) == "p cnf 2 1\n1 -2 0\n"

    def test_empty(self):
        f = Formula((), frozenset())
        assert emit_dimacs(f) == "p cnf 0 0\n"

    def test_empty_clause_line(self):
        f = Formula.from_ints([[]], num_vars=1)
        assert emit_dimacs(f) == "p cnf 1 1\n0\n"

    @given(st.integers(0, 2000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_on_generator_output(self, seed):
        f = random_rcnf(6, 8, 3, seed)
        g = parse_dimacs(emit_dimacs(f))
        assert g.universe == f.universe
        assert sorted(c.sorted_ints() for c in g.clauses) == sorted(
            c.sorted_ints() for c in f.clauses
        )


class TestTypes:
    @given(st.lists(st.integers(-6, 6), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_from_ints_normalises_or_rejects(self, values):
        invalid = 0 in values or any(-v in values for v in values)
        if invalid:
            with pytest.raises(ContractError):
                Clause.from_ints(values)
        else:
            clause = Clause.from_ints(values)
            assert set(clause.literals) == set(values)
            assert [abs(lit) for lit in clause.literals] == sorted({abs(v) for v in values})
            assert clause.sorted_ints() == clause.literals

    @pytest.mark.parametrize(
        "literals",
        [(0,), (1, -1), (2, 1), (1, 1), (-3, 2), (1, 2.0)],
    )
    def test_clause_rejects_non_canonical_literals(self, literals):
        with pytest.raises(ContractError):
            Clause(literals)

    def test_clause_rejects_shared_variable(self):
        with pytest.raises(ContractError, match="variable 1 with both polarities"):
            Clause((-1, 1))

    def test_universe_must_cover_occurrences(self):
        with pytest.raises(ContractError):
            Formula((Clause.from_ints([3]),), frozenset({1, 2}))

    @pytest.mark.parametrize(
        "bad, shown", [(0, "0"), (-2, "-2"), (1.0, "1.0"), ("1", "'1'"), (False, "False")]
    )
    def test_universe_rejects_invalid_ids(self, bad, shown):
        with pytest.raises(ContractError) as caught:
            Formula((), frozenset({bad}))
        assert str(caught.value) == f"universe contains invalid variable id {shown}"

    def test_universe_accepts_int_subclasses(self):
        assert Formula((), frozenset({True, 2})).universe == {1, 2}


class TestCanonicalForm:
    """Digests of the canonical DIMACS text, pinned so that a change of
    representation cannot silently change report `input.sha256` values."""

    @pytest.mark.parametrize(
        "build, digest",
        [
            (
                lambda: grid_formula(4),
                "cc032e18ba18c0acf893317ae948b027907236901b1c5b6d5057e990505e8eba",
            ),
            (
                lambda: hitting_set_formula([[1, 2], [2, 3]]),
                "8243c2a03a5f7d32063ed489c938228e39d809ba3863f2a9b8890dfbd9f54908",
            ),
            (
                lambda: random_rcnf(8, 12, 3, 5),
                "8f7d3dd65a64b098bd32b025ae3501b0f3d2110b30ccd1ae6b093286e83c2177",
            ),
            (
                # Unsorted, with a duplicate literal.
                lambda: parse_dimacs("p cnf 3 2\n3 -1 3 0\n2 -3 0\n"),
                "6695e4c7b9a758ce7b99ec83c569f06849388db862821151017b5e65194740e6",
            ),
        ],
    )
    def test_formula_digest_is_pinned(self, build, digest):
        assert formula_digest(build()) == digest

    def test_parse_sorts_and_deduplicates(self):
        f = parse_dimacs("p cnf 3 2\n3 -1 3 0\n2 -3 0\n")
        assert [c.literals for c in f.clauses] == [(-1, 3), (2, -3)]


class TestRestrict:
    def test_true_branch(self):
        f = Formula.from_ints([[1, 2], [-1, 3]], num_vars=3)
        r = f.restrict({1: True})
        assert [c.sorted_ints() for c in r.clauses] == [(3,)]
        assert r.universe == frozenset({2, 3})

    def test_false_branch(self):
        f = Formula.from_ints([[1, 2], [-1, 3]], num_vars=3)
        r = f.restrict({1: False})
        assert [c.sorted_ints() for c in r.clauses] == [(2,)]

    def test_empty_assignment_is_identity(self):
        f = Formula.from_ints([[1, 2], [-1, 3]], num_vars=3)
        assert f.restrict({}) == f

    def test_keeps_emptied_clauses(self):
        f = Formula.from_ints([[1]], num_vars=1)
        r = f.restrict({1: False})
        assert r.num_clauses == 1 and len(r.clauses[0]) == 0

    def test_outside_universe_rejected(self):
        f = Formula.from_ints([[1]], num_vars=1)
        with pytest.raises(ContractError):
            f.restrict({2: True})

    @given(st.integers(0, 2000), st.data())
    @settings(max_examples=60, deadline=None)
    def test_order_independence(self, seed, data):
        f = random_rcnf(6, 8, 3, seed)
        split = data.draw(st.integers(1, 5))
        values = data.draw(st.lists(st.booleans(), min_size=6, max_size=6))
        tau = dict(zip(range(1, 7), values))
        first = {v: tau[v] for v in list(tau)[:split]}
        second = {v: tau[v] for v in list(tau)[split:]}
        assert f.restrict(first).restrict(second) == f.restrict(tau)

    @given(st.integers(0, 2000), st.lists(st.booleans(), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_no_new_clauses(self, seed, values):
        f = random_rcnf(6, 8, 3, seed)
        tau = dict(zip((1, 3, 5), values))
        originals = {c.sorted_ints() for c in f.clauses}
        for clause in f.restrict(tau).clauses:
            survivors = [
                o
                for o in originals
                if set(clause.sorted_ints()) <= set(o)
            ]
            assert survivors, "restriction invented a clause"


class TestDeletion:
    def test_strips_both_polarities(self):
        f = Formula.from_ints([[1, 2], [-1, 3]], num_vars=3)
        r = f.without_variables({1})
        assert [c.sorted_ints() for c in r.clauses] == [(2,), (3,)]
        assert r.universe == frozenset({2, 3})

    def test_empty_deletion_is_identity(self):
        f = Formula.from_ints([[1, 2]], num_vars=2)
        assert f.without_variables(frozenset()) == f

    def test_can_empty_every_clause(self):
        f = Formula.from_ints([[1, 2], [-1, 2], [1, -2]], num_vars=2)
        r = f.without_variables({1, 2})
        assert r.num_clauses == 3
        assert all(len(c) == 0 for c in r.clauses)

    def test_clause_count_preserved(self):
        f = random_rcnf(8, 12, 3, 5)
        assert f.without_variables({1, 2, 3}).num_clauses == f.num_clauses

    def test_outside_universe_rejected(self):
        f = Formula.from_ints([[1]], num_vars=1)
        with pytest.raises(ContractError):
            f.without_variables({9})


class TestWidthAndLength:
    def test_width(self):
        f = Formula.from_ints([[1, 2], [3]], num_vars=3)
        assert f.max_clause_width() == 2

    def test_empty_formula_width(self):
        assert Formula((), frozenset()).max_clause_width() == 0

    def test_grid_width_is_three(self):
        from forestbd import grid_formula

        assert grid_formula(2).max_clause_width() == 3

    def test_length(self):
        f = Formula.from_ints([[1, 2], [3]], num_vars=3)
        assert f.length() == 3
