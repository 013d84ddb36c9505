"""Formula model, DIMACS round-tripping, restriction, and deletion."""

from __future__ import annotations

import random

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
from forestbd.formula import is_emitted
from forestbd.report import base_stats, formula_digest
from instances import reference_parse_dimacs, ring_formula


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
        # Comments may hold what clause data may not.
        f = parse_dimacs("c header comment\nc a_b +1 caf\u00e9\np cnf 3 2\n1 2\n3 0 -1\n-3 0\n")
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

    @pytest.mark.parametrize(
        "text",
        [
            "p cnf 1_0 2\n1 -2 0\n1 0\n",  # header count
            "p cnf 10 2\n1_0 -2 0\n1 0\n",  # literal
            "p cnf 2 1\n+1 -2 0\n",
            "p cnf +2 1\n1 0\n",
            "p cnf 2 1\n\u0661 0\n",  # ARABIC-INDIC DIGIT ONE
        ],
    )
    def test_python_only_integer_spellings(self, text):
        # int() reads every one of these; DIMACS has none of them.
        with pytest.raises(DimacsError, match="not plain decimal integers"):
            parse_dimacs(text)


def parse_outcome(parse, text):
    """The formula a parser returns, or the type and message it raises."""
    try:
        return parse(text)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def check_parsed_clauses(mine, reference) -> None:
    """When both parsers return a formula, the parsed one has the
    reference's occurring variables, and each of its clauses, which
    `parse_dimacs` may build without `Clause.__init__`, holds a tuple
    that passes its check."""
    if not (isinstance(mine, Formula) and isinstance(reference, Formula)):
        return
    assert mine.variables == reference.variables
    for clause in mine.clauses:
        assert type(clause.literals) is tuple
        assert Clause(clause.literals) == clause


def random_dimacs_text(rng: random.Random) -> str:
    """DIMACS text with random spacing, comments, clause layout, unsorted
    and repeated literals, then at times one random edit."""
    n, m = rng.randint(0, 6), rng.randint(0, 5)
    comments = ["c random", "c note_1 +2", "", "c \u0661"]
    lines = [rng.choice(comments) for _ in range(rng.randint(0, 2))]
    lines.append(f"p cnf {n} {m}")
    tokens: list[str] = []
    for _ in range(m):
        width = rng.randint(0, 4)
        tokens += [str(rng.choice((-1, 1)) * rng.randint(1, max(n, 1))) for _ in range(width)]
        tokens.append("0")
    line: list[str] = []
    for token in tokens:
        line.append(token)
        if rng.random() < 0.4:
            lines.append(rng.choice([" ", "  ", "\t"]).join(line))
            line = []
            if rng.random() < 0.2:
                lines.append(rng.choice(["c mid", "", "   ", "c 1_0 +1"]))
    lines.append(" ".join(line))
    text = rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["\n", ""])
    if rng.random() < 0.5 and text:
        at = rng.randrange(len(text))
        edit = rng.choice(["_", "+", "x", "0", "-", "\u0661", " ", "\n", "p", "c", "7", ""])
        text = text[:at] + edit + text[at + rng.randint(0, 1):]
    return text


class TestAgainstReferenceParse:
    """`parse_dimacs` returns the formula the line-by-line reference parser
    returns, or raises the same error with the same message."""

    CORPUS = [
        # Comments may hold anything `int` would read.
        "c a_b +1 \u0661\np cnf 2 1\n1 -2 0\n",
        "p cnf 2 1\nc note_1 +2\n1 -2 0\n",
        "p cnf 2 2\n  c indented comment\n1 0\n2 0\n",
        # What `int` reads beyond plain decimals, in the header and the body.
        "p cnf 1_0 2\n1 -2 0\n1 0\n",
        "p cnf 10 2\n1_0 -2 0\n1 0\n",
        "p cnf 2 1\n+1 -2 0\n",
        "p cnf +2 1\n1 0\n",
        "p cnf 2 1\n\u0661 0\n",
        "p cnf 2 2\n1 x 0\n1_0 0\n",
        # Headers.
        "",
        "c only a comment\n",
        "p cnf 2 1\n1 0\np cnf 2 1\n",
        "p cnf 2 1\n1 x 0\np cnf 2 1\n",
        "1 0\np cnf 1 1\n",
        "p cnf x 1\n1 0\n",
        "p dnf 1 1\n1 0\n",
        "p cnf 1\n1 0\n",
        "p cnf -1 1\n1 0\n",
        "p cnf 1000001 0\n",
        "p cnf 1000001 1\n1 x 0\n",
        "p cnf 0 0\n",
        "p cnf 3 0",
        # Clause data.
        "p cnf 2 1\n1 2\n",
        "p cnf 2 2\n1 0\n",
        "p cnf 2 1\n1 0\n2 0\n",
        "p cnf 2 1\n1 -1 0\n",
        "p cnf 3 2\n1 2 0\n2 -3 3 0\n",
        "p cnf 2 1\n3 0\n",
        "p cnf 2 1\n-3 0\n",
        "p cnf 2 2\n1 -1 0\n1 x 0\n",
        "p cnf 2 2\n1 x 0\n1 -1 0\n",
        "p cnf 2 2\n1 -1 0\n3 0\n",
        "p cnf 2 2\n3 0\n1 -1 0\n",
        "p cnf 2 2\n2 x\n",
        "p cnf 2 1\n1 c 0\n",
        "p cnf 2 1\n1 p 0\n",
        "p cnf 3 2\n3 -1 3 0\n2 -3 0\n",
        "p cnf 3 3\n1 2\n 3 0 -1\n0 0\n",
        "p cnf 1 1\n0\n",
        "p cnf 1 1\n1 -0\n",
        "p cnf 2 1\n01 -02 00\n",
        "p cnf 2 2\r\n1 -2 0\r\n2\t0\x0c\n",
        "p cnf 2 2\n1 0\x1c2 0\x0b\n",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_corpus(self, text):
        mine = parse_outcome(parse_dimacs, text)
        reference = parse_outcome(reference_parse_dimacs, text)
        assert mine == reference
        check_parsed_clauses(mine, reference)

    def test_random_texts(self):
        rng = random.Random(13)
        for _ in range(2000):
            text = random_dimacs_text(rng)
            mine = parse_outcome(parse_dimacs, text)
            reference = parse_outcome(reference_parse_dimacs, text)
            assert mine == reference, text
            check_parsed_clauses(mine, reference)

    def test_large_round_trip(self):
        f = random_rcnf(300, 400, 3, 2)
        text = emit_dimacs(f)
        mine, reference = parse_dimacs(text), reference_parse_dimacs(text)
        assert mine == reference == f
        check_parsed_clauses(mine, reference)


class TestParseCost:
    """A text written in order is parsed without either checking
    constructor, and its formula computes `variables` only when they are
    read."""

    def test_in_order_text_skips_post_init(self, monkeypatch):
        ring = ring_formula(2000)
        text = emit_dimacs(ring)

        def refuse(self, *fields):
            raise AssertionError("a checking constructor ran during parsing")

        monkeypatch.setattr(Clause, "__init__", refuse)
        monkeypatch.setattr(Formula, "__init__", refuse)
        formula = parse_dimacs(text)
        assert len(formula.clauses) == len(ring.clauses) == 2000
        assert "variables" not in vars(formula)
        assert formula.variables == ring.variables == frozenset(range(1, 2001))
        assert "variables" in vars(formula)
        assert formula.as_written

    def test_out_of_order_text_checks_every_clause(self, monkeypatch):
        built = []
        from_ints = Clause.from_ints.__func__

        def spy(cls, values):
            built.append(tuple(values))
            return from_ints(cls, values)

        monkeypatch.setattr(Clause, "from_ints", classmethod(spy))
        formula = parse_dimacs("p cnf 3 3\n1 2 0\n3 -1 0\n0\n")
        assert built == [(1, 2), (3, -1), ()]
        assert [c.literals for c in formula.clauses] == [(1, 2), (-1, 3), ()]
        assert not formula.as_written
        assert formula.variables == {1, 2, 3}

    def test_formula_built_in_python_checks_its_variables(self):
        formula = Formula.from_ints([[2, -3], []], num_vars=4)
        assert vars(formula)["variables"] == {2, 3}


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

    def test_as_written_only_when_parsed_in_order(self):
        assert parse_dimacs("p cnf 3 2\n-1 3 0\n2 -3 0\n").as_written
        assert parse_dimacs("p cnf 0 0\n").as_written
        assert not parse_dimacs("p cnf 3 1\n3 -1 0\n").as_written
        assert not parse_dimacs("p cnf 3 1\n1 1 3 0\n").as_written
        assert not Formula.from_ints([[1, 2]], num_vars=2).as_written
        assert not grid_formula(3).as_written

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_is_emitted_iff_text_is_emitted_form(self, data):
        """Texts in emitted form but for a few changes: a comment, spacing,
        line ends, leading zeros, literal order and repeats, or the final
        newline."""
        changes = data.draw(st.sets(st.sampled_from(
            ["header", "comment", "space", "crlf", "zero", "order", "no-newline"]
        ), max_size=2))
        n = data.draw(st.integers(0, 4))
        m = data.draw(st.integers(0, 3))
        space = "  " if "space" in changes else " "
        zero = "0" if "zero" in changes else ""
        lines = [f"p {' ' if 'header' in changes else ''}cnf {n} {m}"]
        if "comment" in changes:
            lines.insert(0, "c comment")
        for _ in range(m):
            if "order" in changes:
                variables = data.draw(st.lists(st.integers(1, n), max_size=4)) if n else []
            else:
                variables = sorted(data.draw(st.sets(st.integers(1, n), max_size=4))) if n else []
            signs = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            tokens = [("" if signs[v - 1] else "-") + zero + str(v) for v in variables]
            lines.append(space.join([*tokens, "0"]))
        newline = "\r\n" if "crlf" in changes else "\n"
        text = newline.join(lines) + ("" if "no-newline" in changes else newline)
        formula = parse_dimacs(text)
        assert is_emitted(text, formula) == (text == emit_dimacs(formula))

    @given(st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_emitted_text_is_recognised(self, seed):
        text = emit_dimacs(random_rcnf(6, 8, 3, seed))
        assert is_emitted(text, parse_dimacs(text))


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
        assert base_stats(f)["length"] == 3
