"""The package's value types: constructors, equality and hashing on their
compared fields, immutability, and the mutable run report."""

from __future__ import annotations

import json
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestbd import (
    BackdoorVerdict,
    Clause,
    ContractError,
    Formula,
    ModelCount,
    OracleReport,
    StrongParameters,
    WeakParameters,
    parse_dimacs,
)
from forestbd.graphs import Cycle, CyclePacking, FeedbackSet
from forestbd.report import RunReport
from forestbd.strong import ApexCycle
from forestbd.weak import KillChoice, RuleOutcome

CYCLE = Cycle((0, 3, 1, 4), 2)


def frozen_values() -> list:
    """One value of each immutable type, with the name of one of its fields."""
    return [
        (Clause((1, -2)), "literals"),
        (Formula.from_ints([[1, -2], [2, 3]]), "universe"),
        (CYCLE, "nodes"),
        (ModelCount(3, 2), "count"),
        (BackdoorVerdict(True, frozenset({1}), 1, {1: True}, FeedbackSet(frozenset())), "split"),
        (WeakParameters.derive(2, 3), "cycles"),
        (StrongParameters.derive(2), "cycles"),
        (KillChoice((CYCLE,), (), frozenset({2})), "pool"),
        (RuleOutcome("shared-killers", frozenset({1})), "selected"),
        (ApexCycle(5, 0, 1, (0, 3, 1)), "apex"),
        (CyclePacking((CYCLE,)), "cycles"),
        (FeedbackSet(frozenset({3})), "nodes"),
        (OracleReport("weak", 1, (frozenset({1}),)), "optimum"),
    ]


def type_name(value) -> str:
    return type(value).__name__ if not isinstance(value, str) else value


@pytest.mark.parametrize("value, field", frozen_values(), ids=type_name)
def test_assigning_an_attribute_raises(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        value.spare = 1
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


@pytest.mark.parametrize("value, field", frozen_values(), ids=type_name)
def test_equal_copies_hash_alike_and_pickle(value, field):
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and not copy != value
    assert hash(copy) == hash(value)
    assert getattr(copy, field) == getattr(value, field)
    assert value != object()


def test_hashes_are_those_of_the_compared_fields():
    assert hash(Clause((1, -2))) == hash(((1, -2),))
    universe = frozenset({1, 2})
    clauses = (Clause((1, 2)),)
    assert hash(Formula(clauses, universe)) == hash((clauses, universe))
    assert hash(CYCLE) == hash(((0, 3, 1, 4), 2))
    assert hash(ModelCount(3, 2)) == hash((3, 2))
    assert hash(BackdoorVerdict(True, frozenset({1}), 1)) == hash((True, frozenset({1}), 1))


def test_verdicts_ignore_witness_and_split():
    plain = BackdoorVerdict.yes({1, 2}, 2)
    other = BackdoorVerdict(True, frozenset({1, 2}), 2, {1: True, 2: False}, FeedbackSet(frozenset()))
    assert plain == other and hash(plain) == hash(other)
    assert plain != BackdoorVerdict.yes({1, 2}, 3)
    assert plain != BackdoorVerdict.yes({1}, 2)
    assert BackdoorVerdict.no(1) != BackdoorVerdict.yes((), 1)
    assert plain.witness is None and plain.split is None
    keyword = BackdoorVerdict(found=True, variables=frozenset({1, 2}), budget=2, split=None)
    assert keyword == plain and keyword.witness is None


def test_formulas_ignore_as_written():
    parsed = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
    built = Formula.from_ints([[1, -2], [2, 3]], num_vars=3)
    assert parsed.as_written and not built.as_written
    assert parsed == built and hash(parsed) == hash(built)
    assert built != Formula.from_ints([[1, -2], [2, 3]], num_vars=4)
    assert Formula(clauses=built.clauses, universe=built.universe) == built


def test_constructors_keep_their_checks_and_defaults():
    with pytest.raises(ContractError):
        ModelCount(5, 2)
    with pytest.raises(ContractError):
        ModelCount(-1, 2)
    assert ModelCount(count=4, universe_size=2).count == 4
    with pytest.raises(ContractError):
        Clause((2, 1))
    with pytest.raises(ContractError):
        Formula((Clause((1, 4)),), frozenset({1, 2}))
    assert Cycle((0, 1, 2)).clauses == 0
    assert Cycle(nodes=(0, 1, 2)) == Cycle((0, 1, 2), 0) != Cycle((0, 1, 2), 1)
    assert len(Clause((1, -2))) == 2 and len(CYCLE) == 4


def test_cycles_cache_their_derived_views():
    cycle = Cycle((0, 3, 1, 4), 2)
    assert cycle.variables == (2, 3)
    assert cycle.clause_indices == (0, 1)
    assert cycle.variable_set is cycle.variable_set
    assert cycle.node_set == {0, 1, 3, 4}


def test_run_reports_are_mutable_with_their_own_stats():
    first = RunReport("stats", "00", {})
    second = RunReport(command="stats", digest="00", parameters={})
    assert first.stats == {} and first.stats is not second.stats
    assert first == second
    first.stats["clauses"] = 3
    first.verdict = "valid"
    assert first != second
    assert second.stats == {} and second.verdict is None
    with pytest.raises(TypeError):
        hash(first)
    shared = {"clauses": 1}
    assert RunReport("stats", "00", {}, stats=shared).stats is shared


# Text with what JSON escapes: quotes, backslashes, control characters and
# non-ASCII characters, inside and outside the Basic Multilingual Plane.
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\n\t\x7f\xe9\u20ac\U0001f600'), st.characters()))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers().map(lambda n: n * 10**4300 + 1),
    st.floats(),
    st.sampled_from([0.0, -0.0, 1e-7, 1e16, float("inf"), -float("inf")]),
    TEXT,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.dictionaries(TEXT, inner, max_size=3), max_size=3)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(
    parameters=st.dictionaries(TEXT, VALUES, max_size=4),
    stats=st.dictionaries(TEXT, VALUES, max_size=4),
    count=st.none() | st.integers() | st.integers().map(lambda n: n * 10**4300 - 1),
    wall_ms=st.floats(),
    path=st.none() | TEXT,
)
def test_report_json_is_the_json_module_layout(parameters, stats, count, wall_ms, path):
    report = RunReport(
        "stats", "00", parameters, path=path, backdoor=[3, 1], witness={2: True, 1: False},
        count=count, stats=stats, wall_ms=wall_ms,
    )
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert report.to_json() == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, b"bytes", pytest.param(object(), id="object()"), {"nested": [frozenset()]}],
    ids=repr,
)
def test_report_json_rejects_what_json_rejects(value):
    report = RunReport("stats", "00", {"value": value})
    with pytest.raises(TypeError):
        json.dumps(report.to_dict())
    with pytest.raises(TypeError):
        report.to_json()


def test_report_json_takes_string_keys_only():
    with pytest.raises(TypeError):
        RunReport("stats", "00", {1: "one"}).to_json()
