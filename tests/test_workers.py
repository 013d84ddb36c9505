"""Evaluation helpers: input order, early exit, and lazy consumption."""

from __future__ import annotations

import itertools

from forestbd.workers import all_true, first_hit, ordered_map


def endless(last: int):
    """`itertools.count()`, failing loudly once read past item `last`, so a
    helper that lists its input fails here instead of exhausting memory."""
    for item in itertools.count():
        if item > last:
            raise AssertionError(f"read past item {last}")
        yield item


def test_first_hit_stops_at_first_hit():
    seen: list[int] = []

    def probe(item: int):
        seen.append(item)
        return item * 10 if item == 3 else None

    assert first_hit(probe, endless(3)) == 30
    assert seen == [0, 1, 2, 3]


def test_all_true_stops_at_first_failure():
    seen: list[int] = []

    def holds(item: int) -> bool:
        seen.append(item)
        return item < 3

    assert all_true(holds, endless(3)) is False
    assert seen == [0, 1, 2, 3]


def test_ordered_map_reads_only_what_is_consumed():
    seen: list[int] = []

    def square(item: int) -> int:
        seen.append(item)
        return item * item

    results = ordered_map(square, endless(3))
    assert seen == []
    assert list(itertools.islice(results, 4)) == [0, 1, 4, 9]
    assert seen == [0, 1, 2, 3]


def test_exhausted_inputs():
    assert first_hit(lambda item: None, range(5)) is None
    assert all_true(lambda item: item < 5, range(5)) is True
    assert list(ordered_map(lambda item: item * item, range(4))) == [0, 1, 4, 9]
