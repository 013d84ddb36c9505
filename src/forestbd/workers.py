"""Sequential evaluation helpers for the exponential verification loops.

Items are consumed lazily, in input order, up to the first decisive one,
so no loop holds all `2^|B|` assignments in memory.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> Iterator[R]:
    """fn(item) for each item in input order, computed as it is read."""
    return (fn(item) for item in items)


def first_hit(fn: Callable[[T], Optional[R]], items: Iterable[T]) -> Optional[R]:
    """First non-None fn(item) in input order."""
    for item in items:
        result = fn(item)
        if result is not None:
            return result
    return None


def all_true(fn: Callable[[T], bool], items: Iterable[T]) -> bool:
    """Whether fn holds everywhere, stopping at the first failure."""
    return all(fn(item) for item in items)
