"""Sequential evaluation helpers for the exponential verification loops.

Items are consumed lazily, in input order, up to the first decisive one,
so no loop holds all `2^|B|` assignments in memory.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from .errors import ContractError

T = TypeVar("T")
R = TypeVar("R")

THREADS_ENV = "FB_THREADS"


def resolve_threads(threads: int | None = None) -> int:
    """Explicit value, else the FB_THREADS environment variable, else 1.

    Validated for compatibility only; nothing runs differently for it."""
    if threads is None:
        raw = os.environ.get(THREADS_ENV, "").strip()
        if not raw:
            return 1
        try:
            threads = int(raw)
        except ValueError as exc:
            raise ContractError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    if threads < 1:
        raise ContractError(f"thread count must be >= 1, got {threads}")
    return threads


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
