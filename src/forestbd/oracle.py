"""Brute-force ground truth for counting and minimum backdoor search.

Everything here enumerates definitions literally; detectors and the
counting pipeline are validated against this module. Guards fail loudly
rather than letting an enumeration run away.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from .backdoors import (
    is_deletion_backdoor,
    is_strong_backdoor,
    weak_backdoor_witness,
)
from .errors import ContractError, ResourceLimitError
from .formula import Formula

MAX_COUNT_UNIVERSE = 24
MAX_SEARCH_UNIVERSE = 14
MAX_SEARCH_BUDGET = 4

KINDS = ("weak", "strong", "deletion")


class OracleReport(NamedTuple):
    """Result of a brute-force search."""

    kind: str
    optimum: int | None
    witness_sets: tuple[frozenset[int], ...]


def brute_count(formula: Formula, universe: Iterable[int]) -> int:
    """Exact model count by enumerating every assignment of the universe.

    Assignment `a` in 0..2^n-1 gives the i-th smallest variable the value
    of bit i of `a`, and bit `a` of a big-int mask tells whether `a` makes
    a literal, a clause or the formula true.
    """
    ordered = sorted(set(universe))
    n = len(ordered)
    if n > MAX_COUNT_UNIVERSE:
        raise ResourceLimitError(
            f"universe of {n} variables exceeds the enumeration guard "
            f"({MAX_COUNT_UNIVERSE})"
        )
    if not formula.variables <= set(ordered):
        missing = sorted(formula.variables - set(ordered))
        raise ContractError(f"universe is missing occurring variables: {missing}")
    size = 1 << n
    everything = (1 << size) - 1
    true_where = {
        v: _bit_mask(i, size) for i, v in enumerate(ordered) if v in formula.variables
    }
    satisfied = everything
    for clause in formula.clauses:
        holds = 0
        for lit in clause.literals:
            mask = true_where[abs(lit)]
            holds |= mask if lit > 0 else everything ^ mask
        satisfied &= holds
    return satisfied.bit_count()


def _bit_mask(i: int, size: int) -> int:
    """The `size`-bit mask whose bit `a` is bit i of `a`."""
    half = 1 << i
    mask = ((1 << half) - 1) << half
    width = 2 * half
    while width < size:
        mask |= mask << width
        width *= 2
    return mask


def brute_min_backdoor(formula: Formula, kind: str, k_max: int) -> OracleReport:
    """Smallest backdoor of the given kind up to `k_max`, with every optimal
    witness set, by enumerating variable subsets in size-then-lex order."""
    if kind not in KINDS:
        raise ContractError(f"unknown backdoor kind {kind!r}")
    if k_max < 0:
        raise ContractError(f"search budget must be >= 0, got {k_max}")
    if k_max > MAX_SEARCH_BUDGET:
        raise ResourceLimitError(
            f"search budget must lie in 0..{MAX_SEARCH_BUDGET}, got {k_max}"
        )
    if len(formula.universe) > MAX_SEARCH_UNIVERSE:
        raise ResourceLimitError(
            f"universe of {len(formula.universe)} variables exceeds the search "
            f"guard ({MAX_SEARCH_UNIVERSE})"
        )
    if kind == "weak":
        accepts = lambda s: weak_backdoor_witness(formula, s) is not None
    elif kind == "strong":
        accepts = lambda s: is_strong_backdoor(formula, s)
    else:
        accepts = lambda s: is_deletion_backdoor(formula, s)
    ordered = sorted(formula.universe)
    for size in range(k_max + 1):
        witnesses = tuple(
            frozenset(combo)
            for combo in itertools.combinations(ordered, size)
            if accepts(frozenset(combo))
        )
        if witnesses:
            return OracleReport(kind, size, witnesses)
    return OracleReport(kind, None, ())
