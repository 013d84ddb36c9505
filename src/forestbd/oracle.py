"""Brute-force ground truth for counting and minimum backdoor search.

Everything here enumerates definitions literally; detectors and the
counting pipeline are validated against this module. Guards fail loudly
rather than letting an enumeration run away.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

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


@dataclass(frozen=True)
class OracleReport:
    """Result of a brute-force search."""

    kind: str
    optimum: int | None
    witness_sets: tuple[frozenset[int], ...]
    count: int | None = None


def brute_count(formula: Formula, universe: Iterable[int]) -> int:
    """Exact model count by enumerating every assignment of the universe."""
    # Imported here so the command line starts without numpy.
    import numpy as np

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
    position = {v: i for i, v in enumerate(ordered)}
    codes = np.arange(1 << n, dtype=np.uint32)
    satisfied = np.ones(1 << n, dtype=bool)
    for clause in formula.clauses:
        holds = np.zeros(1 << n, dtype=bool)
        for lit in sorted(clause.literals):
            bit = (codes >> np.uint32(position[lit.variable])) & np.uint32(1)
            holds |= bit.astype(bool) if lit.positive else bit == 0
        satisfied &= holds
    return int(np.count_nonzero(satisfied))


def brute_min_backdoor(formula: Formula, kind: str, k_max: int) -> OracleReport:
    """Smallest backdoor of the given kind up to `k_max`, with every optimal
    witness set, by enumerating variable subsets in size-then-lex order."""
    if kind not in KINDS:
        raise ContractError(f"unknown backdoor kind {kind!r}")
    if k_max < 0 or k_max > MAX_SEARCH_BUDGET:
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
