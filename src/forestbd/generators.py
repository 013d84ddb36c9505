"""Instance generators.

All generators are pure functions of their parameters; the random one is
a pure function of its seed.
"""

from __future__ import annotations

import random
from typing import Sequence

from .errors import ContractError, ResourceLimitError
from .formula import MAX_DIMACS_VARIABLES, Clause, Formula


def _guard_universe(size: int) -> None:
    """Refuse, before anything is built, a universe that `parse_dimacs`
    would refuse to read back."""
    if size > MAX_DIMACS_VARIABLES:
        raise ResourceLimitError(
            f"refusing to generate {size} variables (limit {MAX_DIMACS_VARIABLES})"
        )


def grid_formula(size: int) -> Formula:
    """A size x size grid of variables, each grid edge subdivided by a
    clause on its positive endpoints, plus one extra variable occurring
    positively in every horizontal-edge clause and negatively in every
    vertical-edge clause.

    The extra variable alone is a weak and strong backdoor: either value
    clears all horizontal or all vertical clauses, leaving disjoint paths.
    Deleting it instead leaves the full subdivided grid, so deletion
    backdoors must grow with the grid.
    """
    if size < 2:
        raise ContractError(f"grid size must be >= 2, got {size}")
    _guard_universe(size * size + 1)

    def cell(row: int, col: int) -> int:
        return row * size + col + 1

    extra = size * size + 1
    clauses = [
        Clause((cell(row, col), cell(row, col + 1), extra))
        for row in range(size)
        for col in range(size - 1)
    ]
    clauses += [
        Clause((cell(row, col), cell(row + 1, col), -extra))
        for row in range(size - 1)
        for col in range(size)
    ]
    return Formula(tuple(clauses), frozenset(range(1, extra + 1)))


def hitting_set_formula(sets: Sequence[Sequence[int]]) -> Formula:
    """Encode a hitting set instance so that its minimum hitting set size
    equals the minimum weak backdoor size of the output.

    Each input set gets two fresh selector variables z, z' and two
    clauses: (z or z') and (set elements or not-z or not-z'). Hitting all
    element clauses removes every four-cycle through the selector pairs.
    """
    if not sets:
        raise ContractError("family must be nonempty")
    elements: set[int] = set()
    for i, group in enumerate(sets):
        if not group:
            raise ContractError(f"set {i} in the family is empty")
        for e in group:
            if not isinstance(e, int) or e < 1:
                raise ContractError(f"universe elements must be positive ints, got {e!r}")
            elements.add(e)
    base = max(elements)
    _guard_universe(base + 2 * len(sets))
    clauses: list[Clause] = []
    for i, group in enumerate(sets):
        z = base + 2 * i + 1
        z_prime = base + 2 * i + 2
        clauses.append(Clause((z, z_prime)))
        clauses.append(Clause((*sorted(set(group)), -z, -z_prime)))
    return Formula(tuple(clauses), frozenset(range(1, base + 2 * len(sets) + 1)))


def random_rcnf(n: int, m: int, width: int, seed: int) -> Formula:
    """m clauses over n variables, each on `width` distinct variables with
    uniform polarities; deterministic in the seed."""
    if n < 0 or m < 0:
        raise ContractError("variable and clause counts must be nonnegative")
    _guard_universe(n)
    if width < 1 or width > n:
        raise ContractError(
            f"clause width {width} is infeasible for {n} variables"
        )
    rng = random.Random(seed)
    clauses: list[Clause] = []
    for _ in range(m):
        chosen = rng.sample(range(1, n + 1), width)
        signed = [v if rng.random() < 0.5 else -v for v in chosen]
        clauses.append(Clause(tuple(sorted(signed, key=abs))))
    return Formula(tuple(clauses), frozenset(range(1, n + 1)))
