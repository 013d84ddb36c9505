"""Verification predicates for the three backdoor notions, and the cycle
branching search shared by the exact detectors.

A variable set is a deletion backdoor when removing its occurrences
leaves the incidence graph acyclic, a strong backdoor when every
assignment of it yields an acyclic restriction, and a weak backdoor when
some assignment yields an acyclic and satisfiable restriction.

The exponential verification loops walk assignments in lexicographic
order (variables ascending, False before True) on views of the formula's
one incidence graph, never rebuilding a restriction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Iterable, Iterator, NamedTuple, Optional, TypeVar, Union

from .acyclic import residual_satisfiable
from .errors import ContractError, ResourceLimitError
from .formula import Assignment, Formula
from .graphs import (
    Cycle,
    IncidenceGraph,
    Node,
    PackingOrFeedback,
    incidence_graph,
    is_acyclic,
    shortest_cycle,
    var_node,
)
from .workers import all_true, first_hit

MAX_VERIFY_VARIABLES = 30

S = TypeVar("S")
# A backdoor found below a search state, with its witness assignment
# (empty unless the search assigns values).
Found = tuple[frozenset[int], Assignment]


class Residual(NamedTuple):
    """A residual formula with a cycle left, as the view `inc` minus `removed`."""

    inc: IncidenceGraph
    removed: AbstractSet[Node]


@dataclass(frozen=True)
class BackdoorVerdict:
    """Outcome of a detection run.

    `found` with a variable set (and, for weak detection, the witness
    assignment over it), or a certificate that no backdoor of size at most
    `budget` exists under the detector's stated guarantee.
    """

    found: bool
    variables: frozenset[int]
    budget: int
    witness: Optional[Assignment] = field(default=None, compare=False)
    # The packing-or-feedback split the detector routed on, if it made one.
    split: Optional[PackingOrFeedback] = field(default=None, compare=False)

    @classmethod
    def yes(
        cls,
        variables: Iterable[int],
        budget: int,
        witness: Optional[Assignment] = None,
        split: Optional[PackingOrFeedback] = None,
    ) -> BackdoorVerdict:
        return cls(True, frozenset(variables), budget, witness, split)

    @classmethod
    def no(cls, budget: int, split: Optional[PackingOrFeedback] = None) -> BackdoorVerdict:
        return cls(False, frozenset(), budget, None, split)

    def sorted_variables(self) -> tuple[int, ...]:
        return tuple(sorted(self.variables))


def assignments_over(variables: Iterable[int]) -> Iterator[Assignment]:
    """All assignments of the variables, lexicographic with False first."""
    ordered = sorted(variables)
    for bits in itertools.product((False, True), repeat=len(ordered)):
        yield dict(zip(ordered, bits))


def _check_candidate(formula: Formula, variables: frozenset[int]) -> None:
    extra = variables - formula.universe
    if extra:
        raise ContractError(f"candidate set outside universe: {sorted(extra)}")


def _guard_size(variables: frozenset[int]) -> None:
    if len(variables) > MAX_VERIFY_VARIABLES:
        raise ResourceLimitError(
            f"refusing to enumerate 2^{len(variables)} assignments "
            f"(limit {MAX_VERIFY_VARIABLES} variables)"
        )


def is_deletion_backdoor(formula: Formula, variables: Iterable[int]) -> bool:
    candidate = frozenset(variables)
    _check_candidate(formula, candidate)
    # Deletion keeps every clause at its index, so the residual's incidence
    # graph is this one without the set's variable nodes.
    removed = frozenset(var_node(v) for v in candidate)
    return is_acyclic(incidence_graph(formula).graph, forbidden=removed)


def is_strong_backdoor(formula: Formula, variables: Iterable[int]) -> bool:
    candidate = frozenset(variables)
    _check_candidate(formula, candidate)
    _guard_size(candidate)
    inc = incidence_graph(formula)
    return all_true(inc.residual_acyclic, assignments_over(candidate))


def weak_backdoor_witness(
    formula: Formula, variables: Iterable[int]
) -> Optional[Assignment]:
    """The lexicographically first assignment of the set whose restriction
    is acyclic and satisfiable, or None."""
    candidate = frozenset(variables)
    _check_candidate(formula, candidate)
    _guard_size(candidate)
    inc = incidence_graph(formula)

    def probe(tau: Assignment) -> Optional[Assignment]:
        if inc.residual_acyclic(tau) and residual_satisfiable(inc, inc.removed(tau)):
            return tau
        return None

    return first_hit(probe, assignments_over(candidate))


def external_killers(
    inc: IncidenceGraph, cycle: Cycle, pool: Iterable[int]
) -> frozenset[int]:
    """Pool variables outside the cycle adjacent to at least one of its
    clauses; satisfying such a clause can remove the cycle."""
    allowed = frozenset(pool) - frozenset(cycle.variables)
    found: set[int] = set()
    for index in cycle.clause_indices:
        for variable in inc.variables_adjacent_to(index):
            if variable in allowed:
                found.add(variable)
    return frozenset(found)


def opposite_sign_clauses(
    inc: IncidenceGraph, variable: int, cycle: Cycle
) -> Optional[tuple[int, int]]:
    """The least clause pair of the cycle holding the variable positively in
    the first and negatively in the second, or None.

    Either value of the variable satisfies (and removes) one of the two
    clauses, so no restriction of the variable keeps the whole cycle.
    """
    if variable in cycle.variables:
        raise ContractError(f"variable {variable} lies on the cycle")
    positive = [i for i in cycle.clause_indices if inc.sign(variable, i) is True]
    negative = [i for i in cycle.clause_indices if inc.sign(variable, i) is False]
    if positive and negative:
        return (min(positive), min(negative))
    return None


def branch_on_cycles(
    root: S,
    settle: Callable[[S], Union[Found, None, Residual]],
    moves: Callable[[S, IncidenceGraph, Cycle], Iterable[tuple[S, int, Optional[bool]]]],
) -> Optional[Found]:
    """Memoized search that branches on the canonical shortest cycle.

    `settle(state)` ends a branch with a found pair or None, or returns
    the `Residual` view of a formula that still has a cycle.
    `moves(state, inc, cycle)` then lists, in search order, the branches
    (child, variable, value) that can remove the view's canonical
    shortest cycle. The first child that finds a backdoor adds its
    variable to it, and the value to the witness unless the value is
    None. States are memoized, so they must be hashable.
    """
    memo: dict[S, Optional[Found]] = {}

    def search(state: S) -> Optional[Found]:
        if state not in memo:
            memo[state] = expand(state)
        return memo[state]

    def expand(state: S) -> Optional[Found]:
        settled = settle(state)
        if not isinstance(settled, Residual):
            return settled
        cycle = shortest_cycle(settled.inc.graph, forbidden=settled.removed)
        assert cycle is not None
        for child, variable, value in moves(state, settled.inc, cycle):
            found = search(child)
            if found is not None:
                variables, witness = found
                if value is not None:
                    witness = {**witness, variable: value}
                return variables | {variable}, witness
        return None

    return search(root)
