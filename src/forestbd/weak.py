"""Exact detection of weak backdoor sets for bounded-width CNF.

The detector routes on a cycle packing dichotomy. When the incidence
graph holds few disjoint cycles, an exact memoized branch over cycle
variables and adjacent outside variables decides the question outright.
When it holds many, every way of designating which packed cycles a
backdoor may touch directly is examined; the remaining cycles must be
removed from outside, and selection rules either produce a small variable
set that every conforming backdoor intersects or certify that none
exists. Branching on that set with a reduced budget keeps the search
fixed-parameter sized.

Rule identifiers (in application order):
  unkillable-cycle       some designated-external cycle has no outside
                         variable adjacent to its clauses; empty selection
  concentrated-killers   a heavy killer exists and few killers approach its
                         adjacency weight; select all of those
  dominant-killer        a heavy killer exists amid many near-peers; select
                         the champion alone
  killer-overlap-excess  two designated-external cycles share too many
                         killers; empty selection
  shared-killers         select every variable able to kill two or more
                         designated-external cycles
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from .acyclic import residual_satisfiable
from .backdoors import BackdoorVerdict, Residual, branch_on_cycles, external_killers
from .errors import ContractError, ResourceLimitError
from .formula import Formula
from .graphs import (
    Cycle,
    FeedbackSet,
    IncidenceGraph,
    disjoint_cycles_or_feedback,
    incidence_graph,
    is_acyclic,
)
from .workers import first_hit

if TYPE_CHECKING:
    from .strong import StrongParameters

# Strong detection at budget 4 already has C(133, 4), about 1.2e7.
MAX_DESIGNATIONS = 100_000


@dataclass(frozen=True)
class WeakParameters:
    """Derived branching thresholds for a budget and clause width."""

    budget: int
    width: int
    cycles: int
    multi: int
    support: int
    overlap: int

    @classmethod
    def derive(cls, budget: int, width: int) -> WeakParameters:
        if budget < 1:
            raise ContractError(f"budget must be >= 1, got {budget}")
        r = max(3, width)
        k = budget
        cycles = 2 * k + 1
        multi = 4 * k
        support = (r - 3) * (k**3 + 9) + 4 * k**2 + k
        overlap = (r - 2) * (k * multi) ** 2 + k
        return cls(k, r, cycles, multi, support, overlap)


@dataclass(frozen=True)
class KillChoice:
    """One way of designating which packed cycles a backdoor may touch
    directly; all others must be removed from outside, so their variables
    are barred from the pool."""

    internal: tuple[Cycle, ...]
    external: tuple[Cycle, ...]
    pool: frozenset[int]


@dataclass(frozen=True)
class RuleOutcome:
    rule: str
    selected: frozenset[int]


def weak_rule_outcome(
    formula: Formula,
    inc: IncidenceGraph,
    choice: KillChoice,
    params: WeakParameters,
) -> RuleOutcome:
    """Apply the first matching selection rule to one designation.

    The outcome's set intersects every weak backdoor within the pool of
    size at most the budget; an empty set certifies that none exists.
    """
    killer_sets = [external_killers(inc, c, choice.pool) for c in choice.external]
    if any(not ks for ks in killer_sets):
        return RuleOutcome("unkillable-cycle", frozenset())

    # A killer's weight: the number of the cycle's clauses it occurs in.
    weights = [
        {v: sum(inc.sign(v, i) is not None for i in cycle.clause_indices) for v in ks}
        for cycle, ks in zip(choice.external, killer_sets)
    ]
    champions: list[tuple[int, int]] = []
    for w in weights:
        champion = max(w, key=lambda v: (w[v], -v))
        champions.append((champion, w[champion]))

    k = params.budget
    for (champion, weight), w in zip(champions, weights):
        if weight < params.multi:
            continue
        heavy = frozenset(v for v, c in w.items() if 2 * k * c >= weight)
        if len(heavy) <= params.support:
            return RuleOutcome("concentrated-killers", heavy)
    for (champion, weight), w in zip(champions, weights):
        if weight < params.multi:
            continue
        heavy_count = sum(1 for c in w.values() if 2 * k * c >= weight)
        if heavy_count > params.support:
            return RuleOutcome("dominant-killer", frozenset({champion}))

    for i, j in itertools.combinations(range(len(killer_sets)), 2):
        if len(killer_sets[i] & killer_sets[j]) >= params.overlap:
            return RuleOutcome("killer-overlap-excess", frozenset())

    shared: set[int] = set()
    for i, j in itertools.combinations(range(len(killer_sets)), 2):
        shared |= killer_sets[i] & killer_sets[j]
    return RuleOutcome("shared-killers", frozenset(shared))


def designations(
    rule: Callable[..., RuleOutcome],
    formula: Formula,
    inc: IncidenceGraph,
    packing: Sequence[Cycle],
    params: WeakParameters | StrongParameters,
) -> Iterator[tuple[KillChoice, RuleOutcome]]:
    """Every way of designating `params.budget` of the first
    `params.cycles` packed cycles as internal, with the outcome of the
    selection `rule` (weak or strong) on it. Raises ResourceLimitError,
    before the first one, when there are more than MAX_DESIGNATIONS."""
    if len(packing) < params.cycles:
        raise ContractError(
            f"need {params.cycles} disjoint cycles, got {len(packing)}"
        )
    total = math.comb(params.cycles, params.budget)
    if total > MAX_DESIGNATIONS:
        raise ResourceLimitError(
            f"refusing to enumerate {total} designations (limit {MAX_DESIGNATIONS})"
        )
    base = tuple(packing[: params.cycles])
    # The packed cycles are disjoint, so the universe minus the external
    # cycles' variables is the free variables plus the internal ones.
    free = formula.universe.difference(v for c in base for v in c.variables)
    for indices in itertools.combinations(range(params.cycles), params.budget):
        internal = tuple(base[i] for i in indices)
        external = tuple(c for i, c in enumerate(base) if i not in indices)
        pool = free.union(v for c in internal for v in c.variables)
        choice = KillChoice(internal, external, pool)
        yield choice, rule(formula, inc, choice, params)


def candidate_pool(
    rule: Callable[..., RuleOutcome],
    formula: Formula,
    inc: IncidenceGraph,
    packing: Sequence[Cycle],
    params: WeakParameters | StrongParameters,
) -> frozenset[int]:
    """Union of rule selections over every designation; every backdoor
    within budget intersects it, and an empty union certifies none exists."""
    pool: set[int] = set()
    for _, outcome in designations(rule, formula, inc, packing, params):
        pool |= outcome.selected
    return frozenset(pool)


def detect_weak(
    formula: Formula,
    budget: int,
    width: int | None = None,
) -> BackdoorVerdict:
    """Exact weak backdoor detection for formulas of bounded clause width.

    Found verdicts carry the backdoor set and a witness assignment over it
    whose restriction is acyclic and satisfiable; a negative verdict means
    no weak backdoor of size at most `budget` exists.
    """
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")
    actual = formula.max_clause_width()
    if width is None:
        width = max(3, actual)
    if actual > width:
        raise ContractError(
            f"clause width {actual} exceeds declared bound {width}"
        )
    return _detect_weak(formula, budget, max(3, width))


def _detect_weak(formula: Formula, budget: int, width: int) -> BackdoorVerdict:
    inc = incidence_graph(formula)
    if is_acyclic(inc.graph):
        # On a forest the dichotomy returns the empty feedback set.
        split = FeedbackSet(frozenset()) if budget else None
        if residual_satisfiable(inc, frozenset()):
            return BackdoorVerdict.yes((), budget, {}, split)
        return BackdoorVerdict.no(budget, split)
    if budget == 0:
        return BackdoorVerdict.no(0)
    params = WeakParameters.derive(budget, width)
    split = disjoint_cycles_or_feedback(inc.graph, params.cycles)
    if isinstance(split, FeedbackSet):
        return replace(weak_exact_search(formula, budget), split=split)
    pool = candidate_pool(weak_rule_outcome, formula, inc, split.cycles, params)
    branches = [(s, value) for s in sorted(pool) for value in (False, True)]

    def explore(branch: tuple[int, bool]) -> Optional[BackdoorVerdict]:
        candidate, value = branch
        sub = _detect_weak(formula.restrict({candidate: value}), budget - 1, width)
        if not sub.found:
            return None
        witness = dict(sub.witness or {})
        witness[candidate] = value
        return BackdoorVerdict.yes(sub.variables | {candidate}, budget, witness, split)

    hit = first_hit(explore, branches)
    return hit if hit is not None else BackdoorVerdict.no(budget, split)


def weak_exact_search(formula: Formula, budget: int) -> BackdoorVerdict:
    """Exact weak backdoor search by cycle branching, memoized on the
    restricted formula.

    Any weak backdoor must remove the chosen cycle: either it assigns one
    of the cycle's variables, or it satisfies one of the cycle's clauses
    through an adjacent outside variable. Sound and complete for every
    budget and width.
    """
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")

    def settle(state: tuple[Formula, int]):
        current, remaining = state
        if current.has_empty_clause():
            # Restriction never removes an empty clause, so no witness can
            # make any deeper restriction satisfiable.
            return None
        inc = incidence_graph(current)
        if is_acyclic(inc.graph):
            if not residual_satisfiable(inc, frozenset()):
                return None
            return frozenset(), {}
        return Residual(inc, frozenset()) if remaining else None

    def moves(state: tuple[Formula, int], inc: IncidenceGraph, cycle: Cycle):
        current, remaining = state
        cycle_vars = frozenset(cycle.variables)
        candidates = cycle_vars | external_killers(inc, cycle, current.universe - cycle_vars)
        for candidate in sorted(candidates):
            for value in (False, True):
                yield (current.restrict({candidate: value}), remaining - 1), candidate, value

    result = branch_on_cycles((formula, budget), settle, moves)
    if result is None:
        return BackdoorVerdict.no(budget)
    variables, witness = result
    return BackdoorVerdict.yes(variables, budget, witness)
