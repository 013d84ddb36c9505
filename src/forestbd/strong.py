"""Strong and deletion backdoor detection, plus counting through backdoors.

Strong detection is a budgeted approximation: a positive answer carries a
verified strong backdoor of size below 2^budget, while a negative answer
is exact. The detector routes on the cycle packing dichotomy; with few
disjoint cycles an exact memoized search runs, with many the designation
rules shrink branching to at most two variables per designation.

A strong backdoor acts as an implied cycle cutset: summing the acyclic
counts of all its restrictions yields the exact model count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .acyclic import ModelCount, residual_count
from .backdoors import (
    BackdoorVerdict,
    Residual,
    _guard_size,
    assignments_over,
    branch_on_cycles,
    external_killers,
    opposite_sign_clauses,
)
from .errors import ContractError, CyclicInputError, ResourceLimitError
from .formula import Assignment, Formula
from .graphs import (
    Cycle,
    FeedbackSet,
    IncidenceGraph,
    canonical_cycle,
    clause_node,
    disjoint_cycles_or_feedback,
    incidence_graph,
    is_acyclic,
    var_node,
)
from .weak import KillChoice, RuleOutcome, candidate_pool
from .workers import first_hit, ordered_map

MAX_STRONG_BUDGET = 6


@dataclass(frozen=True)
class StrongParameters:
    """Derived packing size for a budget."""

    budget: int
    cycles: int

    @classmethod
    def derive(cls, budget: int) -> StrongParameters:
        if budget < 1:
            raise ContractError(f"budget must be >= 1, got {budget}")
        return cls(budget, budget**2 * 2 ** (budget - 1) + budget + 1)


@dataclass(frozen=True)
class ApexCycle:
    """The cycle formed by an outside killer together with a minimal arc of
    a packed cycle between an opposite-sign clause pair.

    Minimality: no pool variable kills the base cycle at a clause pair
    lying on the arc other than the arc's own endpoints, so every killer
    of this cycle must act exactly at those endpoints.
    """

    apex: int
    pos_clause: int
    neg_clause: int
    arc: tuple
    cycle: Cycle


def _arcs_between(cycle: Cycle, start: tuple, end: tuple) -> tuple[tuple, tuple]:
    nodes = cycle.nodes
    size = len(nodes)
    i = nodes.index(start)
    j = nodes.index(end)
    forward = tuple(nodes[(i + step) % size] for step in range((j - i) % size + 1))
    backward = tuple(nodes[(i - step) % size] for step in range((i - j) % size + 1))
    return forward, backward


def build_apex_cycle(
    formula: Formula, inc: IncidenceGraph, cycle: Cycle, pool: frozenset[int]
) -> Optional[ApexCycle]:
    """The minimum-length killing arc over all pool killers of the cycle,
    ties by (positive clause, negative clause, killer, arc nodes); None when
    no pool variable holds opposite signs in two of the cycle's clauses."""
    best: Optional[tuple] = None
    # A variable with no occurrence in the cycle's clauses has no sign there.
    for variable in sorted(external_killers(inc, cycle, pool)):
        positive = [i for i in cycle.clause_indices if inc.sign(variable, i) is True]
        negative = [i for i in cycle.clause_indices if inc.sign(variable, i) is False]
        if not positive or not negative:
            continue
        for u in positive:
            for v in negative:
                for arc in _arcs_between(cycle, clause_node(u), clause_node(v)):
                    candidate = (len(arc), u, v, variable, arc)
                    if best is None or candidate < best:
                        best = candidate
    if best is None:
        return None
    _, u, v, variable, arc = best
    closed = canonical_cycle(arc + (var_node(variable),))
    return ApexCycle(variable, u, v, arc, closed)


def apex_cycle_killers(
    inc: IncidenceGraph, apex_cycle: ApexCycle, pool: frozenset[int]
) -> frozenset[int]:
    """Pool variables, other than the apex, occurring with opposite signs in
    the arc's two endpoint clauses; by arc minimality these are exactly the
    outside killers of the apex cycle, and each also kills the base cycle."""
    u, v = apex_cycle.pos_clause, apex_cycle.neg_clause
    found: set[int] = set()
    for variable in pool:
        if variable == apex_cycle.apex:
            continue
        su = inc.sign(variable, u)
        sv = inc.sign(variable, v)
        if su is None or sv is None or su == sv:
            continue
        found.add(variable)
    return frozenset(found)


def strong_rule_outcome(
    formula: Formula,
    inc: IncidenceGraph,
    choice: KillChoice,
    params: StrongParameters,
) -> RuleOutcome:
    """Apply the first matching selection rule to one designation.

    The outcome's set (at most two variables) intersects every strong
    backdoor within the pool of size at most the budget; an empty set
    certifies that none exists.
    """
    apexes: list[ApexCycle] = []
    for cycle in choice.external:
        apex = build_apex_cycle(formula, inc, cycle, choice.pool)
        if apex is None:
            # No pool variable can remove this cycle under every assignment.
            return RuleOutcome("unkillable-cycle", frozenset())
        apexes.append(apex)

    killer_sets = [apex_cycle_killers(inc, apex, choice.pool) for apex in apexes]
    for apex, killers in zip(apexes, killer_sets):
        if not killers:
            return RuleOutcome("lone-killer", frozenset({apex.apex}))

    k = params.budget
    # A backdoor within the pool must remove every apex cycle, so per cycle
    # it holds the apex itself or one of the apex cycle's outside killers;
    # the counting rules below must therefore treat the apex as a killer of
    # its own cycle.
    membership: dict[int, set[int]] = {}
    for index, (apex, killers) in enumerate(zip(apexes, killer_sets)):
        membership.setdefault(apex.apex, set()).add(index)
        for variable in killers:
            membership.setdefault(variable, set()).add(index)

    pair_threshold = 2 ** (k - 1) + 1
    candidates = sorted(membership)
    for y, z in itertools.combinations(candidates, 2):
        if len(membership[y] & membership[z]) >= pair_threshold:
            return RuleOutcome("killer-pair", frozenset({y, z}))

    many_threshold = k * 2 ** (k - 1) + 1
    for y in candidates:
        if len(membership[y]) >= many_threshold:
            return RuleOutcome("ubiquitous-killer", frozenset({y}))

    return RuleOutcome("saturated", frozenset())


def detect_strong(formula: Formula, budget: int) -> BackdoorVerdict:
    """Budgeted strong backdoor detection.

    A found verdict carries a strong backdoor of size at most
    2^budget - 1; a negative verdict certifies that no strong backdoor of
    size at most `budget` exists.
    """
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")
    if budget > MAX_STRONG_BUDGET:
        raise ResourceLimitError(
            f"strong detection is limited to budget {MAX_STRONG_BUDGET}"
        )
    inc = incidence_graph(formula)
    if is_acyclic(inc.graph):
        # On a forest the dichotomy returns the empty feedback set.
        split = FeedbackSet(frozenset()) if budget else None
        return BackdoorVerdict.yes((), budget, split=split)
    if budget == 0:
        return BackdoorVerdict.no(0)
    params = StrongParameters.derive(budget)
    split = disjoint_cycles_or_feedback(inc.graph, params.cycles)
    if isinstance(split, FeedbackSet):
        return replace(strong_exact_search(formula, budget), split=split)
    pool = candidate_pool(strong_rule_outcome, formula, inc, split.cycles, params)

    def explore(candidate: int) -> Optional[BackdoorVerdict]:
        high = detect_strong(formula.restrict({candidate: True}), budget - 1)
        if not high.found:
            return None
        low = detect_strong(formula.restrict({candidate: False}), budget - 1)
        if not low.found:
            return None
        return BackdoorVerdict.yes(
            high.variables | low.variables | {candidate}, budget, split=split
        )

    hit = first_hit(explore, sorted(pool))
    return hit if hit is not None else BackdoorVerdict.no(budget, split)


def strong_exact_search(formula: Formula, budget: int) -> BackdoorVerdict:
    """Exact strong backdoor search, memoized on the candidate set.

    A candidate set is grown until no assignment of it leaves a cycle.
    When some assignment does, the surviving cycle pins the next branch:
    a strong backdoor extending the candidate set must assign one of the
    cycle's variables or a variable with opposite signs in two of its
    clauses, because any other set admits an assignment keeping the cycle.
    """
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")
    inc = incidence_graph(formula)

    def probe(tau: Assignment) -> Optional[Assignment]:
        return None if inc.residual_acyclic(tau) else tau

    def settle(candidate: frozenset[int]):
        tau = first_hit(probe, assignments_over(candidate))
        if tau is None:
            return candidate, {}
        if len(candidate) == budget:
            return None
        return Residual(inc, inc.removed(tau))

    def moves(candidate: frozenset[int], inc: IncidenceGraph, cycle: Cycle):
        cycle_vars = frozenset(cycle.variables)
        # The survivor's universe is the formula's minus the candidate set.
        outside = formula.universe - candidate - cycle_vars
        extenders = cycle_vars | {
            v for v in outside if opposite_sign_clauses(inc, v, cycle) is not None
        }
        for variable in sorted(extenders):
            yield candidate | {variable}, variable, None

    result = branch_on_cycles(frozenset(), settle, moves)
    if result is None:
        return BackdoorVerdict.no(budget)
    return BackdoorVerdict.yes(result[0], budget)


def detect_deletion(formula: Formula, budget: int) -> BackdoorVerdict:
    """Exact deletion backdoor detection by shortest-cycle branching,
    memoized on the removed set.

    Deleting a variable off a cycle leaves the cycle intact, so a deletion
    backdoor must contain one of the cycle's variables.
    """
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")
    inc = incidence_graph(formula)

    def settle(removed: frozenset[int]):
        # Deletion keeps every clause, so only the variable nodes go.
        nodes = frozenset(var_node(v) for v in removed)
        if is_acyclic(inc.graph, forbidden=nodes):
            return frozenset(), {}
        return Residual(inc, nodes) if len(removed) < budget else None

    def moves(removed: frozenset[int], inc: IncidenceGraph, cycle: Cycle):
        for variable in sorted(cycle.variables):
            yield removed | {variable}, variable, None

    result = branch_on_cycles(frozenset(), settle, moves)
    if result is None:
        return BackdoorVerdict.no(budget)
    return BackdoorVerdict.yes(result[0], budget)


def count_with_backdoor(
    formula: Formula,
    backdoor: Sequence[int] | frozenset[int],
    universe: Sequence[int] | frozenset[int],
) -> ModelCount:
    """Exact model count over `universe` by summing the acyclic counts of
    every restriction of a strong backdoor; a restriction that leaves a
    cycle shows the set is not one."""
    cutset = frozenset(backdoor)
    target = frozenset(universe)
    if not cutset <= target:
        raise ContractError("backdoor must be a subset of the counting universe")
    if not formula.variables <= target:
        raise ContractError("universe must cover every occurring variable")
    if not cutset <= formula.universe:
        raise ContractError("backdoor must be a subset of the formula universe")
    _guard_size(cutset)
    size = len(target - cutset)
    inc = incidence_graph(formula)

    def piece(tau: Assignment) -> int:
        return residual_count(inc, inc.removed(tau), size)

    try:
        total = sum(ordered_map(piece, assignments_over(cutset)))
    except CyclicInputError as exc:
        raise ContractError("the given set is not a strong backdoor") from exc
    return ModelCount(total, len(target))
