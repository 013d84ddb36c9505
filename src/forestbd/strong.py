"""Strong and deletion backdoor detection, plus counting through backdoors.

Strong detection is a budgeted approximation: a positive answer carries a
verified strong backdoor of size below 2^budget, while a negative answer
is exact. The detector is `weak.packing_route` with strong inputs; with
few disjoint cycles an exact memoized search runs, with many the strong
designation rules shrink branching to at most two variables per
designation, and both values of a branch variable must find a backdoor.

The exact strong and deletion searches are one set search, `_set_search`:
while a notion's `Survivor` finds a view that the set leaves cyclic, or
None, it grows the set by each unassigned killer (`backdoors.Killers`)
of that view's canonical shortest cycle. Both bound the cyclic
components at the root only (`_components_exceed`): in search states
the bound prunes too rarely to pay for its pass.

A strong backdoor acts as an implied cycle cutset: summing the acyclic
counts of all its restrictions yields the exact model count. Counting is
strong verification's component walk (`backdoors.Conditioning.product`)
with `split_count` splits: one tree DP traversal prices a view's trees
and lists its cyclic components, each of which branches on its
best-connected cutset variable. Component counts multiply and the counts
of a variable's two values add, so independent cyclic parts add their
branches instead of multiplying them. `count_through_search` counts a
forest in one traversal, and finds any other cutset with `detect_strong`
first, on the graph it then counts on.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, Callable, NamedTuple, Optional, Sequence

from .acyclic import ModelCount, Split, split_count
from .backdoors import (
    BackdoorVerdict,
    Conditioning,
    Killers,
    Residual,
    _guard_size,
    branch_on_cycles,
    deletion_killers,
    first_leaf,
    opposite_signs,
    strong_killers,
)
from .errors import ContractError, ResourceLimitError
from .formula import Formula
from .graphs import (
    Cycle,
    CyclePacking,
    IncidenceGraph,
    Node,
    cyclic_components,
    disjoint_cycles_or_feedback,
)
from .weak import KillChoice, Route, RuleOutcome, packing_route

MAX_STRONG_BUDGET = 6
Survivor = Callable[[frozenset[int]], Optional[Residual]]


class StrongParameters(NamedTuple):
    """Derived packing size for a budget."""

    budget: int
    cycles: int

    @classmethod
    def derive(cls, budget: int) -> StrongParameters:
        if budget < 1:
            raise ContractError(f"budget must be >= 1, got {budget}")
        return cls(budget, budget**2 * 2 ** (budget - 1) + budget + 1)


class ApexCycle(NamedTuple):
    """The cycle formed by an outside killer (`apex`) together with a
    minimal `arc` of a packed cycle between an opposite-sign clause pair:
    the arc runs from the clause holding the apex positively to the one
    holding it negatively.

    Minimality: no pool variable kills the base cycle at a clause pair
    lying on the arc other than the arc's own endpoints, so every killer
    of this cycle must act exactly at those endpoints.
    """

    apex: int
    arc: tuple[Node, ...]


def _arcs_between(cycle: Cycle, start: Node, end: Node) -> tuple[tuple, tuple]:
    nodes = cycle.nodes
    size = len(nodes)
    i = nodes.index(start)
    j = nodes.index(end)
    forward = tuple(nodes[(i + step) % size] for step in range((j - i) % size + 1))
    backward = tuple(nodes[(i - step) % size] for step in range((i - j) % size + 1))
    return forward, backward


def build_apex_cycle(
    inc: IncidenceGraph, cycle: Cycle, pool: AbstractSet[int]
) -> Optional[ApexCycle]:
    """The minimum-length killing arc over all outside pool killers of the
    cycle, ties by (positive clause, negative clause, killer, arc nodes);
    None when no pool variable off the cycle holds opposite signs in two of
    its clauses."""
    best: Optional[tuple] = None
    for variable in sorted(strong_killers(inc, cycle, pool) - cycle.variable_set):
        positive = [i for i in cycle.clause_indices if variable in inc.literals[i]]
        negative = [i for i in cycle.clause_indices if -variable in inc.literals[i]]
        for u in positive:
            for v in negative:
                for arc in _arcs_between(cycle, u, v):
                    candidate = (len(arc), u, v, variable, arc)
                    if best is None or candidate < best:
                        best = candidate
    if best is None:
        return None
    _, _, _, variable, arc = best
    return ApexCycle(variable, arc)


def apex_cycle_killers(
    inc: IncidenceGraph, apex_cycle: ApexCycle, pool: AbstractSet[int]
) -> frozenset[int]:
    """Pool variables, other than the apex, with opposite signs in the
    arc's two end clauses (`backdoors.opposite_signs`); by arc minimality
    these are exactly the outside killers of the apex cycle, and each also
    kills the base cycle."""
    arc = apex_cycle.arc
    return opposite_signs(inc, (arc[0], arc[-1])).intersection(pool) - {apex_cycle.apex}


def strong_rule_outcome(
    inc: IncidenceGraph, choice: KillChoice, params: StrongParameters
) -> RuleOutcome:
    """Apply the first matching selection rule to one designation.

    The outcome's set (at most two variables) intersects every strong
    backdoor within the pool of size at most the budget; an empty set
    certifies that none exists.
    """
    apexes: list[ApexCycle] = []
    for cycle in choice.external:
        apex = build_apex_cycle(inc, cycle, choice.pool)
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
    return _detect_strong(Residual.of(formula), budget)


def _detect_strong(residual: Residual, budget: int) -> BackdoorVerdict:
    route = Route(
        lambda view: (True, None),
        StrongParameters.derive,
        _strong_exact_search,
        strong_rule_outcome,  # read per call, so that bench/tracer.py's patch counts it
        strong_killers,
        ((True, False),),
    )
    return packing_route(route, residual, budget)


def strong_exact_search(formula: Formula, budget: int) -> BackdoorVerdict:
    """Exact strong backdoor search, memoized on the candidate set.

    A candidate set is grown until no assignment of it leaves a cycle.
    When some assignment does, the surviving cycle pins the next branch:
    a strong backdoor extending the candidate set must assign one of the
    cycle's unassigned killers (`backdoors.strong_killers`), because any
    other set admits an assignment keeping the cycle.
    """
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")
    return _strong_exact_search(Residual.of(formula), budget)


def _strong_exact_search(root: Residual, budget: int) -> BackdoorVerdict:
    if _components_exceed(root, budget, _strong_exact_search):
        return BackdoorVerdict.no(budget)

    def survivor(candidate: frozenset[int]) -> Optional[Residual]:
        walk = Conditioning(root, candidate)
        mask = walk.mask

        def acyclic(values: list[bool]) -> bool:
            return not cyclic_components(root.inc.graph, bytearray(mask), limit=0)

        def cyclic(values: list[bool]) -> Optional[Residual]:
            if acyclic(values):
                return None
            return Residual(root.inc, frozenset(itertools.compress(range(len(mask)), mask)))

        # An acyclic prefix holds no cyclic completion.
        return first_leaf(walk, cyclic, acyclic)

    return _set_search(budget, survivor, strong_killers)


def _set_search(budget: int, survivor: Survivor, killers: Killers) -> BackdoorVerdict:
    def settle(candidate: frozenset[int]):
        view = survivor(candidate)
        if view is None:
            return candidate, {}
        return view if len(candidate) < budget else None

    def moves(candidate: frozenset[int], view: Residual, cycle: Cycle):
        for variable in sorted(killers(view.inc, cycle, view.unassigned())):
            yield candidate | {variable}, variable, None

    result = branch_on_cycles(frozenset(), settle, moves)
    if result is None:
        return BackdoorVerdict.no(budget)
    return BackdoorVerdict.yes(result[0], budget)


def _components_exceed(
    root: Residual, budget: int, search: Callable[[Residual, int], BackdoorVerdict]
) -> bool:
    """Whether the cyclic components of the root's view show that no
    backdoor within `budget` exists. A variable reaches only its own
    component, so each cyclic one needs variables of its own: yes when
    there are more of them than the budget, or, given two or more, when
    their least backdoors sum past it. Each least backdoor is found by
    iterative deepening of the exact `search` on the component's view
    alone. A search that trips the state cap leaves the question to the
    caller's search."""
    graph = root.inc.graph
    components = cyclic_components(graph, graph.mask(root.removed), limit=budget)
    if len(components) > budget:
        return True
    if len(components) < 2:
        return False
    # Every component needs one variable at least.
    total = len(components)
    try:
        for nodes in components:
            view = root.within(nodes)
            size = 1
            while not search(view, size).found:
                size += 1
                total += 1
                if total > budget:
                    return True
    except ResourceLimitError:
        pass
    return False


def detect_deletion(formula: Formula, budget: int) -> BackdoorVerdict:
    """Exact deletion backdoor detection: the strong exact search's set
    search, on the one view each removed set leaves.

    Deleting a variable off a cycle leaves the cycle intact, so a deletion
    backdoor must contain one of the cycle's variables. Vertex-disjoint
    cycles share no variable, so from budget 2 a packing of budget + 1 of
    them answers no before any branching. At budget 1 the search is one
    cycle and a deletion test per variable on it, which on short cycles
    costs less than the packing's second girth pass: on `grid_formula(16)`'s
    graph that pass takes about 1 ms, six times the first, since the grid
    minus its extra variable has girth 8, above the floor of 4. Each test
    is a whole-graph pass, though, so long cycles reverse it: on a
    20,000-variable ring with four chords the budget-1 search makes 2,501
    of them (16 to 18 s on a 2-core VM). An acyclic formula needs neither:
    the empty set is found before either runs. Each cyclic component needs
    deleted variables of its own; the search bounds them at the root only.
    """
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")
    return _detect_deletion(Residual.of(formula), budget)


def _detect_deletion(root: Residual, budget: int) -> BackdoorVerdict:
    if root.acyclic():
        return BackdoorVerdict.yes((), budget)
    packing = budget >= 2 and disjoint_cycles_or_feedback(root.inc.graph, budget + 1, root.removed)
    if isinstance(packing, CyclePacking):
        return BackdoorVerdict.no(budget)
    if _components_exceed(root, budget, _detect_deletion):
        return BackdoorVerdict.no(budget)

    def survivor(removed: frozenset[int]) -> Optional[Residual]:
        if not removed:
            return root  # known to be cyclic
        view = root.without(removed)
        if view.acyclic():
            return None
        return view

    return _set_search(budget, survivor, deletion_killers)


def count_with_backdoor(
    formula: Formula,
    backdoor: Sequence[int] | frozenset[int],
    universe: Sequence[int] | frozenset[int],
) -> ModelCount:
    """Exact model count over `universe` through a strong backdoor, one
    connected component of each restriction's view at a time; a set under
    which some full restriction leaves a cycle is not one."""
    cutset = frozenset(backdoor)
    target = frozenset(universe)
    if not cutset <= target:
        raise ContractError("backdoor must be a subset of the counting universe")
    if not formula.occurs_within(target):
        raise ContractError("universe must cover every occurring variable")
    if not cutset <= formula.universe:
        raise ContractError("backdoor must be a subset of the formula universe")
    _guard_size(cutset)
    size = len(target)
    return ModelCount(_count(Conditioning(Residual.of(formula), cutset), size), size)


def count_through_search(formula: Formula) -> tuple[frozenset[int], ModelCount]:
    """The first strong backdoor `detect_strong` finds at budgets 0 to
    MAX_STRONG_BUDGET, and the model count over the formula's universe
    through it. The search and the count share one incidence graph, and one
    tree DP traversal of it both answers budget 0 and starts the count.
    Raises ResourceLimitError when no budget finds one."""
    root = Residual.of(formula)
    size = len(formula.universe)
    view = split_count(root.inc, root.inc.graph.mask(root.removed), size)
    if not view[1]:
        return frozenset(), ModelCount(view[0], size)
    for budget in range(1, MAX_STRONG_BUDGET + 1):
        verdict = _detect_strong(root, budget)
        if verdict.found:
            _guard_size(verdict.variables)
            count = _count(Conditioning(root, verdict.variables), size, view)
            return verdict.variables, ModelCount(count, size)
    raise ResourceLimitError(f"no strong backdoor found within budget {MAX_STRONG_BUDGET}")


def _count(walk: Conditioning, size: int, view: Optional[Split] = None) -> int:
    """Models over `size` variables of the walk's view, split as `view` if
    given, through the component walk with `split_count` splits."""

    def split(scope: Optional[list[Node]]) -> Split:
        return split_count(walk.inc, walk.mask, size, scope)

    count = walk.product(split(None) if view is None else view, split)
    if count is None:
        raise ContractError("the given set is not a strong backdoor")
    return count
