"""Exact detection of weak backdoor sets for bounded-width CNF.

The detector routes on a cycle packing dichotomy. When the incidence
graph holds few disjoint cycles, an exact memoized branch over cycle
variables and adjacent outside variables decides the question outright.
When it holds many, every way of designating which packed cycles a
backdoor may touch directly is examined; the remaining cycles must be
removed from outside, and selection rules either produce a small
variable set that every conforming backdoor intersects or certify that
none exists. Branching on that set with a reduced budget keeps the
search fixed-parameter sized. `packing_route` runs this route for weak
and strong detection alike, given a notion's inputs as a `Route`. Every
branch assigns a variable on a `backdoors.Residual`, a view of the
formula's one incidence graph that holds only the nodes it removes, so a
memoized state stays small. The exact branch prunes a residual whose
cyclic components outnumber the budget left: a variable reaches only its
own component. Each of its states makes one component pass, which stops
at the first cycle past that budget.

Hopeless cycles are settled once per packing. A packed cycle that no
unassigned outside variable can kill under the rule's own killer test
can be killed by no designation's pool either, so every designation
leaving it external selects nothing; `candidate_pool` enumerates only the
designations that hold every hopeless cycle internal.

Rule identifiers (in application order):
  unkillable-cycle       some designated-external cycle has no pool
                         variable adjacent to its clauses; empty selection.
                         Under `candidate_pool` such variables exist, but
                         all lie outside the designation's pool
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
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
)

from .acyclic import residual_satisfiable
from .backdoors import BackdoorVerdict, Residual, branch_on_cycles, external_killers
from .errors import ContractError, ResourceLimitError
from .formula import Assignment, Formula
from .graphs import (
    Cycle,
    FeedbackSet,
    IncidenceGraph,
    cyclic_components,
    disjoint_cycles_or_feedback,
)
from .workers import first_hit

if TYPE_CHECKING:
    from .strong import StrongParameters

# Strong detection at budget 4 already has C(133, 4), about 1.2e7.
MAX_DESIGNATIONS = 100_000


class WeakParameters(NamedTuple):
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


class KillChoice(NamedTuple):
    """One way of designating which packed cycles a backdoor may touch
    directly; all others must be removed from outside, so their variables
    are barred from the pool."""

    internal: tuple[Cycle, ...]
    external: tuple[Cycle, ...]
    pool: frozenset[int]


class RuleOutcome(NamedTuple):
    rule: str
    selected: frozenset[int]


def weak_rule_outcome(
    inc: IncidenceGraph, choice: KillChoice, params: WeakParameters
) -> RuleOutcome:
    """Apply the first matching selection rule to one designation.

    The outcome's set intersects every weak backdoor within the pool of
    size at most the budget; an empty set certifies that none exists.
    """
    killer_sets = [external_killers(inc, c, choice.pool) for c in choice.external]
    if any(not ks for ks in killer_sets):
        return RuleOutcome("unkillable-cycle", frozenset())

    k = params.budget
    dominant: Optional[int] = None
    for cycle, ks in zip(choice.external, killer_sets):
        # A killer's weight: the number of the cycle's clauses it occurs in.
        w = {v: sum(inc.sign(v, i) is not None for i in cycle.clause_indices) for v in ks}
        champion = max(w, key=lambda v: (w[v], -v))
        if w[champion] < params.multi:
            continue
        heavy = frozenset(v for v, c in w.items() if 2 * k * c >= w[champion])
        if len(heavy) <= params.support:
            return RuleOutcome("concentrated-killers", heavy)
        if dominant is None:
            dominant = champion
    if dominant is not None:
        # No heavy cycle is concentrated, so each has more than `support` near-peers.
        return RuleOutcome("dominant-killer", frozenset({dominant}))

    shared: set[int] = set()
    for first, second in itertools.combinations(killer_sets, 2):
        common = first & second
        if len(common) >= params.overlap:
            return RuleOutcome("killer-overlap-excess", frozenset())
        shared |= common
    return RuleOutcome("shared-killers", frozenset(shared))


def designations(
    rule: Callable[..., RuleOutcome],
    residual: Residual,
    packing: Sequence[Cycle],
    params: WeakParameters | StrongParameters,
    required: Iterable[int] = (),
) -> Iterator[tuple[KillChoice, RuleOutcome]]:
    """Every way of designating `params.budget` of the first
    `params.cycles` packed cycles as internal, in lexicographic order of
    their indices, with the outcome of the selection `rule` (weak or
    strong) on it. Given `required` packed-cycle indices, only the
    designations holding all of them internal, in the same order; none
    when there are more than the budget. Raises ResourceLimitError,
    before the first one, when C(cycles, budget) exceeds MAX_DESIGNATIONS,
    whatever is required."""
    if len(packing) < params.cycles:
        raise ContractError(
            f"need {params.cycles} disjoint cycles, got {len(packing)}"
        )
    total = math.comb(params.cycles, params.budget)
    if total > MAX_DESIGNATIONS:
        raise ResourceLimitError(
            f"refusing to enumerate {total} designations (limit {MAX_DESIGNATIONS})"
        )
    needed = frozenset(required)
    if len(needed) > params.budget:
        return
    base = tuple(packing[: params.cycles])
    cycle_variables = [c.variable_set for c in base]
    # The packed cycles are disjoint, so the unassigned variables minus the
    # external cycles' ones are the free variables plus the internal ones.
    free = residual.unassigned().difference(*cycle_variables)
    # Sets of one size holding `needed` sort as their other members do.
    others = [i for i in range(params.cycles) if i not in needed]
    for chosen in itertools.combinations(others, params.budget - len(needed)):
        indices = sorted(needed.union(chosen))
        internal = tuple(base[i] for i in indices)
        # The runs between internal cycles: the external ones in packing
        # order, which the rules' first-match tie-breaks read.
        bounds = (-1, *indices, params.cycles)
        external: tuple[Cycle, ...] = ()
        for before, after in zip(bounds, bounds[1:]):
            external += base[before + 1 : after]
        pool = free.union(*[cycle_variables[i] for i in indices])
        choice = KillChoice(internal, external, pool)
        yield choice, rule(residual.inc, choice, params)


def candidate_pool(
    rule: Callable[..., RuleOutcome],
    killers: Callable[[IncidenceGraph, Cycle, AbstractSet[int]], frozenset[int]],
    residual: Residual,
    packing: Sequence[Cycle],
    params: WeakParameters | StrongParameters,
) -> frozenset[int]:
    """Union of rule selections over every designation; every backdoor
    within budget intersects it, and an empty union certifies none exists.

    `killers` is the rule's own first test: the rule selects nothing when
    an external cycle has no killers in the pool. A packed cycle with none
    among all unassigned variables is hopeless: every designation's pool
    lies within those, so a designation leaving it external adds nothing,
    and only the designations holding every hopeless cycle internal run
    (none when more than the budget are hopeless)."""
    inc, unassigned = residual.inc, residual.unassigned()
    cycles = packing[: params.cycles]
    hopeless = [i for i, cycle in enumerate(cycles) if not killers(inc, cycle, unassigned)]
    pool: set[int] = set()
    for _, outcome in designations(rule, residual, packing, params, hopeless):
        pool |= outcome.selected
    return frozenset(pool)


class Route(NamedTuple):
    """One backdoor notion's inputs to `packing_route`. `forest` tells
    whether a forest view has a backdoor, with its witness if the notion
    has one. A branch on a pool variable finds when each value of its
    group in `values` finds: a group per value, or both values in one."""

    forest: Callable[[Residual], tuple[bool, Optional[Assignment]]]
    derive: Callable[[int], WeakParameters | StrongParameters]
    exact: Callable[[Residual, int], BackdoorVerdict]
    rule: Callable[..., RuleOutcome]
    killers: Callable[[IncidenceGraph, Cycle, AbstractSet[int]], frozenset[int]]
    values: tuple[tuple[bool, ...], ...]


def packing_route(route: Route, residual: Residual, budget: int) -> BackdoorVerdict:
    """Weak or strong detection on a residual view: a forest check, budget
    0, then the packing-or-feedback dichotomy, with the exact search on a
    feedback set and a branch on the rules' candidate pool on a packing.
    Each verdict carries the split it routed on."""
    if residual.acyclic():
        # On a forest the dichotomy returns the empty feedback set.
        split = FeedbackSet(frozenset()) if budget else None
        found, witness = route.forest(residual)
        return BackdoorVerdict(found, frozenset(), budget, witness, split)
    if budget == 0:
        return BackdoorVerdict.no(0)
    params = route.derive(budget)
    split = disjoint_cycles_or_feedback(residual.inc.graph, params.cycles, residual.removed)
    if isinstance(split, FeedbackSet):
        exact = route.exact(residual, budget)
        return BackdoorVerdict(exact.found, exact.variables, budget, exact.witness, split)
    pool = candidate_pool(route.rule, route.killers, residual, split.cycles, params)

    def explore(branch: tuple[int, tuple[bool, ...]]) -> Optional[BackdoorVerdict]:
        candidate, values = branch
        variables, witness = frozenset({candidate}), None
        for value in values:
            sub = packing_route(route, residual.assign(candidate, value), budget - 1)
            if not sub.found:
                return None
            variables |= sub.variables
            # A weak branch's one value joins its witness; strong verdicts have none.
            witness = None if sub.witness is None else {**sub.witness, candidate: value}
        return BackdoorVerdict.yes(variables, budget, witness, split)

    hit = first_hit(explore, [(s, values) for s in sorted(pool) for values in route.values])
    return hit if hit is not None else BackdoorVerdict.no(budget, split)


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
    route = Route(
        lambda view: (True, {}) if residual_satisfiable(view.inc, view.removed) else (False, None),
        lambda size: WeakParameters.derive(size, width),
        _weak_exact_search,
        weak_rule_outcome,  # read per call, so that bench/tracer.py's patch counts it
        external_killers,
        ((False,), (True,)),
    )
    return packing_route(route, Residual.of(formula), budget)


def weak_exact_search(formula: Formula, budget: int) -> BackdoorVerdict:
    """Exact weak backdoor search by cycle branching, memoized on the
    residual view of the formula's one incidence graph.

    Any weak backdoor must remove the chosen cycle: either it assigns one
    of the cycle's variables, or it satisfies one of the cycle's clauses
    through an adjacent outside variable. Sound and complete for every
    budget and width.
    """
    if budget < 0:
        raise ContractError(f"budget must be >= 0, got {budget}")
    return _weak_exact_search(Residual.of(formula), budget)


def _weak_exact_search(root: Residual, budget: int) -> BackdoorVerdict:
    # Restriction never removes an empty clause, so no witness can satisfy it.
    if root.has_empty_clause():
        return BackdoorVerdict.no(budget)
    graph = root.inc.graph

    def settle(state: tuple[Residual, int]):
        residual, remaining = state
        # Each cyclic component needs a variable of its own.
        components = cyclic_components(graph, graph.mask(residual.removed), limit=remaining)
        if components:
            return residual if len(components) <= remaining else None
        return (frozenset(), {}) if residual_satisfiable(residual.inc, residual.removed) else None

    def moves(state: tuple[Residual, int], residual: Residual, cycle: Cycle):
        candidates = external_killers(residual.inc, cycle, residual.unassigned()).union(
            cycle.variables
        )
        for candidate in sorted(candidates):
            for value in (False, True):
                child = residual.assign(candidate, value)
                if not child.has_empty_clause(candidate):  # only its clauses can empty
                    yield (child, state[1] - 1), candidate, value

    result = branch_on_cycles((root, budget), settle, moves)
    if result is None:
        return BackdoorVerdict.no(budget)
    variables, witness = result
    return BackdoorVerdict.yes(variables, budget, witness)
