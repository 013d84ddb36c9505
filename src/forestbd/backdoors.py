"""Verification predicates for the three backdoor notions, and the cycle
branching search shared by the exact detectors.

A variable set is a deletion backdoor when removing its occurrences
leaves the incidence graph acyclic, a strong backdoor when every
assignment of it yields an acyclic restriction, and a weak backdoor when
some assignment yields an acyclic and satisfiable restriction.

A restriction or deletion is a `Residual`, a view of the formula's one
incidence graph. Every loop over the `2^|B|` assignments of a set runs
on one `Conditioning`: one removal mask, with an undo log, in an order
the caller gives. Loops whose answer depends on the order (the weak
witness, the strong exact search's first cyclic assignment) take the
variables ascending and walk the leaves with `first_leaf`,
lexicographic with False first; a caller's `dead` test skips a True
branch below which no leaf can hit. Strong verification and counting
through a strong backdoor are one component walk instead
(`Conditioning.product`), read two ways: a variable reaches only its own
component, so each cyclic component branches on its own best-connected
variable of the set (`first`), and independent components add their
branches instead of multiplying them. An acyclic component settles every
assignment of the variables left in it, since assigning only removes
nodes and a forest minus nodes is a forest. The walk caches each cyclic
component's sum by its node set, and fails at one that holds no variable
of the set: verification splits with factor 1, counting prices the trees.
"""

from __future__ import annotations

from operator import attrgetter
from typing import (
    AbstractSet,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    NamedTuple,
    Optional,
    TypeVar,
    Union,
)

from .acyclic import Split, _TreeTables
from .errors import ContractError, ResourceLimitError
from .formula import Assignment, Formula, _Frozen
from .graphs import (
    Cycle,
    IncidenceGraph,
    Node,
    PackingOrFeedback,
    cyclic_components,
    incidence_graph,
    shortest_cycle,
)
from .workers import ordered_map

MAX_VERIFY_VARIABLES = 30
# States one exact search may memoize; over the seed-1 and seed-11 benchmark
# plans the largest memo holds 131.
MAX_SEARCH_STATES = 10_000

S = TypeVar("S")
R = TypeVar("R")
# A backdoor found below a search state, with its witness assignment
# (empty unless the search assigns values).
Found = tuple[frozenset[int], Assignment]


class Residual(NamedTuple):
    """A restriction or deletion of a formula, as the view `inc` minus
    `removed`. Assigning or deleting a variable removes its node, so the
    free variables are those whose nodes the view keeps (`unassigned`)."""

    inc: IncidenceGraph
    removed: frozenset[Node]

    @classmethod
    def of(cls, formula: Formula) -> Residual:
        return cls(incidence_graph(formula), frozenset())

    def assign(self, variable: int, value: bool) -> Residual:
        """The view with `variable` set: its node and the clauses the value satisfies go."""
        return Residual(self.inc, self.removed.union(self.inc.removed_by(variable, value)))

    def unassigned(self) -> frozenset[int]:
        """Every variable id up to the largest whose node the view keeps."""
        m = self.inc.graph.clauses
        ids = range(1, len(self.inc.graph.nodes) - m + 1)
        return frozenset(ids).difference([n - m + 1 for n in self.removed if n >= m])

    def within(self, nodes: Iterable[Node]) -> Residual:
        """The view keeping only `nodes`: every other node goes."""
        return Residual(self.inc, frozenset(self.inc.graph.nodes).difference(nodes))

    def without(self, variables: Iterable[int]) -> Residual:
        """The deletion view: the variables' nodes go, every clause stays."""
        return Residual(self.inc, self.removed.union(map(self.inc.graph.var_node, variables)))

    def acyclic(self) -> bool:
        return self.inc.residual_acyclic(self.removed)

    def has_empty_clause(self, variable: Optional[int] = None) -> bool:
        """Whether a surviving clause (of `variable`, if given) lost every variable."""
        graph, gone = self.inc.graph, self.removed
        adjacency = graph.adjacency
        clauses = range(graph.clauses) if variable is None else adjacency[graph.var_node(variable)]
        return any(c not in gone and gone.issuperset(adjacency[c]) for c in clauses)


class Conditioning:
    """The assignments of a variable set, ascending, on one removal mask.

    `branches(place)` assigns the variable at that place False, then True.
    An assignment marks the variable's node and those clause nodes it
    satisfies that were not marked yet, and undoing it clears just those,
    so a step builds no view. `first_leaf` walks the places in order;
    `product` walks the connected components. A variable reaches only its
    own component, so the components of a view are independent. A walk
    serves one call: `cache` keeps the sum of each cyclic component met, by
    its node set, which fixes the component's view.
    """

    def __init__(self, residual: Residual, variables: Iterable[int]) -> None:
        self.inc = inc = residual.inc
        graph = inc.graph
        self.mask = graph.mask(residual.removed)
        self.cache: dict[frozenset[Node], Optional[int]] = {}
        ordered = sorted(variables)
        self.nodes = [graph.var_node(v) for v in ordered]
        # Per variable in order: the nodes each value removes, False first.
        self.gone = [[inc.removed_by(v, value) for value in (False, True)] for v in ordered]

    def first(self, component: AbstractSet[Node]) -> Optional[int]:
        """The place of the set's variable in `component` with the most
        non-pendant live clause neighbours, ties to the smallest id, or None
        when none is in it. A pendant clause keeps no other live variable."""
        places = [place for place, node in enumerate(self.nodes) if node in component]
        if len(places) < 2:
            return places[0] if places else None
        mask, adjacency, best = self.mask, self.inc.graph.adjacency, -1
        for place in places:  # ascending, so ties keep the smallest id
            node, joins = self.nodes[place], 0
            for clause in adjacency[node]:
                if not mask[clause]:
                    for other in adjacency[clause]:
                        if not mask[other] and other != node:
                            joins += 1
                            break
            if joins > best:
                chosen, best = place, joins
        return chosen

    def branches(self, place: int) -> Iterator[bool]:
        """Assign the variable at `place` False, then True, and yield each
        value while its nodes stay marked."""
        mask = self.mask
        for value, nodes in zip((False, True), self.gone[place]):
            marked = [node for node in nodes if not mask[node]]
            for node in marked:
                mask[node] = 1
            try:
                yield value
            finally:
                for node in marked:
                    mask[node] = 0

    def product(
        self, view: Split, split: Callable[[Optional[list[Node]]], Split]
    ) -> Optional[int]:
        """The factor of a split view times, per cyclic component, the sum
        over both values of the component's `first` variable of the product
        of `split(nodes)`, its node list split again under that value. None
        once a cyclic component holds no variable of the set: a failure
        ends the walk at once, a zero does not, so every component is
        checked. Each component's sum is cached by its node set."""
        factor, cyclic = view
        cache = self.cache
        for nodes in cyclic:
            key = frozenset(nodes)
            if key not in cache:
                place = self.first(key)
                total: Optional[int] = None
                if place is not None:
                    total = 0
                    for part in ordered_map(
                        lambda value: self.product(split(nodes), split), self.branches(place)
                    ):
                        if part is None:
                            total = None
                            break
                        total += part
                cache[key] = total
            total = cache[key]
            if total is None:
                return None
            factor *= total
        return factor


def first_leaf(
    walk: Conditioning,
    hit: Callable[[list[bool]], Optional[R]],
    dead: Callable[[list[bool]], bool],
) -> Optional[R]:
    """The first non-None `hit(values)` over the walk's leaves, in
    lexicographic order with False first; `values` holds the values of the
    walk's variables in its order, and the mask marks what they remove.

    The walk reaches the first leaf below a prefix without testing the
    prefix. Before it enters a variable's True branch, except at the last
    variable, it asks `dead(values)` with that True assigned and skips the
    branch when no leaf below it can hit."""
    last = len(walk.nodes)
    values: list[bool] = []

    def descend() -> Optional[R]:
        place = len(values)
        if place == last:
            return hit(values)
        for value in walk.branches(place):
            values.append(value)
            if not (value and place + 1 < last and dead(values)):
                found = descend()
                if found is not None:
                    return found
            values.pop()
        return None

    try:
        return descend()
    finally:
        del descend  # a recursive closure is a reference cycle


class BackdoorVerdict(_Frozen):
    """Outcome of a detection run.

    `found` with a variable set (and, for weak detection, the witness
    assignment over it), or a certificate that no backdoor of size at most
    `budget` exists under the detector's stated guarantee. Verdicts compare
    and hash by `found`, `variables` and `budget` alone.
    """

    found: bool
    variables: frozenset[int]
    budget: int
    witness: Optional[Assignment]
    # The packing-or-feedback split the detector routed on, if it made one.
    split: Optional[PackingOrFeedback]
    _compared = attrgetter("found", "variables", "budget")

    def __init__(
        self,
        found: bool,
        variables: frozenset[int],
        budget: int,
        witness: Optional[Assignment] = None,
        split: Optional[PackingOrFeedback] = None,
    ) -> None:
        fields = self.__dict__
        fields["found"] = found
        fields["variables"] = variables
        fields["budget"] = budget
        fields["witness"] = witness
        fields["split"] = split

    def __repr__(self) -> str:
        return (
            f"BackdoorVerdict({self.found!r}, {self.variables!r}, {self.budget!r}, "
            f"witness={self.witness!r})"
        )

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
    return Residual.of(formula).without(candidate).acyclic()


def is_strong_backdoor(formula: Formula, variables: Iterable[int]) -> bool:
    """Whether every assignment of the set leaves an acyclic restriction:
    every cyclic component of the formula must hold a variable of the set
    whose both values leave the component's rest strong in turn."""
    candidate = frozenset(variables)
    _check_candidate(formula, candidate)
    _guard_size(candidate)
    walk = Conditioning(Residual.of(formula), candidate)

    def split(scope: Optional[list[Node]]) -> Split:
        return 1, cyclic_components(walk.inc.graph, bytearray(walk.mask), scope)

    return walk.product(split(None), split) is not None


def weak_backdoor_witness(
    formula: Formula, variables: Iterable[int]
) -> Optional[Assignment]:
    """The lexicographically first assignment of the set whose restriction
    is acyclic and satisfiable, or None."""
    candidate = frozenset(variables)
    _check_candidate(formula, candidate)
    _guard_size(candidate)
    ordered = sorted(candidate)
    walk = Conditioning(Residual.of(formula), ordered)

    def trees() -> _TreeTables:
        # One traversal folds the trees and lists the cyclic components.
        return _TreeTables(walk.inc, bytearray(walk.mask))

    def hit(values: list[bool]) -> Optional[Assignment]:
        tables = trees()
        if tables.cyclic or not tables.satisfiable():
            return None
        return dict(zip(ordered, values))

    adjacency = walk.inc.graph.adjacency
    # The core keeps only the variables outside the set, and a cycle of the
    # bipartite incidence graph passes through two variable nodes at least.
    cores = len(formula.universe) - len(candidate) >= 2

    def dead(values: list[bool]) -> bool:
        # Assigning more only removes nodes: unsatisfiable trees stay so, and
        # a cyclic component holding no variable left stays cyclic.
        tables = trees()
        if not tables.satisfiable():
            return True
        if not tables.cyclic:
            return False
        left = walk.nodes[len(values):]
        held = set(left)
        if any(held.isdisjoint(nodes) for nodes in tables.cyclic):
            return True
        if not cores:
            return False
        # The core: the view minus each variable left and every clause next
        # to one. An extension removes only nodes of those, so a cycle of the
        # core survives every leaf below.
        core = bytearray(walk.mask)
        for node in left:
            core[node] = 1
            for clause in adjacency[node]:
                core[clause] = 1
        return bool(cyclic_components(walk.inc.graph, core, limit=0))

    return first_leaf(walk, hit, dead)


def restriction_is_acyclic(formula: Formula, assignment: Mapping[int, bool]) -> bool:
    """Whether the formula restricted by `assignment` is acyclic, decided on
    its incidence graph without rebuilding the restriction."""
    extra = sorted(v for v in assignment if v not in formula.universe)
    if extra:
        raise ContractError(f"assignment mentions variables outside universe: {extra}")
    inc = incidence_graph(formula)
    removed = [node for v, value in assignment.items() for node in inc.removed_by(v, value)]
    return Residual(inc, frozenset(removed)).acyclic()


# A notion's kill relation: the pool variables some backdoor use of which removes the
# cycle, on it (internal) or off it (external). Every backdoor holds a killer of each cycle.
Killers = Callable[[IncidenceGraph, Cycle, AbstractSet[int]], frozenset[int]]


def weak_killers(inc: IncidenceGraph, cycle: Cycle, pool: AbstractSet[int]) -> frozenset[int]:
    """Pool variables in one of the cycle's clauses: a value satisfying
    that clause removes the cycle. The cycle's own variables are among
    them, since each lies between two of its clauses."""
    return frozenset(
        variable
        for index in cycle.clause_indices
        for variable in map(abs, inc.literals[index])
        if variable in pool
    )


def opposite_signs(inc: IncidenceGraph, clauses: Iterable[int]) -> frozenset[int]:
    """The variables with opposite signs in two of the given clauses:
    either value of such a variable satisfies (and removes) one of the two."""
    literals = {lit for index in clauses for lit in inc.literals[index]}
    # No clause holds both signs of a variable, so the two come from two clauses.
    return frozenset(lit for lit in literals if lit > 0 and -lit in literals)


def strong_killers(inc: IncidenceGraph, cycle: Cycle, pool: AbstractSet[int]) -> frozenset[int]:
    """Pool variables on the cycle, or with opposite signs in two of its
    clauses (`opposite_signs`): no restriction of such a variable keeps
    the whole cycle."""
    return cycle.variable_set.union(opposite_signs(inc, cycle.clause_indices)).intersection(pool)


def deletion_killers(inc: IncidenceGraph, cycle: Cycle, pool: AbstractSet[int]) -> frozenset[int]:
    """Pool variables on the cycle: deleting any other keeps the cycle whole."""
    return cycle.variable_set.intersection(pool)


def branch_on_cycles(
    root: S,
    settle: Callable[[S], Union[Found, None, Residual]],
    moves: Callable[[S, Residual, Cycle], Iterable[tuple[S, int, Optional[bool]]]],
) -> Optional[Found]:
    """Memoized search that branches on the canonical shortest cycle.

    `settle(state)` ends a branch with a found pair or None, or returns
    the `Residual` view of a formula that still has a cycle.
    `moves(state, residual, cycle)` then lists, in search order, the
    branches (child, variable, value) that can remove the view's canonical
    shortest cycle. The first child that finds a backdoor adds its
    variable to it, and the value to the witness unless the value is
    None. States are memoized, so they must be hashable. Raises
    ResourceLimitError rather than expand a state once MAX_SEARCH_STATES
    are memoized.
    """
    memo: dict[S, Optional[Found]] = {}

    def search(state: S) -> Optional[Found]:
        if state not in memo:
            if len(memo) >= MAX_SEARCH_STATES:
                raise ResourceLimitError(
                    f"refusing to search more than {MAX_SEARCH_STATES} states"
                )
            memo[state] = expand(state)
        return memo[state]

    def expand(state: S) -> Optional[Found]:
        settled = settle(state)
        if not isinstance(settled, Residual):
            return settled
        cycle = shortest_cycle(settled.inc.graph, forbidden=settled.removed)
        assert cycle is not None
        for child, variable, value in moves(state, settled, cycle):
            found = search(child)
            if found is not None:
                variables, witness = found
                if value is not None:
                    witness = {**witness, variable: value}
                return variables | {variable}, witness
        return None

    try:
        return search(root)
    finally:
        # Unbound, the two closures and the memo go with the call instead
        # of waiting in a reference cycle for the collector.
        del search, expand
