"""CNF data model and DIMACS round-tripping.

A literal is a nonzero DIMACS int and a clause keeps its literals sorted
by variable, so every formula has one canonical form. All values are
immutable; every transformation returns a new formula. Clause positions
act as stable identifiers: restriction and variable deletion keep
surviving clauses in their original relative order, and variable deletion
keeps even emptied clauses, so downstream graph code can name clauses by
index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Mapping

from .errors import ContractError, DimacsError, ResourceLimitError

# Partial truth assignment: variable id -> value.
Assignment = Dict[int, bool]

# The universe {1..n} is built from the header alone, so n is capped.
MAX_DIMACS_VARIABLES = 1_000_000


@dataclass(frozen=True)
class Clause:
    """A disjunction of DIMACS literals over pairwise distinct variables.

    `literals` holds nonzero ints strictly increasing by variable: the sign
    is the polarity and `abs(l)` the variable. So a clause never contains a
    complementary pair, and equal clauses have equal tuples.
    """

    literals: tuple[int, ...]

    def __post_init__(self) -> None:
        previous = 0
        for lit in self.literals:
            if not isinstance(lit, int) or lit == 0:
                raise ContractError(f"{lit!r} is not a literal")
            if abs(lit) <= abs(previous):
                if lit == -previous:
                    raise ContractError(
                        f"clause contains variable {abs(lit)} with both polarities"
                    )
                raise ContractError(
                    f"literals {self.literals!r} do not strictly increase by variable"
                )
            previous = lit

    @classmethod
    def from_ints(cls, values: Iterable[int]) -> Clause:
        """The clause of `values`, deduplicated and sorted by variable."""
        return cls(tuple(sorted(set(values), key=abs)))

    @cached_property
    def variables(self) -> frozenset[int]:
        return frozenset(abs(lit) for lit in self.literals)

    def polarity(self, variable: int) -> bool | None:
        """Polarity of `variable` in this clause, or None if absent."""
        for lit in self.literals:
            if abs(lit) == variable:
                return lit > 0
        return None

    def satisfied_by(self, assignment: Mapping[int, bool]) -> bool:
        return any(
            abs(lit) in assignment and assignment[abs(lit)] == (lit > 0)
            for lit in self.literals
        )

    def sorted_ints(self) -> tuple[int, ...]:
        return self.literals

    def __len__(self) -> int:
        return len(self.literals)

    def __repr__(self) -> str:
        return "Clause(" + " ".join(str(v) for v in self.literals) + ")"


@dataclass(frozen=True)
class Formula:
    """A CNF formula: an ordered clause list over an explicit universe.

    The universe may be a strict superset of the occurring variables;
    counting operations take it as the set of variables an assignment
    ranges over.
    """

    clauses: tuple[Clause, ...]
    universe: frozenset[int]

    def __post_init__(self) -> None:
        for v in self.universe:
            if not isinstance(v, int) or v < 1:
                raise ContractError(f"universe contains invalid variable id {v!r}")
        occurring = frozenset(v for c in self.clauses for v in c.variables)
        if not occurring <= self.universe:
            missing = sorted(occurring - self.universe)
            raise ContractError(f"clauses mention variables outside universe: {missing}")

    @classmethod
    def from_ints(
        cls, clauses: Iterable[Iterable[int]], num_vars: int | None = None
    ) -> Formula:
        built = tuple(Clause.from_ints(c) for c in clauses)
        if num_vars is None:
            universe = frozenset(v for c in built for v in c.variables)
        else:
            universe = frozenset(range(1, num_vars + 1))
        return cls(built, universe)

    @cached_property
    def variables(self) -> frozenset[int]:
        """Variables with at least one occurrence."""
        return frozenset(v for c in self.clauses for v in c.variables)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def max_clause_width(self) -> int:
        return max((len(c) for c in self.clauses), default=0)

    def restrict(self, assignment: Mapping[int, bool]) -> Formula:
        """Apply a partial assignment: drop satisfied clauses, strip false
        literals, shrink the universe by the assigned variables."""
        extra = set(assignment) - self.universe
        if extra:
            raise ContractError(
                f"assignment mentions variables outside universe: {sorted(extra)}"
            )
        kept: list[Clause] = []
        for clause in self.clauses:
            remaining: list[int] = []
            for lit in clause.literals:
                variable = abs(lit)
                if variable not in assignment:
                    remaining.append(lit)
                elif assignment[variable] == (lit > 0):
                    break
            else:
                kept.append(Clause(tuple(remaining)))
        return Formula(tuple(kept), self.universe - set(assignment))

    def without_variables(self, variables: Iterable[int]) -> Formula:
        """Delete every occurrence of the given variables; clauses are kept
        (possibly emptied) and the universe shrinks."""
        removed = frozenset(variables)
        extra = removed - self.universe
        if extra:
            raise ContractError(
                f"deletion set outside universe: {sorted(extra)}"
            )
        stripped = tuple(
            Clause(tuple(l for l in c.literals if abs(l) not in removed))
            for c in self.clauses
        )
        return Formula(stripped, self.universe - removed)

    def satisfied_by(self, assignment: Mapping[int, bool]) -> bool:
        return all(c.satisfied_by(assignment) for c in self.clauses)

    def __repr__(self) -> str:
        return f"Formula({self.num_clauses} clauses over {len(self.universe)} vars)"


def parse_dimacs(text: str) -> Formula:
    """Parse DIMACS CNF text into a Formula.

    The universe is {1..n} from the header. Duplicate literals inside a
    clause collapse; a clause holding a variable with both polarities is
    rejected.
    """
    header: tuple[int, int] | None = None
    body_tokens: list[str] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        # int() would also read Python's `1_0`, `+1` and non-ASCII digits.
        if "_" in stripped or "+" in stripped or not stripped.isascii():
            raise DimacsError(f"line {line_no}: not plain decimal integers: {stripped!r}")
        if stripped.startswith("p"):
            if header is not None:
                raise DimacsError(f"line {line_no}: duplicate header")
            parts = stripped.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"line {line_no}: malformed header {stripped!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {line_no}: malformed header {stripped!r}") from exc
            if n < 0 or m < 0:
                raise DimacsError(f"line {line_no}: negative counts in header")
            if n > MAX_DIMACS_VARIABLES:
                raise ResourceLimitError(
                    f"line {line_no}: header declares {n} variables "
                    f"(limit {MAX_DIMACS_VARIABLES})"
                )
            header = (n, m)
            continue
        if header is None:
            raise DimacsError(f"line {line_no}: clause data before header")
        body_tokens.extend(stripped.split())
    if header is None:
        raise DimacsError("missing 'p cnf' header")
    n, m = header

    clauses: list[Clause] = []
    current: list[int] = []
    for token in body_tokens:
        try:
            value = int(token)
        except ValueError as exc:
            raise DimacsError(f"non-integer token {token!r} in clause data") from exc
        if value == 0:
            try:
                clauses.append(Clause.from_ints(current))
            except ContractError as exc:
                raise DimacsError(f"clause {len(clauses) + 1}: {exc}") from exc
            current = []
            continue
        if abs(value) > n:
            raise DimacsError(
                f"literal {value} exceeds declared variable count {n}"
            )
        current.append(value)
    if current:
        raise DimacsError("unterminated clause at end of input")
    if len(clauses) != m:
        raise DimacsError(f"header declares {m} clauses, found {len(clauses)}")
    return Formula(tuple(clauses), frozenset(range(1, n + 1)))


def emit_dimacs(formula: Formula) -> str:
    """Serialize to DIMACS CNF.

    The declared variable count is the largest universe id, so parsing the
    output reproduces the universe exactly whenever it is contiguous from 1
    (true for every generator in this package).
    """
    n = max(formula.universe, default=0)
    lines = [f"p cnf {n} {formula.num_clauses}"]
    for clause in formula.clauses:
        lines.append(" ".join(map(str, (*clause.literals, 0))))
    return "\n".join(lines) + "\n"
