"""CNF data model and DIMACS round-tripping.

A literal is a nonzero DIMACS int and a clause keeps its literals sorted
by variable, so every formula has one canonical form. All values are
immutable; every transformation returns a new formula. Clause positions
act as stable identifiers: restriction and variable deletion keep
surviving clauses in their original relative order, and variable deletion
keeps even emptied clauses, so downstream graph code can name clauses by
index. A parsed formula keeps each clause as its plain literal tuple and
builds `Clause` objects only when they are read.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter
from typing import Dict, Iterable, Mapping

from .errors import ContractError, DimacsError, ResourceLimitError

# Partial truth assignment: variable id -> value.
Assignment = Dict[int, bool]

# The universe {1..n} is built from the header alone, so n is capped.
MAX_DIMACS_VARIABLES = 1_000_000


class _Frozen:
    """Base of the package's immutable value types: assigning or deleting
    an attribute raises AttributeError, so a constructor sets its fields on
    the instance `__dict__` or through `object.__setattr__`. Values of one
    type compare and hash by the tuple `_compared` reads off them."""

    __slots__ = ()
    _compared: attrgetter

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __hash__(self) -> int:
        return hash(self._compared(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Clause(_Frozen):
    """A disjunction of DIMACS literals over pairwise distinct variables.

    `literals` holds nonzero ints strictly increasing by variable: the sign
    is the polarity and `abs(l)` the variable. So a clause never contains a
    complementary pair, and equal clauses have equal tuples.
    """

    __slots__ = ("literals",)
    literals: tuple[int, ...]
    _compared = attrgetter("literals")

    def __init__(self, literals: tuple[int, ...]) -> None:
        previous = 0
        for lit in literals:
            if not isinstance(lit, int) or lit == 0:
                raise ContractError(f"{lit!r} is not a literal")
            if abs(lit) <= abs(previous):
                if lit == -previous:
                    raise ContractError(
                        f"clause contains variable {abs(lit)} with both polarities"
                    )
                raise ContractError(
                    f"literals {literals!r} do not strictly increase by variable"
                )
            previous = lit
        object.__setattr__(self, "literals", literals)

    def __hash__(self) -> int:
        return hash((self.literals,))

    def __reduce__(self) -> tuple:
        return Clause, (self.literals,)

    @classmethod
    def from_ints(cls, values: Iterable[int]) -> Clause:
        """The clause of `values`, deduplicated and sorted by variable."""
        return cls(tuple(sorted(set(values), key=abs)))

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


class Formula(_Frozen):
    """A CNF formula: an ordered clause list over an explicit universe.

    The universe may be a strict superset of the occurring variables;
    counting operations take it as the set of variables an assignment
    ranges over. Formulas compare and hash by clauses and universe.
    `literals` holds each clause's literal tuple. `parse_dimacs` keeps only
    those, and builds the `Clause` objects on first read of `clauses`; a
    formula built in Python keeps its clauses and derives `literals`.
    """

    universe: frozenset[int]
    # True when `parse_dimacs` built every clause exactly as its text wrote
    # it, variables strictly increasing; False for any other construction.
    as_written: bool = False
    _compared = attrgetter("clauses", "universe")

    def __init__(self, clauses: tuple[Clause, ...], universe: frozenset[int]) -> None:
        fields = self.__dict__
        fields["clauses"] = clauses
        fields["universe"] = universe
        if not all(map(isinstance, universe, repeat(int))) or min(universe, default=1) < 1:
            for v in universe:
                if not isinstance(v, int) or v < 1:
                    raise ContractError(f"universe contains invalid variable id {v!r}")
        occurring = self.variables
        if not occurring <= universe:
            missing = sorted(occurring - universe)
            raise ContractError(f"clauses mention variables outside universe: {missing}")

    @cached_property
    def clauses(self) -> tuple[Clause, ...]:
        """The clauses of a formula `parse_dimacs` built, from its literal
        tuples on first read, without the check in `Clause.__init__`: the
        parse checked or canonicalized every tuple."""
        new, put = object.__new__, object.__setattr__
        clauses = []
        for literals in self.literals:
            clause = new(Clause)
            put(clause, "literals", literals)
            clauses.append(clause)
        return tuple(clauses)

    @cached_property
    def literals(self) -> tuple[tuple[int, ...], ...]:
        """Each clause's literal tuple, in clause order: what the graph
        build, the statistics and `emit_dimacs` read."""
        return tuple(map(attrgetter("literals"), self.clauses))

    @cached_property
    def variables(self) -> frozenset[int]:
        """The variables with at least one occurrence, computed on first
        read: at construction for a formula built in Python, whose
        constructor checks them against the universe, and only when
        read for one `parse_dimacs` built."""
        return frozenset(map(abs, chain.from_iterable(self.literals)))

    def occurs_within(self, target: frozenset[int]) -> bool:
        """Whether `target` holds every occurring variable. A target that
        holds the universe does, so `variables` is built only for one that
        does not."""
        return target is self.universe or self.universe <= target or self.variables <= target

    @classmethod
    def from_ints(
        cls, clauses: Iterable[Iterable[int]], num_vars: int | None = None
    ) -> Formula:
        built = tuple(Clause.from_ints(c) for c in clauses)
        if num_vars is None:
            universe = frozenset(abs(lit) for c in built for lit in c.literals)
        else:
            universe = frozenset(range(1, num_vars + 1))
        return cls(built, universe)

    @property
    def num_clauses(self) -> int:
        return len(self.literals)

    @cached_property
    def length_and_width(self) -> tuple[int, int]:
        """The literal occurrences and the widest clause's width, computed
        on first read."""
        widths = list(map(len, self.literals))
        return sum(widths), max(widths, default=0)

    def max_clause_width(self) -> int:
        return self.length_and_width[1]

    def restrict(self, assignment: Mapping[int, bool]) -> Formula:
        """Apply a partial assignment: drop satisfied clauses, strip false
        literals, shrink the universe by the assigned variables."""
        extra = set(assignment) - self.universe
        if extra:
            raise ContractError(
                f"assignment mentions variables outside universe: {sorted(extra)}"
            )
        kept: list[Clause] = []
        for literals in self.literals:
            remaining: list[int] = []
            for lit in literals:
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
            Clause(tuple(l for l in literals if abs(l) not in removed))
            for literals in self.literals
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
    rejected. Errors naming a line come first, in line order; then those
    naming a clause or token, in input order.

    One look at the whole text finds what `int` would read beyond plain
    decimal integers (`1_0`, `+1`, non-ASCII digits). The lines after the
    header are read one at a time only when that look finds something,
    to name the line, or when they may hold comments or a second header;
    otherwise they are split as one text.
    """
    suspect = "_" in text or "+" in text or not text.isascii()
    lines = text.splitlines()
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("c"):
            break
    else:
        raise DimacsError("missing 'p cnf' header")
    if suspect:
        _check_plain(line_no, stripped)
    if not stripped.startswith("p"):
        raise DimacsError(f"line {line_no}: clause data before header")
    n, m = _read_header(line_no, stripped)
    body = "\n".join(lines[line_no:])
    if suspect or "c" in body or "p" in body:
        tokens = _body_tokens(lines, line_no, suspect)
    else:
        tokens = body.split()
    del lines, body
    values, token_error = _literal_values(tokens, n)
    del tokens
    # Split the values at each 0, noting whether every clause writes its
    # variables strictly increasing: then each is canonical as written and
    # is kept as it is; else `Clause.from_ints` checks each.
    spans: list[tuple[int, ...]] = []
    current: list[int] = []
    canonical = True
    last = 0
    for value in values:
        if value:
            variable = abs(value)
            if variable <= last:
                canonical = False
            last = variable
            current.append(value)
        else:
            spans.append(tuple(current))
            current = []
            last = 0
    if not canonical:
        for index, literals in enumerate(spans):
            try:
                spans[index] = Clause.from_ints(literals).literals
            except ContractError as exc:
                raise DimacsError(f"clause {index + 1}: {exc}") from exc
    if token_error is not None:
        raise token_error
    if current:
        raise DimacsError("unterminated clause at end of input")
    if len(spans) != m:
        raise DimacsError(f"header declares {m} clauses, found {len(spans)}")
    # `_literal_values` bounded every literal by n, so the universe covers
    # the clauses and the formula is built without the check in
    # `Formula.__init__`. It keeps the literal tuples only.
    formula, put = object.__new__(Formula), object.__setattr__
    put(formula, "literals", tuple(spans))
    put(formula, "universe", frozenset(range(1, n + 1)))
    put(formula, "as_written", canonical)
    return formula


def _check_plain(line_no: int, stripped: str) -> None:
    # int() would also read Python's `1_0`, `+1` and non-ASCII digits.
    if "_" in stripped or "+" in stripped or not stripped.isascii():
        raise DimacsError(f"line {line_no}: not plain decimal integers: {stripped!r}")


def _read_header(line_no: int, stripped: str) -> tuple[int, int]:
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
            f"line {line_no}: header declares {n} variables (limit {MAX_DIMACS_VARIABLES})"
        )
    return n, m


def _body_tokens(lines: list[str], header_line: int, suspect: bool) -> list[str]:
    """The tokens of the lines after the header, skipping blank and
    comment lines, one line at a time."""
    tokens: list[str] = []
    for line_no, line in enumerate(lines[header_line:], start=header_line + 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if suspect:
            _check_plain(line_no, stripped)
        if stripped.startswith("p"):
            raise DimacsError(f"line {line_no}: duplicate header")
        tokens.extend(stripped.split())
    return tokens


def _literal_values(tokens: list[str], n: int) -> tuple[list[int], DimacsError | None]:
    """The tokens as ints, up to the first one that is not an integer or
    whose variable exceeds `n`, and the error for that token, if any."""
    try:
        values = list(map(int, tokens))
        if not values or (max(values) <= n and min(values) >= -n):
            return values, None
    except ValueError:
        pass
    values = []
    for token in tokens:
        try:
            value = int(token)
        except ValueError:
            return values, DimacsError(f"non-integer token {token!r} in clause data")
        if abs(value) > n:
            return values, DimacsError(f"literal {value} exceeds declared variable count {n}")
        values.append(value)
    return values, None


def emit_dimacs(formula: Formula) -> str:
    """Serialize to DIMACS CNF.

    The declared variable count is the largest universe id, so parsing the
    output reproduces the universe exactly whenever it is contiguous from 1
    (true for every generator in this package).
    """
    n = max(formula.universe, default=0)
    lines = [f"p cnf {n} {formula.num_clauses}"]
    lines += [" ".join(map(str, (*literals, 0))) for literals in formula.literals]
    return "\n".join(lines) + "\n"


# One clause line as `emit_dimacs` writes it, newline included.
_EMITTED_CLAUSE = re.compile(r"(?:-?[1-9][0-9]* )*0\n")


def is_emitted(text: str, formula: Formula) -> bool:
    """Whether `text`, which `parse_dimacs` read as `formula`, is exactly
    `emit_dimacs(formula)`: the header line is `p cnf n m`, the parse kept
    every clause as written, and the lines after it are clause lines in
    emitted form, each ending in a newline.

    The pattern matches one line at a time and removing every match must
    leave nothing: one pattern repeated over the whole body would
    backtrack through a stack as large as the text.
    """
    if not formula.as_written:
        return False
    header, newline, body = text.partition("\n")
    n = max(formula.universe, default=0)
    return (
        header == f"p cnf {n} {formula.num_clauses}"
        and newline == "\n"
        and _EMITTED_CLAUSE.sub("", body) == ""
    )
